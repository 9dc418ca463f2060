"""Production-rule models, their constraint-rule translation, and a
bounded bisimulation check between the two executions.

The package namespace holds the pipeline's entry points and the types
they return or raise; everything else is imported from its layer module
(``actrchr.core``, ``.model``, ``.parser``, ``.engine``, ``.chr``,
``.translate``, ``.bisim``).
"""

from .bisim import BisimReport, Counterexample, bisim_check
from .chr import ChrRule
from .engine import Graph, explore
from .model import Diagnostic, Model, validate
from .parser import ParseError, parse_model, print_model
from .translate import chr_of_model

__all__ = [
    "BisimReport",
    "ChrRule",
    "Counterexample",
    "Diagnostic",
    "Graph",
    "Model",
    "ParseError",
    "bisim_check",
    "chr_of_model",
    "explore",
    "parse_model",
    "print_model",
    "validate",
]
