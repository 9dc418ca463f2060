"""Spans around actrchr's layer functions, recorded from outside the package.

Each public function is wrapped where its caller looks it up: the
benchmark calls ``parse_model``, ``validate``, ``bisim_check`` and
``explore`` through their modules, ``bisim_check`` reaches the CHR and
engine layers through the names it imported, ``explore`` reaches
``successors`` and ``canonical_key`` through the engine module, and
``chr_of_model`` reaches ``normalize_model`` through the translate module.
Nothing in the package changes; the originals are restored on exit.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span name -> the (module, attribute) names it is wrapped under
LAYERS = {
    "parser.parse_model": [("actrchr.parser", "parse_model")],
    "model.validate": [("actrchr.model", "validate")],
    "bisim.bisim_check": [("actrchr.bisim", "bisim_check")],
    "engine.explore": [("actrchr.engine", "explore")],
    "engine.normalize_model": [
        ("actrchr.bisim", "normalize_model"),
        ("actrchr.translate", "normalize_model"),
    ],
    "engine.successors": [
        ("actrchr.bisim", "successors"),
        ("actrchr.engine", "successors"),
    ],
    "engine.canonical_key": [
        ("actrchr.bisim", "canonical_key"),
        ("actrchr.engine", "canonical_key"),
    ],
    "translate.chr_of_model": [("actrchr.bisim", "chr_of_model")],
    "translate.chr_of_state": [("actrchr.bisim", "chr_of_state")],
    "chr.chr_step": [("actrchr.bisim", "chr_step")],
    "chr.canonical_form": [("actrchr.bisim", "canonical_form")],
    "chr.render_state": [("actrchr.bisim", "render_state")],
}

# spans whose result length is counted as the layer's output
COUNT_OUT = frozenset(["chr.chr_step", "engine.successors"])

ROOT = "verdict"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, model id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.out: Counter = Counter()
        self._stack = [-1]
        self._model = -1

    def wrap(self, name: str, fn):
        spans, stack, count_out = self.spans, self._stack, name in COUNT_OUT

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self._model]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_out:
                self.out[name] += len(result)
            return result

        return traced

    def verdict(self, model_id: int, fn, *args):
        """Run one model's verdict under a root span tagged with its id."""
        self._model = model_id
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self._model = -1


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers on every layer function."""
    saved = []
    try:
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> tuple[Counter, Counter, list[str]]:
    """Self time and call count per span name, and any nesting violations.

    A span's self time is its duration minus its children's; children must
    lie inside their parent, and no self time may be negative.
    """
    child = [0.0] * len(spans)
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"span {i} ({name}) leaves its parent {p[0]}")
            child[parent] += end - start
    selfs: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        own = end - start - child[i]
        if own < -1e-9:
            problems.append(f"span {i} ({name}) has negative self time {own}")
        selfs[name] += own
        calls[name] += 1
    return selfs, calls, problems
