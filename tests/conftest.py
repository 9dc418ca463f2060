"""Shared fixtures: the counting model in its three usual forms, an
engine fault, and the package path for child interpreters."""

import os
from pathlib import Path

import pytest

import actrchr
import actrchr.engine
from actrchr.core import IdGen
from actrchr.engine import normalize_model
from actrchr.parser import parse_model

MODELS = Path(__file__).parents[1] / "models"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child interpreters (``python -m actrchr.cli``) import the package
    these tests import, whether it is installed or not."""
    package_dir = Path(actrchr.__file__).resolve().parents[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(package_dir), prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def counting_path() -> Path:
    return MODELS / "counting.actr"


@pytest.fixture(scope="session")
def counting_src(counting_path) -> str:
    return counting_path.read_text()


@pytest.fixture(scope="session")
def counting_model(counting_src):
    return parse_model(counting_src)


@pytest.fixture(scope="session")
def counting_norm(counting_model):
    return normalize_model(counting_model)


@pytest.fixture()
def fresh_ids_restarting(monkeypatch):
    """Engine fault: every abstract step draws fresh ids from c#0 again."""
    interpret_rule = actrchr.engine.interpret_rule
    monkeypatch.setattr(
        actrchr.engine,
        "interpret_rule",
        lambda rule, theta, state, config, _ids: interpret_rule(
            rule, theta, state, config, IdGen()
        ),
    )
