"""The benchmark's own layer checks on a few corpus models per workload.

``perfbench/tracing.py`` wraps layer functions where their callers look
them up, so a caller that captures one at import time escapes its span;
``run.layer_checks`` and ``tracing.self_times`` then report it.  A
benchmark run counts that as a failed operation, so it fails here first.
The benchmark's modules are only loaded, never changed.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODELS_PER_WORKLOAD = 10


@pytest.fixture(scope="module")
def bench():
    """``workloads``, ``tracing``, ``passes`` and ``run``, loaded by path
    under the names they import each other by."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        modules = {}
        for name in ("workloads", "tracing", "passes", "run"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        yield SimpleNamespace(**modules)


@pytest.mark.parametrize("name", ["corpus-check", "corpus-explore"])
def test_traced_layers_are_reached_and_nest(bench, name, capsys):
    wl = bench.workloads.WORKLOADS[name]
    texts = bench.workloads.model_texts(wl, 0)[:MODELS_PER_WORKLOAD]
    tracer = bench.tracing.Tracer()
    with bench.tracing.patched(tracer):
        answers = [tracer.verdict(i, bench.passes.verdict, t, wl.kind, wl.depth)
                   for i, t in enumerate(texts)]
    assert all(a[0] in ("pass", "explored") for a in answers), answers
    _, calls, problems = bench.tracing.self_times(tracer.spans)
    assert not problems, problems[:5]
    gate = bench.run.Gate()
    bench.run.layer_checks(wl, len(texts), calls, tracer.out, gate)
    assert gate.attempted and not gate.failed, capsys.readouterr().err
