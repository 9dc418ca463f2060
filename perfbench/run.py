#!/usr/bin/env python3
"""Benchmark for actrchr: time to verdict and states per second.

    python3 perfbench/run.py --workload corpus-check --seed 0 --seconds 55 --trace 0

One client runs a closed loop: each model goes from `.actr` text to a
verdict (``parse_model``, ``validate``, then ``bisim_check`` or
``explore``, as ``actrchr check|explore`` does without process start-up)
only after the previous verdict.  A pass takes every model of the workload
once, in a fresh interpreter (``passes.py``), so that caches start cold as
they do for the command line; passes follow each other until the next
would not finish within ``--seconds``, and the first always runs.
Each metric is the median over the passes of the pass's own figure: its
states over its wall time, and the percentiles of its verdict times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, which record a span around every layer
function (see ``tracing.py``), and reports per-layer self time and counts.
Every verdict and count is checked against a known answer; the last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import CHECK, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PASSES = HERE / "passes.py"
SPANS_DIR = HERE / "out"
# The machine's speed moves within seconds, so set-up is sampled after
# every pass rather than in one burst.
IMPORTS_PER_PASS = 5

END_TO_END = {
    "states_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer self-time metric -> the span name it reports
SELF_TIMES = {
    "chr.chr_step_s": "chr.chr_step",
    "chr.canonical_form_s": "chr.canonical_form",
    "translate.chr_of_state_s": "translate.chr_of_state",
    "translate.chr_of_model_s": "translate.chr_of_model",
    "engine.normalize_model_s": "engine.normalize_model",
    "parser.parse_model_s": "parser.parse_model",
    "model.validate_s": "model.validate",
    "engine.successors_s": "engine.successors",
    "engine.canonical_key_s": "engine.canonical_key",
    "engine.explore_self_s": "engine.explore",
    "bisim.self_s": "bisim.bisim_check",
}
CALLS = {
    "chr.chr_step_calls": "chr.chr_step",
    "chr.canonical_form_calls": "chr.canonical_form",
    "translate.chr_of_state_calls": "translate.chr_of_state",
    "engine.successors_calls": "engine.successors",
    "engine.canonical_key_calls": "engine.canonical_key",
}
OUTS = {"chr.chr_step_out": "chr.chr_step", "engine.successors_out": "engine.successors"}

# layers every traced pass of a workload kind must reach
REACHED = {
    CHECK: ["parser.parse_model", "model.validate", "bisim.bisim_check",
            "engine.normalize_model", "engine.successors", "engine.canonical_key",
            "translate.chr_of_model", "translate.chr_of_state",
            "chr.chr_step", "chr.canonical_form"],
    workloads.EXPLORE: ["parser.parse_model", "model.validate", "engine.explore",
                        "engine.successors", "engine.canonical_key"],
}


class Gate:
    """Operations attempted and failed; a failure is a wrong answer or an
    exception, reported on standard error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"wrong: {what}", file=sys.stderr)

    def error(self, what: str, trace: str | None = None) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"error: {what}\n{trace or traceback.format_exc()}", file=sys.stderr)


def reference(texts: list[str], kind: str, depth: int) -> list:
    """Known answers: a check passes with as many pairs as the engine alone
    explores states at the same depth; explore answers are taken from the
    first pass and must repeat."""
    if kind != CHECK:
        return [None] * len(texts)
    from actrchr.engine import explore
    from actrchr.parser import parse_model

    return [["pass", len(explore(parse_model(t), depth=depth).states)] for t in texts]


def probes(gate: Gate) -> None:
    """The counting model passes with 6 pairs and 10 transitions, and the
    pass-through model fails backward against a translation that drops its
    pass-through constraints."""
    from actrchr.bisim import BACKWARD, bisim_check, drop_passthrough_gammas
    from actrchr.parser import parse_model
    from actrchr.translate import chr_of_model

    try:
        r = bisim_check(parse_model(workloads.COUNTING_SRC), depth=16)
        gate.check((r.verdict, r.nodes, r.transitions) == ("pass", 6, 10),
                   f"counting model: {r.verdict}, {r.nodes} pairs, {r.transitions} transitions")
    except Exception:
        gate.error("counting model")
    try:
        m = parse_model(workloads.PASSTHROUGH_SRC)
        r = bisim_check(m, depth=3, program=drop_passthrough_gammas(chr_of_model(m)))
        gate.check(not r.ok and any(c.direction == BACKWARD for c in r.counterexamples),
                   "pass-through fault injection was not caught backward")
    except Exception:
        gate.error("pass-through probe")


class Answers:
    """Checks every verdict against the reference and the model's first
    answer, so that all passes, traced or not, must agree exactly."""

    def __init__(self, gate: Gate, refs: list) -> None:
        self.gate = gate
        self.refs = refs
        self.first: list = [None] * len(refs)

    def record(self, answers: list) -> None:
        for i, out in enumerate(answers):
            if out[0] == "error":
                self.gate.error(f"model {i}", out[1])
                continue
            ref, first = self.refs[i], self.first[i]
            if first is None:
                self.first[i] = out
            self.gate.check(
                (ref is None or out[:2] == ref) and (first is None or out == first),
                f"model {i}: {out}; engine-only reference {ref}, first answer {first}",
            )

    def totals(self, name: str) -> tuple[int, int]:
        states = sum(a[1] for a in self.first if a)
        steps = sum(a[2] for a in self.first if a)
        expected = workloads.EXPECTED_TOTALS[name]
        self.gate.check((states, steps) == expected,
                        f"totals {(states, steps)} against {expected}")
        return states, steps


def run_pass(job: dict) -> dict:
    out = subprocess.run([sys.executable, str(PASSES)], input=json.dumps(job),
                         capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"pass failed with code {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


def closed_loop(seconds: float, jobs: list[dict], between=None) -> list[list[dict]]:
    """Run the jobs in turn, one pass each, until the next would not finish
    in time, judged by that job's previous pass.  ``between`` is called
    after every pass.  The results per job."""
    results: list[list[dict]] = [[] for _ in jobs]
    took = [0.0] * len(jobs)
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        for j, job in enumerate(jobs):
            if results[j] and time.perf_counter() + took[j] > deadline:
                return results
            t0 = time.perf_counter()
            results[j].append(run_pass({**job, "pass": p}))
            took[j] = time.perf_counter() - t0
            p += 1
            if between:
                between()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_times(n: int) -> list[float]:
    """Wall times of ``import actrchr`` in ``n`` fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        " import actrchr; print(time.perf_counter() - t, actrchr.__file__)"
    )
    cmd = [sys.executable, "-I", "-c", code, str(SRC)]
    times = []
    for _ in range(n):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        seconds, where = out.stdout.split()
        if not Path(where).is_relative_to(SRC):
            raise RuntimeError(f"imported actrchr from {where}, not {SRC}")
        times.append(float(seconds))
    return times


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def end_to_end(wl, job, seconds, gate) -> dict:
    answers = Answers(gate, reference(job["texts"], wl.kind, wl.depth))
    import_times(1)  # fills the bytecode cache
    setup: list[float] = []
    [passes] = closed_loop(seconds, [{**job, "trace": False}],
                           between=lambda: setup.extend(import_times(IMPORTS_PER_PASS)))
    for r in passes:
        answers.record(r["answers"])
    states, steps = answers.totals(wl.name)
    print(f"models {len(job['texts'])}, {len(passes)} passes in fresh interpreters;"
          f" {states} states, {steps} transitions per pass")
    print(f"verdict percentiles over n={len(job['texts'])} verdicts per pass;"
          f" setup_s over n={len(setup)} imports of actrchr")
    return {
        "states_per_s": statistics.median(states / r["wall"] for r in passes),
        "verdict_p50_ms": statistics.median(percentile(r["times"], 50) for r in passes) * 1e3,
        "verdict_p95_ms": statistics.median(percentile(r["times"], 95) for r in passes) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        "setup_s": statistics.median(setup),
    }


def layer_checks(wl, n_models: int, calls: dict, out: dict, gate: Gate) -> None:
    """Invariants of the traced counts that fail when a layer call escapes
    its wrapper: every layer of the workload's kind is reached, and the
    calls that a pass makes per model and per successor add up."""
    for name in REACHED[wl.kind]:
        gate.check(calls.get(name, 0) > 0, f"layer {name} never reached")
    if wl.kind == CHECK:
        # one form of the initial store, one per abstract and per CHR successor
        gate.check(calls.get("chr.canonical_form", 0)
                   == calls.get("translate.chr_of_state", 0) + out.get("chr.chr_step", 0),
                   "canonical_form calls != chr_of_state calls + chr_step results")
        gate.check(calls.get("chr.chr_step", 0) == calls.get("engine.successors", 0),
                   "chr_step and successors are not called once per expanded pair")
    else:
        # one key of the initial state and one per successor
        gate.check(calls.get("engine.canonical_key", 0)
                   == out.get("engine.successors", 0) + n_models,
                   "canonical_key calls != successors results + models")


def per_layer(wl, job, seconds, gate, spans_out: Path) -> dict:
    """Untraced and traced passes in turn while another pair fits in time.
    Traced and untraced answers must agree, spans must nest, and the traced
    counts must repeat and satisfy ``layer_checks``.  Self times are the
    medians over traced passes; the overhead compares median pass walls."""
    answers = Answers(gate, reference(job["texts"], wl.kind, wl.depth))
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w") as f:
        f.write(json.dumps(["pass", "name", "start", "end", "parent", "model"]) + "\n")
    plain, traced = closed_loop(seconds, [
        {**job, "trace": False},
        {**job, "trace": True, "spans_out": str(spans_out)},
    ])
    for r in plain + traced:
        answers.record(r["answers"])
    for r in traced:
        gate.check(not r["problems"], "; ".join(r["problems"][:5]))
    counts = [(r["calls"], r["out"]) for r in traced]
    gate.check(all(c == counts[0] for c in counts), "counts differ between traced passes")
    calls, out = counts[0]
    layer_checks(wl, len(job["texts"]), calls, out, gate)
    states, steps = answers.totals(wl.name)

    metrics = {
        name: statistics.median(r["selfs"].get(span, 0.0) for r in traced)
        for name, span in SELF_TIMES.items()
    }
    metrics.update({name: calls.get(span, 0) for name, span in CALLS.items()})
    metrics.update({name: out.get(span, 0) for name, span in OUTS.items()})
    pairs, transitions = (states, steps) if wl.kind == CHECK else (0, 0)
    metrics["bisim.pairs"] = pairs
    metrics["bisim.transitions"] = transitions
    metrics["bisim.new_state_ratio"] = pairs / out.get("engine.successors", 1) if pairs else 0.0
    metrics["bisim.forms_per_pair"] = calls.get("chr.canonical_form", 0) / pairs if pairs else 0.0
    wall = statistics.median(r["wall"] for r in traced)
    metrics["trace.overhead_ratio"] = wall / statistics.median(r["wall"] for r in plain)

    print(f"models {len(job['texts'])}, {len(plain)} untraced and {len(traced)} traced"
          f" passes; {states} states, {steps} transitions per pass")
    print(f"traced wall {wall:.3f} s per pass (median); self time shares:")
    for name in SELF_TIMES:
        print(f"  {name:28s} {100 * metrics[name] / wall:5.1f} %")
    print(f"spans written to {spans_out}")
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_pair"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "actrchr" / "__init__.py").is_file():
        print(f"error: no actrchr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    job = {"src": str(SRC), "kind": wl.kind, "depth": wl.depth,
           "texts": workloads.model_texts(wl, args.seed)}
    print(f"workload {wl.name}: {wl.kind} at depth {wl.depth}, seed {args.seed},"
          f" {args.seconds:g} s, trace {args.trace}; one client, closed loop")
    print("machine " + json.dumps(machine()))

    gate = Gate()
    probes(gate)
    if args.trace:
        spans_out = SPANS_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        metrics = per_layer(wl, job, args.seconds, gate, spans_out)
    else:
        metrics = end_to_end(wl, job, args.seconds, gate)

    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {unit_of(name)}")
    print(f"{'error_share':30s} {gate.failed / gate.attempted:14.6g} ratio"
          f" ({gate.failed} of {gate.attempted} operations)")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
