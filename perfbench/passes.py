"""One pass of a workload in a fresh interpreter.

    python3 perfbench/passes.py < job.json

``run.py`` starts one of these per pass, so every pass begins with cold
caches and its own garbage collector, as a run of ``actrchr check`` or
``actrchr explore`` does.  The job on standard input names the sources,
the kind, the depth and the `.actr` texts; with ``trace`` set, every
layer function is wrapped (see ``tracing.py``) and the spans are appended
to ``spans_out``.  The result on standard output holds each model's answer
and verdict time, the pass's wall time and the process's peak memory, and
for a traced pass the per-layer self times and counts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import tracing

CHECK = "check"


def verdict(text: str, kind: str, depth: int) -> list:
    """Text to verdict, looking each function up on its module so that
    traced passes see the wrappers: [verdict, states, transitions]."""
    from actrchr import bisim, engine, model, parser

    m = parser.parse_model(text)
    problems = model.validate(m)
    if problems:
        return ["invalid", len(problems), 0]
    if kind == CHECK:
        report = bisim.bisim_check(m, depth=depth)
        return [report.verdict, report.nodes, report.transitions]
    graph = engine.explore(m, depth=depth)
    return ["explored", len(graph.states), len(graph.edges)]


def one_pass(texts: list[str], kind: str, depth: int, run_one) -> tuple[list, list, float]:
    """Answers and verdict times of every model, and the pass's wall time.
    An exception becomes the answer ``["error", traceback, 0]``."""
    answers, times = [], []
    t0 = time.perf_counter()
    for i, text in enumerate(texts):
        t = time.perf_counter()
        try:
            answers.append(run_one(i, text, kind, depth))
        except Exception:
            answers.append(["error", traceback.format_exc(), 0])
        times.append(time.perf_counter() - t)
    return answers, times, time.perf_counter() - t0


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import actrchr  # noqa: F401  (imported before the pass starts)

    texts, kind, depth = job["texts"], job["kind"], job["depth"]
    result = {}
    if job["trace"]:
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            answers, times, wall = one_pass(
                texts, kind, depth,
                lambda i, *args: tracer.verdict(i, verdict, *args),
            )
        selfs, calls, problems = tracing.self_times(tracer.spans)
        result.update(selfs=selfs, calls=calls, out=tracer.out, problems=problems)
        with open(job["spans_out"], "a") as f:
            for s in tracer.spans:
                f.write(json.dumps([job["pass"], *s]) + "\n")
    else:
        answers, times, wall = one_pass(texts, kind, depth, lambda i, *args: verdict(*args))
    result.update(
        answers=answers,
        times=times,
        wall=wall,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
