#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/steady.py --workload corpus-check --seeds 1 2 3 4 5 --trace 0

Runs ``run.py`` once per workload, trace setting and seed, one run at a
time, and prints for every metric its median, first and third quartile and
spread (the distance between the quartiles as a share of the median), the
figures a before/after comparison quotes.  ``--json`` also writes them,
with the machine and the workloads' definitions, to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
from workloads import EXPECTED_TOTALS, WORKLOADS


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def runs(workload: str, trace: int, seeds: list[int], seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    units = {}
    for seed in seeds:
        cmd = [sys.executable, run.__file__, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stderr, file=sys.stderr)
            raise SystemExit(f"{workload} seed {seed}: wrong answers")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} trace {trace} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    table = {name: {"unit": units[name], **summary(v)} for name, v in values.items()}
    for name, s in table.items():
        print(f"  {workload:15s} {name:28s} median {s['median']:12.6g} {s['unit']:6s}"
              f" q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.3f}")
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)

    report = {"command": " ".join(["python3", "perfbench/steady.py", *(argv or sys.argv[1:])]),
              "machine": run.machine(), "workloads": {}}
    for name in args.workload:
        wl = WORKLOADS[name]
        entry = {
            "why": wl.why,
            "kind": wl.kind,
            "depth": wl.depth,
            "models": len(wl.model_seeds),
            "models_from": "print_model(random_model(random.Random(i))) for i in"
                           f" {wl.model_seeds[0]}..{wl.model_seeds[-1]}, relabelled by --seed",
            "totals_per_pass": EXPECTED_TOTALS[name],
            "seeds": args.seeds,
            "seconds": args.seconds,
        }
        for trace in args.trace:
            key = "per_layer" if trace else "end_to_end"
            entry[key] = runs(name, trace, args.seeds, args.seconds)
        report["workloads"][name] = entry
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
