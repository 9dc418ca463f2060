"""Command-line front end.

Subcommands: ``parse`` (validate and pretty-print), ``normalize`` (emit
the set-normal-form model), ``run`` (one seeded derivation), ``explore``
(bounded reachability graph), ``translate`` (emit the rule program) and
``check`` (bisimulation report).  Exit codes: 0 success or pass, 1
diagnostics, an unreadable model, an unwritable ``--out`` or check
failure, 2 usage error.  Diagnostics go to standard error; results go to
standard output or ``--out``.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from .bisim import bisim_check
from .chr import render_program
from .engine import (
    ArchitectureConfig,
    DEDUP_CANONICAL,
    DEDUP_EXACT,
    FAIL_NIL,
    FAIL_STUCK,
    explore,
    normalize_model,
    random_walk,
    state_fingerprint,
    to_dot,
)
from .model import Model, validate
from .parser import ParseError, parse_model, print_model
from .translate import chr_of_model

# every option a subcommand may read; each subcommand takes only its own
_OPTIONS = {
    "--depth": dict(type=int, default=16, help="step bound (default 16)"),
    "--seed": dict(type=int, default=0, help="run seed (default 0)"),
    "--dedup": dict(
        choices=(DEDUP_EXACT, DEDUP_CANONICAL),
        default=DEDUP_CANONICAL,
        help="state identification while exploring (default canonical)",
    ),
    "--fail-request": dict(
        choices=(FAIL_NIL, FAIL_STUCK),
        default=FAIL_NIL,
        help="policy for requests without answers (default nil)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="actrchr",
        description="Run production-rule models and check them against "
        "their constraint-rule translation.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    # name, help, the options it reads, its output formats (default first)
    commands = (
        ("parse", "validate a model and print its canonical form", (), ()),
        ("normalize", "print the model with every rule in set normal form", (), ()),
        ("run", "print one seeded derivation as a step trace",
         ("--depth", "--seed", "--fail-request"), ()),
        ("explore", "print the bounded reachability graph",
         ("--depth", "--dedup", "--fail-request"), ("dot", "text")),
        ("translate", "write the constraint-rule program for the model", (), ()),
        ("check", "report on the bounded bisimulation with the translation",
         ("--depth", "--fail-request"), ("text", "records")),
    )
    for name, help_text, options, formats in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("model", help="input .actr file")
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
        if formats:
            sp.add_argument(
                "--format",
                choices=formats,
                default=formats[0],
                help=f"output format (default {formats[0]})",
            )
        sp.add_argument("--out", default=None, help="output path ('-' for stdout)")
    return p


def _config(args: argparse.Namespace) -> ArchitectureConfig:
    return ArchitectureConfig(fail_request=args.fail_request)


# each command returns its output text and exit code
def _cmd_parse(model: Model, _args: argparse.Namespace) -> tuple[str, int]:
    return print_model(model), 0


def _cmd_normalize(model: Model, _args: argparse.Namespace) -> tuple[str, int]:
    return print_model(normalize_model(model)), 0


def _cmd_run(model: Model, args: argparse.Namespace) -> tuple[str, int]:
    rng = random.Random(args.seed)
    steps = random_walk(model, _config(args), args.depth, rng)
    lines = [
        f"step {n}: {label} -> {state_fingerprint(state)}"
        for n, (label, state) in enumerate(steps, 1)
    ]
    return "\n".join(lines), 0


def _cmd_explore(model: Model, args: argparse.Namespace) -> tuple[str, int]:
    graph = explore(model, _config(args), args.depth, args.dedup)
    if args.format == "dot":
        return to_dot(graph), 0
    lines = [f"state {i}: {state_fingerprint(s)}" for i, s in enumerate(graph.states)]
    lines.extend(f"edge {a} -{label}-> {b}" for a, label, b in graph.edges)
    if graph.truncated:
        lines.append("truncated at depth bound")
    return "\n".join(lines), 0


def _cmd_translate(model: Model, _args: argparse.Namespace) -> tuple[str, int]:
    return render_program(chr_of_model(model)), 0


def _cmd_check(model: Model, args: argparse.Namespace) -> tuple[str, int]:
    report = bisim_check(model, depth=args.depth, config=_config(args))
    if args.format == "records":
        text = "\n".join(report.records())
    else:
        text = ("PASS" if report.ok else "FAIL") + "\n" + report.text()
    return text, 0 if report.ok else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "normalize": _cmd_normalize,
    "run": _cmd_run,
    "explore": _cmd_explore,
    "translate": _cmd_translate,
    "check": _cmd_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if getattr(args, "depth", 0) < 0:
        print("error: --depth must be non-negative", file=sys.stderr)
        return 2
    out = args.out
    if out is None and args.command == "translate":
        out = str(Path(args.model).with_suffix(".chr"))
        if Path(out) == Path(args.model):
            print(f"error: {args.model}: the default output is the model itself; "
                  "name another with --out", file=sys.stderr)
            return 1
    try:
        # a byte-order mark some editors write is not part of the model; it
        # is dropped after decoding, so an error counts bytes from the file's start
        text = Path(args.model).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: {args.model}: {e}", file=sys.stderr)
        return 1
    try:
        model = parse_model(text)
    except ParseError as e:
        where = f"{args.model}:{e.span}: " if e.span else f"{args.model}: "
        print(f"{where}{e.message}", file=sys.stderr)
        return 1
    problems = validate(model)
    if problems:
        for d in problems:
            print(f"{args.model}:{d}", file=sys.stderr)
        return 1
    # like a shell redirection, the output opens before the command runs
    try:
        sink = nullcontext(sys.stdout) if out in (None, "-") else open(out, "w")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with sink as stream:
        text, code = _COMMANDS[args.command](model, args)
        stream.write(text if text.endswith("\n") else text + "\n")
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
