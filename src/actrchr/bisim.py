"""Depth-bounded bisimulation between a model and its translation.

Starting from a model state and its translation, every related pair must
agree on its labelled transitions: each abstract step needs a translated
step with the same label landing in an equivalent state, and vice versa.
Both sides meet in the engine's canonical key: abstract successors are
keyed by :func:`~actrchr.engine.canonical_key`, translated ones by
:func:`~actrchr.chr.canonical_form`, which is the canonical key of the
abstract state a translated state encodes.  A translated successor
outside that shape has no key and becomes an ``error`` counterexample
naming what breaks it.  Only the root is translated, so a faulty state
translation cannot cancel out on both sides.  Per label the successor
classes must also correspond one to one, which checks the per-rule effect
correspondence at every visited pair.  Matched pairs are searched by
:func:`~actrchr.engine.breadth_first`, the search behind ``explore``.
:func:`effect_lemma_check` states that correspondence for one rule and one
state, through the same step relation (:func:`~actrchr.chr.chr_step`) and
the same keys.

What the two sides share, and so what the check cannot test: the request
handlers (:func:`~actrchr.engine.interpret_request`, a parameter of the
semantics), the canonical key, the key parts a merged store derives
(:meth:`~actrchr.core.ChunkStore.adding`; two ``TestKeyParts`` tests check
them), and the facts: the translated root's built-in store is the
abstract root's fact tuple object, and both sides hold facts as
:class:`~actrchr.model.Atom`.  Rule matching, modification, the store
merge and the fresh-id supply (one generator per side and run) are
separate code on each side: the engine's on chunks and stores, the CHR
engine's on chunk terms.  Each side has its own :class:`~actrchr.engine.Run`
and memo: the abstract side's memoizes rule effects, keyed over chunks,
and the CHR side's the ``action`` built-in, keyed over chunk terms by code
of its own.  So the memos add nothing shared: a wrong key on either side
shows as a counterexample.

Per pair, each successor's (label, form) class is hashed once: the
classes are numbered in the order the abstract side meets them, and the
matching counts, mates and reports on those numbers.
"""

from __future__ import annotations

from collections import Counter

from .chr import (
    ChrError,
    ChrRule,
    ChrState,
    Undecided,
    canonical_form,
    chr_step,
    render_state,
)
from .chr import fresh_gen_for as chr_fresh_gen_for
from .core import CoreError, Record, TypeTable
from .engine import (
    DROPPED,
    ArchitectureConfig,
    EngineError,
    NO_LABEL,
    Run,
    apply_label,
    apply_transition,
    breadth_first,
    canonical_key,
    fresh_gen_for,
    interpret_rule,
    match_rule,
    normalize_model,
    set_normal_form,
    successors,
)
from .model import AbstractState, Model, Rule
from .translate import chr_of_model, chr_of_rule, chr_of_state

FORWARD = "forward"
BACKWARD = "backward"
BIJECTION = "bijection"
UNDECIDED = "undecided"
ERROR = "error"
MAX_COUNTEREXAMPLES = 10


class Counterexample(Record):
    """One failed transition match at a related pair.

    ``missing`` renders the transition that found no counterpart and
    ``nearest`` the closest same-label candidate on the other side, empty
    when that side has no transition with the label at all.
    """

    __slots__ = ("direction", "depth", "label", "state", "chr_state", "missing", "nearest")

    def __init__(self, direction: str, depth: int, label: str, state: AbstractState,
                 chr_state: ChrState, missing: str, nearest: str = "") -> None:
        self.direction, self.depth, self.label, self.state = direction, depth, label, state
        self.chr_state, self.missing, self.nearest = chr_state, missing, nearest

    def __str__(self) -> str:
        msg = f"{self.direction} mismatch at depth {self.depth}"
        if self.label:
            msg += f" on label {self.label}"
        msg += f": {self.missing}"
        if self.nearest:
            msg += f" (nearest candidate: {self.nearest})"
        return msg


class BisimReport(Record):
    """Outcome of a bounded check; passes iff no counterexamples."""

    __slots__ = ("depth", "nodes", "transitions", "counterexamples", "states")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, depth: int, nodes: int = 0, transitions: int = 0,
                 counterexamples: list[Counterexample] | None = None,
                 states: list[AbstractState] | None = None) -> None:
        self.depth, self.nodes, self.transitions = depth, nodes, transitions
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.states = [] if states is None else states

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"depth: {self.depth}",
            f"pairs: {self.nodes}",
            f"transitions: {self.transitions}",
        ]
        lines.extend(f"  {c}" for c in self.counterexamples)
        return "\n".join(lines)

    def records(self) -> list[str]:
        import json  # here, so that importing the package does not load it

        head = {
            "record": "summary",
            "verdict": self.verdict,
            "depth": self.depth,
            "pairs": self.nodes,
            "transitions": self.transitions,
        }
        out = [json.dumps(head, sort_keys=True)]
        for c in self.counterexamples:
            out.append(
                json.dumps(
                    {
                        "record": "counterexample",
                        "direction": c.direction,
                        "depth": c.depth,
                        "label": c.label,
                        "missing": c.missing,
                        "nearest": c.nearest,
                    },
                    sort_keys=True,
                )
            )
        return out


def _engine_label(chr_rule_name: str) -> str:
    return NO_LABEL if chr_rule_name == NO_LABEL else apply_label(chr_rule_name)


def bisim_check(
    model: Model,
    depth: int = 3,
    config: ArchitectureConfig | None = None,
    program: tuple[ChrRule, ...] | None = None,
) -> BisimReport:
    """Check mutual transition matching to the given depth.

    The model runs normalized on both sides; ``program`` overrides the
    translation, which is how fault-injection tests feed a broken one.  A
    rule outside the fragment the CHR engine plans raises
    :class:`~actrchr.chr.ChrError` when it is made, before any check, as
    a :class:`~actrchr.translate.TranslationError` does for a model.
    An Undecided equivalence judgement, and any other chunk-store, engine
    or CHR error raised by either side's step (a missing handler, an answer
    naming a fresh id), is reported as a failure rather than raised.  The
    check stops once it has found :data:`MAX_COUNTEREXAMPLES`.
    """
    config = config or ArchitectureConfig()
    norm = normalize_model(model)
    prog = tuple(program) if program is not None else chr_of_model(model)
    s0 = norm.initial_state()
    c0 = chr_of_state(s0)
    run, chr_run = Run(config, fresh_gen_for(s0)), Run(config, chr_fresh_gen_for(c0))
    report = BisimReport(depth=depth)

    def expand(pair: tuple[AbstractState, ChrState], d: int):
        """Matched successor pairs keyed by form; mismatches are recorded."""
        s, c = pair
        side = "abstract"
        try:
            eng = [
                (label, canonical_key(s2), s2)
                for label, s2 in successors(s, norm, run)
            ]
            side = "translated"
            chrs = [
                (_engine_label(name), canonical_form(c2), c2)
                for name, c2 in chr_step(c, prog, chr_run)
            ]
        except (ChrError, CoreError, EngineError) as e:
            if isinstance(e, Undecided):
                cx = Counterexample(UNDECIDED, d, "", s, c, str(e))
            else:
                what = f"{side} step raised {type(e).__name__}: {e}"
                cx = Counterexample(ERROR, d, "", s, c, what)
            report.counterexamples.append(cx)
            return []
        report.transitions += len(eng) + len(chrs)
        # number each (label, form) class once, in the order the abstract
        # side first meets it, and match the two sides on those numbers
        classes: dict = {}
        eng_class = [classes.setdefault((label, form), len(classes)) for label, form, _ in eng]
        eng_count = [0] * len(classes)
        for k in eng_class:
            eng_count[k] += 1
        chr_count = [0] * len(classes)
        mates: list = [None] * len(classes)  # the first translated successor of each class
        unmatched = []
        for label, form, c2 in chrs:
            k = classes.get((label, form))
            if k is None:
                unmatched.append((label, c2))
                continue
            if not chr_count[k]:
                mates[k] = c2
            chr_count[k] += 1

        for (label, _, s2), k in zip(eng, eng_class):
            if not chr_count[k]:
                nearest = next(
                    (render_state(c2) for l2, _, c2 in chrs if l2 == label), ""
                )
                report.counterexamples.append(
                    Counterexample(
                        FORWARD, d, label, s, c,
                        render_state(chr_of_state(s2)), nearest,
                    )
                )
        for label, c2 in unmatched:
            nearest = next(
                (
                    render_state(chr_of_state(s2))
                    for l2, _, s2 in eng
                    if l2 == label
                ),
                "",
            )
            report.counterexamples.append(
                Counterexample(
                    BACKWARD, d, label, s, c, render_state(c2), nearest
                )
            )

        for (label, _), n, m in zip(classes, eng_count, chr_count):
            if m and n != m:
                report.counterexamples.append(
                    Counterexample(
                        BIJECTION, d, label, s, c,
                        f"{n} abstract vs {m} translated successors in one class",
                    )
                )
        return [(label, form, (s2, mates[k])) for (label, form, s2), k in zip(eng, eng_class)
                if chr_count[k]]

    for _, (s, _), _ in breadth_first((s0, c0), canonical_form(c0), expand, depth):
        if len(report.counterexamples) >= MAX_COUNTEREXAMPLES:
            break
        report.nodes += 1
        report.states.append(s)
    return report


def drop_passthrough_gammas(program: tuple[ChrRule, ...]) -> tuple[ChrRule, ...]:
    """Broken variant of a translated program for fault-injection tests:
    body constraints that restate a head constraint verbatim (the buffer
    pass-throughs) are removed."""
    return tuple(
        ChrRule(r.name, r.removed, r.guard, tuple(c for c in r.body_user if c not in r.removed),
                r.body_builtin)
        for r in program
    )


def effect_lemma_check(
    rule: Rule,
    state: AbstractState,
    types: TypeTable,
    config: ArchitectureConfig | None = None,
) -> bool:
    """The translated rule's CHR steps from the translated state correspond
    one to one with the rule's interpreted effects in the state.

    The abstract side applies each effect of the normalised rule; the CHR
    side runs :func:`~actrchr.chr.chr_step` with the translated rule alone.
    Both successor sets are compared as multisets of canonical keys, the
    CHR side's through :func:`~actrchr.chr.canonical_form`.
    Holds vacuously when the rule matches nowhere in the state on both
    sides (a rule that normalises to :data:`~actrchr.engine.DROPPED` has no
    translation and no effect); disagreement on matching itself also fails
    the check.
    """
    config = config or ArchitectureConfig()
    nf = set_normal_form(rule, types)
    if nf is DROPPED:
        return True
    theta = match_rule(nf, state)
    effects = (
        interpret_rule(nf, theta, state, config, fresh_gen_for(state))
        if theta is not None
        else []
    )
    eng_records = Counter(canonical_key(apply_transition(state, e)) for e in effects)
    program = (chr_of_rule(nf, state.buffers(), types),)
    c = chr_of_state(state)
    steps = chr_step(c, program, Run(config, chr_fresh_gen_for(c)))
    return eng_records == Counter(canonical_form(c2) for _, c2 in steps)
