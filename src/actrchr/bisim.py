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
engine's on chunk terms.  Each side has its own :class:`~actrchr.engine.Run`;
only the abstract side's memoizes rule effects, and the CHR side's leaves
its memo unread until that side has a memo of its own.  So the memo adds
nothing shared: a wrong memo key shows as a counterexample.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

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
from .core import CoreError, TypeTable
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


@dataclass(frozen=True)
class Counterexample:
    """One failed transition match at a related pair.

    ``missing`` renders the transition that found no counterpart and
    ``nearest`` the closest same-label candidate on the other side, empty
    when that side has no transition with the label at all.
    """

    direction: str
    depth: int
    label: str
    state: AbstractState
    chr_state: ChrState
    missing: str
    nearest: str = ""

    def __str__(self) -> str:
        msg = f"{self.direction} mismatch at depth {self.depth}"
        if self.label:
            msg += f" on label {self.label}"
        msg += f": {self.missing}"
        if self.nearest:
            msg += f" (nearest candidate: {self.nearest})"
        return msg


@dataclass
class BisimReport:
    """Outcome of a bounded check; passes iff no counterexamples."""

    depth: int
    nodes: int = 0
    transitions: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    states: list[AbstractState] = field(default_factory=list)

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
        eng_count = Counter((label, form) for label, form, _ in eng)
        chr_count = Counter((label, form) for label, form, _ in chrs)
        # the first translated successor of each class is its mate
        mates = {(label, form): c2 for label, form, c2 in reversed(chrs)}

        for label, form, s2 in eng:
            if (label, form) not in mates:
                nearest = next(
                    (render_state(c2) for l2, _, c2 in chrs if l2 == label), ""
                )
                report.counterexamples.append(
                    Counterexample(
                        FORWARD, d, label, s, c,
                        render_state(chr_of_state(s2)), nearest,
                    )
                )
        for label, form, c2 in chrs:
            if not eng_count[(label, form)]:
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

        for (label, form), n in eng_count.items():
            m = chr_count[(label, form)]
            if m and n != m:
                report.counterexamples.append(
                    Counterexample(
                        BIJECTION, d, label, s, c,
                        f"{n} abstract vs {m} translated successors in one class",
                    )
                )
        return [(label, form, (s2, mates[label, form])) for label, form, s2 in eng
                if (label, form) in mates]

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
        replace(r, body_user=tuple(c for c in r.body_user if c not in r.removed))
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
