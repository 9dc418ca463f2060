"""Translation of production models into CHR programs.

A state becomes one ``delta/1`` constraint holding the encoded chunk store
plus one ``gamma/3`` constraint per buffer.  Every rule becomes a
simplification rule that removes and rebuilds the whole state: the guard
checks the buffer tests by membership in the store encoding, the body
recomputes the store with ``action``/``merge``/``map`` built-ins and
re-emits every buffer's ``gamma``.  A generic ``no`` rule that reveals one
pending buffer closes the program.  Chunk, store, action and test-pattern
terms come from the codec in :mod:`actrchr.chr`, in one slot order.

Rules must be in set normal form before translation
(:func:`actrchr.engine.set_normal_form`); :func:`chr_of_model` normalises
the model itself.  Output is deterministic: translating the same model
twice yields identical programs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chr import (
    ChrRule,
    ChrState,
    Compound,
    TList,
    builtin,
    delta_c,
    encode_action,
    encode_cogstate,
    encode_pairs,
    encode_store,
    fact_constraint,
    gamma_c,
)
from .core import Symbol, TypeTable, Variable
from .engine import is_normal_form, normalize_model
from .model import AbstractState, Model, Rule


class TranslationError(Exception):
    pass


class NotNormalized(TranslationError):
    """Only set-normal-form rules translate."""


@dataclass(frozen=True)
class VarPlan:
    """Deterministic generated variables of one translated rule.

    Per buffer b: C_<b> (head chunk), V_<b> (head delay), Dres_<b> /
    Cres_<b> / Eres_<b> (action results), M_<b> (post-merge id); plus the
    store variables D, Dacts, Dnew and the buffer-sorted cognitive-state
    pattern handed to ``action``.  Names are suffixed with '_' until
    disjoint from the rule's own variables.
    """

    store: Variable
    acts: Variable
    result: Variable
    cvar: dict[Symbol, Variable]
    dvar: dict[Symbol, Variable]
    resstore: dict[Symbol, Variable]
    resid: dict[Symbol, Variable]
    resdelay: dict[Symbol, Variable]
    mergeid: dict[Symbol, Variable]
    cogstate: TList


def build_var_plan(rule: Rule, buffers: tuple[Symbol, ...]) -> VarPlan:
    taken = {v.name for v in rule.lhs_vars() | rule.rhs_vars()}

    def fresh(name: str) -> Variable:
        while name in taken:
            name += "_"
        taken.add(name)
        return Variable(name)

    def per_buffer(prefix: str) -> dict[Symbol, Variable]:
        return {b: fresh(f"{prefix}{b.name}") for b in buffers}

    cvar = per_buffer("C_")
    dvar = per_buffer("V_")
    return VarPlan(
        store=fresh("D"),
        acts=fresh("Dacts"),
        result=fresh("Dnew"),
        cvar=cvar,
        dvar=dvar,
        resstore=per_buffer("Dres_"),
        resid=per_buffer("Cres_"),
        resdelay=per_buffer("Eres_"),
        mergeid=per_buffer("M_"),
        cogstate=encode_cogstate((b, cvar[b], dvar[b]) for b in buffers),
    )


def chr_of_state(state: AbstractState, types: TypeTable) -> ChrState:
    """delta(<store>) plus one gamma per buffer, all ground; facts become
    the built-in store."""
    goal = [delta_c(encode_store(state.store, types))]
    for b, c, d in state.gamma:
        goal.append(gamma_c(b, c, d))
    return ChrState(tuple(goal), tuple(fact_constraint(a) for a in state.upsilon))


def chr_of_rule(rule: Rule, buffers: tuple[Symbol, ...], types: TypeTable) -> ChrRule:
    """Translate one set-normal-form rule.

    Head: the delta constraint and every buffer's gamma.  Guard: one store
    membership per test plus a zero-delay check.  Body: the rebuilt delta,
    updated gammas for action buffers, pass-through gammas for the rest,
    and the action/merge/map chain that computes them.
    """
    if not is_normal_form(rule, types):
        raise NotNormalized(f"rule {rule.name} is not in set normal form")
    plan = build_var_plan(rule, buffers)

    head = [delta_c(plan.store)]
    for b in buffers:
        head.append(gamma_c(b, plan.cvar[b], plan.dvar[b]))

    guard = []
    for t in rule.tests:
        pairs = encode_pairs(t.type, t.pairs, types)
        pattern = Compound("chunk", (plan.cvar[t.buffer], t.type, pairs))
        guard.append(builtin("in", pattern, plan.store))
        guard.append(builtin("=", plan.dvar[t.buffer], 0))

    action_buffers = [a.buffer for a in rule.actions]
    body_builtin = []
    for a in rule.actions:
        body_builtin.append(
            builtin(
                "action",
                encode_action(a, types),
                plan.store,
                plan.cogstate,
                plan.resstore[a.buffer],
                plan.resid[a.buffer],
                plan.resdelay[a.buffer],
            )
        )
    body_builtin.append(
        builtin("merge", TList(tuple(plan.resstore[b] for b in action_buffers)), plan.acts)
    )
    body_builtin.append(builtin("merge", TList((plan.store, plan.acts)), plan.result))
    for a in rule.actions:
        body_builtin.append(
            builtin("map", plan.store, plan.acts, plan.resid[a.buffer], plan.mergeid[a.buffer])
        )

    body_user = [delta_c(plan.result)]
    for b in buffers:
        if b in action_buffers:
            body_user.append(gamma_c(b, plan.mergeid[b], plan.resdelay[b]))
        else:
            body_user.append(gamma_c(b, plan.cvar[b], plan.dvar[b]))

    return ChrRule(
        name=rule.name,
        removed=tuple(head),
        guard=tuple(guard),
        body_user=tuple(body_user),
        body_builtin=tuple(body_builtin),
    )


def no_rule() -> ChrRule:
    """The generic rule revealing one pending buffer."""
    b, c, d = Variable("B"), Variable("C"), Variable("D")
    return ChrRule(
        name="no",
        removed=(gamma_c(b, c, d),),
        guard=(builtin(">", d, 0),),
        body_user=(gamma_c(b, c, 0),),
        body_builtin=(),
    )


def chr_of_model(model: Model) -> tuple[ChrRule, ...]:
    """The full program: one rule per (normalised, kept) model rule, the
    generic ``no`` rule last."""
    normalized = normalize_model(model)
    rules = [chr_of_rule(r, model.buffers, model.types) for r in normalized.rules]
    rules.append(no_rule())
    return tuple(rules)
