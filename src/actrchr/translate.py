"""Translation of production models into CHR programs.

A state becomes one ``delta/1`` constraint holding the encoded chunk store
plus one ``gamma/3`` constraint per buffer.  Every rule becomes a
simplification rule that removes and rebuilds the whole state: the guard
checks the buffer tests by membership in the store encoding, the body
recomputes the store with ``action``/``merge``/``map`` built-ins and
re-emits every buffer's ``gamma``.  A generic ``no`` rule that reveals one
pending buffer closes the program.  Chunk, store, action and test-pattern
terms come from the codec in :mod:`actrchr.chr`, which lists slots in name
order.  A type's declared slot order is for text (the parser and printer),
so two models that differ only in it translate alike, up to the names set
normal form gives the variables of unmentioned slots.  The type table is
read only to check that a rule is in set normal form.

Rules must be in set normal form before translation
(:func:`actrchr.engine.set_normal_form`); :func:`chr_of_model` normalises
the model itself.  Output is deterministic: translating the same model
twice yields identical programs.
"""

from __future__ import annotations

from .chr import (
    ChrRule,
    ChrState,
    Compound,
    TList,
    constraint,
    delta_c,
    encode_action,
    encode_cogstate,
    encode_pairs,
    encode_store,
    gamma_c,
)
from .core import Symbol, TypeTable, Variable
from .engine import is_normal_form, normalize_model
from .model import AbstractState, Model, Rule


class TranslationError(Exception):
    pass


class NotNormalized(TranslationError):
    """Only set-normal-form rules translate."""


def chr_of_state(state: AbstractState) -> ChrState:
    """delta(<store>) plus one gamma per buffer, all ground, beside the
    state's fact tuple itself as the built-in store."""
    goal = [delta_c(encode_store(state.store))]
    for b, c, d in state.gamma:
        goal.append(gamma_c(b, c, d))
    return ChrState(tuple(goal), state.upsilon)


def chr_of_rule(rule: Rule, buffers: tuple[Symbol, ...], types: TypeTable) -> ChrRule:
    """Translate one set-normal-form rule.

    Head: the delta constraint and every buffer's gamma.  Guard: one store
    membership per test plus a zero-delay check.  Body: the rebuilt delta,
    updated gammas for action buffers, pass-through gammas for the rest,
    and the action/merge/map chain that computes them.  Generated variable
    names are suffixed with '_' until disjoint from the rule's own.
    """
    if not is_normal_form(rule, types):
        raise NotNormalized(f"rule {rule.name} is not in set normal form")
    taken = {v.name for v in rule.lhs_vars() | rule.rhs_vars()}

    def fresh(name: str) -> Variable:
        while name in taken:
            name += "_"
        taken.add(name)
        return Variable(name)

    def per_buffer(prefix: str) -> dict[Symbol, Variable]:
        return {b: fresh(f"{prefix}{b.name}") for b in buffers}

    # the order of these calls decides which name gains a '_' on a clash
    cvar, dvar = per_buffer("C_"), per_buffer("V_")
    store, acts, result = fresh("D"), fresh("Dacts"), fresh("Dnew")
    resstore, resid = per_buffer("Dres_"), per_buffer("Cres_")
    resdelay, mergeid = per_buffer("Eres_"), per_buffer("M_")
    cogstate = encode_cogstate((b, cvar[b], dvar[b]) for b in buffers)

    head = [delta_c(store)]
    for b in buffers:
        head.append(gamma_c(b, cvar[b], dvar[b]))

    guard = []
    for t in rule.tests:
        pattern = Compound("chunk", (cvar[t.buffer], t.type, encode_pairs(t.pairs)))
        guard.append(constraint("in", pattern, store))
        guard.append(constraint("=", dvar[t.buffer], 0))

    action_buffers = [a.buffer for a in rule.actions]
    body_builtin = []
    for a in rule.actions:
        b = a.buffer
        body_builtin.append(
            constraint("action", encode_action(a), store, cogstate, resstore[b], resid[b], resdelay[b])
        )
    body_builtin.append(constraint("merge", TList(tuple(resstore[b] for b in action_buffers)), acts))
    body_builtin.append(constraint("merge", TList((store, acts)), result))
    for b in action_buffers:
        body_builtin.append(constraint("map", store, acts, resid[b], mergeid[b]))

    body_user = [delta_c(result)]
    for b in buffers:
        if b in action_buffers:
            body_user.append(gamma_c(b, mergeid[b], resdelay[b]))
        else:
            body_user.append(gamma_c(b, cvar[b], dvar[b]))

    return ChrRule(rule.name, tuple(head), tuple(guard), tuple(body_user), tuple(body_builtin))


def no_rule() -> ChrRule:
    """The generic rule revealing one pending buffer."""
    b, c, d = Variable("B"), Variable("C"), Variable("D")
    return ChrRule(
        name="no",
        removed=(gamma_c(b, c, d),),
        guard=(constraint(">", d, 0),),
        body_user=(gamma_c(b, c, 0),),
        body_builtin=(),
    )


_NO_RULE = no_rule()  # planned once, shared by every program


def chr_of_model(model: Model) -> tuple[ChrRule, ...]:
    """The full program: the translation of each (normalised, kept) model
    rule, the generic ``no`` rule last."""
    rules = normalize_model(model).rules
    return tuple([chr_of_rule(r, model.buffers, model.types) for r in rules]) + (_NO_RULE,)
