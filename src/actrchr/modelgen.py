"""Seeded random models, rules, states and stores for differential tests.

Everything here is a pure function of the supplied random generator, so
test suites replay byte-identically from a seed.  Generated models always
validate cleanly, and generated rules never pin one slot to two distinct
constants (they normalise instead of dropping); explicitly unsatisfiable
rules come from :func:`random_dropped_rule`.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import CHUNK, NIL, Chunk, ChunkStore, Symbol, TypeTable, Value, Variable
from .engine import DROPPED, set_normal_form
from .model import (
    AbstractState,
    Action,
    BufferTest,
    MODIFY,
    Model,
    Pair,
    REQUEST,
    Rule,
    dm_atom,
    validate,
)

_SLOT_POOL = (Symbol("s1"), Symbol("s2"), Symbol("s3"))
_VAR_POOL = (Variable("X1"), Variable("X2"), Variable("X3"))


def random_types(rng: random.Random) -> TypeTable:
    types = TypeTable()
    for j in range(rng.randint(1, 2)):
        width = rng.randint(1, 2)
        types.declare(Symbol(f"t{j + 1}"), rng.sample(_SLOT_POOL, width))
    return types


def _declared(types: TypeTable) -> list[Symbol]:
    return [t for t in types.names() if t != CHUNK]


def _chunks(rng: random.Random, types: TypeTable, n: int) -> list[Chunk]:
    """Chunks k1..kn, mostly of a declared type, slots over their ids and nil."""
    ids = [Symbol(f"k{i + 1}") for i in range(n)]
    decl = _declared(types)
    out = []
    for id in ids:
        type = rng.choice(decl) if decl and rng.random() < 0.9 else CHUNK
        val = {s: rng.choice([*ids, NIL]) for s in types.slots(type)}
        out.append(Chunk(id, type, val))
    return out


def random_chunks(
    rng: random.Random, types: TypeTable, max_chunks: int
) -> list[Chunk]:
    return _chunks(rng, types, rng.randint(1, max_chunks))


def chunk_pool(rng: random.Random) -> tuple[TypeTable, list[Chunk]]:
    """A shared vocabulary of twelve chunks; stores sampled from one pool
    always merge cleanly."""
    types = random_types(rng)
    return types, _chunks(rng, types, 12)


def random_store(
    rng: random.Random, pool: list[Chunk], max_chunks: int = 8
) -> ChunkStore:
    k = rng.randint(0, min(max_chunks, len(pool)))
    return ChunkStore(rng.sample(pool, k))


def clashing_variant(rng: random.Random, store: ChunkStore) -> Optional[ChunkStore]:
    """Copy of the store with one chunk's value changed under its old id;
    merging it with the original must clash.  None when impossible."""
    candidates = [c for c in store if c.pairs]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    slot, old = rng.choice(victim.pairs)
    others = [x for x in [NIL, *(c.id for c in store)] if x != old]
    if not others:
        return None
    val = victim.val()
    val[slot] = rng.choice(others)
    changed = Chunk(victim.id, victim.type, val)
    return ChunkStore(changed if c.id == victim.id else c for c in store)


# ---------------------------------------------------------------------------
# rules and models


def _test_value(rng: random.Random, ids: list[Symbol]) -> Value:
    if rng.random() < 0.5:
        return rng.choice(_VAR_POOL)
    return rng.choice([*ids, NIL])


def _rhs_value(rng: random.Random, lhs_vars: list[Variable], ids: list[Symbol]) -> Value:
    if lhs_vars and rng.random() < 0.5:
        return rng.choice(lhs_vars)
    return rng.choice([*ids, NIL])


def random_rule(
    rng: random.Random,
    name: str,
    types: TypeTable,
    buffers: list[Symbol],
    ids: list[Symbol],
) -> Rule:
    decl = _declared(types)
    tests = []
    for b in rng.sample(buffers, rng.randint(0, len(buffers))):
        type = rng.choice(decl) if decl and rng.random() < 0.85 else CHUNK
        pairs: list[Pair] = []
        for s in types.slots(type):
            if rng.random() < 0.35:
                continue
            first = _test_value(rng, ids)
            pairs.append((s, first))
            if rng.random() < 0.25:
                # duplicate pair; at most one distinct constant per slot
                if isinstance(first, Symbol):
                    second: Value = rng.choice(_VAR_POOL) if rng.random() < 0.8 else first
                elif rng.random() < 0.5:
                    second = rng.choice(_VAR_POOL)
                else:
                    second = rng.choice([*ids, NIL])
                if (s, second) not in pairs:
                    pairs.append((s, second))
        tests.append(BufferTest(b, type, types.ordered(type, pairs)))

    lhs_vars = sorted(
        {v for t in tests for _, v in t.pairs if isinstance(v, Variable)},
        key=lambda v: v.name,
    )
    actions = []
    for b in rng.sample(buffers, rng.randint(0, min(2, len(buffers)))):
        if rng.random() < 0.5 and decl:
            type = rng.choice(decl)
            pairs = [
                (s, _rhs_value(rng, lhs_vars, ids))
                for s in types.slots(type)
                if rng.random() < 0.7
            ]
            actions.append(Action(REQUEST, b, type, types.ordered(type, pairs)))
        else:
            tested = next((t.type for t in tests if t.buffer == b), None)
            source = tested if tested is not None else rng.choice([*decl, CHUNK])
            pairs = [
                (s, _rhs_value(rng, lhs_vars, ids))
                for s in types.slots(source)
                if rng.random() < 0.7
            ]
            actions.append(Action(MODIFY, b, None, types.ordered(None, pairs)))
    return Rule(name, tuple(tests), tuple(actions))


def _matching_rule(
    rng: random.Random,
    name: str,
    types: TypeTable,
    buffers: list[Symbol],
    ids: list[Symbol],
    state: AbstractState,
) -> Rule:
    """A rule whose tests are read off the state, so it matches there."""
    visible = [(b, c) for b, c, d in state.gamma if d == 0]
    rng.shuffle(visible)
    visible = visible[: rng.randint(1, len(visible))] if visible else []
    var_for: dict[Symbol, Variable] = {}
    tests = []
    for b, cid in visible:
        chunk = state.store.get(cid)
        if chunk is None:
            continue
        pairs: list[Pair] = []
        for s, v in chunk.pairs:
            if rng.random() < 0.4:
                continue
            if rng.random() < 0.5:
                if v not in var_for and len(var_for) < len(_VAR_POOL):
                    var_for[v] = _VAR_POOL[len(var_for)]
                pairs.append((s, var_for.get(v, v)))
            else:
                pairs.append((s, v))
        tests.append(BufferTest(b, chunk.type, types.ordered(chunk.type, pairs)))
    base = random_rule(rng, name, types, buffers, ids)
    lhs_vars = sorted(
        {v for t in tests for _, v in t.pairs if isinstance(v, Variable)},
        key=lambda v: v.name,
    )
    actions = []
    for a in base.actions:
        pairs = tuple(
            (s, v if isinstance(v, Symbol) or v in lhs_vars else _rhs_value(rng, lhs_vars, ids))
            for s, v in a.pairs
        )
        actions.append(Action(a.kind, a.buffer, a.type, pairs))
    return Rule(name, tuple(tests), tuple(actions))


def random_model(
    rng: random.Random,
    max_buffers: int = 3,
    max_rules: int = 4,
    max_chunks: int = 6,
) -> Model:
    types = random_types(rng)
    chunks = random_chunks(rng, types, max_chunks)
    ids = [c.id for c in chunks]
    type_of = {c.id: c.type for c in chunks}
    dm_size = rng.randint(1, len(ids)) if rng.random() < 0.85 else 0
    # at most two chunks of one type, so no request has more than two answers
    per_type: dict[Symbol, int] = {}
    dm = []
    for cid in rng.sample(ids, dm_size):
        if per_type.get(type_of[cid], 0) < 2:
            per_type[type_of[cid]] = per_type.get(type_of[cid], 0) + 1
            dm.append(cid)
    dm = sorted(dm, key=lambda s: s.name)
    buffers = [Symbol(f"b{i + 1}") for i in range(rng.randint(1, max_buffers))]
    init = tuple(
        (b, rng.choice([*ids, NIL]), rng.choice((0, 0, 1))) for b in buffers
    )
    model = Model(
        types=types,
        chunks=tuple(sorted(chunks, key=lambda c: c.id.name)),
        dm=tuple(dm),
        buffers=tuple(buffers),
        init=init,
        rules=(),
    )
    rules = []
    n_rules = rng.randint(1, max_rules)
    for i in range(n_rules):
        if i == 0 and rng.random() < 0.6:
            rule = _matching_rule(rng, f"r{i + 1}", types, buffers, ids, model.initial_state())
        else:
            rule = random_rule(rng, f"r{i + 1}", types, buffers, ids)
        # duplicate pairs stay single-constant per slot, but substitution can
        # still pin a slot twice; regenerate those rare unsatisfiable rules
        while set_normal_form(rule, types) is DROPPED:
            rule = random_rule(rng, f"r{i + 1}", types, buffers, ids)
        rules.append(rule)
    model = Model(
        types=model.types,
        chunks=model.chunks,
        dm=model.dm,
        buffers=model.buffers,
        init=model.init,
        rules=tuple(rules),
    )
    problems = validate(model)
    if problems:
        raise AssertionError(f"generator produced an invalid model: {problems}")
    return model


def random_state(rng: random.Random, model: Model) -> AbstractState:
    """A state over the model's vocabulary with arbitrary buffer contents."""
    store = model.store()
    ids = list(store.ids())
    gamma = {b: (rng.choice(ids), rng.choice((0, 0, 1))) for b in model.buffers}
    return AbstractState.make(store, gamma, (dm_atom(i) for i in model.dm))


def random_dropped_rule(
    rng: random.Random, types: TypeTable, buffers: list[Symbol], ids: list[Symbol]
) -> Rule:
    """A rule pinning one slot to two distinct constants; unsatisfiable."""
    decl = [t for t in _declared(types) if types.slots(t)]
    type = rng.choice(decl)
    slot = rng.choice(types.slots(type))
    consts = [*ids, NIL]
    first = rng.choice(consts)
    second = rng.choice([c for c in consts if c != first])
    buffer = rng.choice(buffers)
    extra = random_rule(rng, "doomed", types, buffers, ids)
    tests = (BufferTest(buffer, type, ((slot, first), (slot, second))),) + extra.tests
    return Rule("doomed", tests, ())
