"""Embedded constraint-handling-rules engine.

Just the CHR fragment that translated production models use: ground goals
of user constraints (``delta/1``, ``gamma/3``), a built-in store of ground
facts (e.g. ``dm/1``), pure simplification rules with guards, and a fixed
built-in theory (``=`` matching its left side against its ground right
side, numeric ``>``, list membership ``in``, plus ``action``, ``merge`` and
``map`` over encoded chunk stores).  A step solves the guard and body
built-ins and adds to the store only the facts ``action`` contributes, so
every successor is again a ground goal over a store of ground facts.

The module owns the chunk-term codec: ``chunk(Id, Type, Pairs)`` terms,
stores as chunk lists sorted by identifier, and ``=``/``+`` action terms.
Every pair list is in slot-name order, the order of ``Chunk.pairs``, so a
chunk term is exactly the image of one chunk and term equality is chunk
equality.  A type's declared slot order is for text only (see
:meth:`~actrchr.core.TypeTable.ordered`); no term of this module depends
on it, and the module needs no type table.

The built-ins that the semantics fixes are solved here, over chunk terms:
``action`` on a modification copies the incumbent's term under a fresh
id, ``merge`` merges identifier-ordered chunk lists, and ``map`` reads
identifiers.  A request is the one effect shared with the
abstract machine (:func:`~actrchr.engine.interpret_request`), because the
semantics leaves request handling, the modules, as a parameter.  So the
bisimulation check tests modification and merge against an independent
implementation.

Every term a rule term meets is ground (a goal argument, a list item, a
built-in's result), so :func:`match` is one-sided, as CHR head matching
is, and binds rule variables to ground terms only.  Compounds and lists
cache their groundness once asked, substitution returns ground terms as
they are, and the built-ins read their arguments' bindings in place and
substitute only a list that still holds bound variables.  A chunk term
likewise keeps the chunk it decodes to, and a list its first-argument
index, which finds the chunk a bound id names for ``in``, ``map`` and
``action`` and serves ``merge``.  The merge hands a successor store its
parent's term objects, so a store decoded for a request or for
:func:`canonical_form` costs a decoding only for its new chunks.

The one state equivalence is the one the bisimulation needs.  A state of
the translated shape (one ``delta`` over chunk terms and at most one
``gamma`` per buffer, beside a store of facts) encodes exactly one
abstract state, and :func:`canonical_form` is that state's
:func:`~actrchr.engine.canonical_key`: two translated states are
equivalent exactly when their abstract states are equal up to renaming of
fresh chunk identifiers.  Any other state has no form; asking for one
raises :class:`ChrError` naming what breaks the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .core import (
    IdGen,
    NIL,
    NIL_CHUNK,
    Chunk,
    ChunkStore,
    Symbol,
    Variable,
    fresh_gen_avoiding,
)
from .engine import ArchitectureConfig, canonical_key, interpret_request
from .model import AbstractState, Action, Atom, MODIFY, REQUEST


class ChrError(Exception):
    """Malformed constraint or misuse of the built-in theory."""


class Undecided(ChrError):
    """A built-in left the decidable fragment (unbound inputs)."""


# ---------------------------------------------------------------------------
# terms

Term = Union[Symbol, Variable, int, "Compound", "TList"]


@dataclass(frozen=True, slots=True)
class Compound:
    functor: str
    args: tuple[Term, ...]
    # groundness, filled in by the first is_ground query (see there)
    _ground: bool = field(init=False, repr=False, compare=False)
    # the chunk a chunk term encodes, filled in by its first successful
    # decode_chunk (see there)
    _chunk: Chunk = field(init=False, repr=False, compare=False)

    def __reduce__(self):  # the caches may be unset, so copy the fields only
        return Compound, (self.functor, self.args)


@dataclass(frozen=True, slots=True)
class TList:
    items: tuple[Term, ...]
    _ground: bool = field(init=False, repr=False, compare=False)
    # filled in on first use: see _first_args and _chunk_index
    _ids: dict = field(init=False, repr=False, compare=False)
    _ordered: bool = field(init=False, repr=False, compare=False)

    def __reduce__(self):
        return TList, (self.items,)


def tuple_term(*args: Term) -> Compound:
    """Tuples are compounds under the reserved functor ','."""
    return Compound(",", tuple(args))


Env = dict[Variable, Term]


def walk(t: Term, env: Env) -> Term:
    """A variable's value, which is ground (see :func:`match`), or the term."""
    return env.get(t, t) if isinstance(t, Variable) else t


def subst(t: Term, env: Env) -> Term:
    """Apply the bindings; ground terms come back as they are."""
    if not env:
        return t
    t = walk(t, env)
    if isinstance(t, Compound):
        if is_ground(t):
            return t
        return Compound(t.functor, tuple(subst(a, env) for a in t.args))
    if isinstance(t, TList):
        if is_ground(t):
            return t
        return TList(tuple(subst(a, env) for a in t.items))
    return t


def match(pattern: Term, term: Term, env: Env) -> Optional[Env]:
    """The environment extended so that ``pattern`` under it equals the
    ground ``term``, or None: one-sided, as CHR head matching is, so every
    value bound is a ground subterm of ``term``."""
    if isinstance(pattern, Variable):
        bound = env.get(pattern)
        if bound is None:
            return {**env, pattern: term}
        return env if bound == term else None
    if isinstance(pattern, Compound):
        if not (
            isinstance(term, Compound)
            and pattern.functor == term.functor
            and len(pattern.args) == len(term.args)
        ):
            return None
        pairs = zip(pattern.args, term.args)
    elif isinstance(pattern, TList):
        if not (isinstance(term, TList) and len(pattern.items) == len(term.items)):
            return None
        pairs = zip(pattern.items, term.items)
    else:
        return env if pattern == term else None
    for p, t in pairs:
        env = match(p, t, env)
        if env is None:
            return None
    return env


def is_ground(t: Term) -> bool:
    """Whether the term holds no variable.

    Compounds and lists compute this on the first query and keep it in
    their ``_ground`` slot, left unset at construction because most
    encoded terms are never asked.
    """
    if isinstance(t, Compound):
        g = getattr(t, "_ground", None)
        if g is not None:
            return g
        g = all(is_ground(a) for a in t.args)
    elif isinstance(t, TList):
        g = getattr(t, "_ground", None)
        if g is not None:
            return g
        g = all(is_ground(a) for a in t.items)
    else:
        return not isinstance(t, Variable)
    object.__setattr__(t, "_ground", g)
    return g


# ---------------------------------------------------------------------------
# constraints, rules, states

USER = "user"
BUILTIN = "builtin"

#: Built-in predicates with a fixed interpretation; everything else in a
#: built-in store is an uninterpreted ground fact (e.g. ``dm/1``).
INTERPRETED = frozenset(["=", ">", "in", "action", "merge", "map"])


@dataclass(frozen=True, slots=True)
class Constraint:
    name: str
    args: tuple[Term, ...]
    kind: str = USER


def user(name: str, *args: Term) -> Constraint:
    return Constraint(name, tuple(args), USER)


def builtin(name: str, *args: Term) -> Constraint:
    return Constraint(name, tuple(args), BUILTIN)


def delta_c(store_term: Term) -> Constraint:
    return user("delta", store_term)


def gamma_c(buffer: Term, chunk: Term, delay: Term) -> Constraint:
    return user("gamma", buffer, chunk, delay)


def fact_constraint(atom: Atom) -> Constraint:
    return builtin(atom.pred, *atom.args)


def subst_constraint(c: Constraint, env: Env) -> Constraint:
    return Constraint(c.name, tuple(subst(a, env) for a in c.args), c.kind)


@dataclass(frozen=True)
class ChrState:
    """Ground goal multiset and built-in store of ground facts; there are
    no global variables."""

    goal: tuple[Constraint, ...]
    builtins: tuple[Constraint, ...]


@dataclass(frozen=True)
class ChrRule:
    """Simplification rule ``name @ removed <=> guard | body``: a step
    removes every head constraint."""

    name: str
    removed: tuple[Constraint, ...]
    guard: tuple[Constraint, ...]
    body_user: tuple[Constraint, ...]
    body_builtin: tuple[Constraint, ...]


# ---------------------------------------------------------------------------
# the chunk-term codec, shared by the built-in theory and the translator

#: Type position of a modification's action term.
ANONYMOUS = Symbol("_")


def encode_pairs(pairs: Iterable[tuple[Symbol, Term]]) -> TList:
    """Pair list sorted stably by slot name, so repeated slots keep their
    order."""
    ordered = sorted(pairs, key=lambda p: p[0].name)
    return TList(tuple(tuple_term(s, v) for s, v in ordered))


def encode_chunk(chunk: Chunk) -> Compound:
    """The chunk's pairs as they are, which is slot-name order."""
    pairs = TList(tuple(tuple_term(s, v) for s, v in chunk.pairs))
    return Compound("chunk", (chunk.id, chunk.type, pairs))


def encode_store(store: ChunkStore) -> TList:
    """Chunk list sorted by identifier name; the canonical encoding."""
    return TList(tuple(encode_chunk(c) for c in store.sorted_chunks()))


def encode_action(action: Action) -> Compound:
    """Action term handed to the ``action`` built-in; modifications keep
    their type anonymous."""
    pairs = encode_pairs(action.pairs)
    if action.kind == MODIFY:
        return Compound("=", (action.buffer, ANONYMOUS, pairs))
    return Compound("+", (action.buffer, action.type, pairs))


def _decode_pairs(
    pairs: TList, error: type[ChrError], what: str
) -> tuple[tuple[Symbol, Symbol], ...]:
    """Slot pairs of a ground pair list; anything else raises ``error``."""
    out = []
    for p in pairs.items:
        if not (
            isinstance(p, Compound)
            and p.functor == ","
            and len(p.args) == 2
            and isinstance(p.args[0], Symbol)
            and isinstance(p.args[1], Symbol)
        ):
            raise error(f"{what}: {render_term(p)}")
        out.append((p.args[0], p.args[1]))
    return tuple(out)


def _chunk_fields(t: Term) -> tuple[Symbol, Symbol, TList]:
    """Identifier, type and pair list of a ``chunk/3`` term."""
    if not (isinstance(t, Compound) and t.functor == "chunk" and len(t.args) == 3):
        raise ChrError(f"not a chunk term: {render_term(t)}")
    id, type, pairs = t.args
    if not (isinstance(id, Symbol) and isinstance(type, Symbol) and isinstance(pairs, TList)):
        raise ChrError(f"malformed chunk term: {render_term(t)}")
    return id, type, pairs


def decode_chunk(t: Term) -> Chunk:
    """The chunk a term encodes; the inverse of :func:`encode_chunk`, so
    slots out of name order or repeated raise :class:`ChrError`.

    The first successful decoding is kept in the term's ``_chunk`` slot,
    so a term is validated once, however many stores share it.
    """
    chunk = getattr(t, "_chunk", None)
    if chunk is not None:
        return chunk
    id, type, pairs = _chunk_fields(t)
    decoded = _decode_pairs(pairs, ChrError, "malformed slot pair")
    names = [s.name for s, _ in decoded]
    if any(a >= b for a, b in zip(names, names[1:])):
        raise ChrError(f"slots not in strict name order: {render_term(t)}")
    chunk = Chunk(id, type, decoded)
    object.__setattr__(t, "_chunk", chunk)
    return chunk


def _decode_action(t: Term) -> Action:
    if not (isinstance(t, Compound) and t.functor in ("=", "+") and len(t.args) == 3):
        raise ChrError(f"not an action term: {render_term(t)}")
    buffer, type, pairs = t.args
    if not (isinstance(buffer, Symbol) and isinstance(pairs, TList)):
        raise ChrError(f"malformed action term: {render_term(t)}")
    decoded = _decode_pairs(pairs, Undecided, "action pair not ground")
    if t.functor == "=":
        return Action(MODIFY, buffer, None, decoded)
    if not isinstance(type, Symbol):
        raise ChrError(f"request without a type: {render_term(t)}")
    return Action(REQUEST, buffer, type, decoded)


def _decode_cogstate(t: Term, env: Env) -> dict[Symbol, tuple[Symbol, int]]:
    t = walk(t, env)
    if not isinstance(t, TList):
        raise Undecided(f"cognitive state not a list: {render_term(subst(t, env))}")
    out: dict[Symbol, tuple[Symbol, int]] = {}
    for item in t.items:
        item = walk(item, env)
        b = cid = delay = None
        if isinstance(item, Compound) and item.functor == "," and len(item.args) == 2:
            b, entry = (walk(a, env) for a in item.args)
            if isinstance(entry, Compound) and entry.functor == "," and len(entry.args) == 2:
                cid, delay = (walk(a, env) for a in entry.args)
        if not (isinstance(b, Symbol) and isinstance(cid, Symbol) and isinstance(delay, int)):
            raise Undecided(f"cognitive state entry not ground: {render_term(subst(item, env))}")
        out[b] = (cid, delay)
    return out


def encode_cogstate(gamma: Iterable[tuple[Symbol, Term, Term]]) -> TList:
    """Buffer-sorted list of (buffer, (chunk, delay)) entries."""
    rows = sorted(gamma, key=lambda r: r[0].name)
    return TList(tuple(tuple_term(b, tuple_term(c, d)) for b, c, d in rows))


# ---------------------------------------------------------------------------
# built-in solving

Facts = tuple[Atom, ...]
Solution = tuple[Env, tuple[Atom, ...]]


def solve_builtins(
    constraints: Iterable[Constraint],
    env: Env,
    facts: Facts,
    config: ArchitectureConfig,
    ids: IdGen,
) -> list[Solution]:
    """Solve a conjunction left to right, branching where the theory does.

    Every solution is a binding environment plus the facts contributed by
    ``action`` constraints.  An empty result means the conjunction has no
    solution.  Inputs a constraint needs must be ground when it is reached
    (the translation emits constraints in such an order); otherwise
    :class:`Undecided` is raised.  ``ids`` supplies the fresh identifiers
    of ``action`` answers and must avoid every identifier in the state.
    """
    solutions: list[Solution] = [(env, ())]
    for c in constraints:
        nxt: list[Solution] = []
        for e, atoms in solutions:
            for e2, extra in _solve_one(c, e, facts, config, ids):
                nxt.append((e2, atoms + extra))
        solutions = nxt
        if not solutions:
            break
    return solutions


def _solve_one(
    c: Constraint, env: Env, facts: Facts, config: ArchitectureConfig, ids: IdGen
) -> list[Solution]:
    name = c.name
    if name == "=":
        a, b = c.args
        b = subst(b, env)
        if not is_ground(b):
            raise Undecided(f"equation with an unbound right side: {render_constraint(c)}")
        out = match(a, b, env)
        return [] if out is None else [(out, ())]
    if name == ">":
        a, b = (walk(x, env) for x in c.args)
        if not (isinstance(a, int) and isinstance(b, int)):
            raise Undecided(f"non-numeric comparison: {render_constraint(c)}")
        return [(env, ())] if a > b else []
    if name == "in":
        pattern, lst = c.args
        items = _ground_list(lst, env)
        if items is None:
            raise Undecided(f"membership over unbound list: {render_constraint(c)}")
        candidates = items.items
        first = walk(pattern, env)  # a bound first argument: use the index
        if isinstance(first, Compound) and first.args:
            first = subst(first.args[0], env)
            if is_ground(first):
                candidates = _first_args(items).get(first, ())
        out = []
        for item in candidates:
            e = match(pattern, item, env)
            if e is not None:
                out.append((e, ()))
        return out
    if name == "action":
        return _solve_action(c, env, facts, config, ids)
    if name == "merge":
        return _solve_merge(c, env)
    if name == "map":
        return _solve_map(c, env)
    raise Undecided(f"uninterpreted constraint used as a goal: {render_constraint(c)}")


def _ground_list(t: Term, env: Env) -> Optional[TList]:
    """The ground list a term is bound to, or None.  The list is read in
    place; only one that still holds bound variables is substituted."""
    t = walk(t, env)
    if isinstance(t, TList) and not is_ground(t):
        t = subst(t, env)
    return t if isinstance(t, TList) and is_ground(t) else None


def _first_args(t: TList) -> dict[Term, list[Term]]:
    """The first argument of each compound item (a chunk term's id),
    mapped to the items with it in list order; built once and kept in the
    list's ``_ids`` slot, so it lives exactly as long as the list."""
    index = getattr(t, "_ids", None)
    if index is None:
        index = {}
        for item in t.items:
            if isinstance(item, Compound) and item.args:
                index.setdefault(item.args[0], []).append(item)
        object.__setattr__(t, "_ids", index)
    return index


def _solve_action(
    c: Constraint, env: Env, facts: Facts, config: ArchitectureConfig, ids: IdGen
) -> list[Solution]:
    """action(A, D, G, Dres, Cres, Eres): interpret action A in the state
    encoded by chunk list D, cognitive state G and the ambient facts; one
    solution per effect, binding the effect's chunk list, the chunk id it
    puts in A's buffer and that buffer's delay, and contributing the
    effect's facts.

    Every buffer must name a listed chunk.  A modification is solved over
    chunk terms (see :func:`_modify`).  A request is the one built-in the
    abstract machine shares, since the semantics leaves its handlers as a
    parameter: the state is decoded for
    :func:`~actrchr.engine.interpret_request`, which costs a decoding only
    for terms no earlier store held (see :func:`decode_chunk`).
    """
    if len(c.args) != 6:
        raise ChrError("action/6 expected")
    a_t, d_t, g_t, dres, cres, eres = c.args
    action = _decode_action(subst(a_t, env))  # its pairs hold bound variables
    listed = _listed_chunks(subst(d_t, env))
    gamma = _decode_cogstate(g_t, env)
    for b, (cid, delay) in gamma.items():
        if cid not in listed:
            raise ChrError(f"buffer {b} holds unknown chunk id {cid}")
        if delay not in (0, 1):
            raise ChrError(f"buffer {b} has non-binary delay {delay}")
    if action.kind == MODIFY:
        answers = [_modify(action, listed, gamma, ids)]
    else:
        store = ChunkStore(decode_chunk(t) for t in listed.values())
        state = AbstractState.make(store, gamma, facts)
        answers = []
        for eff in interpret_request(action, state, config, ids):
            cid, delay = {b: (cc, dd) for b, cc, dd in eff.gamma}[action.buffer]
            answers.append((encode_store(eff.store), cid, delay, eff.atoms))
    out: list[Solution] = []
    for d_new, c_new, e_new, atoms in answers:
        e: Optional[Env] = env
        for pat, val in ((dres, d_new), (cres, c_new), (eres, e_new)):
            e = match(pat, val, e)
            if e is None:
                break
        if e is not None:
            out.append((e, atoms))
    return out


_NIL_TERM = encode_chunk(NIL_CHUNK)


def _listed_chunks(t: Term) -> dict[Symbol, Term]:
    """The chunk terms of an id-ordered chunk list by identifier, nil
    included as in every state store."""
    listed = {id: terms[0] for id, terms in _chunk_index(t).items()}
    listed.setdefault(NIL, _NIL_TERM)
    return listed


def _modify(
    action: Action,
    listed: dict[Symbol, Term],
    gamma: dict[Symbol, tuple[Symbol, int]],
    ids: IdGen,
) -> tuple[TList, Symbol, int, tuple[Atom, ...]]:
    """The incumbent's term copied under a fresh id, visible, with the
    update slots set.  An update value that names no listed chunk becomes
    nil; an update slot the incumbent lacks is ignored."""
    if action.buffer not in gamma:
        raise ChrError(f"no buffer {action.buffer}")
    _, type, pairs = _chunk_fields(listed[gamma[action.buffer][0]])
    updates = dict(action.pairs)
    new_pairs = []
    for p in pairs.items:
        slot = p.args[0]  # type: ignore[union-attr]
        if slot in updates:
            v = updates[slot]
            p = tuple_term(slot, v if v in listed else NIL)
        new_pairs.append(p)
    fresh = ids.fresh()
    copy = Compound("chunk", (fresh, type, TList(tuple(new_pairs))))
    return TList((copy,)), fresh, 0, ()


def _solve_merge(c: Constraint, env: Env) -> list[Solution]:
    """merge(L, D): D is the merge of the chunk lists in L (see
    :func:`merge_chunk_lists`); L and each operand are read in place."""
    if len(c.args) != 2:
        raise ChrError("merge/2 expected")
    lst, out_pat = c.args
    lst = walk(lst, env)
    operands = [subst(x, env) for x in lst.items] if isinstance(lst, TList) else None
    if operands is None or not all(is_ground(x) for x in operands):
        raise Undecided(f"merge over unbound list: {render_constraint(c)}")
    e = match(out_pat, merge_chunk_lists(operands), env)
    return [] if e is None else [(e, ())]


def merge_chunk_lists(lists: Iterable[Term]) -> TList:
    """The store merge over chunk lists, folded left from the empty list.

    Each operand must be strictly ordered by identifier name, as
    :func:`encode_store` lists a store, and is read through its index.
    A shared identifier must carry equal terms and keeps the left
    operand's, so a successor store holds its parent's term objects.  A
    clash or an operand out of order raises :class:`ChrError`.  A lone
    non-empty operand comes back as it is, checked and indexed.
    """
    merged: dict[Term, Term] = {}
    nonempty = []
    for lst in lists:
        index = _chunk_index(lst)
        if index:
            nonempty.append(lst)
        for id, (term,) in index.items():
            kept = merged.setdefault(id, term)
            if kept is not term and kept != term:
                raise ChrError(f"merge: id {id} bound to {render_term(kept)} and {render_term(term)}")
    if len(nonempty) == 1:
        return nonempty[0]  # type: ignore[return-value]
    return TList(tuple(sorted(merged.values(), key=lambda t: t.args[0].name)))  # type: ignore[union-attr]


def _chunk_index(t: Term) -> dict[Term, list[Term]]:
    """The index (see :func:`_first_args`) of a chunk list strictly ordered
    by id, checked once and then marked in its ``_ordered`` slot; any
    other term raises ChrError."""
    if not getattr(t, "_ordered", False):
        if not isinstance(t, TList):
            raise ChrError(f"not a chunk list: {render_term(t)}")
        names = [decode_chunk(term).id.name for term in t.items]
        if any(a >= b for a, b in zip(names, names[1:])):
            raise ChrError(f"chunk list not in strict id order: {render_term(t)}")
        object.__setattr__(t, "_ordered", True)
    return _first_args(t)  # type: ignore[arg-type]


def _solve_map(c: Constraint, env: Env) -> list[Solution]:
    """map(D, D2, C, M): M is C's identifier after merging D with D2 —
    identity when either store knows C, nil otherwise."""
    if len(c.args) != 4:
        raise ChrError("map/4 expected")
    d_t, d2_t, c_in, m_pat = c.args
    c_in = walk(c_in, env)
    if not isinstance(c_in, Symbol):
        raise Undecided(f"map over unbound id: {render_constraint(c)}")
    known = [_chunk_index(subst(t, env)) for t in (d_t, d2_t)]
    target = c_in if any(c_in in ids for ids in known) else NIL
    e = match(m_pat, target, env)
    return [] if e is None else [(e, ())]


# ---------------------------------------------------------------------------
# the step relation


def facts_of(state: ChrState) -> Facts:
    """The built-in store as facts: an interpreted built-in or an argument
    that is no symbol lies outside the fragment and raises
    :class:`Undecided`."""
    for c in state.builtins:
        if c.name in INTERPRETED:
            raise Undecided(f"unevaluated built-in in store: {render_constraint(c)}")
        if not all(isinstance(a, Symbol) for a in c.args):
            raise Undecided(f"fact over a non-symbol: {render_constraint(c)}")
    return tuple(Atom(c.name, c.args) for c in state.builtins)  # type: ignore[arg-type]


def fresh_gen_for(state: ChrState) -> IdGen:
    """Generator whose identifiers avoid every chunk id in the state's
    ``delta`` lists, and so every fresh id in a state of the translated
    shape (see :func:`canonical_form`)."""
    return fresh_gen_avoiding(
        cid
        for c in state.goal
        if c.name == "delta"
        for lst in c.args
        if isinstance(lst, TList)
        for cid in _first_args(lst)
        if isinstance(cid, Symbol)
    )


def _head_matchings(
    patterns: tuple[Constraint, ...], goal: tuple[Constraint, ...]
) -> list[tuple[Env, tuple[int, ...]]]:
    """Injective matchings of head patterns against goal constraints."""
    out: list[tuple[Env, tuple[int, ...]]] = []

    def rec(hi: int, env: Env, used: tuple[int, ...]) -> None:
        if hi == len(patterns):
            out.append((env, used))
            return
        h = patterns[hi]
        for gi, g in enumerate(goal):
            if gi in used or g.kind != USER or g.name != h.name:
                continue
            if len(g.args) != len(h.args):
                continue
            e: Optional[Env] = env
            for pa, ga in zip(h.args, g.args):
                e = match(pa, ga, e)
                if e is None:
                    break
            if e is not None:
                rec(hi + 1, e, used + (gi,))

    rec(0, {}, ())
    return out


def chr_step(
    state: ChrState,
    program: Iterable[ChrRule],
    config: ArchitectureConfig | None = None,
) -> list[tuple[str, ChrState]]:
    """All successor states, labelled by the rule that produced them.

    The goal must be ground, so it shares no variable with a rule: rules
    are used as they are, in program order, each attempt starting from an
    empty environment.  A goal constraint with a variable raises
    :class:`ChrError`.  Every injective head matching and every guard/body
    solution yields one successor: the matched constraints are removed, the
    body's user constraints are added ground, and the built-in store grows
    only by the facts contributed by ``action``.
    """
    for c in state.goal:
        if not all(is_ground(a) for a in c.args):
            raise ChrError(f"goal not ground: {render_constraint(c)}")
    config = config or ArchitectureConfig()
    ids = fresh_gen_for(state)
    facts = facts_of(state)
    matchings: dict = {}  # translated rules share one head: match it once
    out: list[tuple[str, ChrState]] = []
    for rule in program:
        if rule.removed not in matchings:
            matchings[rule.removed] = _head_matchings(rule.removed, state.goal)
        for env, used in matchings[rule.removed]:
            for genv, _ in solve_builtins(rule.guard, env, facts, config, ids):
                for benv, atoms in solve_builtins(rule.body_builtin, genv, facts, config, ids):
                    added = []
                    for u in rule.body_user:
                        g = subst_constraint(u, benv)
                        if any(not is_ground(a) for a in g.args):
                            raise Undecided(
                                f"body constraint not ground: {render_constraint(g)}"
                            )
                        added.append(g)
                    goal = tuple(
                        g for gi, g in enumerate(state.goal) if gi not in used
                    ) + tuple(added)
                    builtins = state.builtins + tuple(fact_constraint(a) for a in atoms)
                    out.append((rule.name, ChrState(goal, builtins)))
    return out


# ---------------------------------------------------------------------------
# state equivalence


def canonical_form(state: ChrState) -> tuple:
    """The :func:`~actrchr.engine.canonical_key` of the abstract state a
    translated state encodes, so ``canonical_form(chr_of_state(s))`` is
    ``canonical_key(s)``.

    The translated shape is one ``delta`` over a list of chunk terms (each
    the image of a chunk, see :func:`decode_chunk`) with pairwise distinct
    ids, at most one ``gamma(buffer, chunk, 0|1)`` per buffer naming a
    listed chunk, and no other goal constraint; a state outside it raises
    :class:`ChrError` naming what breaks it.  The facts are read first, so
    an interpreted built-in in the store raises :class:`Undecided`.  A
    fresh id in a slot or a fact raises :class:`~actrchr.engine.EngineError`.
    """
    facts = facts_of(state)
    terms = None
    gammas: dict[Term, Constraint] = {}
    for c in state.goal:
        if c.kind == USER and c.name == "delta" and len(c.args) == 1:
            if terms is not None:
                raise ChrError(f"second delta in the goal: {render_constraint(c)}")
            terms = c.args[0]
        elif c.kind == USER and c.name == "gamma" and len(c.args) == 3:
            if c.args[0] in gammas:
                raise ChrError(f"two gamma rows for buffer {render_term(c.args[0])}")
            gammas[c.args[0]] = c
        else:
            raise ChrError(f"goal constraint not delta/1 or gamma/3: {render_constraint(c)}")
    if not isinstance(terms, TList):
        raise ChrError("goal has no delta over a chunk list")
    chunks = [decode_chunk(t) for t in terms.items]
    ids = {c.id for c in chunks}
    if len(ids) != len(chunks):
        raise ChrError(f"chunk id listed twice in delta: {render_term(terms)}")
    rows = []
    for c in gammas.values():
        b, cid, d = c.args
        if not (isinstance(b, Symbol) and cid in ids):
            raise ChrError(f"gamma row names no listed chunk: {render_constraint(c)}")
        if d not in (0, 1):
            raise ChrError(f"gamma row with a delay other than 0 or 1: {render_constraint(c)}")
        rows.append((b, cid, d))
    rows.sort(key=lambda r: r[0].name)
    return canonical_key(AbstractState(ChunkStore(chunks), tuple(rows), facts))


# ---------------------------------------------------------------------------
# rendering

_INFIX = {"=", ">", "in"}


def render_term(t: Term) -> str:
    if isinstance(t, Symbol):
        return t.name
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, int):
        return str(t)
    if isinstance(t, TList):
        return "[" + ",".join(render_term(a) for a in t.items) + "]"
    if isinstance(t, Compound):
        if t.functor == ",":
            return "(" + ",".join(render_term(a) for a in t.args) + ")"
        return f"{t.functor}(" + ",".join(render_term(a) for a in t.args) + ")"
    raise ChrError(f"cannot render {t!r}")


def render_constraint(c: Constraint) -> str:
    if c.name in _INFIX and len(c.args) == 2:
        return f"{render_term(c.args[0])} {c.name} {render_term(c.args[1])}"
    if not c.args:
        return c.name
    return f"{c.name}(" + ",".join(render_term(a) for a in c.args) + ")"


def render_rule(r: ChrRule) -> str:
    head = ", ".join(render_constraint(c) for c in r.removed)
    guard = ", ".join(render_constraint(c) for c in r.guard) or "true"
    body_parts = [render_constraint(c) for c in (*r.body_user, *r.body_builtin)]
    body = ", ".join(body_parts) or "true"
    return f"{r.name} @ {head} <=> {guard} | {body}."


def render_program(rules: Iterable[ChrRule]) -> str:
    return "\n".join(render_rule(r) for r in rules) + "\n"


def render_state(s: ChrState) -> str:
    goal = ", ".join(render_constraint(c) for c in s.goal) or "true"
    builtins = ", ".join(render_constraint(c) for c in s.builtins) or "true"
    return f"<{goal} ; {builtins}>"
