"""Embedded constraint-handling-rules engine.

Just the CHR fragment that translated production models use: ground goals
of user constraints (``delta/1``, ``gamma/3``), a built-in store of ground
facts, pure simplification rules with guards, and a fixed built-in theory
(``=`` matching its left side against its ground right side, numeric
``>``, list membership ``in``, plus ``action``, ``merge`` and ``map`` over
encoded chunk stores).  A step solves the guard and body built-ins and
never stores them, so the built-in store is exactly the abstract state's
facts (e.g. ``dm(a)``), held as that state's tuple of
:class:`~actrchr.model.Atom`; it grows only by the facts ``action``
contributes, and every successor is again a ground goal beside it.

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

A run memoizes ``action`` in its :class:`~actrchr.engine.Run`'s memo, the
CHR form of tabling: a hit draws as many fresh ids as its miss did, in
the same order, and rebuilds the recorded chunk terms under them.  The
key is computed here from chunk terms, and the abstract machine's memo
shares no key code with it, so a wrong key on one side cannot cancel out
in the bisimulation check.  A modification is keyed by all it reads (see
:func:`_modify_key`), a request to the default retrieval by its buffer,
type, pairs and the fact tuple's identity (see :func:`_request_key`); a
request to any other handler is not memoized.

Each rule is planned once, when it is made (see :class:`ChrRule`): its
variables become registers of a flat list, numbered in the order the rule
binds them, so the plan knows whether a built-in's input is bound when
the built-in is reached.  A plan covers only the shapes the translation
writes; any other rule raises :class:`ChrError` naming the constraint or
term when it is made.  A head is not empty, and the arguments of each
head constraint are a symbol or integer first one, if any, which keys
the per-step goal index, then variables met there first.  Every input is a
bound variable or a ground term, so no term is built at run time, and
every result of ``action``, ``merge`` and ``map`` is a new variable.
The left side of ``=`` and the pattern of ``in`` are matched by
:func:`match_into`, one-sidedly against ground terms, as CHR head
matching is.  The action term and cognitive-state list of ``action``
(each row ``(Buffer, (Chunk, Delay))``) and the operand list of
``merge`` are written out in the rule.  An unbound input, and a
constraint outside the theory, is :class:`Undecided` when the step
reaches it.  :func:`chr_step` is the one way to run the theory.
:func:`_checked` alone marks a chunk list checked (chunk terms strictly
ordered by id): ground, keeping its first-argument index, which serves
``in``, ``map``, ``action`` and ``merge``, and maybe the store it encodes.
A store encoding, an ``action`` result and a merged list are checked when
made, any other list when a built-in first reads it as a chunk list.  A
term carries the value it was built from and is decoded only otherwise:
a chunk term its chunk, a store encoding its store, a merged list the
store derived from its first operand's (see
:meth:`~actrchr.core.ChunkStore.adding`).

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

from bisect import insort
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional, Union

from .core import (
    IdGen,
    NIL,
    NIL_CHUNK,
    Chunk,
    ChunkStore,
    Record,
    Symbol,
    Variable,
    fresh_gen_avoiding,
)
from .engine import ArchitectureConfig, Run, canonical_key, declarative_retrieval, interpret_request
from .model import AbstractState, Action, Atom, MODIFY, REQUEST, sort_atoms


class ChrError(Exception):
    """A rule outside the planned fragment, refused when it is made, or a
    malformed term met by the built-in theory."""


class Undecided(ChrError):
    """A built-in left the decidable fragment: an unbound input or a
    constraint outside the theory, met when the step reaches it."""


# ---------------------------------------------------------------------------
# terms

Term = Union[Symbol, Variable, int, "Compound", "TList"]


class Compound(Record):
    # _chunk: the chunk a chunk term encodes, set when the term is built
    # from it or by its first successful decode_chunk (see there)
    __slots__ = ("functor", "args", "_chunk")
    _fields = ("functor", "args")

    def __init__(self, functor: str, args: tuple[Term, ...]) -> None:
        self.functor, self.args = functor, args

    def __reduce__(self):  # the chunk may be unset, so copy the fields only
        return Compound, (self.functor, self.args)


class TList(Record):
    # _ground: groundness, filled in by the first is_ground query (see
    # there); _ids and _store: set on a checked chunk list only, by _checked
    __slots__ = ("items", "_ground", "_ids", "_store")
    _fields = ("items",)

    def __init__(self, items: tuple[Term, ...]) -> None:
        self.items = items

    def __reduce__(self):
        return TList, (self.items,)


def tuple_term(*args: Term) -> Compound:
    """Tuples are compounds under the reserved functor ','."""
    return Compound(",", tuple(args))


def is_ground(t: Term) -> bool:
    """Whether the term holds no variable.

    A list keeps the answer in its ``_ground`` slot, filled by the first
    query or by :func:`_checked`.  A compound keeps nothing: only a plan
    asks of one, when its rule is made.
    """
    if isinstance(t, Compound):
        return all(is_ground(a) for a in t.args)
    if not isinstance(t, TList):
        return not isinstance(t, Variable)
    g = getattr(t, "_ground", None)
    if g is None:
        g = t._ground = all(is_ground(a) for a in t.items)
    return g


# ---------------------------------------------------------------------------
# constraints, rules, states

class Constraint(Record):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Term, ...]) -> None:
        self.name, self.args = name, args


def constraint(name: str, *args: Term) -> Constraint:
    return Constraint(name, tuple(args))


def delta_c(store_term: Term) -> Constraint:
    return constraint("delta", store_term)


def gamma_c(buffer: Term, chunk: Term, delay: Term) -> Constraint:
    return constraint("gamma", buffer, chunk, delay)


class ChrState(Record):
    """Ground goal multiset beside the built-in store, the abstract
    state's ground facts as they are; there are no global variables."""

    __slots__ = ("goal", "facts")

    def __init__(self, goal: tuple[Constraint, ...], facts: tuple[Atom, ...]) -> None:
        self.goal, self.facts = goal, facts


class ChrRule(Record):
    """Simplification rule ``name @ removed <=> guard | body``: a step
    removes every head constraint.  A rule outside the fragment its plan
    covers raises :class:`ChrError` here (see :class:`_RulePlan`)."""

    # _plan: what chr_step runs, made with the rule (see _RulePlan)
    __slots__ = ("name", "removed", "guard", "body_user", "body_builtin", "_plan")
    _fields = __slots__[:-1]

    def __init__(self, name: str, removed: tuple[Constraint, ...], guard: tuple[Constraint, ...],
                 body_user: tuple[Constraint, ...], body_builtin: tuple[Constraint, ...]) -> None:
        self.name, self.removed, self.guard = name, removed, guard
        self.body_user, self.body_builtin = body_user, body_builtin
        self._plan = _RulePlan(self)


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
    """The chunk's pairs as they are, in slot-name order; carries ``chunk``."""
    return _chunk_term(chunk, TList(tuple(tuple_term(s, v) for s, v in chunk.pairs)))


def _chunk_term(chunk: Chunk, pairs: TList) -> Compound:
    """``chunk(Id, Type, pairs)`` carrying ``chunk``, whose pairs ``pairs`` encodes."""
    out = Compound("chunk", (chunk.id, chunk.type, pairs))
    out._chunk = chunk
    return out


def encode_store(store: ChunkStore) -> TList:
    """Chunk list sorted by identifier name; the canonical encoding, checked
    and carrying ``store`` (see :func:`_checked`)."""
    out = TList(tuple(encode_chunk(c) for c in store.sorted_chunks()))
    return _checked(out, {t.args[0]: (t,) for t in out.items}, store)


def _checked(lst: TList, index: dict, store: Optional[ChunkStore] = None) -> TList:
    """``lst``, chunk terms strictly ordered by id, marked ground with its
    first-argument index (see :func:`_first_args`) and ``store``, if given.
    Only this sets ``_ids``, so a list has it exactly when it is checked."""
    lst._ids, lst._ground = index, True
    if store is not None:
        lst._store = store
    return lst


def encode_action(action: Action) -> Compound:
    """Action term handed to the ``action`` built-in; modifications keep
    their type anonymous."""
    pairs = encode_pairs(action.pairs)
    if action.kind == MODIFY:
        return Compound("=", (action.buffer, ANONYMOUS, pairs))
    return Compound("+", (action.buffer, action.type, pairs))


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

    A term built from a chunk carries it in its ``_chunk`` slot; any other
    keeps its first successful decoding there, so it is validated once.
    """
    chunk = getattr(t, "_chunk", None)
    if chunk is not None:
        return chunk
    id, type, pairs = _chunk_fields(t)
    decoded = []
    for p in pairs.items:
        if not (_is_pair(p) and p.args[0].__class__ is Symbol and p.args[1].__class__ is Symbol):
            raise ChrError(f"malformed slot pair: {render_term(p)}")
        decoded.append(p.args)
    names = [s.name for s, _ in decoded]
    if any(a >= b for a, b in zip(names, names[1:])):
        raise ChrError(f"slots not in strict name order: {render_term(t)}")
    chunk = t._chunk = Chunk(id, type, decoded)
    return chunk


def encode_cogstate(gamma: Iterable[tuple[Symbol, Term, Term]]) -> TList:
    """Buffer-sorted list of (buffer, (chunk, delay)) entries."""
    rows = sorted(gamma, key=lambda r: r[0].name)
    return TList(tuple(tuple_term(b, tuple_term(c, d)) for b, c, d in rows))


# ---------------------------------------------------------------------------
# rule plans
#
# Head variables get the first registers, then each guard and body
# built-in's results.  Constants have registers too, so every input is one
# register; an unbound variable stays in a built-in's input, where the
# built-in raises Undecided on it or names it in a message.  A rule outside
# the fragment the translation writes raises ChrError when it is made.

# the built-ins and their arities, solved in guards and bodies and never
# stored; a guard or body constraint of any other name (a fact's, such as
# ``dm/1``) is uninterpreted
_ARITY = {"=": 2, ">": 2, "in": 2, "action": 6, "merge": 2, "map": 4}
# goal arguments ground by their class; a head keys its goal index by one
_ATOMIC = frozenset([Symbol, int])

# pattern kinds; a pattern is (kind, register or value or functor, subpatterns)
_BIND, _SAME, _CONST, _COMPOUND, _LIST = range(5)


class _Planner:
    """The registers of a plan while it is made.

    ``slots`` maps each variable bound so far to its register and ``init``
    holds each register's starting value: None for a variable, the value
    for a constant.  ``loose`` is set when a template meets an unbound
    variable.  Register ``atoms``, made with the first ``action``, collects
    the facts the ``action`` constraints contribute.
    """

    __slots__ = ("slots", "init", "atoms", "loose")

    def __init__(self) -> None:
        self.slots: dict[Variable, int] = {}
        self.init: list = []
        self.atoms: Optional[int] = None
        self.loose = False

    def template(self, t: Term, c: Constraint) -> int:
        """The register holding ``t``: a bound variable's, else a new one
        holding a ground term or an unbound variable.  A term that would
        be built from bindings at run time is refused, naming ``c``."""
        cls = t.__class__
        if cls is Variable:
            i = self.slots.get(t)
            if i is not None:
                return i
            self.loose = True
        elif (cls is Compound or cls is TList) and not is_ground(t):
            raise ChrError(f"term built at run time: {render_term(t)} in {render_constraint(c)}")
        self.init.append(t)
        return len(self.init) - 1

    def inputs(self, terms: Iterable[Term], c: Constraint) -> tuple[int, ...]:
        """The terms' registers; ``loose`` tells whether one holds an
        unbound variable."""
        self.loose = False
        return tuple([self.template(t, c) for t in terms])

    def pattern(self, t: Term) -> tuple:
        """``t`` as a pattern for :func:`match_into`; its variables are
        bound from here on."""
        cls = t.__class__
        if cls is Variable:
            i = self.slots.get(t)
            if i is not None:
                return (_SAME, i, ())
            self.slots[t] = i = len(self.init)
            self.init.append(None)
            return (_BIND, i, ())
        if (cls is Compound or cls is TList) and not is_ground(t):
            subs = tuple([self.pattern(a) for a in (t.args if cls is Compound else t.items)])
            return (_COMPOUND, t.functor, subs) if cls is Compound else (_LIST, None, subs)
        return (_CONST, t, ())

    def result(self, t: Term, c: Constraint) -> int:
        """The register a built-in stores its result in: ``t`` must be a
        variable met here first."""
        if t.__class__ is not Variable or t in self.slots:
            raise ChrError(f"result not a new variable: {render_term(t)} in {render_constraint(c)}")
        self.slots[t] = i = len(self.init)
        self.init.append(None)
        return i

    def heads(self, removed: tuple[Constraint, ...]) -> tuple[tuple, ...]:
        """Per head constraint: its goal index key (name, arity and a
        symbol or integer first argument, if it has one) and the position
        where its variables start.  Every argument from there on must be a
        variable met there first; it takes the next register."""
        out = []
        for c in removed:
            args = c.args
            keyed = 1 if args and args[0].__class__ in _ATOMIC else 0
            for a in args[keyed:]:
                if a.__class__ is not Variable or a in self.slots:
                    raise ChrError(f"head argument not a new variable: {render_term(a)} in {render_constraint(c)}")
                self.slots[a] = len(self.init)
                self.init.append(None)
            out.append(((c.name, len(args), args[0]) if keyed else (c.name, len(args)), keyed))
        return tuple(out)

    def action(self, t: Term, c: Constraint) -> Optional[tuple]:
        """A written-out action term as (kind, buffer, type, slots,
        registers of the slot values); None for any other term."""
        if t.__class__ is Compound and t.functor in ("=", "+") and len(t.args) == 3:
            buffer, type, pairs = t.args
            modify = t.functor == "="
            if (
                buffer.__class__ is Symbol
                and pairs.__class__ is TList
                and (modify or type.__class__ is Symbol)
                and all(_is_pair(p) and p.args[0].__class__ is Symbol for p in pairs.items)
            ):
                slots = tuple([p.args[0] for p in pairs.items])
                values = tuple([self.template(p.args[1], c) for p in pairs.items])
                return (MODIFY if modify else REQUEST, buffer, None if modify else type, slots, values)
        return None

    def cogstate(self, t: Term, c: Constraint) -> Optional[tuple[int, ...]]:
        """A written-out cognitive-state list, each row (buffer, (chunk,
        delay)), as the registers of each row's buffer, chunk and delay in
        turn; None for any other term."""
        if t.__class__ is TList and all(_is_pair(r) and _is_pair(r.args[1]) for r in t.items):
            return tuple([self.template(x, c) for r in t.items for x in (r.args[0], *r.args[1].args)])
        return None

    def refuse(self, t: Term, what: str, unbound: str, c: Optional[Constraint]) -> tuple:
        """The step of a built-in whose operand ``t`` is not written out in
        the rule: Undecided once reached (see :func:`_fail`) when ``t`` is
        an unbound variable; anything else raises ChrError naming ``t``."""
        if t.__class__ is Variable and t not in self.slots:
            return _fail, (unbound, c)
        raise ChrError(f"{what}: {render_term(t)}")

    def step(self, c: Constraint) -> tuple:
        """A guard or body built-in as (solver, operands)."""
        arity = _ARITY.get(c.name)
        if arity is None:
            return _fail, ("uninterpreted constraint used as a goal", c)
        if len(c.args) != arity:
            raise ChrError(f"{c.name}/{arity} expected: {render_constraint(c)}")
        name, args = c.name, c.args
        if name == "=":
            right = self.inputs(args[1:], c)
            if self.loose:
                return _fail, ("equation with an unbound right side", c)
            return _solve_eq, (self.pattern(args[0]), right[0])
        if name == ">":
            return _solve_gt, (*self.inputs(args, c), c)
        if name == "in":
            pattern, lst = args
            items = self.inputs((lst,), c)
            if self.loose:
                return _fail, ("membership over unbound list", c)
            key = None  # a bound or ground first argument: read the list's index
            if pattern.__class__ is Compound and pattern.args:
                first = pattern.args[0]
                if first.__class__ is Variable:
                    key = self.slots.get(first)
                elif is_ground(first):
                    key = self.template(first, c)
            return _solve_in, (self.pattern(pattern), items[0], key, c)
        if name == "action":
            a, d, g = args[:3]
            spec = self.action(a, c)
            if spec is None:
                return self.refuse(a, "not an action term", "action over an unbound action term", c)
            rows = self.cogstate(g, c)
            if rows is None:
                unbound = f"cognitive state not a list: {render_term(g)}"
                return self.refuse(g, "cognitive state not written out as a list", unbound, None)
            ins = (spec, self.template(d, c), rows)
            if self.atoms is None:
                self.atoms = len(self.init)
                self.init.append(())
            outs = tuple([self.result(x, c) for x in args[3:]])
            return _solve_action, (*ins, outs, self.atoms, c)
        if name == "merge":
            lst = args[0]  # a written-out list: its operands, each in a register
            if lst.__class__ is not TList:
                return self.refuse(lst, "merge operands not written out as a list", "merge over unbound list", c)
            lists = self.inputs(lst.items, c)
            if self.loose:
                return _fail, ("merge over unbound list", c)
            return _solve_merge, (lists, self.result(args[1], c))
        ins = self.inputs(args[:3], c)
        return _solve_map, (*ins, self.result(args[3], c), c)


def _is_pair(t: Term) -> bool:
    return t.__class__ is Compound and t.functor == "," and len(t.args) == 2


def match_into(pattern: tuple, term: Term, regs: list) -> bool:
    """Match a plan's pattern against the ground ``term``, storing the
    values of its first-bound variables in ``regs``: one-sided, as CHR
    head matching is, so every value stored is a ground subterm of
    ``term``.  On failure some of those registers may be written."""
    kind, x, subs = pattern
    if kind == _COMPOUND:
        if term.__class__ is not Compound or term.functor != x:
            return False
        args = term.args
    elif kind == _LIST:
        if term.__class__ is not TList:
            return False
        args = term.items
    elif kind == _BIND:
        regs[x] = term
        return True
    elif kind == _SAME:
        return regs[x] == term
    else:
        return x == term
    if len(args) != len(subs):
        return False
    for sub, arg in zip(subs, args):
        kind, x, _ = sub
        if kind == _BIND:
            regs[x] = arg
        elif kind == _CONST:
            if x != arg:
                return False
        elif kind == _SAME:
            if regs[x] != arg:
                return False
        elif not match_into(sub, arg, regs):
            return False
    return True


def _run(steps: tuple, states: list, ctx: tuple) -> list:
    """Solve a conjunction left to right, branching where the theory does:
    every state solves one built-in before any state solves the next, so
    the first error raised is the one a breadth-first solver meets."""
    for solve, operands in steps:
        nxt: list = []
        for regs in states:
            nxt += solve(regs, operands, ctx)
        if not nxt:
            return nxt
        states = nxt
    return states


def _fail(_regs: list, operands: tuple, _ctx: tuple) -> list:
    """A built-in whose plan already shows it undecided once reached: an
    unbound input or an uninterpreted constraint."""
    text, c = operands
    raise Undecided(text if c is None else f"{text}: {render_constraint(c)}")


def _solve_eq(regs: list, operands: tuple, _ctx: tuple) -> tuple:
    """left = right: the left side matched against the ground right side."""
    pattern, right = operands
    return (regs,) if match_into(pattern, regs[right], regs) else ()


def _solve_gt(regs: list, operands: tuple, _ctx: tuple) -> tuple:
    a, b, c = operands
    a, b = regs[a], regs[b]
    if not (isinstance(a, int) and isinstance(b, int)):
        raise Undecided(f"non-numeric comparison: {render_constraint(c)}")
    return (regs,) if a > b else ()


def _solve_in(regs: list, operands: tuple, _ctx: tuple) -> Union[tuple, list]:
    """pattern in list: one solution per item the pattern matches, in list
    order; a bound first argument reads the list's index."""
    pattern, lst, key, c = operands
    lst = regs[lst]
    if lst.__class__ is not TList:
        raise Undecided(f"membership over unbound list: {render_constraint(c)}")
    items = lst.items if key is None else _first_args(lst).get(regs[key], ())
    out = []
    for item in items:
        r = regs.copy()
        if match_into(pattern, item, r):
            out.append(r)
    return out


def _first_args(t: TList) -> dict[Term, tuple[Term, ...]]:
    """The first argument of each compound item (a chunk term's id),
    mapped to the items with it in list order: the index a checked list
    keeps (see :func:`_checked`), else one built anew and not kept."""
    index = getattr(t, "_ids", None)
    if index is None:
        index = {}
        for item in t.items:
            if isinstance(item, Compound) and item.args:
                index[item.args[0]] = index.get(item.args[0], ()) + (item,)
    return index


def _solve_action(regs: list, operands: tuple, ctx: tuple) -> Union[tuple, list]:
    """action(A, D, G, Dres, Cres, Eres): interpret action A in the state
    encoded by chunk list D, cognitive state G and the ambient facts; one
    solution per effect, binding the effect's chunk list, the chunk id it
    puts in A's buffer and that buffer's delay, and contributing the
    effect's facts.

    A and G are written out in the rule (see :meth:`_Planner.action` and
    :meth:`_Planner.cogstate`), so only their values are read here.  Every
    buffer must name a listed chunk.  A modification is solved over chunk
    terms (see :func:`_modify`).  A request is the one built-in the
    abstract machine shares, since the semantics leaves its handlers as a
    parameter: :func:`~actrchr.engine.interpret_request` reads the store
    the list carries (see :func:`_store_of`).

    The run's memo is read only once every operand is checked (see the
    module docstring); a call that raises records nothing.
    """
    (kind, buffer, type, slots, values), d, g, (dres, cres, eres), atoms, c = operands
    pairs = tuple(zip(slots, map(regs.__getitem__, values)))
    for slot, value in pairs:
        if value.__class__ is not Symbol:
            raise Undecided(f"action pair not ground: {render_term(tuple_term(slot, value))}")
    d = regs[d]
    if d.__class__ is Variable:
        raise Undecided(f"action over an unbound store: {render_constraint(c)}")
    listed = _chunk_index(d)  # nil may be missing; it is in every state store
    flat = map(regs.__getitem__, g)
    gamma: dict[Symbol, tuple[Symbol, int]] = {}
    for b, cid, delay in zip(flat, flat, flat):
        if not (b.__class__ is Symbol and cid.__class__ is Symbol and isinstance(delay, int)):
            entry = tuple_term(b, tuple_term(cid, delay))
            raise Undecided(f"cognitive state entry not ground: {render_term(entry)}")
        gamma[b] = (cid, delay)
    for b, (cid, delay) in gamma.items():
        if cid not in listed and cid is not NIL:
            raise ChrError(f"buffer {b} holds unknown chunk id {cid}")
        if delay not in (0, 1):
            raise ChrError(f"buffer {b} has non-binary delay {delay}")
    facts, config, ids, memo = ctx
    if kind == MODIFY:
        if buffer not in gamma:
            raise ChrError(f"no buffer {buffer}")
        (incumbent,) = listed.get(gamma[buffer][0], (_NIL_TERM,))
        key = _modify_key(buffer, pairs, incumbent, listed)
    elif config.handler_for(buffer) is declarative_retrieval:
        key = _request_key(buffer, type, pairs, facts)
    else:
        key = None
    recorded = memo.get(key)  # nothing is recorded under None
    if recorded is not None:
        answers = [_redrawn(answer, ids) for answer in recorded[1]]
    else:
        if kind == MODIFY:
            answers = [_modify(pairs, incumbent, listed, ids)]
        else:
            answers = _request(Action(kind, buffer, type, pairs), d, gamma, facts, config, ids)
        if key is not None:
            memo[key] = (facts, answers)  # keeps the fact tuple alive, so its id stays unique
    out = []
    for answer in answers:
        r = regs if len(answers) == 1 else regs.copy()
        r[dres], r[cres], r[eres], added = answer
        if added:
            r[atoms] += added
        out.append(r)
    return out


def _modify_key(
    buffer: Symbol,
    pairs: tuple[tuple[Symbol, Symbol], ...],
    incumbent: Compound,
    listed: dict[Term, tuple[Term, ...]],
) -> tuple:
    """A modification's memo key: all that :func:`_modify` reads, the
    buffer, the update pairs, the incumbent term's type and pair list, and
    which update values name a listed chunk."""
    _, type, old = _chunk_fields(incumbent)
    return (MODIFY, buffer, pairs, type, old, tuple([v in listed for _, v in pairs]))


def _request_key(
    buffer: Symbol, type: Symbol, pairs: tuple[tuple[Symbol, Symbol], ...], facts: tuple[Atom, ...]
) -> tuple:
    """A memo key for a request to declarative retrieval: the buffer, the
    type, the pairs and the fact tuple by identity.  The retrieval also
    reads the chunks the ``dm`` facts name, which are parsed chunks, and
    so the same in every store of a run."""
    return (REQUEST, buffer, type, pairs, id(facts))


def _redrawn(answer: tuple, ids: IdGen) -> tuple:
    """A recorded answer anew: its chunk, if it has one, under the next
    fresh id; a nil answer draws none."""
    lst, cid, delay, added = answer
    if not lst.items:
        return answer
    (term,) = lst.items
    fresh = ids.fresh()
    copy = _chunk_term(term._chunk.renamed(fresh), term.args[2])
    return _checked(TList((copy,)), {fresh: (copy,)}), fresh, delay, added


def _request(
    action: Action,
    d: TList,
    gamma: dict[Symbol, tuple[Symbol, int]],
    facts: tuple[Atom, ...],
    config: ArchitectureConfig,
    ids: IdGen,
) -> list[tuple[TList, Symbol, int, tuple[Atom, ...]]]:
    """One answer per effect of :func:`~actrchr.engine.interpret_request`
    in the abstract state that ``d``, ``gamma`` and ``facts`` encode."""
    rows = tuple((b, cid, delay) for b, (cid, delay) in gamma.items())  # checked by the caller
    if any(x[0].name > y[0].name for x, y in zip(rows, rows[1:])):
        rows = tuple(sorted(rows, key=lambda r: r[0].name))
    if any(x.content()[0] > y.content()[0] for x, y in zip(facts, facts[1:])):
        facts = sort_atoms(facts)  # a step appends the facts it adds
    state = AbstractState(_store_of(d).with_nil(), rows, facts)
    answers = []
    for eff in interpret_request(action, state, config, ids):
        cid, delay = {b: (cc, dd) for b, cc, dd in eff.gamma}[action.buffer]
        answers.append((encode_store(eff.store), cid, delay, eff.atoms))
    return answers


_NIL_TERM = encode_chunk(NIL_CHUNK)


def _modify(
    pairs: tuple[tuple[Symbol, Symbol], ...],
    incumbent: Compound,
    listed: dict[Term, tuple[Term, ...]],
    ids: IdGen,
) -> tuple[TList, Symbol, int, tuple[Atom, ...]]:
    """The incumbent term copied under a fresh id, visible, with the update
    slots set.  An update value that names no listed chunk becomes nil; an
    update slot the incumbent lacks is ignored.  ``listed`` is the store's
    index, where nil may be missing."""
    _, type, old = _chunk_fields(incumbent)
    updates = dict(pairs)
    new_pairs = []
    for p in old.items:
        slot = p.args[0]  # type: ignore[union-attr]
        if slot in updates:
            v = updates[slot]
            p = tuple_term(slot, v if v in listed else NIL)
        new_pairs.append(p)
    fresh = ids.fresh()
    copy = _chunk_term(Chunk(fresh, type, [p.args for p in new_pairs]), TList(tuple(new_pairs)))
    return _checked(TList((copy,)), {fresh: (copy,)}), fresh, 0, ()


def _solve_merge(regs: list, operands: tuple, _ctx: tuple) -> tuple:
    """merge(L, D): D is the merge of the chunk lists in L (see
    :func:`merge_chunk_lists`)."""
    lists, out = operands
    regs[out] = merge_chunk_lists(map(regs.__getitem__, lists))
    return (regs,)


def merge_chunk_lists(lists: Iterable[Term]) -> TList:
    """The store merge over chunk lists, folded left from the empty list.

    Each operand must be strictly ordered by identifier name, as
    :func:`encode_store` lists a store, and is read through its index.
    A shared identifier must carry equal terms and keeps the left
    operand's, so a successor store holds its parent's term objects.  A
    clash or an operand out of order raises :class:`ChrError`.  A lone
    non-empty operand comes back as it is, checked; any other result is
    checked (see :func:`_checked`) and carries the store derived from the
    first operand's when that carries one.
    """
    merged: dict[Term, tuple[Term, ...]] = {}
    ids: list[Term] = []  # the first operand's order, each added id inserted by name
    nonempty = []
    added: list[Term] = []
    for lst in lists:
        index = _chunk_index(lst)
        if not index:
            continue
        nonempty.append(lst)
        if not merged:
            merged = dict(index)
            ids = list(index)
            continue
        for id, entry in index.items():
            kept = merged.get(id)
            if kept is None:
                merged[id] = entry
                added += entry
                insort(ids, id, key=_NAME)
            elif kept is not entry and kept != entry:
                raise ChrError(f"merge: id {id} bound to {render_term(kept[0])} and {render_term(entry[0])}")
    if len(nonempty) == 1:
        return nonempty[0]  # type: ignore[return-value]
    entries = tuple(map(merged.__getitem__, ids))
    store = getattr(nonempty[0], "_store", None) if nonempty else None
    if store is not None:
        store = store.adding([decode_chunk(t) for t in added])
    return _checked(TList(tuple(chain.from_iterable(entries))), dict(zip(ids, entries)), store)


_NAME = attrgetter("name")


def _chunk_index(t: Term) -> dict[Term, tuple[Term, ...]]:
    """A checked chunk list's index; any other list is checked here and
    marked (see :func:`_checked`), and any other term raises ChrError."""
    index = getattr(t, "_ids", None)
    if index is not None:
        return index
    if not isinstance(t, TList):
        raise ChrError(f"not a chunk list: {render_term(t)}")
    names = [decode_chunk(term).id.name for term in t.items]
    if any(a >= b for a, b in zip(names, names[1:])):
        raise ChrError(f"chunk list not in strict id order: {render_term(t)}")
    return _checked(t, _first_args(t))._ids


def _store_of(t: TList) -> ChunkStore:
    """The store a chunk list carries, else its decoding, ids checked
    distinct, then carried if they are strictly ordered (see :func:`_checked`)."""
    store = getattr(t, "_store", None)
    if store is None:
        chunks = [decode_chunk(x) for x in t.items]
        if len({c.id for c in chunks}) != len(chunks):
            raise ChrError(f"chunk id listed twice in delta: {render_term(t)}")
        store = ChunkStore(chunks)
        if all(a.id.name < b.id.name for a, b in zip(chunks, chunks[1:])):
            _checked(t, _first_args(t), store)
    return store


def _solve_map(regs: list, operands: tuple, _ctx: tuple) -> tuple:
    """map(D, D2, C, M): M is C's identifier after merging D with D2 —
    identity when either store knows C, nil otherwise."""
    d, d2, cid, out, c = operands
    cid = regs[cid]
    if cid.__class__ is not Symbol:
        raise Undecided(f"map over unbound id: {render_constraint(c)}")
    known = False
    for store in (regs[d], regs[d2]):
        if store.__class__ is Variable:
            raise Undecided(f"map over an unbound store: {render_constraint(c)}")
        known = cid in _chunk_index(store) or known
    regs[out] = cid if known else NIL
    return (regs,)


# ---------------------------------------------------------------------------
# the step relation


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


class _RulePlan:
    """What :func:`chr_step` runs for a rule: the head (see
    :meth:`_Planner.heads`), the registers after the head's, the guard and
    body built-ins (see :meth:`_Planner.step`), and the body constraints,
    each the position of the head constraint it equals or (name, argument
    registers), with the position of the first one that keeps an unbound
    variable, if any.  A rule with an empty head is refused: a
    simplification rule removes at least one constraint."""

    __slots__ = ("heads", "tail", "guard", "body", "adds", "leak", "atoms")

    def __init__(self, rule: ChrRule) -> None:
        if not rule.removed:
            raise ChrError(f"rule {rule.name} removes no constraint")
        plan = _Planner()
        self.heads = plan.heads(rule.removed)
        head_size = len(plan.init)
        self.guard = tuple([plan.step(c) for c in rule.guard])
        self.body = tuple([plan.step(c) for c in rule.body_builtin])
        self.leak = None
        adds: list = []
        # a body constraint equal to a head constraint is the goal
        # constraint that head constraint matched
        at = {h: k for k, h in enumerate(rule.removed)}
        for u in rule.body_user:
            k = at.get(u)
            if k is not None:
                adds.append(k)
                continue
            adds.append((u.name, plan.inputs(u.args, u)))
            if plan.loose and self.leak is None:
                self.leak = len(adds) - 1
        self.adds = tuple(adds)
        self.atoms = plan.atoms
        self.tail = tuple(plan.init[head_size:])

    def successor(self, regs: list, goal: tuple, used: tuple, parent: ChrState) -> ChrState:
        """The state a body solution gives: the goal without the matched
        positions ``used``, plus the body constraints, beside the parent's
        facts and then those ``action`` contributed; with none contributed,
        beside the parent's fact tuple itself."""
        added = tuple([
            goal[used[a]] if a.__class__ is int else Constraint(a[0], tuple(map(regs.__getitem__, a[1])))
            for a in self.adds
        ])
        if self.leak is not None:
            raise Undecided(f"body constraint not ground: {render_constraint(added[self.leak])}")
        if len(used) == len(goal):
            kept: tuple = ()
        else:
            kept = tuple([c for gi, c in enumerate(goal) if gi not in used])
        if self.atoms is not None and regs[self.atoms]:
            return ChrState(kept + added, parent.facts + regs[self.atoms])
        return ChrState(kept + added, parent.facts)


def _match_heads(heads: tuple, goal: tuple[Constraint, ...], index: dict) -> list:
    """Injective matchings of a planned head against the goal, in goal
    order, as (head register values, matched goal positions): each goal
    constraint under a head constraint's key gives the values of its
    arguments from where that head constraint's variables start."""
    found: list = [((), ())]
    for key, keyed in heads:
        candidates = index.get(key)
        if candidates is None:
            return []
        found = [
            (vals + goal[gi].args[keyed:], used + (gi,))
            for vals, used in found
            for gi in candidates
            if gi not in used
        ]
    return found


def chr_step(state: ChrState, program: Iterable[ChrRule], run: Run | None = None) -> list[tuple[str, ChrState]]:
    """All successor states, labelled by the rule that produced them.

    The goal must be ground, so it shares no variable with a rule: rules
    are used as they are, in program order, each through its plan.  A
    goal constraint with a variable raises :class:`ChrError`.  Every
    injective head matching and every guard/body solution yields one
    successor: the matched constraints are removed, the body's user
    constraints are added ground, and the built-in store grows only by the
    facts contributed by ``action``.  ``run`` supplies the configuration
    and fresh identifiers, by default the default configuration and
    :func:`fresh_gen_for` the state.
    """
    goal = state.goal
    index: dict = {}  # goal constraints by (name, arity[, symbol first argument])
    for gi, c in enumerate(goal):
        args = c.args
        for a in args:
            if a.__class__ not in _ATOMIC and not is_ground(a):
                raise ChrError(f"goal not ground: {render_constraint(c)}")
        index.setdefault((c.name, len(args)), []).append(gi)
        if args and args[0].__class__ in _ATOMIC:
            index.setdefault((c.name, len(args), args[0]), []).append(gi)
    if run is None:
        run = Run(ArchitectureConfig(), fresh_gen_for(state))
    ctx = (state.facts, run.config, run.ids, run.memo)
    out: list[tuple[str, ChrState]] = []
    for rule in program:
        plan = rule._plan
        for vals, used in _match_heads(plan.heads, goal, index):
            for regs in _run(plan.guard, [[*vals, *plan.tail]], ctx):
                for regs in _run(plan.body, [regs], ctx):
                    out.append((rule.name, plan.successor(regs, goal, used, state)))
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
    :class:`ChrError` naming what breaks it.  A fresh id in a slot or a
    fact raises :class:`~actrchr.engine.EngineError`.
    """
    terms = None
    gammas: dict[Term, Constraint] = {}
    for c in state.goal:
        if c.name == "delta" and len(c.args) == 1:
            if terms is not None:
                raise ChrError(f"second delta in the goal: {render_constraint(c)}")
            terms = c.args[0]
        elif c.name == "gamma" and len(c.args) == 3:
            if c.args[0] in gammas:
                raise ChrError(f"two gamma rows for buffer {render_term(c.args[0])}")
            gammas[c.args[0]] = c
        else:
            raise ChrError(f"goal constraint not delta/1 or gamma/3: {render_constraint(c)}")
    if not isinstance(terms, TList):
        raise ChrError("goal has no delta over a chunk list")
    store = _store_of(terms)
    rows = []
    for c in gammas.values():
        b, cid, d = c.args
        if not (isinstance(b, Symbol) and cid in store):
            raise ChrError(f"gamma row names no listed chunk: {render_constraint(c)}")
        if d not in (0, 1):
            raise ChrError(f"gamma row with a delay other than 0 or 1: {render_constraint(c)}")
        rows.append((b, cid, d))
    rows.sort(key=lambda r: r[0].name)
    return canonical_key(AbstractState(store, tuple(rows), state.facts))


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
    facts = ", ".join(render_constraint(Constraint(a.pred, a.args)) for a in s.facts) or "true"
    return f"<{goal} ; {facts}>"
