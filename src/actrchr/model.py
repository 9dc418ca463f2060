"""Model syntax tree, abstract machine states and static validation.

A model declares chunk types, an initial chunk store, the declarative
memory subset, the buffer set with its initial contents, and production
rules.  :func:`validate` returns diagnostics instead of raising so a
front end can report every problem at once.  A state is a plain value;
a run's memo lives in its :class:`~actrchr.engine.Run`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Optional

from .core import Chunk, ChunkStore, NIL, Record, Symbol, TypeTable, Value, Variable, is_fresh_id

#: A single slot test or slot update, e.g. ``current: X``.
Pair = tuple[Symbol, Value]

MODIFY = "modify"
REQUEST = "request"
#: The label of the timing transition, which no rule may take as its name.
NO_LABEL = "no"


class Span(Record):
    """Line/column position of a syntax element (1-based)."""

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        self.line, self.col = line, col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Atom(Record):
    """Ground fact carried alongside the machine state, e.g. ``dm(b)``."""

    __slots__ = ("pred", "args", "_content")  # _content as Chunk's
    _fields = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Symbol, ...]) -> None:
        self.pred, self.args = pred, args
        fresh = next((a for a in args if is_fresh_id(a)), None)
        self._content = ((pred, tuple(a.name for a in args)), fresh)

    def content(self) -> tuple[tuple[str, tuple[str, ...]], Symbol | None]:
        """As :meth:`Chunk.content`: predicate and argument names, first fresh argument."""
        return self._content

    def __repr__(self) -> str:
        return f"{self.pred}({', '.join(a.name for a in self.args)})"


def dm_atom(id: Symbol) -> Atom:
    return Atom("dm", (id,))


def sort_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """The facts by predicate and argument names."""
    return tuple(sorted(atoms, key=lambda a: a.content()[0]))


class BufferTest(Record):
    """LHS test: the buffer must hold a visible chunk of ``type`` whose
    slots agree with ``pairs``."""

    __slots__ = ("buffer", "type", "pairs", "span")
    _fields = __slots__[:-1]

    def __init__(self, buffer: Symbol, type: Symbol, pairs: tuple[Pair, ...],
                 span: Optional[Span] = None) -> None:
        self.buffer, self.type, self.pairs, self.span = buffer, type, pairs, span


class Action(Record):
    """RHS action; ``kind`` is ``modify`` (type stays anonymous) or
    ``request`` (typed)."""

    __slots__ = ("kind", "buffer", "type", "pairs", "span")
    _fields = __slots__[:-1]

    def __init__(self, kind: str, buffer: Symbol, type: Optional[Symbol], pairs: tuple[Pair, ...],
                 span: Optional[Span] = None) -> None:
        if kind not in (MODIFY, REQUEST):
            raise ValueError(f"unknown action kind {kind!r}")
        if kind == MODIFY and type is not None:
            raise ValueError("modifications carry no type")
        self.kind, self.buffer, self.type, self.pairs, self.span = kind, buffer, type, pairs, span


def pair_vars(pairs: Iterable[Pair]) -> set[Variable]:
    return {v for _, v in pairs if isinstance(v, Variable)}


class Rule(Record):
    __slots__ = ("name", "tests", "actions", "span")
    _fields = __slots__[:-1]

    def __init__(self, name: str, tests: tuple[BufferTest, ...], actions: tuple[Action, ...],
                 span: Optional[Span] = None) -> None:
        self.name, self.tests, self.actions, self.span = name, tests, actions, span

    def lhs_vars(self) -> set[Variable]:
        out: set[Variable] = set()
        for t in self.tests:
            out |= pair_vars(t.pairs)
        return out

    def rhs_vars(self) -> set[Variable]:
        out: set[Variable] = set()
        for a in self.actions:
            out |= pair_vars(a.pairs)
        return out


class AbstractState(Record):
    """A machine state: chunk store, buffer contents, ground facts.

    ``gamma`` is total on the model's buffers and maps each to a chunk
    identifier of ``store`` plus a delay flag (0 visible, 1 pending).
    Stored sorted by buffer name so equal states compare equal.
    """

    __slots__ = ("store", "gamma", "upsilon")

    def __init__(self, store: ChunkStore, gamma: tuple[tuple[Symbol, Symbol, int], ...],
                 upsilon: tuple[Atom, ...]) -> None:
        self.store, self.gamma, self.upsilon = store, gamma, upsilon

    @staticmethod
    def make(
        store: ChunkStore,
        gamma: Mapping[Symbol, tuple[Symbol, int]] | Iterable[tuple[Symbol, Symbol, int]],
        upsilon: Iterable[Atom] = (),
    ) -> "AbstractState":
        """A checked state from outside (initial, CHR-decoded, tests): rows
        name chunks of the store, which holds ``nil``, and facts are sorted.
        Stores only grow, so successors rely on this and check only the rows
        their step sets, with :func:`check_rows`."""
        if isinstance(gamma, Mapping):
            rows = [(b, c, d) for b, (c, d) in gamma.items()]
        else:
            rows = list(gamma)
        store = store.with_nil()
        check_rows(store, rows)
        return AbstractState(
            store=store,
            gamma=tuple(sorted(rows, key=lambda r: r[0].name)),
            upsilon=sort_atoms(upsilon),
        )

    def buffers(self) -> tuple[Symbol, ...]:
        return tuple(b for b, _, _ in self.gamma)

    def buffer(self, b: Symbol) -> tuple[Symbol, int]:
        for name, c, d in self.gamma:
            if name == b:
                return (c, d)
        raise KeyError(f"no buffer {b}")


def check_rows(store: ChunkStore, rows: Iterable[tuple[Symbol, Symbol, int]]) -> None:
    """Each buffer row names a chunk of the store and a delay of 0 or 1."""
    for b, c, d in rows:
        if c not in store:
            raise ValueError(f"buffer {b} holds unknown chunk id {c}")
        if d not in (0, 1):
            raise ValueError(f"buffer {b} has non-binary delay {d}")


class Model(Record):
    """A parsed model; use :func:`validate` before running it."""

    __slots__ = ("types", "chunks", "dm", "buffers", "init", "rules")

    def __init__(self, types: TypeTable, chunks: tuple[Chunk, ...], dm: tuple[Symbol, ...],
                 buffers: tuple[Symbol, ...], init: tuple[tuple[Symbol, Symbol, int], ...],
                 rules: tuple[Rule, ...]) -> None:
        self.types, self.chunks, self.dm, self.buffers, self.init, self.rules = (
            types, chunks, dm, buffers, init, rules)

    def store(self) -> ChunkStore:
        return ChunkStore(self.chunks).with_nil()

    def initial_state(self) -> AbstractState:
        return AbstractState.make(
            self.store(),
            self.init,
            (dm_atom(i) for i in self.dm),
        )


class Diagnostic(Record):
    __slots__ = ("code", "message", "span")
    _fields = __slots__[:-1]

    def __init__(self, code: str, message: str, span: Optional[Span] = None) -> None:
        self.code, self.message, self.span = code, message, span

    def __repr__(self) -> str:  # shows the span it does not compare
        return f"Diagnostic(code={self.code!r}, message={self.message!r}, span={self.span!r})"

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.code}: {self.message}"


def validate(model: Model) -> list[Diagnostic]:
    """Static checks; an empty result means the model is runnable."""
    out: list[Diagnostic] = []
    ids = set()
    for c in model.chunks:
        if c.id in ids or c.id == NIL:
            out.append(
                Diagnostic("duplicate-chunk-id", f"chunk id {c.id} declared twice")
            )
        ids.add(c.id)
        if not model.types.has(c.type):
            out.append(Diagnostic("unknown-type", f"chunk {c.id} has type {c.type}"))
            continue
        slots = model.types.slots(c.type)
        extra = [s for s, _ in c.pairs if s not in slots]
        for s in extra:
            out.append(
                Diagnostic("unknown-slot", f"chunk {c.id}: slot {s} not in {c.type}")
            )
    ids.add(NIL)
    for c in model.chunks:  # a slot may name a chunk declared after its own
        for s, v in c.pairs:
            if v not in ids:
                out.append(Diagnostic("unknown-chunk", f"chunk {c.id}: slot {s} names unknown chunk {v}"))

    for i in model.dm:
        if i not in ids:
            out.append(Diagnostic("unknown-chunk", f"dm lists unknown chunk {i}"))

    declared = set()
    for b, c, _ in model.init:
        declared.add(b)
        if c not in ids:
            out.append(
                Diagnostic("unknown-chunk", f"buffer {b} starts with unknown chunk {c}")
            )

    for r in model.rules:
        if r.name == NO_LABEL:
            out.append(
                Diagnostic(
                    "reserved-rule-name",
                    f"rule {r.name}: the timing transition's name is reserved",
                    r.span,
                )
            )
        for t in r.tests:
            if t.buffer not in declared:
                out.append(
                    Diagnostic(
                        "unknown-buffer",
                        f"rule {r.name} tests undeclared buffer {t.buffer}",
                        t.span,
                    )
                )
            if not model.types.has(t.type):
                out.append(
                    Diagnostic(
                        "unknown-type",
                        f"rule {r.name} tests type {t.type}",
                        t.span,
                    )
                )
            else:
                slots = model.types.slots(t.type)
                for s, _ in t.pairs:
                    if s not in slots:
                        out.append(
                            Diagnostic(
                                "unknown-slot",
                                f"rule {r.name}: slot {s} not in type {t.type}",
                                t.span,
                            )
                        )
        seen_action_buffers = set()
        for a in r.actions:
            if a.buffer in seen_action_buffers:
                out.append(
                    Diagnostic(
                        "duplicate-action-buffer",
                        f"rule {r.name} acts twice on buffer {a.buffer}",
                        a.span,
                    )
                )
            seen_action_buffers.add(a.buffer)
            if a.buffer not in declared:
                out.append(
                    Diagnostic(
                        "unknown-buffer",
                        f"rule {r.name} acts on undeclared buffer {a.buffer}",
                        a.span,
                    )
                )
            if a.kind == REQUEST:
                if not model.types.has(a.type):
                    out.append(
                        Diagnostic(
                            "unknown-type",
                            f"rule {r.name} requests type {a.type}",
                            a.span,
                        )
                    )
                else:
                    slots = model.types.slots(a.type)
                    for s, _ in a.pairs:
                        if s not in slots:
                            out.append(
                                Diagnostic(
                                    "unknown-slot",
                                    f"rule {r.name}: slot {s} not in type {a.type}",
                                    a.span,
                                )
                            )
        fresh_rhs = r.rhs_vars() - r.lhs_vars()
        for v in sorted(fresh_rhs, key=lambda v: v.name):
            out.append(
                Diagnostic(
                    "rhs-new-variable",
                    f"rule {r.name} uses {v.name} on the RHS only",
                    r.span,
                )
            )
    return out
