"""Chunks, chunk stores and the store merge operation.

A chunk is an immutable typed record whose slots hold identifiers of other
chunks.  A chunk store keeps finitely many chunks under pairwise distinct
identifiers; a state's store always holds the distinguished empty chunk
``nil``.  Stores combine with :func:`merge`, an id-deduplicating union:
shared identifiers must carry equal chunks, so no identifier ever needs
remapping.  A merge derives the result's key parts (see
:meth:`ChunkStore.key_parts`) from its left operand's and the chunks the
right one adds, so a successor store is keyed for its new chunks only.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping
from operator import attrgetter
from typing import Iterable, Iterator, Union


class CoreError(Exception):
    """Structural violation in a type table, chunk or store."""


class IdClash(CoreError):
    """Two stores disagree about the chunk behind a shared identifier."""


class Record:
    """Base of the package's plain record types.  A subclass names its
    fields in ``__slots__``; equality (same class only), hashing and the
    ``Name(field=value, ...)`` repr cover those in ``_fields``, all of them
    unless the class names fewer, so spans and caches stay out.  Records
    are immutable by convention, as chunks and stores are; a mutable one
    sets ``__hash__ = None``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


class _Name:
    """An interned name: one object per (class, name), so names compare and
    hash by identity.  The intern table is a plain dict, so a name lives for
    the process: a run makes a few thousand, bounded by its model's names and
    the largest fresh id it draws.  Copies and unpickled names are the
    interned object; attributes cannot be set."""

    __slots__ = ("name",)
    _interned: dict

    def __new__(cls, name: str):
        obj = cls._interned.get(name)
        if obj is None:
            obj = cls._interned[name] = object.__new__(cls)
            object.__setattr__(obj, "name", name)
        return obj

    def __setattr__(self, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # type: ignore[assignment]

    def __reduce__(self):
        return type(self), (self.name,)


class Symbol(_Name):
    """An interned constant: chunk id, type, slot or buffer name."""

    __slots__ = ()
    _interned: dict = {}

    def __repr__(self) -> str:
        return self.name


class Variable(_Name):
    """An interned rule variable; never equal to a Symbol of its name."""

    __slots__ = ()
    _interned: dict = {}

    def __repr__(self) -> str:
        return f"?{self.name}"


Value = Union[Symbol, Variable]

NIL = Symbol("nil")
CHUNK = Symbol("chunk")

#: Identifiers drawn from :class:`IdGen` start with this prefix.  The model
#: grammar cannot declare such identifiers, so fresh ones never collide
#: with parsed ones.
FRESH_PREFIX = "c#"


def is_fresh_id(sym: Symbol) -> bool:
    return sym.name.startswith(FRESH_PREFIX)


class IdGen:
    """Counter handing out fresh chunk identifiers c#0, c#1, ..."""

    __slots__ = ("count",)

    def __init__(self, count: int = 0) -> None:
        self.count = count

    def fresh(self) -> Symbol:
        sym = Symbol(f"{FRESH_PREFIX}{self.count}")
        self.count += 1
        return sym

    def __repr__(self) -> str:
        return f"IdGen({self.count})"


def fresh_gen_avoiding(symbols: Iterable[Symbol]) -> IdGen:
    """Generator whose identifiers avoid every fresh id among the symbols."""
    high = 0
    for s in symbols:
        if is_fresh_id(s):
            tail = s.name[len(FRESH_PREFIX):]
            if tail.isascii() and tail.isdigit():
                high = max(high, int(tail) + 1)
    return IdGen(high)


class TypeTable:
    """Declared chunk types with their ordered slot lists.

    Slot order is declaration order; :meth:`ordered` makes it the order of
    human-facing text: parsed and printed pair lists, normal-form tests and
    generated models.  Chunks and the CHR terms that encode them list slots
    by name instead.  The slotless built-in type ``chunk`` is always
    present and may be redeclared only identically.
    """

    __slots__ = ("_slots", "_index")

    def __init__(self) -> None:
        self._slots: dict[Symbol, tuple[Symbol, ...]] = {CHUNK: ()}
        self._index: dict[Symbol, dict[Symbol, int]] = {CHUNK: {}}

    def declare(self, name: Symbol, slots: Iterable[Symbol]) -> None:
        slots = tuple(slots)
        if len(set(slots)) != len(slots):
            raise CoreError(f"duplicate slot in type {name}")
        known = self._slots.get(name)
        if known is not None and known != slots:
            raise CoreError(f"conflicting redeclaration of type {name}")
        self._slots[name] = slots
        self._index[name] = {s: k for k, s in enumerate(slots)}

    def has(self, name: Symbol) -> bool:
        return name in self._slots

    def slots(self, name: Symbol) -> tuple[Symbol, ...]:
        try:
            return self._slots[name]
        except KeyError:
            raise CoreError(f"unknown type {name}") from None

    def names(self) -> tuple[Symbol, ...]:
        return tuple(self._slots)

    def ordered(
        self, type: Symbol | None, pairs: Iterable[tuple[Symbol, Value]]
    ) -> tuple[tuple[Symbol, Value], ...]:
        """The pairs sorted stably by (slot position in ``type``, slot name);
        an unknown or ``None`` type and undeclared slots sort by name.
        Pairs already in that order, as printed models list them, are
        returned as they are."""
        pairs = tuple(pairs)
        if len(pairs) < 2:
            return pairs
        index = self._index.get(type, {})
        last = len(index)
        keys = [(index.get(s, last), s.name) for s, _ in pairs]
        if any(a > b for a, b in zip(keys, keys[1:])):
            return tuple(p for *_, p in sorted(zip(keys, range(len(pairs)), pairs)))
        return pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeTable) and self._slots == other._slots

    def __repr__(self) -> str:
        return f"TypeTable({self._slots!r})"


class Chunk:
    """Immutable typed record; every slot value is a chunk identifier.

    :meth:`content` is built with the chunk, since nearly every chunk is
    keyed, and kept in a slot that equality, hashing and printing ignore."""

    __slots__ = ("id", "type", "pairs", "_content")

    def __init__(
        self,
        id: Symbol,
        type: Symbol,
        val: Mapping[Symbol, Symbol] | Iterable[tuple[Symbol, Symbol]] = (),
    ) -> None:
        items = val.items() if isinstance(val, Mapping) else val
        self.id = id
        self.type = type
        self.pairs = pairs = tuple(sorted(items, key=lambda p: p[0].name))
        names = (type.name, tuple((s.name, v.name) for s, v in pairs))
        fresh = next((v for _, v in pairs if is_fresh_id(v)), None)
        self._content = (names, fresh, is_fresh_id(id))

    def renamed(self, id: Symbol) -> Chunk:
        """This chunk under an id of the same freshness, sharing pairs and content."""
        out = object.__new__(Chunk)
        out.id, out.type, out.pairs, out._content = id, self.type, self.pairs, self._content
        return out

    def value(self, slot: Symbol) -> Symbol | None:
        for s, v in self.pairs:
            if s == slot:
                return v
        return None

    def val(self) -> dict[Symbol, Symbol]:
        return dict(self.pairs)

    def content(self) -> tuple[tuple[str, tuple[tuple[str, str], ...]], Symbol | None, bool]:
        """Type and slot values by name, identifier stripped, the first
        slot value that is a fresh id (None if there is none), and whether
        the identifier itself is fresh."""
        return self._content

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Chunk)
            and self.id == other.id
            and self.type == other.type
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.id, self.type, self.pairs))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {v}" for s, v in self.pairs)
        return f"{self.id}:{self.type}{{{inner}}}"


NIL_CHUNK = Chunk(NIL, CHUNK)


class ChunkStore:
    """Finite set of chunks with pairwise distinct identifiers.

    State stores always contain ``nil`` itself (see :meth:`with_nil`);
    partial stores produced by actions need not.
    """

    __slots__ = ("_by_id", "_parts")

    def __init__(self, chunks: Iterable[Chunk] = ()) -> None:
        by_id: dict[Symbol, Chunk] = {}
        for c in chunks:
            old = by_id.get(c.id)
            if old is not None and old != c:
                raise CoreError(f"store: id {c.id} bound to {old!r} and {c!r}")
            by_id[c.id] = c
        self._by_id = by_id
        # lazy: eager parts (effect stores too) cost 71021 builds, not 24197, per explore pass
        self._parts: tuple | None = None

    def ids(self) -> tuple[Symbol, ...]:
        return tuple(self._by_id)

    def chunks(self) -> tuple[Chunk, ...]:
        return tuple(self._by_id.values())

    def sorted_chunks(self) -> tuple[Chunk, ...]:
        return tuple(sorted(self._by_id.values(), key=lambda c: c.id.name))

    def get(self, id: Symbol) -> Chunk | None:
        return self._by_id.get(id)

    def with_nil(self) -> ChunkStore:
        if NIL in self._by_id:
            return self
        return ChunkStore([NIL_CHUNK, *self._by_id.values()])

    def __contains__(self, id: Symbol) -> bool:
        return id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._by_id.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChunkStore) and self._by_id == other._by_id

    def __hash__(self) -> int:
        return hash(frozenset(self._by_id.values()))

    def __repr__(self) -> str:
        return f"ChunkStore({list(self._by_id.values())!r})"

    def __reduce__(self):  # copy the chunks only, not the key parts
        return ChunkStore, (self.chunks(),)

    def adding(self, chunks: list[Chunk]) -> ChunkStore:
        """This store plus ``chunks`` under new ids, key parts derived if it has them."""
        out = object.__new__(ChunkStore)  # the caller checked the ids: no second pass
        out._by_id = {**self._by_id, **{c.id: c for c in chunks}}
        out._parts = self._parts and _add_key_parts(self._parts, chunks)
        return out

    def renamed(self, ren: Mapping[Symbol, Symbol]) -> ChunkStore:
        """This store with each chunk under its id's image in ``ren``, an
        injective renaming of fresh ids to fresh ids, so no check is needed."""
        out = object.__new__(ChunkStore)
        out._by_id = {ren[i]: c.renamed(ren[i]) for i, c in self._by_id.items()}
        out._parts = None
        return out

    def key_parts(self) -> tuple:
        """The parts :func:`~actrchr.engine.canonical_key` reads: the sorted
        entries ``(id name, type, pairs)`` of the chunks with a parsed id,
        the sorted contents of those with a fresh id, and ``(fresh id, chunk
        id)`` for the first chunk in store order naming a fresh id in a slot,
        or None.  Computed on first use, in one pass and one sort per part,
        and kept in a slot that equality, hashing, printing, pickling and
        copying ignore."""
        if self._parts is None:
            self._parts = _add_key_parts(((), (), None), self._by_id.values())
        return self._parts


def _add_key_parts(parts: tuple, chunks: Iterable[Chunk]) -> tuple:
    """The key parts of a store with the chunks added, in their order."""
    parsed, stale, bad = parts
    new_parsed, new_stale = [], []
    for c in chunks:
        names, fresh, fresh_id = c.content()
        if fresh is not None and bad is None:
            bad = (fresh, c.id)
        if fresh_id:
            new_stale.append(names)
        else:
            new_parsed.append((c.id.name, *names))
    return _sorted_in(parsed, new_parsed), _sorted_in(stale, new_stale), bad


def _sorted_in(part: tuple, new: list) -> tuple:
    if not (part and new):
        return part or tuple(sorted(new))
    out = list(part)
    for entry in new:
        insort(out, entry)
    return tuple(out)


def merge(left: ChunkStore, right: ChunkStore) -> ChunkStore:
    """Union of two stores; a shared identifier must carry equal chunks.

    Raises :class:`IdClash` when the operands disagree about an identifier.
    The result keeps every chunk of ``left`` unchanged and adds the chunks
    of ``right`` under new identifiers only; if ``left`` has its key parts,
    the result's are derived from them and the added chunks.
    """
    added = []
    for c in right._by_id.values():
        mine = left._by_id.get(c.id)
        if mine is None:
            added.append(c)
        elif mine != c:
            raise IdClash(f"merge: id {c.id} bound to {mine!r} and {c!r}")
    return left.adding(added)
