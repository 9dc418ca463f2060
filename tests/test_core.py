"""Chunk store basics, the merge operation's algebraic laws, and the value
semantics of the package's record types."""

import copy
import gc
import pickle
import random
from pathlib import Path

import pytest

from actrchr.core import (
    Chunk,
    ChunkStore,
    CoreError,
    IdClash,
    IdGen,
    NIL,
    NIL_CHUNK,
    Symbol,
    TypeTable,
    Variable,
    fresh_gen_avoiding,
    is_fresh_id,
    merge,
)
from actrchr.bisim import BisimReport, Counterexample
from actrchr.chr import ChrRule, ChrState, Compound, Constraint, TList, encode_chunk, encode_store
from actrchr.engine import Answer, ArchitectureConfig, Effect, Graph, Run, declarative_retrieval
from actrchr.model import (
    MODIFY,
    AbstractState,
    Action,
    Atom,
    BufferTest,
    Diagnostic,
    Model,
    Rule,
    Span,
)
from actrchr.modelgen import chunk_pool, clashing_variant, random_store
from actrchr.parser import parse_model
from actrchr.translate import chr_of_model, chr_of_state


def sym(name: str) -> Symbol:
    return Symbol(name)


def store(*chunks: Chunk) -> ChunkStore:
    return ChunkStore(chunks)


A = Chunk(sym("a"), sym("t"), {sym("s"): sym("v")})
B = Chunk(sym("b"), sym("t"), {sym("s"): sym("w")})
A_OTHER = Chunk(sym("a"), sym("t"), {sym("s"): sym("w")})


def same_chunks(x: ChunkStore, y: ChunkStore) -> bool:
    return x.sorted_chunks() == y.sorted_chunks()


class TestInternedNames:
    def test_one_object_per_class_and_name(self):
        assert Symbol("a") is Symbol("a")
        assert Variable("a") is Variable("a")
        assert Symbol("a") != Variable("a")
        assert Symbol("a") != "a" and Variable("a") != "a"
        assert len({Symbol("a"), Variable("a"), Symbol("b")}) == 3

    def test_copies_and_pickles_are_the_interned_object(self):
        for name in (Symbol("a"), Variable("a")):
            assert copy.copy(name) is name
            assert copy.deepcopy(name) is name
            assert copy.deepcopy([name, (name,)])[1][0] is name
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(name, protocol)) is name

    def test_names_live_for_the_process(self):
        for cls in (Symbol, Variable):
            name = "unreferenced-" + cls.__name__
            cls(name)
            gc.collect()
            assert name in cls._interned
            kept = cls._interned[name]
            assert type(kept) is cls and kept.name == name
            assert cls(name) is kept
            assert copy.copy(kept) is kept and copy.deepcopy(kept) is kept
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(kept, protocol)) is kept

    def test_names_are_immutable(self):
        for name in (Symbol("a"), Variable("a")):
            with pytest.raises(AttributeError):
                name.name = "b"
            with pytest.raises(AttributeError):
                name.other = 1
            with pytest.raises(AttributeError):
                del name.name
        assert Symbol("a").name == "a"

    def test_parsing_twice_gives_the_same_symbols(self, counting_src):
        a, b = parse_model(counting_src), parse_model(counting_src)
        assert a.buffers and all(x is y for x, y in zip(a.buffers, b.buffers))
        assert all(x.id is y.id and x.type is y.type for x, y in zip(a.chunks, b.chunks))
        pairs = [
            (x, y)
            for ra, rb in zip(a.rules, b.rules)
            for ta, tb in zip(ra.tests, rb.tests)
            for pa, pb in zip(ta.pairs, tb.pairs)
            for x, y in zip(pa, pb)
        ]
        assert any(isinstance(x, Variable) for x, _ in pairs)
        assert all(x is y for x, y in pairs)


class TestChunk:
    def test_pairs_sorted_by_slot_name(self):
        c = Chunk(sym("a"), sym("t"), [(sym("z"), sym("1")), (sym("b"), sym("2"))])
        assert [s.name for s, _ in c.pairs] == ["b", "z"]

    def test_value_lookup(self):
        assert A.value(sym("s")) == sym("v")
        assert A.value(sym("other")) is None

    def test_content_drops_identifier(self):
        assert A.content() == Chunk(sym("b"), sym("t"), A.pairs).content()
        assert A.content() != A_OTHER.content()
        assert A.content() == (("t", (("s", "v"),)), None, False)

    def test_content_names_the_first_fresh_slot_value(self):
        pairs = {sym("c"): sym("c#0"), sym("b"): sym("c#1"), sym("a"): sym("v")}
        c = Chunk(sym("c#3"), sym("t"), pairs)
        assert c.content() == (
            ("t", (("a", "v"), ("b", "c#1"), ("c", "c#0"))), sym("c#1"), True
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Chunk(sym("c#1"), sym("t"), {sym("s"): sym("c#0"), sym("r"): NIL}),
            lambda: Atom("p", (sym("a"), sym("c#0"))),
        ],
        ids=["chunk", "atom"],
    )
    def test_cached_content_is_no_part_of_the_value(self, make):
        asked, unasked = make(), make()
        asked.content()
        assert asked == unasked and hash(asked) == hash(unasked)
        assert repr(asked) == repr(unasked)
        assert pickle.dumps(asked) == pickle.dumps(unasked)
        for u in (asked, unasked):
            for v in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
                assert v == u and hash(v) == hash(u) and repr(v) == repr(u)
                assert v.content() == asked.content()

    def test_equality_includes_identifier(self):
        assert A != A_OTHER
        assert A == Chunk(sym("a"), sym("t"), {sym("s"): sym("v")})


class TestChunkStore:
    def test_membership_is_by_identifier(self):
        s = store(A)
        assert sym("a") in s
        assert sym("b") not in s

    def test_get_returns_chunk_or_none(self):
        s = store(A)
        assert s.get(sym("a")) == A
        assert s.get(sym("b")) is None

    def test_duplicate_identifier_rejected(self):
        with pytest.raises(CoreError):
            store(A, A_OTHER)

    def test_with_nil_adds_the_nil_chunk(self):
        s = store(A).with_nil()
        assert NIL in s
        assert s.get(NIL) == NIL_CHUNK

    def test_with_nil_is_idempotent(self):
        s = store(A).with_nil()
        assert same_chunks(s, s.with_nil())


def key_pool(rng: random.Random) -> list[Chunk]:
    """A chunk pool with fresh-id copies, each content twice, and chunks
    naming a fresh id in a slot."""
    _, pool = chunk_pool(rng)
    copies = [Chunk(sym(f"c#{i}"), c.type, c.pairs) for i, c in enumerate(pool + pool)]
    offenders = [
        Chunk(sym(f"c#{30 + i}"), c.type, {s: sym(f"c#{i}") for s, _ in c.pairs})
        for i, c in enumerate(pool[:4])
        if c.pairs
    ]
    return pool + copies + offenders


class TestKeyParts:
    def test_merge_derives_the_parts_computed_from_scratch(self):
        rng = random.Random(18)
        derived = offended = 0
        for _ in range(300):
            pool = key_pool(rng)
            acc = random_store(rng, pool, max_chunks=12)
            acc.key_parts()
            for _ in range(3):
                acc = merge(acc, random_store(rng, pool, max_chunks=4))
                assert acc._parts is not None
                assert acc.key_parts() == ChunkStore(acc.chunks()).key_parts()
                derived += 1
                offended += acc.key_parts()[2] is not None
        assert derived == 900 and offended > 300

    def test_parts_hold_sorted_entries_and_the_first_offender(self):
        bad = Chunk(sym("c#7"), sym("t"), {sym("s"): sym("c#0")})
        worse = Chunk(sym("c#6"), sym("t"), {sym("s"): sym("c#1")})
        s = ChunkStore([B, Chunk(sym("c#2"), sym("t"), A.pairs), A, bad, worse])
        assert s.key_parts() == (
            (("a", "t", (("s", "v"),)), ("b", "t", (("s", "w"),))),
            (("t", (("s", "c#0"),)), ("t", (("s", "c#1"),)), ("t", (("s", "v"),))),
            (sym("c#0"), sym("c#7")),
        )
        assert merge(store(A), s).key_parts()[2] == (sym("c#0"), sym("c#7"))
        left = store(worse)
        left.key_parts()
        assert merge(left, s).key_parts()[2] == (sym("c#1"), sym("c#6"))

    def test_parts_are_no_part_of_the_value(self):
        chunks = [A, B, Chunk(sym("c#0"), sym("t"), A.pairs)]
        asked, unasked = ChunkStore(chunks), ChunkStore(chunks)
        parts = asked.key_parts()
        derived = merge(asked, ChunkStore())
        assert derived._parts is not None
        for s in (asked, derived):
            assert s == unasked and hash(s) == hash(unasked)
            assert repr(s) == repr(unasked)
            assert pickle.dumps(s) == pickle.dumps(unasked)
        for u in (asked, unasked, derived):
            for v in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
                assert v == u and hash(v) == hash(u) and repr(v) == repr(u)
                assert v._parts is None and v.key_parts() == parts


class TestTypeTable:
    def test_declare_and_query(self):
        t = TypeTable()
        t.declare(sym("t"), (sym("a"), sym("b")))
        assert t.has(sym("t"))
        assert t.slots(sym("t")) == (sym("a"), sym("b"))
        assert sym("t") in t.names()

    def test_duplicate_slot_rejected(self):
        t = TypeTable()
        with pytest.raises(CoreError):
            t.declare(sym("t"), (sym("a"), sym("a")))

    def test_conflicting_redeclaration_rejected(self):
        t = TypeTable()
        t.declare(sym("t"), (sym("a"),))
        with pytest.raises(CoreError):
            t.declare(sym("t"), (sym("b"),))
        t.declare(sym("t"), (sym("a"),))  # identical redeclaration is fine

    def test_unknown_type_raises(self):
        with pytest.raises(CoreError):
            TypeTable().slots(sym("nope"))

    @pytest.mark.parametrize(
        "type, given, expected",
        [
            ("t", "a:1 c:2 b:3", "b:3 a:1 c:2"),  # declared order, then extras by name
            ("t", "z:1 a:2 y:3 b:4", "b:4 a:2 y:3 z:1"),
            ("nope", "c:1 a:2 b:3", "a:2 b:3 c:1"),  # unknown type: by name
            (None, "c:1 a:2 b:3", "a:2 b:3 c:1"),
            ("t", "a:1 c:2 b:3 a:4 c:5 b:6", "b:3 b:6 a:1 a:4 c:2 c:5"),  # stable
            ("t", "a:9 a:1", "a:9 a:1"),
        ],
    )
    def test_ordered_is_the_canonical_slot_order(self, type, given, expected):
        t = TypeTable()
        t.declare(sym("t"), (sym("b"), sym("a")))
        pairs = [tuple(map(sym, p.split(":"))) for p in given.split()]
        got = t.ordered(None if type is None else sym(type), pairs)
        assert " ".join(f"{s.name}:{v.name}" for s, v in got) == expected

    def test_pairs_in_order_are_returned_as_they_are(self):
        t = TypeTable()
        t.declare(sym("t"), (sym("b"), sym("a")))
        for given in ("b:1 a:2", "b:1 b:2 a:3 z:4", "a:1", ""):
            pairs = tuple(tuple(map(sym, p.split(":"))) for p in given.split())
            assert t.ordered(sym("t"), pairs) is pairs


class TestIdGen:
    def test_fresh_sequence(self):
        g = IdGen()
        assert [g.fresh().name for _ in range(3)] == ["c#0", "c#1", "c#2"]

    def test_fresh_ids_are_recognised(self):
        assert is_fresh_id(IdGen().fresh())
        assert not is_fresh_id(sym("a"))

    def test_generator_avoiding_skips_fresh_ids_without_an_ascii_number(self):
        names = ["a", "c#2", "c#", "c#x", "c#²", "c#٣", "c#1"]
        assert fresh_gen_avoiding([sym(n) for n in names]).count == 3
        assert fresh_gen_avoiding([sym("c#²")]).count == 0


class TestMergeHandExamples:
    def test_disjoint_union(self):
        merged = merge(store(A), store(B))
        assert merged.get(sym("a")) == A
        assert merged.get(sym("b")) == B

    def test_shared_id_with_equal_content_dedups(self):
        merged = merge(store(A, B), store(A))
        assert same_chunks(merged, store(A, B))

    def test_shared_id_with_different_content_clashes(self):
        with pytest.raises(IdClash):
            merge(store(A), store(A_OTHER))

    def test_identity_element(self):
        merged = merge(store(A), ChunkStore())
        assert same_chunks(merged, store(A))


class TestMergeLaws:
    """Randomised checks of the monoid laws over a shared chunk pool."""

    def pools(self, seed: int, n: int):
        rng = random.Random(seed)
        types, pool = chunk_pool(rng)
        return rng, pool, [random_store(rng, pool, max_chunks=8) for _ in range(n)]

    def test_commutative(self):
        rng, pool, stores = self.pools(11, 400)
        for _ in range(400):
            a, b = rng.choice(stores), rng.choice(stores)
            ab = merge(a, b)
            ba = merge(b, a)
            assert same_chunks(ab, ba)

    def test_associative(self):
        rng, pool, stores = self.pools(12, 200)
        for _ in range(400):
            a, b, c = (rng.choice(stores) for _ in range(3))
            left = merge(merge(a, b), c)
            right = merge(a, merge(b, c))
            assert same_chunks(left, right)

    def test_empty_store_is_identity(self):
        _, _, stores = self.pools(13, 200)
        for s in stores:
            assert same_chunks(merge(s, ChunkStore()), s)
            assert same_chunks(merge(ChunkStore(), s), s)

    def test_idempotent(self):
        _, _, stores = self.pools(14, 200)
        for s in stores:
            assert same_chunks(merge(s, s), s)

    def test_result_embeds_both_operands(self):
        rng, _, stores = self.pools(15, 200)
        for _ in range(200):
            a, b = rng.choice(stores), rng.choice(stores)
            ab = merge(a, b)
            assert all(ab.get(c.id) == c for c in a)
            assert all(ab.get(c.id) == c for c in b)

    def test_result_is_the_store_of_its_chunks(self):
        # the operands are drawn as acceptance criterion 2 draws them
        rng = random.Random(17)
        _, pool = chunk_pool(rng)
        clashes = 0
        for _ in range(300):
            a, b = (random_store(rng, pool, max_chunks=8) for _ in range(2))
            ab = merge(a, b)
            assert ab == ChunkStore(list(ab))
            assert list(ab) == [*a, *(c for c in b if c.id not in a)]
            bad = clashing_variant(rng, ab)
            if bad is not None:
                clashes += 1
                with pytest.raises(IdClash):
                    merge(ab, bad)
                with pytest.raises(IdClash):
                    merge(bad, ab)
        assert clashes > 100

    def test_disagreeing_shared_id_always_clashes(self):
        rng = random.Random(16)
        _, pool = chunk_pool(rng)
        hits = 0
        for _ in range(300):
            s = random_store(rng, pool, max_chunks=8)
            bad = clashing_variant(rng, s)
            if bad is None:
                continue
            hits += 1
            with pytest.raises(IdClash):
                merge(s, bad)
            with pytest.raises(IdClash):
                merge(bad, s)
        assert hits > 100


# ---------------------------------------------------------------------------
# the package's record types

COUNTING = (Path(__file__).parents[1] / "models" / "counting.actr").read_text()


def _records():
    """Per record type: two values whose compared fields are equal, the first
    built positionally with every default spelled out, the second by keyword
    on the defaults, their excluded fields (spans, caches) differing; the
    fields its repr lists, or the repr itself; and whether it hashes."""
    t, s, v, g = sym("t"), sym("s"), sym("v"), sym("goal")
    here, there = Span(1, 1), Span(2, 3)
    pairs = ((s, v),)
    model, moved = parse_model(COUNTING), parse_model("\n" + COUNTING)
    state, again = model.initial_state(), moved.initial_state()
    state.store.key_parts()  # a cache on one side only
    rule, other = chr_of_model(model)[0], chr_of_model(moved)[0]
    chr_state = chr_of_state(state)
    test = BufferTest(g, t, pairs, here)
    action = Action(MODIFY, g, None, pairs, here)
    ids, config = IdGen(), ArchitectureConfig()
    chunk = Chunk(sym("k"), t, pairs)
    return {
        "Span": (Span(1, 2), Span(line=1, col=2), ("line", "col"), True),
        "Atom": (Atom("dm", (s,)), Atom(pred="dm", args=(s,)), "dm(s)", True),
        "BufferTest": (test, BufferTest(buffer=g, type=t, pairs=pairs), ("buffer", "type", "pairs"), True),
        "Action": (action, Action(kind=MODIFY, buffer=g, type=None, pairs=pairs, span=there),
                   ("kind", "buffer", "type", "pairs"), True),
        "Rule": (Rule("r", (test,), (action,), here),
                 Rule(name="r", tests=(BufferTest(g, t, pairs, there),),
                      actions=(Action(MODIFY, g, None, pairs),)),
                 ("name", "tests", "actions"), True),
        "AbstractState": (AbstractState(state.store, state.gamma, state.upsilon),
                          AbstractState(store=again.store, gamma=again.gamma, upsilon=again.upsilon),
                          ("store", "gamma", "upsilon"), True),
        # a type table is unhashable, so a model is too
        "Model": (model, Model(types=moved.types, chunks=moved.chunks, dm=moved.dm, buffers=moved.buffers,
                               init=moved.init, rules=moved.rules),
                  ("types", "chunks", "dm", "buffers", "init", "rules"), False),
        "Diagnostic": (Diagnostic("c", "m", here), Diagnostic(code="c", message="m"),
                       ("code", "message", "span"), True),
        "Effect": (Effect(state.store, state.gamma, state.upsilon),
                   Effect(store=again.store, gamma=again.gamma, atoms=again.upsilon),
                   ("store", "gamma", "atoms"), True),
        "Answer": (Answer(t, pairs, 1, ()), Answer(type=t, val=pairs),
                   "Answer(type=t, val=((s, v),), delay=1, atoms=())", True),
        "ArchitectureConfig": (ArchitectureConfig({}, declarative_retrieval, "nil"), ArchitectureConfig(),
                               ("handlers", "default_handler", "fail_request"), False),
        "Run": (Run(config, ids), Run(config=ArchitectureConfig(), ids=ids),
                ("config", "ids", "memo"), False),
        "Graph": (Graph([state], [(0, "no", 0)], False), Graph(states=[again], edges=[(0, "no", 0)]),
                  ("states", "edges", "truncated"), False),
        "Compound": (encode_chunk(chunk), Compound(functor="chunk", args=encode_chunk(chunk).args),
                     ("functor", "args"), True),
        "TList": (encode_store(state.store), TList(items=encode_store(again.store).items),
                  ("items",), True),
        "Constraint": (Constraint("delta", (v,)), Constraint(name="delta", args=(v,)),
                       ("name", "args"), True),
        "ChrState": (ChrState(chr_state.goal, chr_state.facts),
                     ChrState(goal=chr_state.goal, facts=chr_state.facts), ("goal", "facts"), True),
        "ChrRule": (rule, ChrRule(name=other.name, removed=other.removed, guard=other.guard,
                                  body_user=other.body_user, body_builtin=other.body_builtin),
                    ("name", "removed", "guard", "body_user", "body_builtin"), True),
        "Counterexample": (Counterexample("forward", 1, "inc", state, chr_state, "x", ""),
                           Counterexample(direction="forward", depth=1, label="inc", state=again,
                                          chr_state=chr_state, missing="x"),
                           ("direction", "depth", "label", "state", "chr_state", "missing", "nearest"), True),
        "BisimReport": (BisimReport(3, 0, 0, [], []), BisimReport(depth=3),
                        ("depth", "nodes", "transitions", "counterexamples", "states"), False),
    }


RECORDS = sorted(_records())


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_compares_hashes_copies_and_prints_its_fields(name):
    a, b, shown, hashable = _records()[name]
    assert type(a).__name__ == type(b).__name__ == name
    assert a == b and not a != b and a.__eq__(object()) is NotImplemented
    if name == "Run":
        assert a.memo == {} and a.memo is not b.memo
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    # an id generator compares by identity, so a run's deep copy is equal in print only
    same = (lambda x, y: repr(x) == repr(y)) if name == "Run" else (lambda x, y: x == y)
    assert copy.copy(a) == a
    for c in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and same(c, a)
    if not isinstance(shown, str):
        shown = f"{name}({', '.join(f'{f}={getattr(a, f)!r}' for f in shown)})"
    assert repr(a) == shown
