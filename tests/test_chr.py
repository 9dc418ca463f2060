"""Constraint-store machinery: terms, built-in theory, step relation,
state equivalence."""

import copy
import hashlib
import itertools
import pickle
import random
from collections import Counter
from functools import reduce

import pytest

import actrchr.chr
from actrchr.core import (
    Chunk,
    ChunkStore,
    IdClash,
    IdGen,
    NIL,
    NIL_CHUNK,
    Symbol,
    Variable,
    is_fresh_id,
    merge,
)
from actrchr.chr import (
    ChrError,
    ChrRule,
    ChrState,
    Compound,
    Constraint,
    TList,
    Undecided,
    canonical_form,
    chr_step,
    constraint,
    decode_chunk,
    delta_c,
    encode_action,
    encode_chunk,
    encode_pairs,
    encode_store,
    fresh_gen_for,
    gamma_c,
    is_ground,
    merge_chunk_lists,
    render_constraint,
    render_rule,
    render_state,
    tuple_term,
)
from actrchr.bisim import bisim_check
from actrchr.chr import encode_cogstate
from actrchr.engine import (
    FAIL_NIL,
    FAIL_STUCK,
    Answer,
    ArchitectureConfig,
    EngineError,
    Run,
    canonical_key,
    declarative_retrieval,
    explore,
    normalize_model,
)
from actrchr.model import AbstractState, Action, Atom, MODIFY, REQUEST
from actrchr.modelgen import random_model
from actrchr.parser import parse_model, print_model
from actrchr.translate import chr_of_model, chr_of_state


def sym(name: str) -> Symbol:
    return Symbol(name)


def var(name: str) -> Variable:
    return Variable(name)


def decoded(t: TList) -> ChunkStore:
    """The store the terms spell, decoded from a copy: a term built from a
    chunk carries it, and pickling drops it."""
    return ChunkStore(decode_chunk(c) for c in pickle.loads(pickle.dumps(t)).items)


def equation(left, right, env=None):
    """The solutions of ``left = right`` (see :func:`solve`)."""
    return solve([constraint("=", left, right)], env)


def body_term(t):
    """The term the body ``q(t)`` builds once the head ``p(X)`` matches
    ``p(b)``."""
    rule = ChrRule("r", (constraint("p", var("X")),), (), (constraint("q", t),), ())
    ((_, succ),) = chr_step(ChrState((constraint("p", sym("b")),), ()), [rule])
    return succ.goal[0].args[0]


class TestUnification:
    def test_variable_binds_to_symbol(self):
        assert equation(var("X"), sym("a")) == [({var("X"): sym("a")}, ())]

    def test_bound_variables_compare_by_value(self):
        env = {var("X"): sym("a")}
        assert equation(var("X"), sym("a"), env) == [(env, ())]
        assert equation(var("X"), sym("b"), env) == []
        pair = tuple_term(sym("a"), sym("b"))
        assert equation(var("P"), pair, {var("P"): pair}) == [({var("P"): pair}, ())]

    def test_compounds_match_argumentwise(self):
        x = var("X")
        pattern = Compound("f", (x, sym("b"), TList((x,))))
        term = Compound("f", (sym("a"), sym("b"), TList((sym("a"),))))
        assert equation(pattern, term) == [({x: sym("a")}, ())]
        # one variable, two values
        clash = Compound("f", (sym("a"), sym("b"), TList((sym("c"),))))
        assert equation(pattern, clash) == []
        # a variable takes a whole compound; a ground pattern only its equal
        inner = Compound("g", (sym("b"),))
        assert equation(tuple_term(sym("a"), x), tuple_term(sym("a"), inner)) == [({x: inner}, ())]
        assert equation(inner, inner) == [({}, ())]
        assert equation(inner, Compound("g", (sym("c"),))) == []
        assert equation(sym("a"), inner) == []

    def test_functor_mismatch_fails(self):
        assert equation(Compound("f", ()), Compound("g", ())) == []

    def test_list_length_mismatch_fails(self):
        assert equation(TList((sym("a"),)), TList(())) == []

    def test_groundness_and_variables(self):
        t = tuple_term(sym("a"), var("X"))
        assert not is_ground(t)

    def test_cached_groundness_matches_the_definition(self):
        def kids(t):
            return t.args if isinstance(t, Compound) else t.items

        def by_definition(t):
            if isinstance(t, (Compound, TList)):
                return all(by_definition(a) for a in kids(t))
            return not isinstance(t, Variable)

        rng = random.Random(5)

        def build(depth):
            r = rng.random()
            if depth == 0 or r < 0.3:
                return rng.choice([sym("a"), sym("b"), 0, var("X"), var("Y")])
            args = tuple(build(depth - 1) for _ in range(rng.randint(0, 3)))
            return Compound("f", args) if r < 0.65 else TList(args)

        def subterms(t):
            yield t
            if isinstance(t, (Compound, TList)):
                for a in kids(t):
                    yield from subterms(a)

        seen = {True: 0, False: 0}
        for _ in range(200):
            t = build(4)
            terms = list(subterms(t))
            rng.shuffle(terms)  # parents and children queried in any order
            for u in terms + terms:  # the second round reads cached flags
                assert is_ground(u) == by_definition(u)
            seen[is_ground(t)] += 1
            # the flag is no part of equality, hashing or rendering
            asked, unasked = Compound("g", (t,)), Compound("g", (t,))
            is_ground(asked)
            assert asked == unasked and hash(asked) == hash(unasked)
            assert repr(asked) == repr(unasked)
            # nor of copying, asked or not
            for u in (asked, unasked):
                assert pickle.loads(pickle.dumps(u)) == u == copy.deepcopy(u)
        assert seen[True] > 20 and seen[False] > 20

    def test_a_ground_body_term_comes_back_as_it_is(self):
        t = Compound("f", (TList((sym("a"), 1)), sym("b")))
        assert body_term(t) is t
        # a variable's value too
        ((env, _),) = solve([constraint("=", var("Y"), var("X"))], {var("X"): t})
        assert env[var("Y")] is t


CHUNK = Chunk(sym("k"), sym("t"), {sym("a"): sym("k"), sym("b"): NIL})


class TestEncoding:
    def test_chunk_encoding_orders_slots_by_name(self):
        # the type declares (b, a): text follows it, terms do not
        m = parse_model("type t { b, a }\nchunk k : t { b: nil, a: k }\nbuffer goal = k\n")
        (k,) = [c for c in m.chunks if c.id == sym("k")]
        assert "chunk k : t { b: nil, a: k }" in print_model(m)
        assert encode_chunk(k) == Compound(
            "chunk",
            (
                sym("k"),
                sym("t"),
                TList((tuple_term(sym("a"), sym("k")), tuple_term(sym("b"), NIL))),
            ),
        )

    def test_chunk_round_trip(self):
        assert decoded(TList((encode_chunk(CHUNK),))).chunks() == (CHUNK,)

    def test_decoding_rejects_slots_out_of_name_order_or_repeated(self):
        a, b = tuple_term(sym("a"), sym("k")), tuple_term(sym("b"), NIL)
        for pairs in ((b, a), (a, a), (a, b, b)):
            with pytest.raises(ChrError, match="strict name order"):
                decode_chunk(Compound("chunk", (sym("k"), sym("t"), TList(pairs))))

    def test_a_term_is_decoded_once(self):
        # an encoded term carries the chunk it was built from
        assert decode_chunk(encode_chunk(CHUNK)) is CHUNK
        term = Compound("chunk", encode_chunk(CHUNK).args)
        first = decode_chunk(term)
        assert first == CHUNK and first is not CHUNK
        assert decode_chunk(term) is first
        # an equal term decodes alike; the cache is no part of equality,
        # hashing, rendering or copying
        fresh = Compound("chunk", term.args)
        assert decode_chunk(fresh) == first and decode_chunk(fresh) is not first
        assert term == encode_chunk(CHUNK) and hash(term) == hash(encode_chunk(CHUNK))
        assert repr(term) == repr(encode_chunk(CHUNK))
        assert pickle.loads(pickle.dumps(term)) == term == copy.deepcopy(term)
        # a term that fails to decode fails every time
        bad = Compound("chunk", (sym("k"), sym("t"), TList((tuple_term(sym("a"), 7),))))
        for _ in range(2):
            with pytest.raises(ChrError, match="malformed slot pair"):
                decode_chunk(bad)

    def test_store_round_trip_sorted(self):
        other = Chunk(sym("j"), sym("t"), {sym("a"): sym("j")})
        store = ChunkStore([CHUNK, other])
        enc = encode_store(store)
        ids = [t.args[0] for t in enc.items]
        assert ids == [sym("j"), sym("k")]  # identifier order is canonical
        assert decoded(enc).sorted_chunks() == store.sorted_chunks()

    def test_partial_chunk_encodes_only_present_slots(self):
        partial = Chunk(sym("k"), sym("t"), {sym("b"): sym("k")})
        enc = encode_pairs(partial.pairs)
        assert enc == TList((tuple_term(sym("b"), sym("k")),))


def variables(t):
    """The variables of a term, in order of first occurrence."""
    if isinstance(t, Variable):
        yield t
    elif isinstance(t, (Compound, TList)):
        for a in (t.args if isinstance(t, Compound) else t.items):
            yield from variables(a)


def solve(constraints, env=None, facts=(), ids=None):
    """The solutions of a conjunction with ``env``'s variables bound, as
    (bindings, facts added) pairs in solution order: the successors of a
    one-rule program whose head ``probe`` takes ``env``'s values, whose
    guard is the conjunction, and whose body ``sol`` lists every variable."""
    env = env or {}
    names = list(dict.fromkeys([*env, *(v for c in constraints for a in c.args for v in variables(a))]))
    rule = ChrRule("probe", (constraint("probe", *env),), tuple(constraints), (constraint("sol", *names),), ())
    state = ChrState((constraint("probe", *env.values()),), tuple(facts))
    out = []
    for _, succ in chr_step(state, [rule], Run(ArchitectureConfig(), ids or IdGen())):
        (sol,) = succ.goal
        out.append((dict(zip(names, sol.args)), succ.facts[len(facts):]))
    return out


def reference_match(pattern, term, env):
    """One-sided matching by recursion over the pattern: ``env`` extended
    so that ``pattern`` under it equals the ground ``term``, or None."""
    if isinstance(pattern, Variable):
        if pattern in env:
            return env if env[pattern] == term else None
        return {**env, pattern: term}
    if isinstance(pattern, Compound):
        if not (isinstance(term, Compound) and term.functor == pattern.functor):
            return None
        pairs = (pattern.args, term.args)
    elif isinstance(pattern, TList):
        if not isinstance(term, TList):
            return None
        pairs = (pattern.items, term.items)
    else:
        return env if pattern == term else None
    if len(pairs[0]) != len(pairs[1]):
        return None
    for p, t in zip(*pairs):
        env = reference_match(p, t, env)
        if env is None:
            return None
    return env


class TestBuiltinTheory:
    def test_equality_unifies(self):
        sols = solve([constraint("=", var("X"), sym("a"))])
        assert len(sols) == 1
        assert sols[0][0][var("X")] == sym("a")

    def test_failed_equality_kills_the_branch(self):
        assert solve([constraint("=", sym("a"), sym("b"))]) == []

    def test_equality_matches_its_left_side_against_its_ground_right_side(self):
        x, y = var("X"), var("Y")
        assert solve([constraint("=", x, y)], {y: sym("a")}) == [({y: sym("a"), x: sym("a")}, ())]
        assert len(solve([constraint("=", x, 0)], {x: 0})) == 1
        assert solve([constraint("=", x, 0)], {x: 1}) == []
        for unbound in ([constraint("=", x, y)], [constraint("=", sym("a"), x)]):
            with pytest.raises(Undecided):
                solve(unbound)

    def test_comparison_on_integers(self):
        assert len(solve([constraint(">", 1, 0)])) == 1
        assert solve([constraint(">", 0, 1)]) == []

    def test_comparison_on_symbols_is_undecided(self):
        with pytest.raises(Undecided):
            solve([constraint(">", sym("a"), sym("b"))])

    def test_membership_branches(self):
        lst = TList((sym("a"), sym("b"), sym("c")))
        sols = solve([constraint("in", var("X"), lst)])
        assert [s[0][var("X")] for s in sols] == [sym("a"), sym("b"), sym("c")]

    def test_membership_filters_by_pattern(self):
        lst = TList((tuple_term(sym("a"), sym("u")), tuple_term(sym("b"), sym("v"))))
        pat = tuple_term(sym("a"), var("X"))
        sols = solve([constraint("in", pat, lst)])
        assert len(sols) == 1 and sols[0][0][var("X")] == sym("u")

    def test_membership_answers_as_a_scan_does(self):
        # items share first arguments; some are no compounds, one has none
        def f(*args):
            return Compound("f", args)

        lst = TList((
            f(sym("a"), sym("u")), sym("a"), f(sym("b"), sym("v")),
            Compound("g", (sym("a"), sym("w"))), f(sym("a"), sym("w")), f(),
            f(f(sym("a")), sym("x")), TList((sym("a"),)), f(sym("a")),
        ))
        x, y = var("X"), var("Y")
        cases = [
            (f(sym("a"), x), {}),  # first argument bound
            (f(y, x), {y: sym("a")}),  # bound through the environment
            (f(y, x), {y: f(sym("a"))}),  # bound to a compound
            (f(f(y), x), {y: sym("a")}),  # a compound holding a bound variable
            (f(y, x), {}),  # first argument unbound
            (Compound("g", (y, x)), {}),
            (f(), {}),
            (x, {}),
            (f(sym("c"), x), {}),  # matches nothing
        ]
        for pattern, env in cases:
            scan = [reference_match(pattern, item, env) for item in lst.items]
            expected = [e for e in scan if e is not None]
            for _ in range(2):  # an unchecked list is indexed anew each round
                sols = solve([constraint("in", pattern, lst)], env)
                assert [e for e, _ in sols] == expected
        assert [e[x] for e, _ in solve([constraint("in", f(sym("a"), x), lst)])] == [
            sym("u"), sym("w"),
        ]

    def test_the_list_index_is_no_part_of_the_term(self):
        other = Chunk(sym("j"), sym("t"), {sym("a"): sym("j")})
        asked, unasked = (encode_store(ChunkStore([CHUNK, other])) for _ in range(2))
        pattern = Compound("chunk", (sym("k"), var("T"), var("P")))
        assert len(solve([constraint("in", pattern, asked)])) == 1
        merge_chunk_lists([asked])  # marks the list id-ordered
        assert getattr(asked, "_ids")
        assert asked == unasked and hash(asked) == hash(unasked)
        assert repr(asked) == repr(unasked)
        for u in (asked, unasked):
            for v in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
                assert v == u
                assert getattr(v, "_ids", None) is None

    def test_membership_over_unbound_list_is_undecided(self):
        with pytest.raises(Undecided):
            solve([constraint("in", var("X"), var("L"))])

    def test_uninterpreted_goal_is_undecided(self):
        with pytest.raises(Undecided):
            solve([constraint("frob", sym("a"))])

    def test_conjunction_threads_bindings(self):
        sols = solve(
            [
                constraint("=", var("X"), sym("a")),
                constraint("in", var("X"), TList((sym("a"), sym("b")))),
            ]
        )
        assert len(sols) == 1

    def test_a_conjunction_raises_the_first_error_breadth_first(self):
        # every branch meets a constraint before any meets the next: the
        # second branch's comparison fails before the first's third goal
        x = var("X")
        goals = [constraint("in", x, TList((1, sym("a")))), constraint(">", x, 0), constraint("frob", x)]
        with pytest.raises(Undecided, match="non-numeric comparison"):
            solve(goals)

    def test_merge_builtin_merges_encodings(self):
        a = ChunkStore([Chunk(sym("x"), sym("t"), {sym("a"): sym("x")})])
        b = ChunkStore([Chunk(sym("y"), sym("t"), {sym("a"): sym("y")})])
        goal = constraint(
            "merge",
            TList((encode_store(a), encode_store(b))),
            var("D"),
        )
        ((env, _),) = solve([goal])
        merged = decoded(env[var("D")])
        assert set(merged.ids()) == {sym("x"), sym("y")}

    def test_merge_builtin_propagates_id_clashes(self):
        a = ChunkStore([Chunk(sym("x"), sym("t"), {sym("a"): sym("x")})])
        b = ChunkStore([Chunk(sym("x"), sym("t"), {sym("a"): NIL})])
        goal = constraint(
            "merge",
            TList((encode_store(a), encode_store(b))),
            var("D"),
        )
        with pytest.raises(ChrError, match="merge: id x bound to"):
            solve([goal])

    def test_merge_builtin_over_an_unbound_operand_is_undecided(self):
        a = encode_store(ChunkStore([Chunk(sym("x"), sym("t"), {})]))
        for lst in (TList((a, var("B"))), var("L")):
            goal = constraint("merge", lst, var("D"))
            with pytest.raises(Undecided) as err:
                solve([goal], {var("A"): a})
            assert str(err.value) == f"merge over unbound list: {render_constraint(goal)}"
        ((env, _),) = solve([constraint("merge", TList((var("A"), TList(()))), var("D"))], {var("A"): a})
        assert env[var("D")] is a

    def test_map_builtin_keeps_known_ids(self):
        store = ChunkStore([Chunk(sym("x"), sym("t"), {})])
        enc = encode_store(store)
        empty = encode_store(ChunkStore())
        ((env, _),) = solve([constraint("map", enc, empty, sym("x"), var("M"))])
        assert env[var("M")] == sym("x")

    def test_map_builtin_sends_unknown_ids_to_nil(self):
        empty = encode_store(ChunkStore())
        ((env, _),) = solve([constraint("map", empty, empty, sym("zz"), var("M"))])
        assert env[var("M")] == NIL

    def test_map_builtin_over_an_unbound_store_is_undecided(self):
        empty = encode_store(ChunkStore())
        for args in ((var("D"), empty), (empty, var("D"))):
            goal = constraint("map", *args, sym("x"), var("M"))
            with pytest.raises(Undecided, match=r"map over an unbound store: map\("):
                solve([goal])

    def test_map_builtin_rejects_malformed_stores(self):
        empty = encode_store(ChunkStore())
        for bad in (
            sym("x"),  # not a list
            TList((tuple_term(sym("x"), sym("t")),)),  # not a chunk/3 term
            TList((Compound("chunk", (7, sym("t"), TList(()))),)),  # id not a symbol
        ):
            for args in ((bad, empty), (empty, bad)):
                with pytest.raises(ChrError):
                    solve([constraint("map", *args, sym("x"), var("M"))])

    def test_action_builtin_answers_requests_from_the_facts(self):
        hit = Chunk(sym("d1"), sym("t"), {sym("a"): sym("g0"), sym("b"): NIL})
        miss = Chunk(sym("d2"), sym("t"), {sym("a"): NIL, sym("b"): NIL})
        goal = Chunk(sym("g0"), sym("t"), {sym("a"): sym("g0"), sym("b"): NIL})
        store = ChunkStore([hit, miss, goal]).with_nil()
        request = Action(REQUEST, sym("goal"), sym("t"), ((sym("a"), sym("g0")),))
        c = constraint(
            "action",
            encode_action(request),
            encode_store(store),
            encode_cogstate([(sym("goal"), sym("g0"), 0)]),
            var("Dres"),
            var("Cres"),
            var("Eres"),
        )
        facts = (Atom("dm", (sym("d1"),)), Atom("dm", (sym("d2"),)))
        ((env, atoms),) = solve([c], facts=facts)
        assert atoms == ()
        assert env[var("Eres")] == 1  # the answer lands pending
        (answer,) = decoded(env[var("Dres")]).chunks()
        assert answer.id == env[var("Cres")]
        assert answer.id.name.startswith("c#")
        assert answer.val() == hit.val()

    def test_action_builtin_modifies_the_incumbent(self):
        goal = Chunk(sym("g0"), sym("t"), {sym("a"): sym("g0"), sym("b"): NIL})
        store = ChunkStore([goal]).with_nil()
        modify = Action(MODIFY, sym("goal"), None, ((sym("b"), sym("g0")),))
        c = constraint(
            "action",
            encode_action(modify),
            encode_store(store),
            encode_cogstate([(sym("goal"), sym("g0"), 0)]),
            var("Dres"),
            var("Cres"),
            var("Eres"),
        )
        ((env, _),) = solve([c])
        assert env[var("Eres")] == 0
        (copy,) = decoded(env[var("Dres")]).chunks()
        assert copy.val() == {sym("a"): sym("g0"), sym("b"): sym("g0")}

    def test_action_builtin_needs_an_id_ordered_store(self):
        goal = encode_chunk(Chunk(sym("g0"), sym("t"), {sym("a"): sym("g0")}))
        modify = encode_action(Action(MODIFY, sym("goal"), None, ()))
        cogstate = encode_cogstate([(sym("goal"), sym("g0"), 0)])
        for store in (TList((goal, goal)), TList((encode_chunk(NIL_CHUNK), goal))):
            c = constraint("action", modify, store, cogstate, var("D"), var("C"), var("E"))
            with pytest.raises(ChrError, match="strict id order"):
                solve([c])

    @staticmethod
    def modification_over(action_term, store_term):
        goal = Chunk(sym("g0"), sym("t"), {sym("a"): sym("g0")})
        store = encode_store(ChunkStore([goal]).with_nil()) if store_term is None else store_term
        if action_term is None:
            action_term = encode_action(Action(MODIFY, sym("goal"), None, ()))
        cogstate = encode_cogstate([(sym("goal"), sym("g0"), 0)])
        return constraint("action", action_term, store, cogstate, var("D"), var("C"), var("E"))

    def test_action_builtin_over_an_unbound_action_is_undecided(self):
        with pytest.raises(Undecided, match="action over an unbound action term: action"):
            solve([self.modification_over(var("A"), None)])
        # a ground term that is no action is an error
        with pytest.raises(ChrError, match="not an action term: x") as raised:
            solve([self.modification_over(sym("x"), None)])
        assert raised.type is ChrError

    def test_action_builtin_over_an_unbound_store_is_undecided(self):
        with pytest.raises(Undecided, match="action over an unbound store: action"):
            solve([self.modification_over(None, var("S"))])
        # a ground term that is no chunk list is an error
        with pytest.raises(ChrError, match="not a chunk list: x") as raised:
            solve([self.modification_over(None, sym("x"))])
        assert raised.type is ChrError

    def test_operands_not_written_out_in_the_rule_are_refused(self):
        # a head-bound variable holding a well-formed operand is refused
        # when the rule is made; an unbound one stays undecided
        store = encode_store(ChunkStore([Chunk(sym("g0"), sym("t"), {sym("a"): sym("g0")})]).with_nil())
        action = encode_action(Action(MODIFY, sym("goal"), None, ()))
        cogstate = encode_cogstate([(sym("goal"), sym("g0"), 0)])
        a, g, lst = var("A"), var("G"), var("L")
        cases = [
            (constraint("action", a, store, cogstate, var("D"), var("C"), var("E")), a, action,
             "not an action term: A", "action over an unbound action term: action(A,"),
            (constraint("action", action, store, g, var("D"), var("C"), var("E")), g, cogstate,
             "cognitive state not written out as a list: G", "cognitive state not a list: G"),
            (constraint("merge", lst, var("D")), lst, TList((store,)),
             "merge operands not written out as a list: L", "merge over unbound list: merge(L,D)"),
        ]
        for c, v, value, refused, unbound in cases:
            with pytest.raises(ChrError) as raised:
                solve([c], {v: value})
            assert raised.type is ChrError and str(raised.value) == refused
            with pytest.raises(Undecided) as raised:
                solve([c])
            assert str(raised.value).startswith(unbound)
            # the same operand written out is solved
            ((env, _),) = solve([Constraint(c.name, tuple(value if x == v else x for x in c.args))])
            assert is_ground(env[var("D")])
        # an empty cognitive state is written out too
        lone = constraint("action", action, store, TList(()), var("D"), var("C"), var("E"))
        with pytest.raises(ChrError, match="no buffer goal"):
            solve([lone])
        for bad in (sym("x"), TList((sym("x"),))):
            with pytest.raises(ChrError, match=r"cognitive state not written out as a list: (x|\[x\])$"):
                solve([Constraint("action", (action, store, bad, *lone.args[3:]))])

    def test_modification_falls_back_to_nil_and_ignores_unknown_slots(self):
        goal = Chunk(sym("g0"), sym("t"), {sym("a"): sym("g0"), sym("b"): sym("g0")})
        store = encode_store(ChunkStore([goal]).with_nil())
        # zz names no listed chunk; q is no slot of the incumbent
        updates = ((sym("b"), sym("zz")), (sym("q"), sym("g0")))
        c = constraint(
            "action",
            encode_action(Action(MODIFY, sym("goal"), None, updates)),
            store,
            encode_cogstate([(sym("goal"), sym("g0"), 1)]),
            var("Dres"),
            var("Cres"),
            var("Eres"),
        )
        ((env, atoms),) = solve([c], ids=IdGen(4))
        assert atoms == () and env[var("Cres")] == sym("c#4") and env[var("Eres")] == 0
        (copy,) = env[var("Dres")].items
        expected = Chunk(sym("c#4"), sym("t"), {sym("a"): sym("g0"), sym("b"): NIL})
        # the term spells the chunk it carries
        assert decoded(env[var("Dres")]).chunks() == (expected,) == (decode_chunk(copy),)
        # the untouched pair is the incumbent's own term
        (incumbent,) = [t for t in store.items if t.args[0] == sym("g0")]
        assert copy.args[2].items[0] is incumbent.args[2].items[0]


class TestTermMerge:
    """``merge_chunk_lists`` is the store merge, over chunk lists."""

    @staticmethod
    def corpus_stores():
        """The stores of the explored states of two corpus models at a time:
        one exploration never hands out a fresh id twice, two do."""
        def stores(i):
            m = normalize_model(random_model(random.Random(i)))
            return [encode_store(s.store) for s in explore(m, depth=3).states]

        for i in range(0, 200, 10):
            yield stores(i) + stores(i + 5)

    @staticmethod
    def merged(*lists):
        """The term merge, or ChrError, where the store merge clashes."""
        stores = [decoded(t) for t in lists]
        try:
            expected = encode_store(reduce(merge, stores, ChunkStore()))
        except IdClash:
            with pytest.raises(ChrError, match="merge: id .* bound to"):
                merge_chunk_lists(lists)
            return None
        out = merge_chunk_lists(lists)
        assert out == expected
        return out

    def test_agrees_with_the_store_merge_and_keeps_its_laws(self):
        rng = random.Random(9)
        empty = encode_store(ChunkStore())
        checked = clashes = 0
        for stores in self.corpus_stores():
            for _ in range(40):
                a, b, c = (rng.choice(stores) for _ in range(3))
                assert self.merged(a) == a
                assert self.merged(a, empty) == a == self.merged(empty, a)
                assert self.merged(a, a) == a
                ab, ba = self.merged(a, b), self.merged(b, a)
                assert ab == ba
                bc = self.merged(b, c)
                if ab is None:
                    clashes += 1
                elif bc is not None:
                    assert self.merged(ab, c) == self.merged(a, bc)
                    assert self.merged(ab, c) == self.merged(a, b, c)
                checked += 1
        assert checked == 800 and 100 < clashes < 700

    def test_the_builtins_answer_as_a_scan_does(self):
        rng = random.Random(9)
        checked = 0
        out = var("D")
        for stores in self.corpus_stores():
            for _ in range(40):
                a, b, c = (rng.choice(stores) for _ in range(3))
                known = {t.args[0] for t in a.items + b.items}
                for t in c.items:  # map: a scan of both stores for the id
                    ((env, _),) = solve([constraint("map", a, b, t.args[0], var("M"))])
                    assert env[var("M")] == (t.args[0] if t.args[0] in known else NIL)
                # merge: the operands read in place, through variables
                env = {var("A"): a, var("B"): b}
                goal = constraint("merge", TList((var("A"), var("B"), c)), out)
                expected = self.merged(a, b, c)
                if expected is None:
                    with pytest.raises(ChrError, match="merge: id .* bound to"):
                        solve([goal], env)
                else:
                    ((env, _),) = solve([goal], env)
                    assert env[out] == expected
                # in: a chunk pattern with its id bound finds the one term
                for t in c.items:
                    pattern = Compound("chunk", (t.args[0], var("T"), var("P")))
                    sols = solve([constraint("in", pattern, a)])
                    assert [e[var("P")] for e, _ in sols] == [
                        u.args[2] for u in a.items if u.args[0] == t.args[0]
                    ]
                checked += 1
        assert checked == 800

    def test_a_successor_store_holds_the_parent_terms(self):
        parent = encode_store(ChunkStore([CHUNK, Chunk(sym("c#3"), sym("t"), {})]))
        new = encode_store(ChunkStore([Chunk(sym("c#4"), sym("t"), {sym("a"): sym("k")})]))
        out = merge_chunk_lists([parent, new])
        assert [t.args[0] for t in out.items] == [sym("c#3"), sym("c#4"), sym("k")]
        kept = [t for t in out.items if t.args[0] != sym("c#4")]
        assert all(any(t is u for u in parent.items) for t in kept)

    def test_added_ids_are_placed_as_a_full_sort_places_them(self):
        # overlapping operands whose ids interleave, fresh ids among them
        rng = random.Random(4)
        names = [f"k{i}" for i in range(20)] + ["a", "z", "c#1", "c#10", "c#2"]
        chunks = {n: Chunk(sym(n), sym("t"), {sym("a"): sym(n)}) for n in names}
        merges = 0
        for _ in range(300):
            operands = [rng.sample(names, rng.randint(0, 8)) for _ in range(rng.randint(2, 4))]
            lists = [encode_store(ChunkStore(chunks[n] for n in ns)) for ns in operands]
            out = merge_chunk_lists(lists)
            union = ChunkStore(chunks[n] for n in sorted({n for ns in operands for n in ns}))
            expected = sorted((t for lst in lists for t in lst.items), key=lambda t: t.args[0].name)
            assert out.items == tuple(dict.fromkeys(expected))
            assert list(out._ids) == [t.args[0] for t in out.items]
            assert out._ids == {t.args[0]: (t,) for t in out.items}
            if any(operands):  # the empty merge carries no store
                assert out._store == union
            merges += sum(1 for ns in operands if ns) > 1
        assert merges > 200

    def test_a_lone_nonempty_operand_is_the_merge_itself(self):
        lone = encode_store(ChunkStore([CHUNK, Chunk(sym("c#3"), sym("t"), {})]))
        for lists in ([lone], [lone, TList(())], [TList(()), lone], [TList(()), lone, TList(())]):
            assert merge_chunk_lists(lists) is lone
        bad = TList(tuple(reversed(lone.items)))
        for lists in ([bad], [bad, TList(())], [TList(()), bad]):
            with pytest.raises(ChrError, match="strict id order"):
                merge_chunk_lists(lists)

    def test_operands_must_be_strictly_id_ordered(self):
        j = encode_chunk(Chunk(sym("j"), sym("t"), {}))
        k = encode_chunk(CHUNK)
        for bad in (TList((k, j)), TList((j, j)), TList((k, k))):
            for lists in ([bad], [bad, TList(())], [TList((j,)), bad]):
                with pytest.raises(ChrError, match="strict id order"):
                    merge_chunk_lists(lists)

    def test_clashes_and_malformed_operands_are_errors(self):
        k, other = encode_chunk(CHUNK), encode_chunk(Chunk(sym("k"), sym("t"), {}))
        with pytest.raises(ChrError, match="merge: id k bound to"):
            merge_chunk_lists([TList((k,)), TList((other,))])
        for bad in (sym("x"), TList((tuple_term(sym("k"), sym("t")),))):
            with pytest.raises(ChrError):
                merge_chunk_lists([TList((k,)), bad])

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_a_check_indexes_no_chunk_list_lazily(self, policy, monkeypatch):
        # every list a check reads as a chunk list is checked when made:
        # the translated initial state, each action result and each merge
        calls = Counter()
        first_args = actrchr.chr._first_args

        def counted(t):
            calls[getattr(t, "_ids", None) is None] += 1
            return first_args(t)

        monkeypatch.setattr(actrchr.chr, "_first_args", counted)
        config = ArchitectureConfig(fail_request=policy)
        for i in range(60):
            assert bisim_check(random_model(random.Random(i)), depth=4, config=config).ok
        assert calls[True] == 0 and calls[False] > 500  # 860 under nil, 574 under stuck


REVEAL = ChrRule(
    name="no",
    removed=(gamma_c(var("B"), var("C"), var("D")),),
    guard=(constraint(">", var("D"), 0),),
    body_user=(gamma_c(var("B"), var("C"), 0),),
    body_builtin=(),
)


def pair_rule():
    return ChrRule(
        name="pair",
        removed=(constraint("p", var("X")), constraint("p", var("Y"))),
        guard=(),
        body_user=(constraint("q", var("X"), var("Y")),),
        body_builtin=(),
    )


class TestStepRelation:
    def test_reveal_rule_flips_one_pending_flag(self):
        state = ChrState((gamma_c(sym("goal"), sym("k"), 1),), ())
        ((label, nxt),) = chr_step(state, [REVEAL])
        assert label == "no"
        assert nxt.goal == (gamma_c(sym("goal"), sym("k"), 0),)

    def test_visible_buffer_does_not_fire(self):
        state = ChrState((gamma_c(sym("goal"), sym("k"), 0),), ())
        assert chr_step(state, [REVEAL]) == []

    def test_two_pending_buffers_give_two_successors(self):
        state = ChrState(
            (
                gamma_c(sym("a"), sym("k"), 1),
                gamma_c(sym("b"), sym("k"), 1),
            ),
            (),
        )
        succ = chr_step(state, [REVEAL])
        assert len(succ) == 2
        stills = [
            [c for c in s.goal if c.args[2] == 1][0].args[0] for _, s in succ
        ]
        assert set(stills) == {sym("a"), sym("b")}

    def test_head_matching_is_injective(self):
        # a two-headed rule cannot consume one constraint twice
        single = ChrState((constraint("p", sym("a")),), ())
        assert chr_step(single, [pair_rule()]) == []
        double = ChrState((constraint("p", sym("a")), constraint("p", sym("b"))), ())
        succ = chr_step(double, [pair_rule()])
        assert len(succ) == 2  # both orders of the two constraints
        results = {s.goal[0].args for _, s in succ}
        assert results == {(sym("a"), sym("b")), (sym("b"), sym("a"))}

    def test_body_must_come_out_ground(self):
        leaky = ChrRule(
            name="leak",
            removed=(constraint("p", var("X")),),
            guard=(),
            body_user=(constraint("q", var("Z")),),  # Z never bound
            body_builtin=(),
        )
        state = ChrState((constraint("p", sym("a")),), ())
        with pytest.raises(Undecided):
            chr_step(state, [leaky])

    def test_program_order_gives_label_order(self):
        state = ChrState((gamma_c(sym("goal"), sym("k"), 1),), ())
        other = ChrRule(
            name="alt",
            removed=(gamma_c(var("B"), var("C"), var("D")),),
            guard=(constraint(">", var("D"), 0),),
            body_user=(gamma_c(var("B"), var("C"), 0),),
            body_builtin=(),
        )
        labels = [l for l, _ in chr_step(state, [other, REVEAL])]
        assert labels == ["alt", "no"]

    def test_uninterpreted_guard_atom_is_undecided(self):
        # stored facts reach a rule only through the action built-in
        fires_on_fact = ChrRule(
            name="f",
            removed=(constraint("p", var("X")),),
            guard=(constraint("dm", var("X")),),
            body_user=(constraint("q", var("X")),),
            body_builtin=(),
        )
        state = ChrState(
            (constraint("p", sym("a")),),
            (Atom("dm", (sym("a"),)),),
        )
        with pytest.raises(Undecided):
            chr_step(state, [fires_on_fact])

    def test_action_over_a_buffer_naming_an_unlisted_chunk_is_rejected(self):
        # ctx is modified without a test, so no guard checks its chunk
        m = parse_model(
            "type t { s }\nchunk a : t { s: a }\nbuffer goal = a\nbuffer ctx = a\n"
            "rule r { goal: t { s: a } ==> modify ctx { s: a } }\n"
        )
        state = chr_of_state(m.initial_state())
        goal = tuple(
            gamma_c(sym("ctx"), sym("zz"), 0) if c.args[0] == sym("ctx") else c
            for c in state.goal
        )
        with pytest.raises(ChrError, match="ctx holds unknown chunk id zz"):
            chr_step(ChrState(goal, state.facts), chr_of_model(m))

    def test_every_buffer_must_name_a_listed_chunk(self):
        # goal is modified and ctx is not, yet ctx's chunk is checked too
        m = parse_model(
            "type t { s }\nchunk a : t { s: a }\nbuffer goal = a\nbuffer ctx = a\n"
            "rule r { goal: t { s: a } ==> modify goal { s: a } }\n"
        )
        state = chr_of_state(m.initial_state())
        for delay, message in ((0, "ctx holds unknown chunk id zz"), (2, "non-binary delay 2")):
            bad = gamma_c(sym("ctx"), sym("zz") if delay == 0 else sym("a"), delay)
            goal = tuple(bad if c.args[0] == sym("ctx") else c for c in state.goal)
            with pytest.raises(ChrError, match=message):
                chr_step(ChrState(goal, state.facts), chr_of_model(m)[:1])

    def test_a_request_is_asked_in_a_checked_state(self, counting_model):
        # built from the CHR state without re-checking it: nil is in the
        # store, and the facts a step appended out of order come sorted
        asked = []

        def adding(type, pairs, state):
            asked.append(state)
            return [Answer(a.type, a.val, a.delay, (Atom("added", (type,)),))
                    for a in declarative_retrieval(type, pairs, state)]

        config = ArchitectureConfig(default_handler=adding)
        prog = chr_of_model(counting_model)
        c = chr_of_state(normalize_model(counting_model).initial_state())
        run = Run(config, fresh_gen_for(c))
        for _ in range(4):
            ((_, c),) = chr_step(c, prog, run)
        assert [f.pred for f in c.facts][-1] == "added"  # appended after the dm facts
        assert len(asked) == 2 and asked[-1].upsilon[0].pred == "added"
        for state in asked:
            assert NIL in state.store
            assert state == AbstractState.make(state.store, state.gamma, state.upsilon)

    def test_goal_with_variables_is_rejected(self):
        # rules are used as they are, so a goal variable could meet one
        # of theirs: only ground goals step
        state = ChrState((constraint("p", sym("a")), constraint("p", var("X"))), ())
        with pytest.raises(ChrError, match=r"goal not ground: p\(X\)"):
            chr_step(state, [pair_rule()])

    def test_a_ground_head_argument_matches_only_its_equal(self):
        x, fa = var("X"), Compound("f", (sym("a"),))
        goal = (constraint("p", sym("b"), sym("a")), constraint("p", fa, sym("c")), constraint("p", sym("a"), sym("d")))
        # a symbol first argument keys the head; the rest are new variables
        rule = ChrRule("g", (constraint("p", sym("a"), x),), (), (constraint("q", x),), ())
        assert chr_step(ChrState(goal, ()), [rule]) == [("g", ChrState(goal[:2] + (constraint("q", sym("d")),), ()))]
        miss = ChrRule("g", (constraint("p", sym("e"), x),), (), (constraint("q", x),), ())
        assert chr_step(ChrState(goal, ()), [miss]) == []

    X, Y, L = var("X"), var("Y"), var("L")

    @pytest.mark.parametrize("head, guard, body_user, body_builtin, message", [
        pytest.param((constraint("p", X, X),), (), (), (),
                     "head argument not a new variable: X in p(X,X)", id="repeated-head-variable"),
        pytest.param((constraint("p", X, sym("a")),), (), (), (),
                     "head argument not a new variable: a in p(X,a)", id="constant-after-key"),
        pytest.param((constraint("p", Compound("f", (X,))),), (), (), (),
                     "head argument not a new variable: f(X) in p(f(X))", id="compound-head-argument"),
        pytest.param((constraint("p", X), constraint("q", X)), (), (), (),
                     "head argument not a new variable: X in q(X)", id="head-variable-reused"),
        pytest.param((constraint("p", Y),), (constraint("=", X, Compound("f", (Y,))),), (), (),
                     "term built at run time: f(Y) in X = f(Y)", id="built-equation-side"),
        pytest.param((constraint("p", Y),), (constraint("in", X, TList((Y,))),), (), (),
                     "term built at run time: [Y] in X in [Y]", id="built-membership-list"),
        pytest.param((constraint("p", X),), (), (constraint("q", Compound("f", (X,))),), (),
                     "term built at run time: f(X) in q(f(X))", id="built-body-argument"),
        pytest.param((constraint("p", L, X),), (), (), (constraint("merge", TList((L,)), X),),
                     "result not a new variable: X in merge([L],X)", id="bound-result"),
    ])
    def test_shapes_outside_the_fragment_are_refused_when_the_rule_is_made(
        self, head, guard, body_user, body_builtin, message
    ):
        # every head argument after a symbol key is a variable met there
        # first, every input a bound variable or a ground term, and every
        # built-in result a new variable: nothing is built or checked at
        # run time
        with pytest.raises(ChrError) as raised:
            ChrRule("r", head, guard, body_user, body_builtin)
        assert raised.type is ChrError and str(raised.value) == message

    def test_an_empty_head_is_refused(self):
        # a simplification rule removes at least one constraint, so an
        # empty head would fire in every state, the empty goal included
        with pytest.raises(ChrError, match="rule r removes no constraint"):
            ChrRule("r", (), (), (constraint("q", sym("a")),), ())

    # sha256 over every successor, in order, of a breadth-first walk of CHR
    # states alone: corpus models 0-29, depth 3, deduplicated by form
    PINNED = {
        FAIL_NIL: "5a2485dc9879a742d51c51a1c6fd8b3c39ea305dcd82fbae0694071ac2b5c5cf",
        FAIL_STUCK: "6dfcd964f918747432dba4b0e90de16a2f295508b442d865b346f9e312876be8",
    }

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_successors_come_out_in_a_pinned_order(self, policy):
        config = ArchitectureConfig(fail_request=policy)
        digest = hashlib.sha256()
        for i in range(30):
            model = random_model(random.Random(i))
            program = chr_of_model(model)
            start = chr_of_state(normalize_model(model).initial_state())
            seen, frontier = {canonical_form(start)}, [start]
            for _ in range(3):
                deeper = []
                for state in frontier:
                    for label, succ in chr_step(state, program, Run(config, fresh_gen_for(state))):
                        digest.update(f"{label} {render_state(succ)}\n".encode())
                        form = canonical_form(succ)
                        if form not in seen:
                            seen.add(form)
                            deeper.append(succ)
                frontier = deeper
        assert digest.hexdigest() == self.PINNED[policy]


class TestFacts:
    def test_fresh_gen_skips_ids_inside_terms(self):
        state = ChrState(
            (delta_c(TList((Compound("chunk", (sym("c#3"), sym("t"), TList(()))),))),),
            (),
        )
        assert fresh_gen_for(state).fresh() == sym("c#4")


class TestStateEquivalence:
    @staticmethod
    def translated(name: str) -> ChrState:
        c = Chunk(sym(name), sym("t"), {sym("a"): NIL, sym("b"): NIL})
        store = encode_store(ChunkStore([c]))
        return ChrState((delta_c(store), gamma_c(sym("goal"), sym(name), 0)), ())

    def test_renamed_fresh_ids_are_equivalent(self):
        assert canonical_form(self.translated("c#0")) == canonical_form(self.translated("c#9"))

    def test_parsed_ids_are_not_renamed(self):
        assert canonical_form(self.translated("x")) != canonical_form(self.translated("y"))

    def test_goal_is_a_multiset(self):
        a = Chunk(sym("x"), sym("t"), {sym("a"): NIL})
        delta = delta_c(encode_store(ChunkStore([a]).with_nil()))
        goal_g, ctx_g = gamma_c(sym("goal"), sym("x"), 0), gamma_c(sym("ctx"), NIL, 1)
        forms = {
            canonical_form(ChrState(goal, ()))
            for goal in itertools.permutations((delta, goal_g, ctx_g))
        }
        assert len(forms) == 1
        with pytest.raises(ChrError, match="two gamma rows for buffer goal"):
            canonical_form(ChrState((delta, goal_g, goal_g, ctx_g), ()))

    @staticmethod
    def reachable(seed: int, models: int = 30, depth: int = 5):
        """Seeded random models with every state reached without
        deduplication, so states differing only in fresh ids all appear."""
        rng = random.Random(seed)
        for _ in range(models):
            m = normalize_model(random_model(rng))
            yield m, explore(m, depth=depth, dedup="exact").states

    @staticmethod
    def permute_fresh(state: AbstractState, rng: random.Random) -> AbstractState:
        fresh = [c.id for c in state.store if is_fresh_id(c.id)]
        names = [sym(f"c#{n}") for n in range(3 * len(fresh))]
        ren = dict(zip(fresh, rng.sample(names, len(fresh))))

        def r(s: Symbol) -> Symbol:
            return ren.get(s, s)

        store = ChunkStore(
            Chunk(r(c.id), c.type, [(s, r(v)) for s, v in c.pairs]) for c in state.store
        )
        gamma = [(b, r(c), d) for b, c, d in state.gamma]
        atoms = [Atom(a.pred, tuple(r(x) for x in a.args)) for a in state.upsilon]
        return AbstractState.make(store, gamma, atoms)

    def test_translated_equivalence_is_the_abstract_key(self):
        renamings = 0
        for m, states in self.reachable(71):
            keys = [canonical_key(s) for s in states]
            forms = [canonical_form(chr_of_state(s)) for s in states]
            # the form of a translated state is the abstract key itself
            assert forms == keys
            renamings += len(states) - len(set(keys))
        assert renamings > 100

    def test_both_forms_ignore_a_permutation_of_fresh_ids(self):
        rng = random.Random(72)
        renamed = 0
        for m, states in self.reachable(73, models=15):
            for state in states:
                other = self.permute_fresh(state, rng)
                renamed += other != state
                assert canonical_key(other) == canonical_key(state)
                assert canonical_form(chr_of_state(other)) == canonical_form(
                    chr_of_state(state)
                )
        assert renamed > 50

    P, Q = sym("p"), sym("q")
    TYPES = (sym("t"), sym("u"))

    @classmethod
    def small_chunk(cls, cid: Symbol, rng: random.Random) -> Chunk:
        return Chunk(cid, rng.choice(cls.TYPES), {sym("s"): rng.choice((cls.P, cls.Q, NIL))})

    @classmethod
    def small_state(cls, rng: random.Random, fresh: list[Symbol]) -> AbstractState:
        """Fresh chunks over six contents, so equal stale chunks are
        common; slots and facts name parsed ids only (the fresh-id
        invariant)."""
        parsed = [
            Chunk(cls.P, sym("t"), {sym("s"): cls.P}),
            Chunk(cls.Q, sym("u"), {sym("s"): cls.P}),
        ]
        buffers = [sym("goal"), sym("retrieval"), sym("visual")][: rng.randint(2, 3)]
        gamma = {b: (rng.choice([*fresh, cls.P, NIL]), rng.randint(0, 1)) for b in buffers}
        atoms = [Atom("dm", (x,)) for x in (cls.P, cls.Q) if rng.random() < 0.5]
        chunks = parsed + [cls.small_chunk(f, rng) for f in fresh]
        return AbstractState.make(ChunkStore(chunks), gamma, atoms)

    @classmethod
    def near_miss(cls, state: AbstractState, rng: random.Random) -> AbstractState:
        """The state with one fresh chunk's content or one buffer redrawn."""
        fresh = [c.id for c in state.store if is_fresh_id(c.id)]
        chunks = {c.id: c for c in state.store}
        gamma = {b: (c, d) for b, c, d in state.gamma}
        if fresh and rng.random() < 0.5:
            cid = rng.choice(fresh)
            chunks[cid] = cls.small_chunk(cid, rng)
        else:
            gamma[rng.choice(list(gamma))] = (rng.choice([*fresh, cls.P, NIL]), rng.randint(0, 1))
        return AbstractState.make(ChunkStore(chunks.values()), gamma, state.upsilon)

    @staticmethod
    def isomorphic(a: AbstractState, b: AbstractState) -> bool:
        """Some bijection of fresh ids maps ``a`` onto ``b`` (brute force)."""
        fa = [c.id for c in a.store if is_fresh_id(c.id)]
        fb = [c.id for c in b.store if is_fresh_id(c.id)]
        if len(fa) != len(fb):
            return False
        for image in itertools.permutations(fb):
            ren = dict(zip(fa, image))

            def r(s: Symbol) -> Symbol:
                return ren.get(s, s)

            store = ChunkStore(
                Chunk(r(c.id), c.type, [(s, r(v)) for s, v in c.pairs]) for c in a.store
            )
            gamma = [(x, r(c), d) for x, c, d in a.gamma]
            atoms = [Atom(t.pred, tuple(r(x) for x in t.args)) for t in a.upsilon]
            if AbstractState.make(store, gamma, atoms) == b:
                return True
        return False

    def test_equal_keys_exactly_for_isomorphic_states(self):
        def held_and_stale(held: str, stale: str) -> AbstractState:
            chunks = [Chunk(sym(held), sym("t"), {sym("s"): self.P}), Chunk(sym(stale), sym("u"))]
            return AbstractState.make(ChunkStore(chunks), {sym("goal"): (sym(held), 0)})

        # a renumbering across name order: c#10 sorts before c#9
        a, b = held_and_stale("c#9", "c#10"), held_and_stale("c#10", "c#9")
        assert self.isomorphic(a, b) and canonical_key(a) == canonical_key(b)

        rng = random.Random(74)
        outcomes: Counter = Counter()
        for _ in range(400):
            names = [sym(f"c#{k}") for k in rng.sample(range(12), rng.randint(0, 5))]
            a = self.small_state(rng, names)
            pick = rng.random()
            if pick < 0.4:
                b = a
            elif pick < 0.8:
                b = self.near_miss(a, rng)
            else:
                b = self.small_state(rng, names)
            b = self.permute_fresh(b, rng)
            iso = self.isomorphic(a, b)
            assert (canonical_key(a) == canonical_key(b)) == iso, (a, b)
            outcomes[iso, a == b] += 1
        # distinct isomorphic states and non-isomorphic ones both abound
        assert min(outcomes[True, False], outcomes[False, False]) > 50, outcomes

    def test_ill_shaped_states_have_no_form(self):
        # slots and facts name only the parsed chunk x: the fresh-id invariant
        a = Chunk(sym("x"), sym("t"), {sym("a"): NIL, sym("b"): NIL})
        b = Chunk(sym("c#1"), sym("t"), {sym("a"): sym("x"), sym("b"): NIL})
        delta = delta_c(encode_store(ChunkStore([a, b]).with_nil()))
        goal_g = gamma_c(sym("goal"), sym("c#1"), 0)
        facts = (Atom("dm", (sym("x"),)),)
        original = ChrState((delta, goal_g), facts)
        b_term, _, a_term = delta.args[0].items
        swapped = Compound("chunk", (*a_term.args[:2], TList(a_term.args[2].items[::-1])))
        doubled = Compound("chunk", (*a_term.args[:2], TList(a_term.args[2].items[:1] * 2)))
        variants = [
            # no delta, a second one, and one over no chunk list
            ((goal_g,), "no delta over a chunk list"),
            ((delta, delta, goal_g), "second delta"),
            ((delta_c(sym("x")), goal_g), "no delta over a chunk list"),
            # a goal constraint other than delta/1 and gamma/3
            ((delta, goal_g, constraint("p", sym("x"))), r"not delta/1 or gamma/3: p\(x\)"),
            ((delta, constraint("gamma", sym("goal"), sym("x"))), "not delta/1 or gamma/3"),
            # the same gamma twice, and two gammas for one buffer
            ((delta, goal_g, goal_g), "two gamma rows for buffer goal"),
            ((delta, goal_g, gamma_c(sym("goal"), sym("x"), 0)), "two gamma rows"),
            # a chunk id listed twice, with equal and with different content
            ((delta_c(TList((a_term, b_term, b_term))), goal_g), "listed twice"),
            ((delta_c(TList((a_term, b_term, encode_chunk(
                Chunk(sym("c#1"), sym("t"), {}))))), goal_g), "listed twice"),
            # a gamma naming no listed chunk, and one with a delay of 2
            ((delta_c(TList((a_term,))), goal_g), "names no listed chunk"),
            ((delta, gamma_c(sym("goal"), sym("c#7"), 0)), r"no listed chunk: gamma\(goal,c#7,0\)"),
            ((delta, gamma_c(sym("goal"), sym("x"), 2)), "delay other than 0 or 1"),
            # slots out of name order, one slot listed twice, no chunk term
            ((delta_c(TList((swapped, b_term))), goal_g), "slots not in strict name order"),
            ((delta_c(TList((doubled, b_term))), goal_g), "slots not in strict name order"),
            ((delta_c(TList((sym("x"),))), goal_g), "not a chunk term"),
        ]
        assert canonical_form(original) == canonical_key(
            AbstractState.make(ChunkStore([a, b]), {sym("goal"): (sym("c#1"), 0)},
                               [Atom("dm", (sym("x"),))])
        )
        for goal, message in variants:
            with pytest.raises(ChrError, match=message) as raised:
                canonical_form(ChrState(goal, facts))
            assert raised.type is ChrError, message


def noting(type, pairs, state):
    """Retrieval whose every answer also adds a fact."""
    answers = declarative_retrieval(type, pairs, state)
    return [Answer(a.type, a.val, a.delay, (Atom("seen", (type,)),)) for a in answers]


class TestKeyParts:
    """The CHR side's twin of the engine's key-part test: a successor's
    chunk list carries a store derived from its parent's, and its facts,
    and both equal what decoding the successor from scratch gives."""

    @staticmethod
    def store(state: ChrState) -> ChunkStore:
        """The store the state's delta list carries, once it is keyed."""
        (delta,) = [c for c in state.goal if c.name == "delta"]
        return delta.args[0]._store

    @pytest.mark.parametrize("config", [
        ArchitectureConfig(fail_request=FAIL_NIL),
        ArchitectureConfig(fail_request=FAIL_STUCK),
        ArchitectureConfig(default_handler=noting),
    ], ids=["nil", "stuck", "facts"])
    def test_carried_stores_and_facts_equal_decoded_ones(self, config):
        keyed = shared_facts = added = 0
        for i in range(30):
            m = random_model(random.Random(i))
            prog = chr_of_model(m)
            c0 = chr_of_state(normalize_model(m).initial_state())
            run = Run(config, fresh_gen_for(c0))  # run-wide, as bisim_check draws them
            seen = {canonical_form(c0)}
            queue = [(c0, 0)]
            for c, d in queue:
                if d == 5:
                    continue
                for _, c2 in chr_step(c, prog, run):
                    carried = self.store(c2)
                    assert carried._parts is not None  # derived, not computed
                    copied = pickle.loads(pickle.dumps(c2))  # drops every cache
                    form = canonical_form(c2)
                    assert form == canonical_form(copied)
                    assert carried == self.store(copied)
                    assert carried.key_parts() == ChunkStore(carried.chunks()).key_parts()
                    shared_facts += c2.facts is c.facts
                    assert copied == c2
                    added += len(carried) > len(self.store(c))
                    keyed += 1
                    if form not in seen:
                        seen.add(form)
                        queue.append((c2, d + 1))
        # keyed, sharing facts, adding chunks: nil 605, 605, 254; stuck 290, 290,
        # 139; facts 605, 596, 254
        assert keyed > 250 and shared_facts > 250 and added > 100
        assert (shared_facts < keyed) == (config.default_handler is noting)


def listed_chunks(steps):
    """The chunk each listed term of each successor's delta carries, with
    its content."""
    out = []
    for _, succ in steps:
        (delta,) = [c for c in succ.goal if c.name == "delta"]
        out.append([(t._chunk, t._chunk.content()) for t in delta.args[0].items])
    return out


class TestActionMemo:
    """A run memoizes the ``action`` built-in up to the fresh ids its
    answers draw; nothing of the memo shows in a step."""

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_steps_equal_those_computed_afresh(self, policy, monkeypatch):
        config = ArchitectureConfig(fail_request=policy)
        cases = []
        entries = 0
        for i in range(30):
            m = random_model(random.Random(i))
            program = chr_of_model(m)
            run = Run(config, IdGen())  # one run's memo, each step from ids of its own
            for state in explore(m, config, depth=6).states:
                c = chr_of_state(state)
                start = fresh_gen_for(c).count + i
                run.ids = IdGen(start)
                cases.append((program, c, start, chr_step(c, program, run), run.ids.count))
            entries += len(run.memo)
        calls = Counter()  # without the memo, every action call is solved

        def counted(name):
            solve = getattr(actrchr.chr, name)
            return lambda *args: calls.update([name]) or solve(*args)

        for name in ("_modify", "_request"):
            monkeypatch.setattr(actrchr.chr, name, counted(name))
        monkeypatch.setattr(actrchr.chr, "_modify_key", lambda *_: None)
        monkeypatch.setattr(actrchr.chr, "_request_key", lambda *_: None)
        for program, c, start, memoized, end in cases:
            run = Run(config, IdGen(start))
            afresh = chr_step(c, program, run)
            assert afresh == memoized and run.ids.count == end
            assert listed_chunks(afresh) == listed_chunks(memoized)
        # both kinds were called, and most calls were hits, as each miss records
        # one entry: calls and entries nil 833, 44; stuck 332, 40
        assert min(calls.values()) > 50 and entries * 5 < sum(calls.values())

    def test_a_modification_is_keyed_by_which_update_values_are_listed(self):
        # the same incumbent and update, once over a store that lists b and
        # once over one that does not: the copy's slot is b, then nil
        model = normalize_model(parse_model(
            "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: b }\nbuffer goal = a\n"
            "rule r { goal: t { s: a } ==> modify goal { s: b } }\n"
        ))
        program = chr_of_model(model)
        full = chr_of_state(model.initial_state())
        (delta, *rest) = full.goal
        items = tuple(t for t in delta.args[0].items if t.args[0] != sym("b"))
        short = ChrState((delta_c(TList(items)), *rest), full.facts)
        run = Run(ArchitectureConfig(), IdGen())
        steps = [chr_step(c, program[:1], run) for c in (full, short)]
        copies = [t for ((_, succ),) in steps for t in succ.goal[0].args[0].items if is_fresh_id(t.args[0])]
        values = [decode_chunk(t).value(sym("s")) for t in copies]
        assert values == [sym("b"), NIL] and len(run.memo) == 2

    def test_a_call_that_raises_records_nothing(self, counting_norm, monkeypatch):
        program = chr_of_model(counting_norm)
        ((_, state),) = chr_step(chr_of_state(counting_norm.initial_state()), program)
        expected = chr_step(state, program, Run(ArchitectureConfig(), IdGen()))
        calls = []
        request = actrchr.chr.interpret_request

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise EngineError("injected")
            return request(*args)

        monkeypatch.setattr(actrchr.chr, "interpret_request", fails_once)
        run = Run(ArchitectureConfig(), IdGen())
        with pytest.raises(EngineError, match="injected"):
            chr_step(state, program, run)
        assert len(run.memo) == 1  # the modification solved before the request raised
        run.ids = IdGen()
        assert chr_step(state, program, run) == expected
        assert len(run.memo) == 2  # the modification and the request
        run.ids = IdGen()
        assert chr_step(state, program, run) == expected and len(calls) == 2  # hits


class TestRendering:
    def test_constraint_rendering(self):
        c = gamma_c(sym("goal"), var("C"), 0)
        assert render_constraint(c) == "gamma(goal,C,0)"

    def test_rule_rendering_shape(self):
        text = render_rule(REVEAL)
        assert text == "no @ gamma(B,C,D) <=> D > 0 | gamma(B,C,0)."

    def test_state_rendering_mentions_goal_and_builtins(self):
        state = ChrState((constraint("p", sym("a")),), (Atom("dm", (sym("a"),)),))
        text = render_state(state)
        assert text == "<p(a) ; dm(a)>"
