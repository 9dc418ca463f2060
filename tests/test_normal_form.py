"""The one-pair-per-slot rewrite and its behavior-preservation property."""

import itertools
import random

from actrchr.bisim import bisim_check
from actrchr.core import Chunk, ChunkStore, IdGen, Symbol, TypeTable, Variable
from actrchr.engine import (
    ArchitectureConfig,
    DROPPED,
    apply_transition,
    interpret_rule,
    is_normal_form,
    match_rule,
    normalize_model,
    set_normal_form,
)
from actrchr.model import AbstractState, Action, BufferTest, MODIFY, Rule
from actrchr.modelgen import chunk_pool, random_dropped_rule, random_rule, random_types
from actrchr.parser import parse_model


def sym(name: str) -> Symbol:
    return Symbol(name)


def var(name: str) -> Variable:
    return Variable(name)


GOAL = sym("goal")
T = sym("t")


def table(**types) -> TypeTable:
    tt = TypeTable()
    for name, slots in types.items():
        tt.declare(sym(name), tuple(sym(s) for s in slots))
    return tt


def rule(tests, actions=()) -> Rule:
    return Rule("r", tuple(tests), tuple(actions))


class TestHandExamples:
    def test_same_buffer_same_type_tests_merge(self):
        types = table(t=("a", "b"))
        r = rule(
            [
                BufferTest(GOAL, T, ((sym("a"), sym("k")),)),
                BufferTest(GOAL, T, ((sym("b"), sym("m")),)),
            ]
        )
        nf = set_normal_form(r, types)
        assert nf is not DROPPED
        (test,) = nf.tests
        assert test.pairs == ((sym("a"), sym("k")), (sym("b"), sym("m")))

    def test_same_buffer_different_type_is_dropped(self):
        types = table(t=("a",), u=("a",))
        r = rule(
            [
                BufferTest(GOAL, T, ()),
                BufferTest(GOAL, sym("u"), ()),
            ]
        )
        assert set_normal_form(r, types) is DROPPED

    def test_two_constants_on_one_slot_is_dropped(self):
        types = table(t=("a",))
        r = rule(
            [
                BufferTest(GOAL, T, ((sym("a"), sym("k")),)),
                BufferTest(GOAL, T, ((sym("a"), sym("m")),)),
            ]
        )
        assert set_normal_form(r, types) is DROPPED

    def test_constant_wins_over_variable(self):
        types = table(t=("a",))
        r = rule(
            [
                BufferTest(GOAL, T, ((sym("a"), var("X")),)),
                BufferTest(GOAL, T, ((sym("a"), sym("k")),)),
            ],
            [Action(MODIFY, GOAL, None, ((sym("a"), var("X")),))],
        )
        nf = set_normal_form(r, types)
        (test,) = nf.tests
        assert test.pairs == ((sym("a"), sym("k")),)
        # the substitution reaches the right-hand side too
        assert nf.actions[0].pairs == ((sym("a"), sym("k")),)

    def test_two_variables_collapse_to_one_fresh(self):
        types = table(t=("a",))
        r = rule(
            [
                BufferTest(GOAL, T, ((sym("a"), var("X")),)),
                BufferTest(GOAL, T, ((sym("a"), var("Y")),)),
            ],
            [Action(MODIFY, GOAL, None, ((sym("a"), var("Y")),))],
        )
        nf = set_normal_form(r, types)
        (test,) = nf.tests
        ((_, v),) = test.pairs
        assert isinstance(v, Variable) and v.name.startswith("V#")
        assert nf.actions[0].pairs == ((sym("a"), v),)

    def test_missing_slots_gain_fresh_variables(self):
        types = table(t=("a", "b", "c"))
        r = rule([BufferTest(GOAL, T, ((sym("b"), sym("k")),))])
        nf = set_normal_form(r, types)
        (test,) = nf.tests
        assert [s.name for s, _ in test.pairs] == ["a", "b", "c"]
        names = [v.name for _, v in test.pairs if isinstance(v, Variable)]
        assert len(names) == 2 and len(set(names)) == 2
        assert all(n.startswith("V#") for n in names)

    def test_fresh_variables_avoid_the_rules_own_names(self):
        # the parser accepts V#0 as a variable, so normal form must not
        # hand the same name to the missing slot
        src = (
            "type g { current, other }\nchunk a : g { current: a, other: nil }\n"
            "buffer goal = a\n"
            "rule r { goal: g { other: V#0 } ==> modify goal { current: V#0 } }\n"
        )
        model = parse_model(src)
        (r,) = model.rules
        nf = set_normal_form(r, model.types)
        (test,) = nf.tests
        assert dict(test.pairs)[sym("other")] == var("V#0")
        assert dict(test.pairs)[sym("current")] == var("V#1")
        state = model.initial_state()
        assert behaviors_agree(r, nf, state, ArchitectureConfig())
        report = bisim_check(model, depth=2)
        assert report.ok and report.transitions > 0
        # a collapsed slot draws its fresh name from the same supply
        pairs = ((sym("a"), var("X")), (sym("a"), var("Y")), (sym("b"), var("V#0")))
        doubled = rule([BufferTest(GOAL, T, pairs)])
        (test,) = set_normal_form(doubled, table(t=("a", "b"))).tests
        assert test.pairs == ((sym("a"), var("V#1")), (sym("b"), var("V#0")))

    def test_transitive_constant_clash_is_dropped(self):
        # X is pinned to k via slot a, which forces k against m on slot b
        types = table(t=("a", "b"))
        r = rule(
            [
                BufferTest(GOAL, T, ((sym("a"), var("X")), (sym("b"), var("X")))),
                BufferTest(GOAL, T, ((sym("a"), sym("k")), (sym("b"), sym("m")))),
            ]
        )
        assert set_normal_form(r, types) is DROPPED

    def test_already_normal_rule_is_unchanged(self):
        types = table(t=("a",))
        r = rule([BufferTest(GOAL, T, ((sym("a"), var("X")),))])
        nf = set_normal_form(r, types)
        assert nf.tests == r.tests
        assert nf.actions == r.actions

    def test_result_is_normal_and_idempotent(self):
        types = table(t=("a", "b"))
        r = rule(
            [
                BufferTest(GOAL, T, ((sym("a"), var("X")),)),
                BufferTest(GOAL, T, ((sym("b"), var("X")),)),
            ]
        )
        nf = set_normal_form(r, types)
        assert is_normal_form(nf, types)
        again = set_normal_form(nf, types)
        assert again.tests == nf.tests

    def test_is_normal_form_rejects_raw_rules(self):
        types = table(t=("a", "b"))
        missing = rule([BufferTest(GOAL, T, ((sym("a"), var("X")),))])
        assert not is_normal_form(missing, types)
        doubled = rule(
            [BufferTest(GOAL, T, ((sym("a"), var("X")), (sym("a"), var("Y"))))]
        )
        assert not is_normal_form(doubled, types)


class TestNormalizeModel:
    def test_all_surviving_rules_are_normal(self, counting_model):
        norm = normalize_model(counting_model)
        assert all(is_normal_form(r, norm.types) for r in norm.rules)

    def test_unsatisfiable_rules_are_removed(self):
        src = (
            "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: b }\n"
            "buffer goal = a\n"
            "rule dead { goal: t { s: a } goal: t { s: b } ==> modify goal { s: a } }\n"
            "rule live { goal: t { s: X } ==> modify goal { s: X } }\n"
        )
        norm = normalize_model(parse_model(src))
        assert [r.name for r in norm.rules] == ["live"]


def behaviors_agree(rule, nf, state, config):
    """Match both forms, fire both, compare the successor state sets."""
    t_raw = match_rule(rule, state)
    t_nf = match_rule(nf, state)
    assert (t_raw is None) == (t_nf is None)
    if t_raw is None:
        return False
    raw_succ = [
        apply_transition(state, e)
        for e in interpret_rule(rule, t_raw, state, config, IdGen(100))
    ]
    nf_succ = [
        apply_transition(state, e)
        for e in interpret_rule(nf, t_nf, state, config, IdGen(100))
    ]
    assert raw_succ == nf_succ
    return True


class TestBehaviorPreservation:
    def test_random_rules_behave_like_their_normal_form(self):
        rng = random.Random(41)
        config = ArchitectureConfig()
        buffers = [sym("b1"), sym("b2")]
        fired = checked = 0
        for _ in range(600):
            tt, pool = chunk_pool(rng)
            chunks = pool[:6]
            ids = [c.id for c in chunks]
            r = random_rule(rng, "r", tt, buffers, ids)
            gamma = {b: (rng.choice(ids), rng.choice([0, 1])) for b in buffers}
            state = AbstractState.make(ChunkStore(chunks), gamma)
            nf = set_normal_form(r, tt)
            checked += 1
            if nf is DROPPED:
                assert match_rule(r, state) is None
                continue
            if behaviors_agree(r, nf, state, config):
                fired += 1
        assert checked == 600 and fired > 50

    def test_dropped_rules_never_match_exhaustively(self):
        # every state over a two-chunk vocabulary with up to three chunks
        types = table(t=("a", "b"))
        k, m = sym("k"), sym("m")
        values = [k, m]
        chunk_variants = [
            Chunk(cid, T, {sym("a"): va, sym("b"): vb})
            for cid in (k, m)
            for va in values
            for vb in values
        ]
        dropped_rules = [
            rule(
                [
                    BufferTest(GOAL, T, ((sym("a"), k),)),
                    BufferTest(GOAL, T, ((sym("a"), m),)),
                ]
            ),
            rule(
                [
                    BufferTest(GOAL, T, ((sym("a"), var("X")), (sym("b"), var("X")))),
                    BufferTest(GOAL, T, ((sym("a"), k), (sym("b"), m))),
                ]
            ),
        ]
        for r in dropped_rules:
            assert set_normal_form(r, types) is DROPPED
        states = 0
        for n in (1, 2, 3):
            for combo in itertools.combinations(chunk_variants, n):
                if len({c.id for c in combo}) != len(combo):
                    continue
                store = ChunkStore(combo)
                for cid in [c.id for c in combo]:
                    for delay in (0, 1):
                        state = AbstractState.make(store, {GOAL: (cid, delay)})
                        states += 1
                        for r in dropped_rules:
                            assert match_rule(r, state) is None
        assert states > 50

    def test_generated_dropped_rules_are_dropped(self):
        rng = random.Random(43)
        for _ in range(100):
            types = random_types(rng)
            _, pool = chunk_pool(rng)
            r = random_dropped_rule(rng, types, [sym("b1")], [c.id for c in pool[:4]])
            assert set_normal_form(r, types) is DROPPED
