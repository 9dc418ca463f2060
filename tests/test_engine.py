"""Operational semantics: matching, actions, transitions, exploration."""

import copy
import hashlib
import itertools
import pickle
import random
from bisect import bisect_left

import pytest

import actrchr.chr
import actrchr.engine
from actrchr.chr import canonical_form, chr_step
from actrchr.chr import fresh_gen_for as chr_fresh_gen_for
from actrchr.core import (
    FRESH_PREFIX,
    Chunk,
    ChunkStore,
    IdGen,
    NIL,
    NIL_CHUNK,
    Symbol,
    Variable,
    is_fresh_id,
    merge,
)
from actrchr.engine import (
    Answer,
    ArchitectureConfig,
    DomainOverlap,
    EMPTY_EFFECT,
    Effect,
    EngineError,
    FAIL_NIL,
    FAIL_STUCK,
    MissingIncumbent,
    NO_LABEL,
    NoHandler,
    Run,
    apply_transition,
    canonical_key,
    combine_effects,
    explore,
    fresh_gen_for,
    interpret_action,
    interpret_modification,
    interpret_request,
    interpret_rule,
    match_rule,
    no_rule_successors,
    normalize_model,
    random_walk,
    select,
    state_fingerprint,
    successors,
    to_dot,
)
from actrchr.model import (
    AbstractState,
    Action,
    Atom,
    BufferTest,
    MODIFY,
    REQUEST,
    Rule,
    dm_atom,
    sort_atoms,
)
from actrchr.modelgen import random_model, random_state
from actrchr.parser import parse_model
from actrchr.translate import chr_of_model, chr_of_state


def sym(name: str) -> Symbol:
    return Symbol(name)


def var(name: str) -> Variable:
    return Variable(name)


GOAL = sym("goal")
RETR = sym("retrieval")


def tiny_state(**buffer_delays):
    """One t-chunk per buffer, slot s pointing at itself."""
    chunks = []
    gamma = {}
    for name, delay in buffer_delays.items():
        cid = sym(f"c_{name}")
        chunks.append(Chunk(cid, sym("t"), {sym("s"): cid}))
        gamma[sym(name)] = (cid, delay)
    return AbstractState.make(ChunkStore(chunks), gamma)


class TestWorkedDerivation:
    """The canonical chain: reveal the retrieval, fire inc, request the
    next number, reveal it, fire inc again, fail the final request."""

    def chain(self, counting_norm):
        s0 = counting_norm.initial_state()
        l1, s1 = successors(s0, counting_norm)[0]
        l2, s2 = successors(s1, counting_norm)[0]
        return s0, (l1, s1), (l2, s2)

    def test_first_step_reveals_the_pending_retrieval(self, counting_norm):
        s0, (l1, s1), _ = self.chain(counting_norm)
        assert [l for l, _ in successors(s0, counting_norm)] == ["no"]
        assert l1 == "no"
        assert s1.buffer(RETR) == (sym("b"), 0)
        assert s1.buffer(GOAL) == (sym("goal0"), 0)

    def test_rule_binds_current_and_successor(self, counting_norm):
        _, (_, s1), _ = self.chain(counting_norm)
        theta = match_rule(counting_norm.rules[0], s1)
        assert theta is not None
        assert {v.name: c.name for v, c in theta.items()} == {"X": "1", "Y": "2"}

    def test_second_step_applies_the_rule(self, counting_norm):
        _, (_, s1), (l2, s2) = self.chain(counting_norm)
        assert [l for l, _ in successors(s1, counting_norm)] == ["apply(inc)"]
        assert l2 == "apply(inc)"
        goal_id, goal_delay = s2.buffer(GOAL)
        retr_id, retr_delay = s2.buffer(RETR)
        assert goal_delay == 0 and retr_delay == 1
        goal_chunk = s2.store.get(goal_id)
        assert goal_chunk.type == sym("g")
        assert goal_chunk.value(sym("current")) == sym("2")
        retr_chunk = s2.store.get(retr_id)
        assert retr_chunk.type == sym("succ")
        assert retr_chunk.val() == {sym("number"): sym("2"), sym("successor"): sym("3")}

    def test_new_chunks_get_fresh_identifiers(self, counting_norm):
        _, _, (_, s2) = self.chain(counting_norm)
        goal_id, _ = s2.buffer(GOAL)
        retr_id, _ = s2.buffer(RETR)
        assert goal_id.name.startswith("c#")
        assert retr_id.name.startswith("c#")
        assert goal_id != retr_id
        # originals stay in the store untouched
        assert s2.store.get(sym("goal0")).value(sym("current")) == sym("1")

    def test_chain_terminates_after_failed_retrieval(self, counting_norm):
        g = explore(counting_norm, depth=16)
        assert len(g.states) == 6
        assert [lab for _, lab, _ in g.edges] == [
            "no",
            "apply(inc)",
            "no",
            "apply(inc)",
            "no",
        ]
        assert not g.truncated
        assert successors(g.states[5], counting_norm) == []
        # the failed request parks nil pending, then reveals it
        last = g.states[5]
        assert last.buffer(RETR) == (NIL, 0)


def all_mentioned_ids(state):
    out = set()
    for c in state.store:
        out.add(c.id)
        out.update(v for _, v in c.pairs)
    return sorted(out, key=lambda s: s.name)


def oracle_matches(rule, state):
    """Exhaustive matcher: try every assignment of rule variables to ids."""
    variables = sorted(rule.lhs_vars(), key=lambda v: v.name)
    candidates = all_mentioned_ids(state)
    found = []
    for combo in itertools.product(candidates, repeat=len(variables)):
        env = dict(zip(variables, combo))
        ok = True
        for t in rule.tests:
            try:
                cid, delay = state.buffer(t.buffer)
            except KeyError:
                ok = False
                break
            chunk = state.store.get(cid)
            if delay != 0 or chunk is None or chunk.type != t.type:
                ok = False
                break
            for s, v in t.pairs:
                want = env[v] if isinstance(v, Variable) else v
                if chunk.value(s) != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(env)
    return found


class TestMatching:
    def test_matches_agree_with_exhaustive_search(self):
        rng = random.Random(31)
        checked = matched = 0
        for _ in range(150):
            model = random_model(rng)
            state = random_state(rng, model)
            for rule in model.rules:
                checked += 1
                theta = match_rule(rule, state)
                oracle = oracle_matches(rule, state)
                assert len(oracle) <= 1  # the binding is unique when it exists
                if theta is None:
                    assert oracle == []
                else:
                    matched += 1
                    assert oracle and theta == oracle[0]
        assert checked > 300 and matched > 30

    def test_pending_buffer_never_matches(self):
        state = tiny_state(goal=1)
        rule = Rule("r", (BufferTest(GOAL, sym("t"), ()),), ())
        assert match_rule(rule, state) is None

    def test_type_mismatch_never_matches(self):
        state = tiny_state(goal=0)
        rule = Rule("r", (BufferTest(GOAL, sym("other"), ()),), ())
        assert match_rule(rule, state) is None

    def test_missing_slot_never_matches(self):
        state = tiny_state(goal=0)
        rule = Rule(
            "r", (BufferTest(GOAL, sym("t"), ((sym("zz"), var("X")),)),), ()
        )
        assert match_rule(rule, state) is None

    def test_shared_variable_forces_agreement(self):
        a = Chunk(sym("a"), sym("t"), {sym("s"): sym("a")})
        b = Chunk(sym("b"), sym("t"), {sym("s"): sym("a")})
        state = AbstractState.make(
            ChunkStore([a, b]), {GOAL: (sym("a"), 0), RETR: (sym("b"), 0)}
        )
        same = Rule(
            "r",
            (
                BufferTest(GOAL, sym("t"), ((sym("s"), var("X")),)),
                BufferTest(RETR, sym("t"), ((sym("s"), var("X")),)),
            ),
            (),
        )
        theta = match_rule(same, state)
        assert theta is not None and theta.get(var("X")) == sym("a")

    def test_select_respects_rule_order(self, counting_norm):
        s0 = counting_norm.initial_state()
        l1, s1 = successors(s0, counting_norm)[0]
        picked = select(s1, counting_norm.rules)
        assert [r.name for r, _ in picked] == ["inc"]


class TestModification:
    def state(self):
        inc = Chunk(sym("a"), sym("t"), [(sym("s1"), sym("a")), (sym("s2"), sym("b"))])
        other = Chunk(sym("b"), sym("t"), {sym("s1"): sym("a")})
        return AbstractState.make(ChunkStore([inc, other]), {GOAL: (sym("a"), 0)})

    def test_fresh_copy_with_updated_slot(self):
        state = self.state()
        act = Action(MODIFY, GOAL, None, ((sym("s1"), sym("b")),))
        (effect,) = interpret_modification(act, state, IdGen())
        (copy,) = list(effect.store)
        assert copy.id == sym("c#0")
        assert copy.val() == {sym("s1"): sym("b"), sym("s2"): sym("b")}
        assert effect.gamma == ((GOAL, sym("c#0"), 0),)

    def test_unknown_update_target_becomes_nil(self):
        state = self.state()
        act = Action(MODIFY, GOAL, None, ((sym("s1"), sym("ghost")),))
        (effect,) = interpret_modification(act, state, IdGen())
        (copy,) = list(effect.store)
        assert copy.value(sym("s1")) == NIL

    def test_slot_outside_incumbent_type_is_ignored(self):
        state = self.state()
        act = Action(MODIFY, GOAL, None, ((sym("zz"), sym("b")),))
        (effect,) = interpret_modification(act, state, IdGen())
        (copy,) = list(effect.store)
        assert copy.val() == {sym("s1"): sym("a"), sym("s2"): sym("b")}

    def test_missing_buffer_raises(self):
        state = self.state()
        act = Action(MODIFY, RETR, None, ())
        with pytest.raises(MissingIncumbent):
            interpret_modification(act, state, IdGen())

    def test_unbound_variable_raises(self):
        state = self.state()
        act = Action(MODIFY, GOAL, None, ((sym("s1"), var("X")),))
        with pytest.raises(EngineError):
            interpret_modification(act, state, IdGen())


class TestRequest:
    def dm_state(self):
        g = Chunk(sym("g0"), sym("q"), {})
        d1 = Chunk(sym("d1"), sym("t"), {sym("s"): sym("g0")})
        d2 = Chunk(sym("d2"), sym("t"), {sym("s"): sym("g0")})
        d3 = Chunk(sym("d3"), sym("t"), {sym("s"): sym("d1")})
        return AbstractState.make(
            ChunkStore([g, d1, d2, d3]),
            {GOAL: (sym("g0"), 0)},
            [dm_atom(sym("d1")), dm_atom(sym("d2")), dm_atom(sym("d3"))],
        )

    def test_one_effect_per_matching_answer(self):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ((sym("s"), sym("g0")),))
        effects = interpret_request(act, state, ArchitectureConfig(), IdGen())
        assert len(effects) == 2
        contents = sorted(
            next(iter(e.store)).value(sym("s")).name for e in effects
        )
        assert contents == ["g0", "g0"]
        for e in effects:
            (chunk,) = list(e.store)
            assert chunk.id.name.startswith("c#")
            assert e.gamma == ((GOAL, chunk.id, 1),)  # answers arrive pending

    def test_unconstrained_request_answers_all_of_the_type(self):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ())
        effects = interpret_request(act, state, ArchitectureConfig(), IdGen())
        assert len(effects) == 3

    def test_empty_answer_parks_nil_pending(self):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ((sym("s"), sym("d2")),))
        (effect,) = interpret_request(act, state, ArchitectureConfig(), IdGen())
        assert len(effect.store) == 0
        assert effect.gamma == ((GOAL, NIL, 1),)

    def test_stuck_mode_yields_no_effect(self):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ((sym("s"), sym("d2")),))
        config = ArchitectureConfig(fail_request=FAIL_STUCK)
        assert interpret_request(act, state, config, IdGen()) == []

    @pytest.mark.parametrize("policy", ["Nil", "", None])
    def test_an_unknown_policy_is_refused(self, policy):
        with pytest.raises(ValueError, match="unknown fail_request policy"):
            ArchitectureConfig(fail_request=policy)

    @pytest.mark.parametrize(
        "answer",
        [
            Answer(sym("t"), ((sym("s"), sym("c#0")),)),
            Answer(sym("t"), ((sym("s"), sym("g0")),), 1, (Atom("p", (sym("c#0"),)),)),
        ],
        ids=["pair", "fact"],
    )
    def test_an_answer_naming_a_fresh_id_raises(self, answer):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ())
        config = ArchitectureConfig(handlers={GOAL: lambda *_: [answer]})
        with pytest.raises(EngineError, match="fresh id c#0"):
            interpret_request(act, state, config, IdGen())

    def test_an_answer_slot_over_a_non_symbol_raises(self):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ())
        answer = Answer(sym("t"), ((sym("s"), var("X")),))
        config = ArchitectureConfig(handlers={GOAL: lambda *_: [answer]})
        with pytest.raises(EngineError, match=r"slot or slot value not a symbol in an answer on goal: Answer\(type=t, val=\(\(s, \?X\),\)"):
            interpret_request(act, state, config, IdGen())

    def test_no_handler_raises(self):
        state = self.dm_state()
        act = Action(REQUEST, GOAL, sym("t"), ())
        config = ArchitectureConfig(handlers={}, default_handler=None)
        with pytest.raises(NoHandler):
            interpret_request(act, state, config, IdGen())


class TestEffects:
    def test_combining_disjoint_buffers(self):
        a = Chunk(sym("c#0"), sym("t"), {})
        b = Chunk(sym("c#1"), sym("t"), {})
        left = Effect.make(ChunkStore([a]), {GOAL: (a.id, 0)})
        right = Effect.make(ChunkStore([b]), {RETR: (b.id, 1)})
        both = combine_effects(left, right)
        assert set(both.buffers()) == {GOAL, RETR}
        assert len(both.store) == 2

    def test_rows_joined_out_of_order_come_out_sorted(self):
        a = Chunk(sym("c#0"), sym("t"), {})
        b = Chunk(sym("c#1"), sym("t"), {})
        left = Effect(ChunkStore([b]), ((RETR, b.id, 1),), ())
        right = Effect(ChunkStore([a]), ((GOAL, a.id, 0),), ())
        for x, y in ((left, right), (right, left)):
            assert combine_effects(x, y).gamma == ((GOAL, a.id, 0), (RETR, b.id, 1))

    def test_overlapping_buffers_rejected(self):
        a = Chunk(sym("c#0"), sym("t"), {})
        left = Effect.make(ChunkStore([a]), {GOAL: (a.id, 0)})
        with pytest.raises(DomainOverlap):
            combine_effects(left, left)

    def test_rule_with_two_actions_pairs_their_effects(self, counting_norm):
        s0 = counting_norm.initial_state()
        _, s1 = successors(s0, counting_norm)[0]
        rule = counting_norm.rules[0]
        theta = match_rule(rule, s1)
        effects = interpret_rule(rule, theta, s1, ArchitectureConfig(), IdGen(10))
        (effect,) = effects
        assert set(effect.buffers()) == {GOAL, RETR}
        assert len(effect.store) == 2

    def test_apply_transition_merges_and_overrides(self):
        base = tiny_state(goal=0, retrieval=0)
        fresh = Chunk(sym("c#7"), sym("t"), {sym("s"): sym("c_goal")})
        effect = Effect.make(
            ChunkStore([fresh]), {GOAL: (fresh.id, 1)}, (Atom("p", (sym("x"),)),)
        )
        nxt = apply_transition(base, effect)
        assert nxt.buffer(GOAL) == (sym("c#7"), 1)
        assert nxt.buffer(RETR) == base.buffer(RETR)  # untouched buffer survives
        assert sym("c_goal") in nxt.store
        assert Atom("p", (sym("x"),)) in nxt.upsilon

    def test_an_effect_row_is_checked_as_make_checks_it(self):
        base = tiny_state(goal=0, retrieval=0)
        fresh = Chunk(sym("c#7"), sym("t"), {sym("s"): sym("c_goal")})
        cases = [
            ((sym("c#8"), 0), "buffer goal holds unknown chunk id c#8"),
            ((fresh.id, 2), "buffer goal has non-binary delay 2"),
        ]
        for (cid, delay), message in cases:
            effect = Effect(ChunkStore([fresh]), ((GOAL, cid, delay),), ())
            with pytest.raises(ValueError) as made:
                AbstractState.make(merge(base.store, effect.store), {GOAL: (cid, delay)})
            with pytest.raises(ValueError) as applied:
                apply_transition(base, effect)
            assert str(applied.value) == str(made.value) == message

    def test_an_effect_adding_a_buffer_or_facts_keeps_them_sorted(self):
        base = tiny_state(goal=0, retrieval=1)
        base = AbstractState.make(base.store, base.gamma, [Atom("p", (NIL,))])
        late = (Atom("z", (NIL,)), Atom("a", (NIL,)))
        aux = sym("aux")
        nxt = apply_transition(base, Effect(ChunkStore(), ((aux, NIL, 1),), late))
        assert [a.pred for a in nxt.upsilon] == ["a", "p", "z"]
        assert [b.name for b in nxt.buffers()] == ["aux", "goal", "retrieval"]
        assert nxt.gamma[1:] == base.gamma


class TestNoRule:
    def test_one_successor_per_pending_buffer(self):
        state = tiny_state(a=1, b=0, c=1)
        succ = no_rule_successors(state)
        assert [lab for lab, _ in succ] == ["no", "no"]
        revealed = {
            b.name
            for _, s in succ
            for b, _, d in s.gamma
            if d == 0 and state.buffer(b)[1] == 1
        }
        assert revealed == {"a", "c"}

    def test_each_step_reveals_exactly_one(self):
        state = tiny_state(a=1, c=1)
        for _, s in no_rule_successors(state):
            assert sum(d > 0 for _, _, d in s.gamma) == 1

    def test_no_pending_no_successor(self):
        assert no_rule_successors(tiny_state(a=0)) == []


class TestSuccessors:
    def test_apply_edges_come_before_reveals(self):
        src = (
            "type t { s }\nchunk a : t { s: a }\n"
            "buffer goal = a\nbuffer aux = a pending\n"
            "rule r { goal: t { s: X } ==> modify goal { s: X } }\n"
        )
        m = normalize_model(parse_model(src))
        labels = [l for l, _ in successors(m.initial_state(), m)]
        assert labels == ["apply(r)", "no"]

    def test_default_generator_skips_embedded_fresh_ids(self, counting_norm):
        s0 = counting_norm.initial_state()
        _, s1 = successors(s0, counting_norm)[0]
        _, s2 = successors(s1, counting_norm)[0]
        assert any(c.id.name.startswith("c#") for c in s2.store)
        # regression: a zero-based default generator used to clash here
        labels = [l for l, _ in successors(s2, counting_norm)]
        assert labels == ["no"]

    def test_both_fresh_gen_for_take_the_numeric_max_of_chunk_ids(self):
        # c#10 sorts before c#9 by name; the generators compare numbers
        store = ChunkStore(Chunk(sym(n), sym("t"), {sym("s"): NIL}) for n in ("c#9", "c#10"))
        state = AbstractState.make(store, {GOAL: (sym("c#9"), 0)}, [Atom("p", (NIL,))])
        assert fresh_gen_for(state).fresh() == sym("c#11")
        assert chr_fresh_gen_for(chr_of_state(state)).fresh() == sym("c#11")

    def test_fresh_gen_for_plain_state_starts_at_zero(self):
        assert fresh_gen_for(tiny_state(goal=0)).fresh() == sym("c#0")

    def test_facts_stay_sorted_and_are_shared_when_none_are_added(self):
        m = normalize_model(parse_model(BRANCHING_SRC + "buffer aux = d1 pending\n"))
        late = [Atom("z", (sym("a"),)), Atom("a", (sym("a"),))]
        answer = Answer(sym("t"), ((sym("s"), sym("g0")),), 1, tuple(late))
        config = ArchitectureConfig(handlers={GOAL: lambda *_: [answer]})
        s0 = m.initial_state()
        (_, applied), (_, revealed) = successors(s0, m, Run(config, fresh_gen_for(s0)))
        assert [a.pred for a in applied.upsilon] == ["a", "dm", "dm", "z"]
        assert applied.upsilon == sort_atoms(applied.upsilon)
        assert revealed.upsilon is s0.upsilon
        assert apply_transition(s0, EMPTY_EFFECT).upsilon is s0.upsilon
        for _, s in successors(applied, m, Run(config, fresh_gen_for(applied))):
            assert s.upsilon == sort_atoms(s.upsilon)
            assert s.upsilon is applied.upsilon  # a reveal adds no facts

    def test_explored_facts_are_sorted_on_the_corpus(self):
        for i in range(200):
            for s in explore(random_model(random.Random(i)), depth=6).states:
                assert s.upsilon == sort_atoms(s.upsilon)


BRANCHING_SRC = """
type q {}
type t { s }
chunk g0 : q {}
chunk d1 : t { s: g0 }
chunk d2 : t { s: g0 }
dm { d1, d2 }
buffer goal = g0
rule r { goal: q {} ==> request goal t {} }
"""


def make_effect(effect):
    """The effect rebuilt through ``Effect.make``, rows from a dict."""
    return Effect.make(effect.store, {b: (c, d) for b, c, d in effect.gamma}, effect.atoms)


def reference_combine_effects(left, right):
    """The dict-and-sort combination through ``Effect.make``."""
    assert not left.buffers() & right.buffers()
    gamma = {b: (c, d) for b, c, d in left.gamma + right.gamma}
    return Effect.make(merge(left.store, right.store), gamma, left.atoms + right.atoms)


def reference_interpret_rule(rule, theta, state, config, ids):
    """The fold seeded with the empty effect: every action's effects,
    rebuilt through ``Effect.make``, pass through the dict-and-sort
    combination."""
    combos = [EMPTY_EFFECT]
    for a in rule.actions:
        pairs = tuple((s, theta.get(v, v)) for s, v in a.pairs)
        parts = interpret_action(Action(a.kind, a.buffer, a.type, pairs), state, config, ids)
        parts = [make_effect(p) for p in parts]
        combos = [reference_combine_effects(acc, part) for acc in combos for part in parts]
        if not combos:
            return []
    return combos


def reference_apply_transition(state, effect):
    gamma = {b: (c, d) for b, c, d in state.gamma + effect.gamma}
    store = merge(state.store, effect.store)
    return AbstractState.make(store, gamma, state.upsilon + effect.atoms)


def reference_no_rule_successors(state):
    gamma = {b: (c, d) for b, c, d in state.gamma}
    return [
        (NO_LABEL, AbstractState.make(state.store, {**gamma, b: (c, 0)}, state.upsilon))
        for b, (c, d) in gamma.items()
        if d > 0
    ]


class TestSuccessorsAgainstReference:
    """Successors built from what a step changes equal the states the
    checked constructor builds from scratch, on reachable corpus states."""

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_reachable_corpus_states(self, policy):
        config = ArchitectureConfig(fail_request=policy)
        applied = revealed = 0
        for i in range(30):
            m = normalize_model(random_model(random.Random(i)))
            for state in explore(m, config, depth=6).states:
                for rule, theta in select(state, m.rules):
                    start = fresh_gen_for(state).count
                    effects = interpret_rule(rule, theta, state, config, IdGen(start))
                    assert effects == reference_interpret_rule(
                        rule, theta, state, config, IdGen(start)
                    )
                    for effect in effects:
                        assert effect == make_effect(effect)
                        nxt = apply_transition(state, effect)
                        assert nxt == reference_apply_transition(state, effect)
                        assert nxt == apply_transition(state, make_effect(effect))
                        applied += 1
                reveals = no_rule_successors(state)
                assert reveals == reference_no_rule_successors(state)
                revealed += len(reveals)
        assert applied > 300 and revealed > 50  # nil: 794 and 238, stuck: 356 and 72

    def test_rules_without_actions_and_with_several(self):
        src = (
            "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: a }\ndm { a, b }\n"
            "buffer goal = a\nbuffer retrieval = a\n"
            "rule idle { goal: t { s: X } ==> }\n"
            "rule two { goal: t { s: X } ==> request goal t {} request retrieval t {} }\n"
        )
        m = normalize_model(parse_model(src))
        s0 = m.initial_state()
        config = ArchitectureConfig()
        idle, two = [interpret_rule(r, th, s0, config, IdGen()) for r, th in select(s0, m.rules)]
        assert idle == [EMPTY_EFFECT]
        assert len(two) == 4  # two answers each, paired in action order
        theta = match_rule(m.rules[1], s0)
        assert two == reference_interpret_rule(m.rules[1], theta, s0, config, IdGen())

    def test_actions_out_of_buffer_order_and_without_variables(self):
        src = (
            "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: a }\ndm { a, b }\n"
            "buffer goal = a\nbuffer retrieval = a\n"
            "rule r { goal: t { s: X } ==> modify retrieval { s: b } request goal t { s: X } }\n"
        )
        m = normalize_model(parse_model(src))
        s0 = m.initial_state()
        (rule, theta), = select(s0, m.rules)
        effects = interpret_rule(rule, theta, s0, ArchitectureConfig(), IdGen())
        assert [[b.name for b, _, _ in e.gamma] for e in effects] == [["goal", "retrieval"]] * 2
        assert effects == reference_interpret_rule(rule, theta, s0, ArchitectureConfig(), IdGen())


def reference_canonical_key(state):
    """The key computed from scratch in one loop over the store."""
    ren = {}
    gamma = []
    for b, c, d in state.gamma:
        if is_fresh_id(c) and c not in ren:
            ren[c] = f"c#{len(ren)}"
        gamma.append((b.name, ren.get(c, c.name), d))
    chunks = []
    stale = []
    for c in state.store:
        content = (c.type.name, tuple((s.name, v.name) for s, v in c.pairs))
        for _, v in c.pairs:
            if is_fresh_id(v):
                raise EngineError(f"fresh id {v} named by a slot of chunk {c.id}")
        if not is_fresh_id(c.id):
            chunks.append((c.id.name, *content))
        elif c.id in ren:
            chunks.append((ren[c.id], *content))
        else:
            stale.append(content)
    atoms = []
    for a in state.upsilon:
        for v in a.args:
            if is_fresh_id(v):
                raise EngineError(f"fresh id {v} named by a fact")
        atoms.append((a.pred, tuple(v.name for v in a.args)))
    return (tuple(sorted(chunks)), tuple(sorted(stale)), tuple(gamma), tuple(sorted(atoms)))


def rebuilt(state):
    """The state over a new store of the same chunks, with no key parts."""
    return AbstractState(ChunkStore(state.store.chunks()), state.gamma, state.upsilon)


def reference_key(state):
    """The canonical key in its plain form: freshness tested per row and
    contents read through ``content()``, stale entries removed after the
    row loop, the held entries always spliced into a new parsed tuple."""
    parsed, stale, bad = state.store.key_parts()
    if bad is not None:
        raise EngineError(f"fresh id {bad[0]} named by a slot of chunk {bad[1]}")
    ren = {}
    gamma = []
    held = []
    for b, c, d in state.gamma:
        if is_fresh_id(c):
            name = ren.get(c)
            if name is None:
                ren[c] = name = f"{FRESH_PREFIX}{len(ren)}"
                chunk = state.store.get(c)
                if chunk is not None:
                    held.append((name, *chunk.content()[0]))
            gamma.append((b.name, name, d))
        else:
            gamma.append((b.name, c.name, d))
    for entry in held:
        i = bisect_left(stale, entry[1:])
        stale = stale[:i] + stale[i + 1:]
    at = bisect_left(parsed, (FRESH_PREFIX,))
    chunks = parsed[:at] + tuple(sorted(held)) + parsed[at:]
    atoms = []
    for a in state.upsilon:
        names, fresh = a.content()
        if fresh is not None:
            raise EngineError(f"fresh id {fresh} named by a fact")
        atoms.append(names)
    return (chunks, stale, tuple(gamma), tuple(sorted(atoms)))


class TestKeyAgainstReference:
    """canonical_key returns the plain form's tuple on every state a run
    reaches, abstract or decoded from a CHR successor."""

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_every_explored_state(self, policy):
        config = ArchitectureConfig(fail_request=policy)
        keyed = held = 0
        for i in range(200):
            for state in explore(random_model(random.Random(i)), config, depth=5).states:
                assert canonical_key(state) == reference_key(state)
                keyed += 1
                held += any(is_fresh_id(c) for _, c, _ in state.gamma)
        assert keyed > 1000 and held > 800  # nil: 3567 and 2688, stuck: 1578 and 1204

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_every_chr_successor(self, policy, monkeypatch):
        config = ArchitectureConfig(fail_request=policy)
        forms = []
        for i in range(30):
            m = random_model(random.Random(i))
            prog = chr_of_model(m)
            c0 = chr_of_state(normalize_model(m).initial_state())
            run = Run(config, chr_fresh_gen_for(c0))
            seen = {canonical_form(c0)}
            queue = [(c0, 0)]
            for c, d in queue:
                if d == 4:
                    continue
                for _, c2 in chr_step(c, prog, run):
                    form = canonical_form(c2)
                    forms.append((c2, form))
                    if form not in seen:
                        seen.add(form)
                        queue.append((c2, d + 1))
        monkeypatch.setattr(actrchr.chr, "canonical_key", reference_key)
        assert all(canonical_form(c2) == form for c2, form in forms)
        assert len(forms) > 200  # nil: 430, stuck: 230


class TestKeyParts:
    """The key read from parts a successor derives from its parent's is
    the key computed from scratch, on reachable corpus states."""

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_derived_keys_equal_keys_from_scratch(self, policy):
        config = ArchitectureConfig(fail_request=policy)
        keyed = shared_content = 0
        for i in range(30):
            m = normalize_model(random_model(random.Random(i)))
            for state in explore(m, config, depth=6).states:
                for _, nxt in successors(state, m, Run(config, fresh_gen_for(state))):
                    assert nxt.store._parts is not None  # derived, not computed
                    key = canonical_key(nxt)
                    assert key == reference_canonical_key(nxt) == canonical_key(rebuilt(nxt))
                    assert nxt.store.key_parts() == ChunkStore(nxt.store.chunks()).key_parts()
                    keyed += 1
                    stale = nxt.store.key_parts()[1]
                    held = {nxt.store.get(c).content()[0] for _, c, _ in nxt.gamma if is_fresh_id(c)}
                    shared_content += any(stale.count(h) > 1 for h in held)
        assert keyed > 300 and shared_content > 50  # nil: 1032 and 534, stuck: 428 and 286

    def test_a_merged_offender_raises_the_same_error_on_every_key(self):
        held = Chunk(sym("c#0"), sym("t"), {sym("s"): NIL})
        base = AbstractState.make(ChunkStore([held]), {GOAL: (held.id, 0)})
        canonical_key(base)
        first = Chunk(sym("c#2"), sym("t"), {sym("s"): sym("c#0")})
        second = Chunk(sym("c#1"), sym("t"), {sym("s"): sym("c#0")})
        store = merge(base.store, ChunkStore([first, second]))
        late = merge(store, ChunkStore([Chunk(sym("c#3"), sym("t"), {sym("s"): sym("c#1")})]))
        atoms = (Atom("p", (sym("c#0"),)),)
        for s in (store, late):
            state = AbstractState(s, base.gamma, atoms)
            for probe in (state, state, rebuilt(state)):
                with pytest.raises(EngineError) as err:
                    canonical_key(probe)
                assert str(err.value) == "fresh id c#0 named by a slot of chunk c#2"
            with pytest.raises(EngineError) as err:
                reference_canonical_key(state)
            assert str(err.value) == "fresh id c#0 named by a slot of chunk c#2"

    def test_a_row_naming_a_fresh_id_the_store_lacks(self):
        held = Chunk(sym("c#4"), sym("t"), {sym("s"): NIL})
        stale = Chunk(sym("c#5"), sym("t"), {sym("s"): NIL})
        store = ChunkStore([NIL_CHUNK, held, stale])
        state = AbstractState(store, ((GOAL, sym("c#9"), 0), (RETR, held.id, 1)), ())
        key = canonical_key(state)
        assert key == reference_canonical_key(state) == canonical_key(rebuilt(state))
        assert key[0] == (("c#1", "t", (("s", "nil"),)), ("nil", "chunk", ()))
        assert key[1] == (("t", (("s", "nil"),)),)
        assert key[2] == (("goal", "c#0", 0), ("retrieval", "c#1", 1))

    def test_keying_is_no_part_of_the_state_value(self, counting_norm):
        ((_, asked),) = no_rule_successors(counting_norm.initial_state())
        ((_, unasked),) = no_rule_successors(counting_norm.initial_state())
        key = canonical_key(asked)
        assert asked.store._parts is not None and unasked.store._parts is None
        assert asked == unasked and hash(asked) == hash(unasked)
        assert repr(asked) == repr(unasked)
        assert pickle.dumps(asked) == pickle.dumps(unasked)
        for u in (asked, unasked):
            for v in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
                assert v == u and hash(v) == hash(u) and repr(v) == repr(u)
                assert canonical_key(v) == key


class TestMemo:
    """A run memoizes a rule's effects up to the fresh ids they draw;
    nothing of the memo shows in a result."""

    def test_exact_graphs_are_pinned_with_their_fresh_ids(self):
        # exact dedup keeps literal fresh ids, so this pins the ids each step draws
        h = hashlib.sha256()
        for i in range(200):
            g = explore(random_model(random.Random(i)), depth=5, dedup="exact")
            h.update(repr((g.states, g.edges)).encode())
        assert h.hexdigest() == (
            "707b3d306cc5301a80944ba89a91b76160ea18bbea547d6b0e63f9e091470e0b"
        )

    @pytest.mark.parametrize("policy", [FAIL_NIL, FAIL_STUCK])
    def test_successors_equal_those_computed_afresh(self, policy, monkeypatch):
        config = ArchitectureConfig(fail_request=policy)
        cases = []
        entries = 0
        for i in range(30):
            m = random_model(random.Random(i))
            run = Run(config, IdGen())  # one run's memo, each step from ids of its own
            for state in explore(m, config, depth=6).states:
                start = fresh_gen_for(state).count + i
                run.ids = IdGen(start)
                cases.append((m, state, start, successors(state, m, run), run.ids.count))
            entries += sum(len(table) for _, _, table in run.memo.values())
        applied = sum(l != NO_LABEL for *_, succ, _ in cases for l, _ in succ)
        monkeypatch.setattr(actrchr.engine, "_memo_key", lambda *_: None)
        for m, state, start, memoized, end in cases:
            run = Run(config, IdGen(start))
            afresh = successors(state, m, run)
            assert afresh == memoized and run.ids.count == end
            for (_, nxt), (_, again) in zip(memoized, afresh):
                assert [c.content() for c in nxt.store] == [c.content() for c in again.store]
        # most steps were served by the memo
        assert applied > 300 and entries * 5 < applied

    def test_a_memo_lives_for_one_run(self, monkeypatch):
        m = random_model(random.Random(15))  # a modification is seen by depth 4
        before = explore(m, depth=4)

        def keeps_old_values(action, state, ids):
            return interpret_modification(Action(MODIFY, action.buffer, None, ()), state, ids)

        with monkeypatch.context() as patch:
            patch.setattr(actrchr.engine, "interpret_modification", keeps_old_values)
            faulty = explore(m, depth=4)
        after = explore(m, depth=4)
        assert to_dot(faulty) != to_dot(before)
        assert to_dot(after) == to_dot(before)

    def test_a_step_that_raises_records_nothing(self, counting_norm, monkeypatch):
        ((_, state),) = no_rule_successors(counting_norm.initial_state())
        ((_, other),) = no_rule_successors(counting_norm.initial_state())
        (rule, theta), = select(state, counting_norm.rules)
        run = Run(ArchitectureConfig(), IdGen())
        expected = interpret_rule(rule, theta, other, run.config, IdGen())
        calls = []

        def fails_once(action, state, ids):
            calls.append(action)
            if len(calls) == 1:
                raise EngineError("injected")
            return interpret_modification(action, state, ids)

        monkeypatch.setattr(actrchr.engine, "interpret_modification", fails_once)
        with pytest.raises(EngineError, match="injected"):
            run.effects(rule, theta, state)
        ((_, _, table),) = run.memo.values()
        assert not table
        run.ids = IdGen()
        assert run.effects(rule, theta, state) == expected
        assert len(table) == 1
        run.ids = IdGen()
        assert run.effects(rule, theta, state) == expected and len(calls) == 2  # a hit


class TestExplore:
    def test_depth_bound_truncates(self, counting_norm):
        g = explore(counting_norm, depth=1)
        assert g.truncated
        assert len(g.states) == 2

    def test_zero_depth_is_just_the_initial_state(self, counting_norm):
        g = explore(counting_norm, depth=0)
        assert len(g.states) == 1 and g.edges == []

    def test_rejects_a_negative_depth(self, counting_norm):
        with pytest.raises(ValueError, match="non-negative"):
            explore(counting_norm, depth=-1)

    def test_truncated_means_a_state_lies_at_the_bound(self):
        # even a state without successors: the bound cut the search there
        still = parse_model("type t { s }\nchunk a : t { s: a }\nbuffer goal = a\n")
        assert explore(still, depth=0).truncated
        assert not explore(still, depth=1).truncated

    def test_canonical_dedup_folds_renamed_duplicates(self):
        m = normalize_model(parse_model(BRANCHING_SRC))
        canonical = explore(m, depth=4, dedup="canonical")
        exact = explore(m, depth=4, dedup="exact")
        # two answers with equal content differ only in the fresh id
        assert len(canonical.states) == 3
        assert len(exact.states) == 5

    def test_fingerprints_agree_with_canonical_dedup(self):
        m = normalize_model(parse_model(BRANCHING_SRC))
        s0 = m.initial_state()
        (l1, a), (l2, b) = successors(s0, m)
        assert a != b
        assert state_fingerprint(a) == state_fingerprint(b)
        assert canonical_key(a) == canonical_key(b)
        assert state_fingerprint(s0) != state_fingerprint(a)

    @pytest.mark.parametrize("where", ["slot", "fact"])
    def test_canonical_key_rejects_a_fresh_id_outside_ids_and_buffers(self, where):
        held = Chunk(sym("c#0"), sym("t"), {sym("s"): NIL})
        pointer = sym("c#0") if where == "slot" else NIL
        other = Chunk(sym("c#1"), sym("t"), {sym("s"): pointer})
        atoms = [Atom("p", (sym("c#0") if where == "fact" else NIL,))]
        state = AbstractState.make(ChunkStore([held, other]), {GOAL: (sym("c#1"), 0)}, atoms)
        named_by = "a slot of chunk c#1" if where == "slot" else "a fact"
        for _ in range(2):  # the second call reads cached contents
            with pytest.raises(EngineError) as err:
                canonical_key(state)
            assert str(err.value) == f"fresh id c#0 named by {named_by}"

    def test_corpus_graphs_are_pinned(self):
        # any change to keys or fingerprints has to show itself here
        h = hashlib.sha256()
        for i in range(20):
            h.update(to_dot(explore(random_model(random.Random(i)), depth=6)).encode())
        assert h.hexdigest() == (
            "684cabbfe3578fd1fb49e8feab88c3165109ed09a9e512f56d90d220ae9d104f"
        )

    def test_rejects_unknown_dedup_mode(self, counting_norm):
        with pytest.raises(ValueError):
            explore(counting_norm, depth=1, dedup="fuzzy")


class TestRandomWalk:
    def test_same_seed_same_walk(self, counting_norm):
        a = random_walk(counting_norm, depth=5, rng=random.Random(3))
        b = random_walk(counting_norm, depth=5, rng=random.Random(3))
        assert [l for l, _ in a] == [l for l, _ in b]
        assert [s for _, s in a] == [s for _, s in b]

    def test_walk_respects_depth(self, counting_norm):
        assert len(random_walk(counting_norm, depth=2, rng=random.Random(0))) == 2

    def test_walk_stops_at_final_states(self, counting_norm):
        walk = random_walk(counting_norm, depth=50, rng=random.Random(0))
        assert len(walk) == 5  # the counting chain has five steps

    def test_rejects_a_negative_depth(self, counting_norm):
        with pytest.raises(ValueError, match="non-negative"):
            random_walk(counting_norm, depth=-1)
