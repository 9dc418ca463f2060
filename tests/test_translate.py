"""Shape and determinism of the model-to-constraint-program translation."""

import pickle
import random
import re

import pytest

from actrchr.bisim import bisim_check
from actrchr.chr import (
    Compound,
    TList,
    canonical_form,
    chr_step,
    decode_chunk,
    is_ground,
    render_program,
    render_rule,
)
from actrchr.core import Symbol, TypeTable, Variable
from actrchr.engine import explore, normalize_model, successors
from actrchr.model import BufferTest, Rule
from actrchr.modelgen import random_model
from actrchr.parser import parse_model, print_model
from actrchr.translate import (
    NotNormalized,
    chr_of_model,
    chr_of_rule,
    chr_of_state,
    no_rule,
)


def flip(text):  # the model with every type's slots declared in reverse
    def rev(t):
        return f"type {t[1]} {{ {', '.join(reversed(t[2].split(', ')))} }}"

    return parse_model(re.sub(r"^type (\S+) \{ (.+) \}$", rev, text, flags=re.M))


def variables(t):  # the variables of a term, with repeats
    if isinstance(t, Variable):
        yield t
    elif isinstance(t, (Compound, TList)):
        for a in t.args if isinstance(t, Compound) else t.items:
            yield from variables(a)


NO_RULE_TEXT = "no @ gamma(B,C,D) <=> D > 0 | gamma(B,C,0)."


def sym(name: str) -> Symbol:
    return Symbol(name)


class TestStateTranslation:
    def test_one_delta_and_one_gamma_per_buffer(self, counting_norm):
        state = counting_norm.initial_state()
        cs = chr_of_state(state)
        deltas = [c for c in cs.goal if c.name == "delta"]
        gammas = [c for c in cs.goal if c.name == "gamma"]
        assert len(deltas) == 1
        assert len(gammas) == len(counting_norm.buffers)
        assert len(cs.goal) == 1 + len(counting_norm.buffers)

    def test_gammas_carry_buffer_content_and_delay(self, counting_norm):
        state = counting_norm.initial_state()
        cs = chr_of_state(state)
        gammas = {c.args[0]: (c.args[1], c.args[2]) for c in cs.goal if c.name == "gamma"}
        assert gammas[sym("goal")] == (sym("goal0"), 0)
        assert gammas[sym("retrieval")] == (sym("b"), 1)

    def test_delta_holds_the_whole_store(self, counting_norm):
        state = counting_norm.initial_state()
        cs = chr_of_state(state)
        (delta,) = [c for c in cs.goal if c.name == "delta"]
        terms = pickle.loads(pickle.dumps(delta.args[0])).items  # a copy carries no chunks
        assert [decode_chunk(t) for t in terms] == list(state.store.sorted_chunks())

    def test_facts_become_the_builtin_store(self, counting_norm):
        state = counting_norm.initial_state()
        cs = chr_of_state(state)
        assert cs.facts is state.upsilon
        assert {a.pred for a in cs.facts} == {"dm"}
        assert len(cs.facts) == 5

    def test_translated_states_are_ground(self, counting_norm):
        cs = chr_of_state(counting_norm.initial_state())
        assert all(is_ground(a) for c in cs.goal for a in c.args)


class TestRuleTranslation:
    def rule(self, counting_norm):
        return chr_of_rule(
            counting_norm.rules[0], counting_norm.buffers, counting_norm.types
        )

    def test_head_removes_delta_and_every_gamma(self, counting_norm):
        cr = self.rule(counting_norm)
        assert [c.name for c in cr.removed] == ["delta", "gamma", "gamma"]
        assert [c.args[0] for c in cr.removed[1:]] == [sym("goal"), sym("retrieval")]

    def test_guard_checks_membership_and_visibility_per_test(self, counting_norm):
        cr = self.rule(counting_norm)
        assert [c.name for c in cr.guard] == ["in", "=", "in", "="]

    def test_body_rebuilds_the_full_state(self, counting_norm):
        cr = self.rule(counting_norm)
        assert [c.name for c in cr.body_user] == ["delta", "gamma", "gamma"]

    def test_body_builtin_chain_shape(self, counting_norm):
        cr = self.rule(counting_norm)
        names = [c.name for c in cr.body_builtin]
        # one action per rule action, the two merges, one map per action
        assert names == ["action", "action", "merge", "merge", "map", "map"]

    def test_counting_rule_renders_to_the_frozen_text(self, counting_norm):
        text = render_rule(self.rule(counting_norm))
        assert text == (
            "inc @ delta(D), gamma(goal,C_goal,V_goal), "
            "gamma(retrieval,C_retrieval,V_retrieval) <=> "
            "chunk(C_goal,g,[(current,X)]) in D, V_goal = 0, "
            "chunk(C_retrieval,succ,[(number,X),(successor,Y)]) in D, "
            "V_retrieval = 0 | "
            "delta(Dnew), gamma(goal,M_goal,Eres_goal), "
            "gamma(retrieval,M_retrieval,Eres_retrieval), "
            "action(=(goal,_,[(current,Y)]),D,"
            "[(goal,(C_goal,V_goal)),(retrieval,(C_retrieval,V_retrieval))],"
            "Dres_goal,Cres_goal,Eres_goal), "
            "action(+(retrieval,succ,[(number,Y)]),D,"
            "[(goal,(C_goal,V_goal)),(retrieval,(C_retrieval,V_retrieval))],"
            "Dres_retrieval,Cres_retrieval,Eres_retrieval), "
            "merge([Dres_goal,Dres_retrieval],Dacts), "
            "merge([D,Dacts],Dnew), "
            "map(D,Dacts,Cres_goal,M_goal), "
            "map(D,Dacts,Cres_retrieval,M_retrieval)."
        )

    def test_modifications_stay_type_anonymous(self, counting_norm):
        cr = self.rule(counting_norm)
        first_action = cr.body_builtin[0]
        assert first_action.args[0].functor == "="
        assert first_action.args[0].args[1] == sym("_")

    def test_requests_carry_their_type(self, counting_norm):
        cr = self.rule(counting_norm)
        second_action = cr.body_builtin[1]
        assert second_action.args[0].functor == "+"
        assert second_action.args[0].args[1] == sym("succ")

    def test_untouched_buffers_pass_through_verbatim(self):
        src = (
            "type t { s }\nchunk a : t { s: a }\n"
            "buffer goal = a\nbuffer aux = a\n"
            "rule r { goal: t { s: X } aux: t { s: X } ==> modify goal { s: X } }\n"
        )
        m = normalize_model(parse_model(src))
        cr = chr_of_rule(m.rules[0], m.buffers, m.types)
        aux_head = [c for c in cr.removed if c.args[0] == sym("aux")]
        aux_body = [c for c in cr.body_user if c.args and c.args[0] == sym("aux")]
        assert aux_head == aux_body  # identical constraint, not a copy

    def test_unnormalized_rules_are_rejected(self):
        raw = Rule("r", (BufferTest(sym("goal"), sym("g"), ()),), ())
        types = TypeTable()
        types.declare(sym("g"), (sym("s"),))
        with pytest.raises(NotNormalized):
            chr_of_rule(raw, (sym("goal"),), types)

    def test_plan_avoids_the_rules_own_variables(self):
        src = (
            "type t { s, u }\nchunk a : t { s: a, u: a }\nbuffer goal = a\n"
            "rule r { goal: t { s: D, u: C_goal } ==> modify goal { s: C_goal } }\n"
        )
        m = normalize_model(parse_model(src))
        rule = m.rules[0]
        cr = chr_of_rule(rule, m.buffers, m.types)
        names = {
            v.name
            for c in (*cr.removed, *cr.guard, *cr.body_user, *cr.body_builtin)
            for a in c.args
            for v in variables(a)
        }
        own = {v.name for v in rule.lhs_vars() | rule.rhs_vars()}
        assert own == {"D", "C_goal"}
        # clashing names gain a '_'; the others keep theirs
        assert names - own == {
            "C_goal_", "V_goal", "D_", "Dacts", "Dnew",
            "Dres_goal", "Cres_goal", "Eres_goal", "M_goal",
        }
        # the translated rule still simulates the abstract step
        s0 = m.initial_state()
        steps = chr_step(chr_of_state(s0), [cr])
        assert len(steps) == 1
        (_, s1) = successors(s0, m)[0]
        assert canonical_form(steps[0][1]) == canonical_form(chr_of_state(s1))


class TestProgramTranslation:
    def test_one_rule_per_model_rule_plus_the_generic_one(self, counting_model):
        prog = chr_of_model(counting_model)
        assert len(prog) == len(counting_model.rules) + 1
        assert [r.name for r in prog] == ["inc", "no"]

    def test_program_ends_with_the_verbatim_reveal_rule(self, counting_model):
        prog = chr_of_model(counting_model)
        assert render_rule(prog[-1]) == NO_RULE_TEXT
        assert render_program(prog).rstrip().endswith(NO_RULE_TEXT)

    def test_no_rule_is_stable(self):
        assert render_rule(no_rule()) == NO_RULE_TEXT

    def test_programs_share_one_planned_reveal_rule(self, counting_model):
        other = chr_of_model(random_model(random.Random(0)))
        last = chr_of_model(counting_model)[-1]
        assert other[-1] is last and render_rule(last) == NO_RULE_TEXT

    def test_dropped_rules_vanish_from_the_program(self):
        src = (
            "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: b }\n"
            "buffer goal = a\n"
            "rule dead { goal: t { s: a } goal: t { s: b } ==> modify goal { s: a } }\n"
        )
        prog = chr_of_model(parse_model(src))
        assert [r.name for r in prog] == ["no"]

    def test_translation_is_deterministic(self, counting_model):
        a = chr_of_model(counting_model)
        b = chr_of_model(counting_model)
        assert a == b
        assert render_program(a) == render_program(b)

    def test_random_models_translate_deterministically(self):
        rng = random.Random(51)
        for _ in range(30):
            m = random_model(rng)
            assert render_program(chr_of_model(m)) == render_program(chr_of_model(m))

    def test_declared_slot_order_does_not_reach_the_translation(self, counting_src):
        m = parse_model(counting_src)
        v = flip(counting_src)
        assert "type succ { successor, number }" in print_model(v)
        assert render_program(chr_of_model(v)) == render_program(chr_of_model(m))
        # behaviour on random models too
        rng = random.Random(52)
        pairs = [(m, v)] + [(r, flip(print_model(r))) for r in (random_model(rng) for _ in range(20))]
        assert sum(print_model(a) != print_model(b) for a, b in pairs) > 5
        for a, b in pairs:
            ra, rb = bisim_check(a, depth=3), bisim_check(b, depth=3)
            assert (ra.nodes, ra.transitions, ra.ok) == (rb.nodes, rb.transitions, rb.ok)
            states = explore(normalize_model(a), depth=3).states
            assert states == explore(normalize_model(b), depth=3).states
            progs = chr_of_model(a), chr_of_model(b)
            for s in states:
                fa, fb = ([canonical_form(c) for _, c in chr_step(chr_of_state(s), p)] for p in progs)
                assert fa == fb

    def test_normal_form_names_do_not_depend_on_declared_slot_order(self):
        models = [random_model(random.Random(i)) for i in range(200)]
        flipped = [flip(print_model(m)) for m in models]
        assert sum(print_model(a) != print_model(b) for a, b in zip(models, flipped)) > 50
        for a, b in zip(models, flipped):
            assert render_program(chr_of_model(a)) == render_program(chr_of_model(b))

    def test_normal_form_happens_inside_translation(self, counting_model):
        # raw rules are normalised by chr_of_model before translation
        norm = normalize_model(counting_model)
        direct = chr_of_model(counting_model)
        pre = [
            chr_of_rule(r, counting_model.buffers, counting_model.types)
            for r in norm.rules
        ]
        assert list(direct[:-1]) == pre

    def test_every_translated_state_is_simulated(self, counting_norm):
        # program-level smoke: each abstract step has a constraint step
        prog = chr_of_model(counting_norm)
        state = counting_norm.initial_state()
        for _ in range(4):
            nxt = successors(state, counting_norm)
            if not nxt:
                break
            label, succ = nxt[0]
            csucc = [
                s
                for _, s in chr_step(chr_of_state(state), prog)
            ]
            assert any(
                canonical_form(s) == canonical_form(chr_of_state(succ))
                for s in csucc
            )
            state = succ
