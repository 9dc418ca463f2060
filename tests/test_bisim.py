"""Mutual simulation between abstract runs and their translations, and
the checks that catch deliberately broken translations."""

import json
import random
import string
from collections import Counter

import pytest

import actrchr.bisim
import actrchr.chr
import actrchr.engine
from actrchr.bisim import (
    BACKWARD,
    BIJECTION,
    ERROR,
    FORWARD,
    MAX_COUNTEREXAMPLES,
    UNDECIDED,
    bisim_check,
    drop_passthrough_gammas,
    effect_lemma_check,
)
from actrchr.chr import ChrRule, ChrState, Compound, TList, constraint, is_ground, render_term
from actrchr.core import NIL, Chunk, ChunkStore, Symbol, Variable
from actrchr.engine import (
    Answer,
    FAIL_NIL,
    FAIL_STUCK,
    ArchitectureConfig,
    Effect,
    EngineError,
    Run,
    canonical_key,
    explore,
    fresh_gen_for,
    match_rule,
    normalize_model,
    successors,
)
from actrchr.model import Atom, validate
from actrchr.modelgen import random_model
from actrchr.parser import ParseError, parse_model
from actrchr.translate import chr_of_model

# the rule reads both buffers but acts on one, so its translation carries
# a pass-through gamma for the context buffer
PASSTHROUGH_SRC = """
type g { current }
type k { key }
chunk a : k { key: a }
chunk g0 : g { current: a }
buffer goal = g0
buffer context = a
rule step {
  goal: g { current: X }
  context: k { key: X }
  ==>
  modify goal { current: X }
}
"""

# the request repeats a slot: a conjunction no memory chunk satisfies
REPEATED_REQUEST_SRC = """
type t { s }
chunk a : t { s: a }
chunk b : t { s: b }
dm { a, b }
buffer goal = a
buffer retrieval = b
rule ask { goal: t { s: a } ==> request retrieval t { s: a, s: b } }
"""

# declarative memory is never read: the one rule only modifies
UNREAD_MEMORY_SRC = """
type t { s }
chunk a : t { s: a }
dm { a }
buffer goal = a
rule r { goal: t {} ==> modify goal { s: a } }
"""

# the update value names no chunk, so the copy's slot falls back to nil
NIL_FALLBACK_SRC = """
type t { s }
chunk a : t { s: a }
buffer goal = a
rule r { goal: t { s: a } ==> modify goal { s: zz } }
"""

# every modification rebuilds the chunk it replaces, so a fresh id handed
# out twice names equal chunks and merges without a clash
RESTATING_SRC = """
type t { s }
chunk a : t { s: a }
buffer goal = a
rule r { goal: t { s: a } ==> modify goal { s: a } }
"""

# corpus models (random_model(Random(i))) in which a modification that keeps
# the old slot values is seen by depth 4
MODIFYING_SEEDS = (15, 23, 43, 81)

# corpus models in which a rule meets two different chunks in a buffer it
# modifies but does not test, under one binding, by depth 4 (12 of 200 do)
UNTESTED_COPY_SEEDS = (7, 18, 59, 79, 81)

# corpus models whose checks must visit explore's states in explore's order
# (all 200 agree at depths 0, 3 and 4 under both policies; 60 keep it quick)
VISIT_ORDER_MODELS = 60

# corpus models in which one buffer's modification, under equal update
# pairs, meets incumbents of one type with different slot values in the
# translated run by depth 4 (3 of 200 do)
INCUMBENT_PAIRS_SEEDS = (79, 146, 149)

# note's handler adds dm(b), after which ask has a second answer
FACT_ADDING_SRC = (
    "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: b }\nchunk g : t { s: a }\n"
    "dm { a }\nbuffer goal = g\nbuffer retrieval = a\nbuffer imaginal = a\n"
    "rule ask { goal: t { s: X } ==> request retrieval t {} }\n"
    "rule note { goal: t { s: a } ==> request imaginal t {} }\n"
)


def fact_adding_config():
    """The configuration whose imaginal handler answers note with dm(b)."""
    t, s, a, b = (Symbol(n) for n in "tsab")
    answer = Answer(t, ((s, a),), 1, (Atom("dm", (b,)),))
    return ArchitectureConfig({Symbol("imaginal"): lambda *_: [answer]})


TWO_ANSWER_SRC = """
type q { want }
type t { s }
chunk g0 : q { want: g0 }
chunk d1 : t { s: g0 }
chunk d2 : t { s: g0 }
dm { d1, d2 }
buffer goal = g0
rule ask { goal: q { want: X } ==> request goal t { s: X } }
"""


class TestCountingModel:
    def test_counting_is_bisimilar_to_depth_three(self, counting_model):
        report = bisim_check(counting_model, depth=3)
        assert report.ok
        assert report.verdict == "pass"
        assert report.counterexamples == []
        assert report.nodes == 4
        assert report.transitions == 6

    def test_full_chain_stays_bisimilar(self, counting_model):
        report = bisim_check(counting_model, depth=16)
        assert report.ok
        assert report.nodes == 6

    def test_only_the_root_is_translated(self, counting_model, monkeypatch):
        counts = Counter()

        def count(name, size=lambda result: 1):
            fn = getattr(actrchr.bisim, name)

            def counted(*args):
                result = fn(*args)
                counts[name] += size(result)
                return result

            monkeypatch.setattr(actrchr.bisim, name, counted)

        count("chr_of_state")
        count("canonical_form")
        count("chr_step", len)  # the CHR successors
        assert bisim_check(counting_model, depth=3).ok
        assert counts["chr_of_state"] == 1
        assert counts["canonical_form"] == counts["chr_step"] + 1

    def test_report_text_summarises_the_run(self, counting_model):
        text = bisim_check(counting_model, depth=3).text()
        assert "verdict: pass" in text
        assert "depth: 3" in text
        assert "pairs: 4" in text

    def test_report_records_are_json_lines(self, counting_model):
        lines = bisim_check(counting_model, depth=3).records()
        head = json.loads(lines[0])
        assert head["record"] == "summary"
        assert head["verdict"] == "pass"
        for line in lines[1:]:
            json.loads(line)


class TestEdgeCases:
    def test_model_without_transitions_passes_vacuously(self):
        src = "type t { s }\nchunk a : t { s: a }\nbuffer goal = a\n"
        report = bisim_check(parse_model(src), depth=3)
        assert report.ok
        assert report.nodes == 1
        assert report.transitions == 0

    def test_branching_requests_stay_matched(self):
        report = bisim_check(parse_model(TWO_ANSWER_SRC), depth=3)
        assert report.ok

    def test_repeated_request_slot_is_a_conjunction_on_both_sides(self):
        model = parse_model(REPEATED_REQUEST_SRC)
        stuck = ArchitectureConfig(fail_request=FAIL_STUCK)
        for config in (ArchitectureConfig(fail_request=FAIL_NIL), stuck):
            report = bisim_check(model, depth=3, config=config)
            assert report.ok, report.text()
        s0 = normalize_model(model).initial_state()
        assert [label for label, _ in successors(s0, model)] == ["apply(ask)"]
        assert successors(s0, model, Run(stuck, fresh_gen_for(s0))) == []

    def test_depth_zero_checks_nothing_but_the_root(self, counting_model):
        report = bisim_check(counting_model, depth=0)
        assert report.ok and report.nodes == 1 and report.transitions == 0

    def test_rejects_a_negative_depth(self, counting_model):
        with pytest.raises(ValueError, match="non-negative"):
            bisim_check(counting_model, depth=-2)


class TestFaultInjection:
    def test_mutation_is_identity_without_passthroughs(self, counting_model):
        # every buffer of the counting rule is acted on, so there is
        # nothing to drop and the mutant cannot be told apart
        prog = chr_of_model(counting_model)
        assert drop_passthrough_gammas(prog) == prog

    def test_mutation_drops_a_passthrough_gamma(self):
        model = parse_model(PASSTHROUGH_SRC)
        prog = chr_of_model(model)
        broken = drop_passthrough_gammas(prog)
        assert broken != prog
        (step_rule,) = [r for r in broken if r.name == "step"]
        (orig_rule,) = [r for r in prog if r.name == "step"]
        assert len(step_rule.body_user) == len(orig_rule.body_user) - 1

    def test_intact_translation_passes(self):
        report = bisim_check(parse_model(PASSTHROUGH_SRC), depth=3)
        assert report.ok

    def test_broken_translation_fails_with_a_backward_counterexample(self):
        model = parse_model(PASSTHROUGH_SRC)
        broken = drop_passthrough_gammas(chr_of_model(model))
        report = bisim_check(model, depth=3, program=broken)
        assert not report.ok
        assert report.verdict == "fail"
        directions = {c.direction for c in report.counterexamples}
        assert BACKWARD in directions
        cx = next(c for c in report.counterexamples if c.direction == BACKWARD)
        assert cx.label == "apply(step)"
        assert "backward" in str(cx)

    def test_missing_translated_rule_fails_forward(self, counting_model):
        # dropping the rule entirely leaves abstract steps unmatched
        prog = tuple(r for r in chr_of_model(counting_model) if r.name != "inc")
        report = bisim_check(counting_model, depth=3, program=prog)
        assert not report.ok
        assert any(c.direction == FORWARD for c in report.counterexamples)
        assert all(c.direction != BACKWARD for c in report.counterexamples)

    def test_duplicated_translated_rule_breaks_the_bijection(self, counting_model):
        prog = chr_of_model(counting_model)
        doubled = (prog[0],) + prog  # the rule fires twice per state
        report = bisim_check(counting_model, depth=3, program=doubled)
        assert any(c.direction == BIJECTION for c in report.counterexamples)

    def test_counterexamples_come_in_a_fixed_order(self, counting_model):
        # forward in abstract successor order, backward in translated order,
        # then bijection per class, in the order the abstract side meets it
        prog = chr_of_model(counting_model)
        report = bisim_check(counting_model, depth=3, program=(prog[0],) + prog)
        assert [(c.direction, c.depth, c.label) for c in report.counterexamples] == [
            (BIJECTION, 1, "apply(inc)"),
        ]
        model = random_model(random.Random(198))
        prog = chr_of_model(model)
        # the rules in reverse without their pass-throughs, then r1 again
        shuffled = drop_passthrough_gammas(prog[-2::-1]) + (prog[0], prog[-1])
        report = bisim_check(model, depth=1, program=shuffled)
        assert [(c.direction, c.depth, c.label) for c in report.counterexamples] == [
            (FORWARD, 0, "apply(r2)"),
            (FORWARD, 0, "apply(r4)"),
            (BACKWARD, 0, "apply(r4)"),
            (BACKWARD, 0, "apply(r2)"),
            (BIJECTION, 0, "apply(r1)"),
            (BIJECTION, 0, "apply(r1)"),
        ]

    def test_state_translation_that_drops_the_facts_fails(self, monkeypatch):
        model = parse_model(UNREAD_MEMORY_SRC)
        assert bisim_check(model, depth=3).ok
        translate = actrchr.bisim.chr_of_state
        monkeypatch.setattr(
            actrchr.bisim, "chr_of_state", lambda s: ChrState(translate(s).goal, ())
        )
        report = bisim_check(model, depth=3)
        assert not report.ok
        assert {(c.direction, c.depth) for c in report.counterexamples} == {
            (FORWARD, 0),
            (BACKWARD, 0),
        }

    def test_an_ill_shaped_successor_is_an_error(self, counting_model):
        # the rule's body restates its goal gamma, so its successor holds
        # two gamma rows for one buffer and encodes no abstract state
        prog = chr_of_model(counting_model)
        inc = prog[0]
        (again,) = [c for c in inc.body_user if c.name == "gamma" and c.args[0] == Symbol("goal")]
        doubled = ChrRule(inc.name, inc.removed, inc.guard, inc.body_user + (again,), inc.body_builtin)
        report = bisim_check(counting_model, depth=3, program=(doubled, *prog[1:]))
        assert [(c.direction, c.depth) for c in report.counterexamples] == [(ERROR, 1)]
        (cx,) = report.counterexamples
        assert cx.missing == "translated step raised ChrError: two gamma rows for buffer goal"

    def test_undecided_programs_are_reported_not_raised(self, counting_model):
        prog = chr_of_model(counting_model)
        confused = ChrRule(
            prog[0].name,
            prog[0].removed,
            prog[0].guard + (constraint("frob", prog[0].removed[0].args[0]),),
            prog[0].body_user,
            prog[0].body_builtin,
        )
        report = bisim_check(counting_model, depth=3, program=(confused, prog[1]))
        assert not report.ok
        assert any(c.direction == UNDECIDED for c in report.counterexamples)
        # the messages name no variable from an earlier run
        again = bisim_check(counting_model, depth=3, program=(confused, prog[1]))
        assert again.records() == report.records()


def modification_with(value):
    """A stand-in for ``engine.interpret_modification`` whose updated slots
    take ``value(old, update, store)``."""

    def interpret(action, state, ids):
        updates = dict(action.pairs)
        incumbent = state.store.get(state.buffer(action.buffer)[0])
        pairs = [
            (s, value(old, updates[s], state.store) if s in updates else old)
            for s, old in incumbent.pairs
        ]
        fresh = ids.fresh()
        copy = Chunk(fresh, incumbent.type, pairs)
        return [Effect.make(ChunkStore([copy]), {action.buffer: (fresh, 0)})]

    return interpret


class TestFaultMatrix:
    """Each fault is put into the abstract machine alone; the CHR side
    solves modification and merge over chunk terms with no engine code, so
    the check must report a counterexample (not merely other counts).

    A merge in which the wrong side wins a clash cannot be seen here:
    effects draw distinct fresh ids, so their stores never clash.  The
    term-level merge's clash handling is tested in ``test_chr.py``.
    """

    def test_the_modification_stand_in_is_faithful(self, monkeypatch):
        faithful = modification_with(lambda old, new, store: new if new in store else NIL)
        monkeypatch.setattr(actrchr.engine, "interpret_modification", faithful)
        for src in (NIL_FALLBACK_SRC, RESTATING_SRC):
            assert bisim_check(parse_model(src), depth=4).ok
        for seed in MODIFYING_SEEDS:
            assert bisim_check(random_model(random.Random(seed)), depth=4).ok

    def test_modification_that_keeps_the_old_values_is_caught(self, monkeypatch):
        keeps = modification_with(lambda old, new, store: old)
        monkeypatch.setattr(actrchr.engine, "interpret_modification", keeps)
        for seed in MODIFYING_SEEDS:
            report = bisim_check(random_model(random.Random(seed)), depth=4)
            assert {FORWARD, BACKWARD} <= {c.direction for c in report.counterexamples}

    def test_modification_without_the_nil_fallback_is_caught(self, monkeypatch):
        model = parse_model(NIL_FALLBACK_SRC)
        assert bisim_check(model, depth=3).ok
        raw = modification_with(lambda old, new, store: new)
        monkeypatch.setattr(actrchr.engine, "interpret_modification", raw)
        report = bisim_check(model, depth=3)
        assert (FORWARD, 0, "apply(r)") in {
            (c.direction, c.depth, c.label) for c in report.counterexamples
        }

    def test_fresh_ids_restarting_every_step_are_caught(self, request):
        model = parse_model(RESTATING_SRC)
        assert bisim_check(model, depth=3).ok
        request.getfixturevalue("fresh_ids_restarting")
        report = bisim_check(model, depth=3)
        # the second step reuses c#0 and lands back on the first's state
        assert (FORWARD, 1, "apply(r)") in {
            (c.direction, c.depth, c.label) for c in report.counterexamples
        }

    def test_step_errors_are_counterexamples(self, fresh_ids_restarting):
        # two effects of one step now share c#0, so merging them clashes in
        # the abstract step; the check must report that, not raise it
        errors = []
        for seed in range(200):
            report = bisim_check(random_model(random.Random(seed)), depth=4)
            errors += [c for c in report.counterexamples if c.direction == ERROR]
        assert errors
        assert all(c.missing.startswith("abstract step raised IdClash: ") for c in errors)

    def test_the_counterexample_cap_stops_the_search(self, fresh_ids_restarting):
        # the cap is checked before the next pair is counted, so a report
        # ends at the pair whose expansion reached it
        capped = []
        for seed in range(200):
            report = bisim_check(random_model(random.Random(seed)), depth=4)
            if len(report.counterexamples) >= MAX_COUNTEREXAMPLES:
                capped.append(report)
        assert [r.nodes for r in capped] == [11, 6, 5, 11, 10, 6, 8, 5, 7, 9, 5, 5, 5, 4, 3, 6]
        assert all(10 <= len(r.counterexamples) <= 13 for r in capped)

    def test_engine_errors_are_counterexamples(self, counting_model):
        fresh = (Symbol("c#0"),)
        in_a_pair = Answer(Symbol("succ"), ((Symbol("number"), fresh[0]),))
        in_a_fact = Answer(Symbol("succ"), (), 1, (Atom("seen", fresh),))
        # the CHR side stores answer facts as they are: only this check sees one
        over_a_variable = Answer(Symbol("succ"), (), 1, (Atom("seen", (Variable("X"),)),))
        number = Symbol("number")
        repeating = Answer(Symbol("succ"), ((number, Symbol("1")), (number, Symbol("2"))))
        retrieval = Symbol("retrieval")
        # the CHR side would fail on these in the shared request code, or not at all
        ill_formed = [
            Answer("succ", ((number, Symbol("1")),)),
            Answer(Variable("T"), ((number, Symbol("1")),)),
            Answer(Symbol("succ"), (("number", Symbol("1")),)),
            Answer(Symbol("succ"), ((Variable("S"), Symbol("1")),)),
            Answer(Symbol("succ"), ((number, Symbol("1")),), "1"),
        ]
        cases = [
            (ArchitectureConfig(default_handler=None), "NoHandler"),
            (ArchitectureConfig({retrieval: lambda *_: [in_a_pair]}), "EngineError"),
            (ArchitectureConfig({retrieval: lambda *_: [in_a_fact]}), "EngineError"),
            (ArchitectureConfig({retrieval: lambda *_: [repeating]}), "EngineError"),
            (ArchitectureConfig(default_handler=lambda *_: [over_a_variable]), "EngineError"),
        ] + [(ArchitectureConfig({retrieval: lambda *_, a=a: [a]}), "EngineError") for a in ill_formed]
        for config, error in cases:
            with pytest.raises(EngineError):
                explore(counting_model, config, depth=3)
            report = bisim_check(counting_model, depth=3, config=config)
            (cx,) = report.counterexamples
            assert (cx.direction, cx.depth) == (ERROR, 1)
            assert cx.missing.startswith(f"abstract step raised {error}: ")

    def test_an_answer_slot_over_a_variable_is_an_error(self, counting_model):
        # the CHR side would store the chunk as it is: only the engine sees it
        answer = Answer(Symbol("succ"), ((Symbol("number"), Variable("X")),))
        config = ArchitectureConfig(default_handler=lambda *_: [answer])
        with pytest.raises(EngineError, match="not a symbol"):
            explore(counting_model, config, depth=3)
        (cx,) = bisim_check(counting_model, depth=3, config=config).counterexamples
        assert (cx.direction, cx.depth) == (ERROR, 1)
        assert cx.missing.startswith("abstract step raised EngineError: type, slot or slot value not a symbol")

    def test_a_memo_keyed_without_the_copied_contents_is_caught(self, monkeypatch):
        memo_key = actrchr.engine._memo_key

        def without_contents(*args):
            key = memo_key(*args)
            return key and key[:-1]

        models = [random_model(random.Random(seed)) for seed in UNTESTED_COPY_SEEDS]
        assert all(bisim_check(m, depth=4).ok for m in models)
        monkeypatch.setattr(actrchr.engine, "_memo_key", without_contents)
        for m in models:
            report = bisim_check(m, depth=4)
            assert {FORWARD, BACKWARD} <= {c.direction for c in report.counterexamples}


    def test_a_memo_keyed_without_the_facts_is_caught(self, monkeypatch):
        model, config = parse_model(FACT_ADDING_SRC), fact_adding_config()
        report = bisim_check(model, depth=6, config=config)
        assert report.ok and report.nodes == 193
        memo_key = actrchr.engine._memo_key

        def without_facts(*args):
            key = memo_key(*args)
            return key and key[1:]

        monkeypatch.setattr(actrchr.engine, "_memo_key", without_facts)
        cx = bisim_check(model, depth=6, config=config).counterexamples[0]
        assert (cx.direction, cx.depth, cx.label) == (BACKWARD, 1, "apply(ask)")

    def test_a_chr_memo_keyed_without_the_incumbents_pairs_is_caught(self, monkeypatch):
        modify_key = actrchr.chr._modify_key

        def without_pairs(buffer, pairs, incumbent, listed):
            id, type, _ = incumbent.args
            return modify_key(buffer, pairs, Compound("chunk", (id, type, TList(()))), listed)

        models = [random_model(random.Random(seed)) for seed in INCUMBENT_PAIRS_SEEDS]
        assert all(bisim_check(m, depth=4).ok for m in models)
        monkeypatch.setattr(actrchr.chr, "_modify_key", without_pairs)
        for m in models:
            report = bisim_check(m, depth=4)
            assert {FORWARD, BACKWARD} <= {c.direction for c in report.counterexamples}

    def test_a_chr_memo_keyed_without_the_facts_is_caught(self, monkeypatch):
        model, config = parse_model(FACT_ADDING_SRC), fact_adding_config()
        assert bisim_check(model, depth=6, config=config).ok
        request_key = actrchr.chr._request_key
        monkeypatch.setattr(
            actrchr.chr, "_request_key",
            lambda buffer, type, pairs, _facts: request_key(buffer, type, pairs, ()),
        )
        cx = bisim_check(model, depth=6, config=config).counterexamples[0]
        assert (cx.direction, cx.depth, cx.label) == (FORWARD, 1, "apply(ask)")


class TestEffectCorrespondence:
    def test_holds_along_the_counting_chain(self, counting_norm):
        state = counting_norm.initial_state()
        seen_matches = 0
        for _ in range(6):
            for rule in counting_norm.rules:
                if match_rule(rule, state) is not None:
                    seen_matches += 1
                    assert effect_lemma_check(rule, state, counting_norm.types)
            nxt = successors(state, counting_norm)
            if not nxt:
                break
            state = nxt[0][1]
        assert seen_matches == 2  # inc fires twice along the chain

    def test_holds_with_multiple_answers(self):
        model = normalize_model(parse_model(TWO_ANSWER_SRC))
        state = model.initial_state()
        rule = model.rules[0]
        assert match_rule(rule, state) is not None
        assert effect_lemma_check(rule, state, model.types)

    def test_fails_against_a_translation_without_passthroughs(self, monkeypatch):
        model = normalize_model(parse_model(PASSTHROUGH_SRC))
        state, rule = model.initial_state(), model.rules[0]
        assert effect_lemma_check(rule, state, model.types)
        translate = actrchr.bisim.chr_of_rule
        monkeypatch.setattr(
            actrchr.bisim,
            "chr_of_rule",
            lambda *args: drop_passthrough_gammas((translate(*args),))[0],
        )
        assert not effect_lemma_check(rule, state, model.types)

    def test_vacuous_on_non_matching_states(self, counting_norm):
        state = counting_norm.initial_state()  # retrieval still pending
        assert match_rule(counting_norm.rules[0], state) is None
        assert effect_lemma_check(counting_norm.rules[0], state, counting_norm.types)


class TestRandomCorpus:
    def test_small_random_corpus_is_bisimilar(self):
        rng = random.Random(61)
        for _ in range(30):
            model = random_model(rng)
            report = bisim_check(model, depth=2)
            assert report.ok, report.text()

    def test_small_random_corpus_is_bisimilar_when_failed_requests_stick(self):
        rng = random.Random(62)
        stuck = ArchitectureConfig(fail_request=FAIL_STUCK)
        pairs = {FAIL_STUCK: 0, FAIL_NIL: 0}
        for _ in range(30):
            model = random_model(rng)
            report = bisim_check(model, depth=3, config=stuck)
            assert report.ok, report.text()
            pairs[FAIL_STUCK] += report.nodes
            pairs[FAIL_NIL] += bisim_check(model, depth=3).nodes
        # failed requests do occur: dropping them leaves fewer pairs
        assert pairs[FAIL_STUCK] < pairs[FAIL_NIL]

    def test_wider_random_corpus_is_bisimilar_under_both_policies(self):
        rng = random.Random(63)
        matching = Counter()
        for _ in range(40):
            model = random_model(rng, max_buffers=4, max_rules=6, max_chunks=8)
            norm = normalize_model(model)
            for policy in (FAIL_NIL, FAIL_STUCK):
                config = ArchitectureConfig(fail_request=policy)
                report = bisim_check(model, depth=3, config=config)
                assert report.ok, report.text()
                for state in report.states:
                    for rule in norm.rules:
                        if match_rule(rule, state) is not None:
                            matching[policy] += 1
                            assert effect_lemma_check(rule, state, norm.types, config)
        assert min(matching.values()) > 300

    def test_the_check_visits_the_states_explore_visits_in_order(self):
        # both run the one breadth-first search, over pairs and over states
        for policy in (FAIL_NIL, FAIL_STUCK):
            config = ArchitectureConfig(fail_request=policy)
            for i in range(VISIT_ORDER_MODELS):
                model = random_model(random.Random(i))
                for depth in (0, 3, 4):
                    report = bisim_check(model, depth=depth, config=config)
                    graph = explore(model, config, depth=depth)
                    keys = [canonical_key(s) for s in graph.states]
                    assert [canonical_key(s) for s in report.states] == keys, (i, depth)

    def test_the_chr_engine_matches_only_against_ground_terms(self, monkeypatch):
        # a plan's patterns match one-sidedly: the term must be ground
        inner = actrchr.chr.match_into
        calls, loose = Counter(), []

        def checked(pattern, term, regs):
            calls[policy] += 1
            if not is_ground(term):
                loose.append(term)
            return inner(pattern, term, regs)

        monkeypatch.setattr(actrchr.chr, "match_into", checked)
        for policy in (FAIL_NIL, FAIL_STUCK):
            config = ArchitectureConfig(fail_request=policy)
            for i in range(30):
                report = bisim_check(random_model(random.Random(i)), depth=4, config=config)
                assert not loose, render_term(loose[0])
                assert report.ok, report.text()
        assert min(calls.values()) > 750  # nil: 1113, stuck: 847


class TestMutationFuzz:
    # the characters of the model grammar, and a few it does not know
    ALPHABET = string.ascii_letters + string.digits + "{}:,=>#_ \n"

    def test_mutated_counting_models_end_in_a_verdict(self, counting_src):
        """Every one-character edit of the counting model is a parse error,
        a validator diagnostic or a passing check; nothing raises."""
        rng = random.Random(17)
        outcomes = Counter()
        for _ in range(300):
            i = rng.randrange(len(counting_src))
            c = rng.choice(self.ALPHABET)
            text = rng.choice(
                [
                    counting_src[:i] + counting_src[i + 1:],  # delete
                    counting_src[:i] + c + counting_src[i:],  # insert
                    counting_src[:i] + c + counting_src[i + 1:],  # replace
                ]
            )
            try:
                model = parse_model(text)
            except ParseError:
                outcomes["parse error"] += 1
                continue
            if validate(model):
                outcomes["diagnostics"] += 1
                continue
            report = bisim_check(model, depth=3)
            assert report.ok, f"{text}\n{report.text()}"
            outcomes["pass"] += 1
        assert sum(outcomes.values()) == 300
        assert min(outcomes.values()) > 50, outcomes
