"""End-to-end acceptance checks.

Each test is one acceptance criterion; run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per criterion.
Randomised criteria use fixed seeds so the corpus is reproducible.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from actrchr.bisim import BACKWARD, bisim_check, drop_passthrough_gammas, effect_lemma_check
from actrchr.chr import render_program, render_rule
from actrchr.core import Chunk, ChunkStore, IdGen, Symbol, TypeTable, Variable
from actrchr.engine import (
    ArchitectureConfig,
    DROPPED,
    apply_transition,
    canonical_key,
    interpret_rule,
    match_rule,
    normalize_model,
    set_normal_form,
    successors,
)
from actrchr.model import AbstractState, BufferTest, Rule, dm_atom
from actrchr.modelgen import chunk_pool, random_model, random_rule, random_store
from actrchr.parser import parse_model
from actrchr.translate import chr_of_model, chr_of_state

CORPUS_SEED = 20260815
CORPUS_SIZE = 200


def sym(name: str) -> Symbol:
    return Symbol(name)


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


@pytest.fixture(scope="module")
def corpus_runs():
    """The random-model corpus with its bisimulation reports and the time
    the runs took; shared between the effect and bisimulation criteria."""
    rng = random.Random(CORPUS_SEED)
    t0 = time.monotonic()
    runs = []
    for _ in range(CORPUS_SIZE):
        model = random_model(rng)
        runs.append((model, bisim_check(model, depth=3)))
    return runs, time.monotonic() - t0


def test_criterion_1_worked_derivation_is_exact(counting_norm):
    t0 = time.monotonic()
    model = counting_norm
    s0 = model.initial_state()

    ((l1, s1),) = successors(s0, model)
    assert l1 == "no"
    ((l2, s2),) = successors(s1, model)
    assert l2 == "apply(inc)"

    goal_id, goal_delay = s2.buffer(sym("goal"))
    assert goal_delay == 0
    assert s2.store.get(goal_id).value(sym("current")) == sym("2")
    retr_id, retr_delay = s2.buffer(sym("retrieval"))
    assert retr_delay == 1
    assert s2.store.get(retr_id).val() == {
        sym("number"): sym("2"),
        sym("successor"): sym("3"),
    }

    # exact structural match with the hand-built target state, compared
    # through the canonical renaming of fresh identifiers
    new_goal = Chunk(sym("c#0"), sym("g"), {sym("current"): sym("2")})
    new_retr = Chunk(
        sym("c#1"),
        sym("succ"),
        {sym("number"): sym("2"), sym("successor"): sym("3")},
    )
    expected = AbstractState.make(
        ChunkStore([*model.chunks, new_goal, new_retr]),
        {sym("goal"): (sym("c#0"), 0), sym("retrieval"): (sym("c#1"), 1)},
        [dm_atom(d) for d in model.dm],
    )
    assert canonical_key(s2) == canonical_key(expected)
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_merge_monoid_laws():
    t0 = time.monotonic()
    rng = random.Random(CORPUS_SEED + 1)
    types, pool = chunk_pool(rng)

    from actrchr.core import IdClash, merge

    def same(x, y):
        return x.sorted_chunks() == y.sorted_chunks()

    triples = 0
    for _ in range(1000):
        a = random_store(rng, pool, max_chunks=8)
        b = random_store(rng, pool, max_chunks=8)
        c = random_store(rng, pool, max_chunks=8)
        ab = merge(a, b)
        ba = merge(b, a)
        assert same(ab, ba)
        left = merge(ab, c)
        right = merge(a, merge(b, c))
        assert same(left, right)
        assert same(merge(a, ChunkStore()), a)
        assert same(merge(ChunkStore(), a), a)
        assert same(merge(a, a), a)
        triples += 1
    assert triples == 1000
    assert time.monotonic() - t0 < 10.0


def test_criterion_3_set_normal_form_preserves_behavior():
    t0 = time.monotonic()
    rng = random.Random(CORPUS_SEED + 2)
    config = ArchitectureConfig()
    buffers = [sym("b1"), sym("b2")]

    checked = fired = 0
    for _ in range(500):
        types, pool = chunk_pool(rng)
        chunks = pool[:6]
        ids = [c.id for c in chunks]
        rule = random_rule(rng, "r", types, buffers, ids)
        gamma = {b: (rng.choice(ids), rng.choice([0, 1])) for b in buffers}
        state = AbstractState.make(ChunkStore(chunks), gamma)
        nf = set_normal_form(rule, types)
        checked += 1
        if nf is DROPPED:
            assert match_rule(rule, state) is None
            continue
        t_raw = match_rule(rule, state)
        t_nf = match_rule(nf, state)
        assert (t_raw is None) == (t_nf is None)
        if t_raw is None:
            continue
        fired += 1
        raw_succ = [
            apply_transition(state, e)
            for e in interpret_rule(rule, t_raw, state, config, IdGen(100))
        ]
        nf_succ = [
            apply_transition(state, e)
            for e in interpret_rule(nf, t_nf, state, config, IdGen(100))
        ]
        assert raw_succ == nf_succ
    assert checked == 500 and fired > 40

    # dropped rules match nothing: exhaustive over every store of up to
    # three chunks drawn from a three-identifier, two-slot vocabulary
    types = TypeTable()
    types.declare(sym("t"), (sym("a"), sym("b")))
    ids = [sym("k"), sym("m"), sym("j")]
    values = [sym("k"), sym("m"), Symbol("nil")]
    variants = {
        i: [
            Chunk(i, sym("t"), {sym("a"): va, sym("b"): vb})
            for va in values
            for vb in values
        ]
        for i in ids
    }
    dropped = [
        Rule(
            "d1",
            (
                BufferTest(sym("goal"), sym("t"), ((sym("a"), sym("k")),)),
                BufferTest(sym("goal"), sym("t"), ((sym("a"), sym("m")),)),
            ),
            (),
        ),
        Rule(
            "d2",
            (
                BufferTest(
                    sym("goal"),
                    sym("t"),
                    ((sym("a"), Variable("X")), (sym("b"), Variable("X"))),
                ),
                BufferTest(
                    sym("goal"), sym("t"), ((sym("a"), sym("k")), (sym("b"), sym("m")))
                ),
            ),
            (),
        ),
    ]
    for r in dropped:
        assert set_normal_form(r, types) is DROPPED
    states = 0
    for n in (1, 2, 3):
        for id_set in itertools.combinations(ids, n):
            for combo in itertools.product(*(variants[i] for i in id_set)):
                store = ChunkStore(combo)
                for holder in id_set:
                    for delay in (0, 1):
                        state = AbstractState.make(store, {sym("goal"): (holder, delay)})
                        states += 1
                        for r in dropped:
                            assert match_rule(r, state) is None
    assert states >= 1000
    assert time.monotonic() - t0 < 30.0


def test_criterion_4_effect_correspondence_on_every_matching_pair(corpus_runs):
    runs, _ = corpus_runs
    matching_pairs = 0
    for model, report in runs:
        norm = normalize_model(model)
        for state in report.states:
            for rule in norm.rules:
                if match_rule(rule, state) is not None:
                    matching_pairs += 1
                    assert effect_lemma_check(rule, state, norm.types), (
                        rule.name,
                        state,
                    )
    assert matching_pairs > 200


def test_criterion_5_bisimulation_and_fault_injection(corpus_runs, counting_model):
    t0 = time.monotonic()
    assert bisim_check(counting_model, depth=3).ok

    runs, corpus_elapsed = corpus_runs
    assert len(runs) >= 200
    for model, report in runs:
        assert report.ok, report.text()

    # a translator that forgets pass-through buffer constraints must fail,
    # and the first witness is a translated step with no abstract mate
    model = parse_model(PASSTHROUGH_SRC)
    broken = drop_passthrough_gammas(chr_of_model(model))
    assert broken != chr_of_model(model)
    report = bisim_check(model, depth=3, program=broken)
    assert not report.ok
    assert any(c.direction == BACKWARD for c in report.counterexamples)

    assert corpus_elapsed + (time.monotonic() - t0) < 120.0


def test_criterion_6_translation_shape(counting_model):
    rng = random.Random(CORPUS_SEED + 3)
    models = [counting_model] + [random_model(rng) for _ in range(25)]
    for model in models:
        norm = normalize_model(model)
        state = norm.initial_state()
        cs = chr_of_state(state)
        deltas = [c for c in cs.goal if c.name == "delta"]
        gammas = [c for c in cs.goal if c.name == "gamma"]
        assert len(deltas) == 1
        assert len(gammas) == len(norm.buffers)
        assert len(cs.goal) == 1 + len(norm.buffers)

        prog = chr_of_model(model)
        assert len(prog) == len(norm.rules) + 1
        assert render_rule(prog[-1]) == "no @ gamma(B,C,D) <=> D > 0 | gamma(B,C,0)."
        assert render_program(prog).rstrip().endswith(
            "no @ gamma(B,C,D) <=> D > 0 | gamma(B,C,0)."
        )


def test_criterion_7_byte_identical_reruns(counting_path):
    def invoke(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "actrchr.cli", *map(str, args)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    translate_a = invoke("translate", counting_path, "--out", "-")
    translate_b = invoke("translate", counting_path, "--out", "-")
    assert translate_a == translate_b and translate_a

    run_a = invoke("run", counting_path, "--seed", "1", "--depth", "2")
    run_b = invoke("run", counting_path, "--seed", "1", "--depth", "2")
    assert run_a == run_b
    assert [l.split(": ")[1].split(" -> ")[0] for l in run_a.splitlines()] == [
        "no",
        "apply(inc)",
    ]
