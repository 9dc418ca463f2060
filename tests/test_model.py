"""State construction invariants and the static validation catalog."""

import pytest

from actrchr.core import Chunk, ChunkStore, NIL, Symbol
from actrchr.model import MODIFY, AbstractState, Action, Atom, dm_atom, validate
from actrchr.parser import parse_model


def sym(name: str) -> Symbol:
    return Symbol(name)


GOAL_CHUNK = Chunk(sym("g0"), sym("g"), {sym("s"): sym("v")})
STORE = ChunkStore([GOAL_CHUNK])


class TestAbstractState:
    def test_make_accepts_mapping_and_rows(self):
        a = AbstractState.make(STORE, {sym("goal"): (sym("g0"), 0)})
        b = AbstractState.make(STORE, [(sym("goal"), sym("g0"), 0)])
        assert a == b

    def test_make_adds_nil_to_the_store(self):
        s = AbstractState.make(STORE, {sym("goal"): (sym("g0"), 0)})
        assert NIL in s.store

    def test_gamma_sorted_by_buffer_name(self):
        s = AbstractState.make(
            STORE,
            [(sym("z"), sym("g0"), 0), (sym("a"), sym("g0"), 1)],
        )
        assert s.buffers() == (sym("a"), sym("z"))

    def test_unknown_chunk_id_rejected(self):
        with pytest.raises(ValueError):
            AbstractState.make(STORE, {sym("goal"): (sym("missing"), 0)})

    def test_non_binary_delay_rejected(self):
        with pytest.raises(ValueError):
            AbstractState.make(STORE, {sym("goal"): (sym("g0"), 2)})

    def test_nil_is_a_valid_buffer_content(self):
        s = AbstractState.make(STORE, {sym("goal"): (NIL, 1)})
        assert s.buffer(sym("goal")) == (NIL, 1)

    def test_buffer_lookup(self):
        s = AbstractState.make(STORE, {sym("goal"): (sym("g0"), 0)})
        assert s.buffer(sym("goal")) == (sym("g0"), 0)
        with pytest.raises(KeyError):
            s.buffer(sym("other"))

    def test_upsilon_stored_sorted(self):
        x = Atom("p", (sym("b"),))
        y = Atom("p", (sym("a"),))
        s = AbstractState.make(STORE, {sym("goal"): (sym("g0"), 0)}, [x, y])
        assert s.upsilon == (y, x)

    def test_dm_atom_shape(self):
        a = dm_atom(sym("c1"))
        assert a.pred == "dm"
        assert a.args == (sym("c1"),)


class TestAction:
    def test_an_action_refuses_an_unknown_kind_and_a_typed_modification(self):
        with pytest.raises(ValueError, match="unknown action kind 'delete'"):
            Action("delete", sym("goal"), None, ())
        with pytest.raises(ValueError, match="modifications carry no type"):
            Action(MODIFY, sym("goal"), sym("g"), ())


def diagnose(src: str) -> set[str]:
    return {d.code for d in validate(parse_model(src))}


GOOD_PREFIX = "type t { s }\nchunk a : t { s: a }\nbuffer goal = a\n"


class TestValidate:
    def test_clean_model_has_no_diagnostics(self, counting_model):
        assert validate(counting_model) == []

    def test_duplicate_chunk_id(self):
        src = "type t { s }\nchunk a : t {}\nchunk a : t {}\nbuffer goal = a\n"
        assert "duplicate-chunk-id" in diagnose(src)

    def test_unknown_chunk_type(self):
        assert "unknown-type" in diagnose("chunk a : ghost {}\nbuffer goal = a\n")

    def test_unknown_chunk_slot(self):
        src = "type t { s }\nchunk a : t { bogus: a }\nbuffer goal = a\n"
        assert "unknown-slot" in diagnose(src)

    def test_chunk_slot_names_unknown_chunk(self):
        # b is declared after a, so only zz is unknown; left in, an
        # identity modification would send it to nil
        src = "type t { s }\nchunk a : t { s: b }\nchunk b : t { s: zz }\nbuffer goal = a\n"
        problems = validate(parse_model(src))
        assert [(d.code, d.message) for d in problems] == [
            ("unknown-chunk", "chunk b: slot s names unknown chunk zz")
        ]

    def test_dm_lists_unknown_chunk(self):
        assert "unknown-chunk" in diagnose(GOOD_PREFIX + "dm { ghost }\n")

    def test_buffer_starts_with_unknown_chunk(self):
        src = "type t { s }\nchunk a : t {}\nbuffer goal = ghost\n"
        assert "unknown-chunk" in diagnose(src)

    def test_rule_tests_undeclared_buffer(self):
        src = GOOD_PREFIX + "rule r { other: t {} ==> modify goal { s: a } }\n"
        assert "unknown-buffer" in diagnose(src)

    def test_rule_tests_unknown_type(self):
        src = GOOD_PREFIX + "rule r { goal: ghost {} ==> modify goal { s: a } }\n"
        assert "unknown-type" in diagnose(src)

    def test_rule_tests_unknown_slot(self):
        src = GOOD_PREFIX + "rule r { goal: t { bogus: X } ==> modify goal { s: X } }\n"
        assert "unknown-slot" in diagnose(src)

    def test_rule_acts_twice_on_one_buffer(self):
        src = GOOD_PREFIX + (
            "rule r { goal: t { s: X } ==> modify goal { s: X } "
            "request goal t { s: X } }\n"
        )
        assert "duplicate-action-buffer" in diagnose(src)

    def test_rule_acts_on_undeclared_buffer(self):
        src = GOOD_PREFIX + "rule r { goal: t { s: X } ==> modify other { s: X } }\n"
        assert "unknown-buffer" in diagnose(src)

    def test_request_with_unknown_type(self):
        src = GOOD_PREFIX + "rule r { goal: t { s: X } ==> request goal ghost {} }\n"
        assert "unknown-type" in diagnose(src)

    def test_request_with_unknown_slot(self):
        src = GOOD_PREFIX + (
            "rule r { goal: t { s: X } ==> request goal t { bogus: X } }\n"
        )
        assert "unknown-slot" in diagnose(src)

    def test_rhs_only_variable(self):
        src = GOOD_PREFIX + "rule r { goal: t { s: X } ==> modify goal { s: Y } }\n"
        assert "rhs-new-variable" in diagnose(src)

    def test_rule_named_like_the_timing_transition(self):
        # its CHR rule would be read as a reveal step
        rule = "rule {} {{ goal: t {{ s: X }} ==> modify goal {{ s: X }} }}\n"
        assert "reserved-rule-name" in diagnose(GOOD_PREFIX + rule.format("no"))
        assert diagnose(GOOD_PREFIX + rule.format("now")) == set()

    def test_diagnostics_carry_spans(self):
        src = GOOD_PREFIX + "rule r { other: t {} ==> modify goal { s: a } }\n"
        diags = [d for d in validate(parse_model(src)) if d.code == "unknown-buffer"]
        assert diags and diags[0].span is not None
        assert diags[0].span.line == 4
