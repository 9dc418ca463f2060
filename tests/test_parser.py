"""Surface syntax: lexing, parsing, printing and their round trips."""

import random
import re

import pytest

from actrchr.core import Symbol, Variable
from actrchr.model import MODIFY, REQUEST
from actrchr.modelgen import random_model
from actrchr.parser import ParseError, parse_model, print_model, tokenize


def sym(name: str) -> Symbol:
    return Symbol(name)


COUNTING_CANONICAL = """\
type g { current }
type number {}
type succ { number, successor }

chunk 1 : number {}
chunk 2 : number {}
chunk 3 : number {}
chunk b : succ { number: 1, successor: 2 }
chunk c : succ { number: 2, successor: 3 }
chunk goal0 : g { current: 1 }

dm { 1, 2, 3, b, c }

buffer goal = goal0
buffer retrieval = b pending

rule inc {
  goal: g { current: X }
  retrieval: succ { number: X, successor: Y }
  ==>
  modify goal { current: Y }
  request retrieval succ { number: Y }
}
"""


class TestCountingFixture:
    def test_declarations(self, counting_model):
        m = counting_model
        # the builtin nil-chunk type is always declared
        assert set(t.name for t in m.types.names()) == {"chunk", "g", "number", "succ"}
        assert m.types.slots(sym("succ")) == (sym("number"), sym("successor"))
        assert [c.id.name for c in m.chunks] == ["1", "2", "3", "b", "c", "goal0"]
        assert [d.name for d in m.dm] == ["1", "2", "3", "b", "c"]
        assert m.buffers == (sym("goal"), sym("retrieval"))
        assert m.init == (
            (sym("goal"), sym("goal0"), 0),
            (sym("retrieval"), sym("b"), 1),
        )

    def test_rule_shape(self, counting_model):
        (rule,) = counting_model.rules
        assert rule.name == "inc"
        goal_test, ret_test = rule.tests
        assert goal_test.buffer == sym("goal")
        assert goal_test.type == sym("g")
        assert goal_test.pairs == ((sym("current"), Variable("X")),)
        assert ret_test.pairs == (
            (sym("number"), Variable("X")),
            (sym("successor"), Variable("Y")),
        )
        modify, request = rule.actions
        assert modify.kind == MODIFY
        assert modify.type is None
        assert modify.pairs == ((sym("current"), Variable("Y")),)
        assert request.kind == REQUEST
        assert request.type == sym("succ")
        assert request.pairs == ((sym("number"), Variable("Y")),)

    def test_printed_form_is_frozen(self, counting_model):
        assert print_model(counting_model) == COUNTING_CANONICAL


class TestRoundTrip:
    def test_parse_after_print_is_identity(self, counting_model):
        assert parse_model(print_model(counting_model)) == counting_model

    def test_print_is_a_fixpoint(self, counting_model):
        once = print_model(counting_model)
        assert print_model(parse_model(once)) == once

    def test_random_models_round_trip(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_model(rng)
            text = print_model(m)
            again = parse_model(text)
            assert again == m
            assert print_model(again) == text

    def test_pair_order_in_the_source_does_not_matter(self):
        rng = random.Random(5)

        def shuffle(match: re.Match) -> str:
            items = match.group(1).split(", ")
            # repeated slots keep their source order, which is part of the rule
            by_slot: dict[str, list[str]] = {}
            for item in items:
                by_slot.setdefault(item.split(":")[0], []).append(item)
            order = rng.sample(items, len(items))
            return "{ " + ", ".join(by_slot[i.split(":")[0]].pop(0) for i in order) + " }"

        moved = 0
        for i in range(30):
            m = random_model(random.Random(i))
            text = print_model(m)
            shuffled = re.sub(r"\{ ([^{}]*:[^{}]*) \}", shuffle, text)
            moved += shuffled != text
            assert parse_model(shuffled) == m
        assert moved > 10


class TestSyntax:
    def test_comments_run_to_end_of_line(self):
        src = "# heading\ntype t { s }  # trailing\nchunk a : t {}\nbuffer goal = a\n"
        m = parse_model(src)
        assert [c.id.name for c in m.chunks] == ["a"]

    def test_numeric_chunk_names(self):
        m = parse_model("type t {}\nchunk 7 : t {}\nbuffer goal = 7\n")
        assert m.chunks[0].id == sym("7")

    def test_fresh_style_identifiers_lex_as_one_name(self):
        # 'c#0' is a single identifier, not name-then-comment
        toks = [t for t in tokenize("chunk c#0") if t.kind != "eof"]
        assert [t.text for t in toks] == ["chunk", "c#0"]

    def test_slot_pairs_print_in_type_order(self):
        src = (
            "type t { a, b }\n"
            "chunk x : t { b: x, a: x }\n"
            "buffer goal = x\n"
        )
        out = print_model(parse_model(src))
        assert "chunk x : t { a: x, b: x }" in out

    def test_uppercase_names_are_variables_only_in_rules(self):
        src = (
            "type t { s }\nchunk a : t {}\nbuffer goal = a\n"
            "rule r { goal: t { s: X } ==> modify goal { s: X } }\n"
        )
        rule = parse_model(src).rules[0]
        assert rule.tests[0].pairs[0][1] == Variable("X")


class TestErrors:
    def err(self, src: str) -> ParseError:
        with pytest.raises(ParseError) as info:
            parse_model(src)
        return info.value

    def test_missing_colon_in_chunk(self):
        e = self.err("type t {}\nchunk a t {}\n")
        assert e.span.line == 2
        assert "expected ':'" in e.message

    def test_unbalanced_brace(self):
        e = self.err("type t { s \nchunk a : t {}\n")
        assert e.span.line in (1, 2)

    def test_rule_without_arrow(self):
        e = self.err(
            "type t { s }\nchunk a : t {}\nbuffer goal = a\n"
            "rule r { goal: t {} modify goal { s: a } }\n"
        )
        assert e.span.line == 4

    def test_stray_token_at_top_level(self):
        e = self.err("type t {}\nwibble\n")
        assert e.span.line == 2

    def test_repeated_slot_in_a_chunk(self):
        e = self.err("type t { s }\nchunk a : t { s: a,\n  s: nil }\n")
        assert (e.span.line, e.span.col) == (3, 3)
        assert "slot s given twice" in e.message

    def test_repeated_slot_in_a_modify(self):
        e = self.err(
            "type t { s }\nchunk a : t { s: a }\nchunk b : t { s: b }\nbuffer goal = a\n"
            "rule r { goal: t {} ==> modify goal { s: a,\n  s: b } }\n"
        )
        assert (e.span.line, e.span.col) == (6, 3)
        assert "slot s given twice in modify goal" in e.message

    def test_fresh_prefix_is_reserved(self):
        e = self.err("type t { s }\nchunk a : t { s: nil }\nchunk c#0 : t { s: nil }\n")
        assert (e.span.line, e.span.col) == (3, 7)
        assert "reserved for fresh chunk identifiers" in e.message
        e = self.err("type t { s }\nchunk a : t { s: c#1 }\n")
        assert (e.span.line, e.span.col) == (2, 18)

    def test_message_carries_position(self):
        e = self.err("type t {}\nchunk a t {}\n")
        assert str(e).startswith("2:")
