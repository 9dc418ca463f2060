"""Surface syntax: lexing, parsing, printing and their round trips."""

import hashlib
import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

import actrchr.parser
from actrchr.core import Symbol, Variable
from actrchr.model import MODIFY, REQUEST, Span
from actrchr.modelgen import random_model
from actrchr.parser import KEYWORDS, ParseError, parse_model, print_model, tokenize


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
        toks = [text for kind, text, _ in tokenize("chunk c#0") if kind != "eof"]
        assert toks == ["chunk", "c#0"]

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

    def test_a_byte_order_mark_is_a_stray_character(self, counting_src):
        e = self.err("\ufeff" + counting_src)
        assert (e.message, e.span) == ("stray character '\\ufeff'", Span(1, 1))
        e = self.err(counting_src.replace("dm {", "dm \ufeff{"))
        assert e.message == "stray character '\\ufeff'" and e.span.col == 4


# ---------------------------------------------------------------------------
# the lexer and parser against a reference


REF_PUNCT = {"{": "lbrace", "}": "rbrace", ":": "colon", ",": "comma"}
REF_NUMBER = re.compile(r"[0-9]+")
REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:#[0-9]+)?")


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """A character-at-a-time lexer of the same grammar, kept as the
    reference: ``(kind, text, line, col)`` for every token."""
    toks: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            # the column is not advanced: a comment ending the text puts
            # the end of input at its '#'
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in REF_PUNCT:
            toks.append((REF_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("==>", i):
            toks.append(("arrow", "==>", line, col))
            i += 3
            col += 3
            continue
        if ch == "=":
            toks.append(("eq", "=", line, col))
            i += 1
            col += 1
            continue
        m = REF_NUMBER.match(text, i)
        if m:
            toks.append(("number", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = REF_IDENT.match(text, i)
        if m:
            word = m.group()
            if word in KEYWORDS:
                kind = "kw"
            elif word[0].isupper():
                kind = "uident"
            else:
                kind = "lident"
            toks.append((kind, word, line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(f"stray character {ch!r}", Span(line, col))
    toks.append(("eof", "", line, col))
    return toks


def line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def lexed(lex, text: str):
    try:
        return lex(text)
    except ParseError as e:
        return ("error", e.message, e.span)


def outcome(text: str) -> str:
    """The model with every span it keeps, or the parse error; anything
    else escapes."""
    try:
        m = parse_model(text)
    except ParseError as e:
        return f"error {e.span} {e.message}"
    spans = [
        (str(r.span), [str(t.span) for t in r.tests], [str(a.span) for a in r.actions])
        for r in m.rules
    ]
    return f"model {m!r} {spans}"


def corpus_texts() -> list[str]:
    """The benchmark corpus, its seed-7 relabelling and the counting model."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        corpus = workloads.WORKLOADS["corpus-check"]
        texts = workloads.model_texts(corpus, 0) + workloads.model_texts(corpus, 7)
    finally:
        del sys.modules[spec.name]
    return texts + [(Path(__file__).parents[1] / "models" / "counting.actr").read_text()]


def mutants(texts: list[str], n: int, seed: int) -> list[str]:
    """Seeded edits, one to three per text: inserted blanks and comments,
    inserted characters and words, deleted runs, copied slices, cut tails."""
    rng = random.Random(seed)
    pieces = list("aX7_{}:,=>@$\ufeff\x0c") + ["==>", "c#0", "V#1", "rule", "pending"]
    blanks = [" ", "\t", "\r", "\n", "\n\n  ", "# note\n", " #"]
    out = []
    for _ in range(n):
        t = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(t) + 1)
            op = rng.random()
            if op < 0.4:
                t = t[:i] + rng.choice(blanks) + t[i:]
            elif op < 0.6:
                t = t[:i] + rng.choice(pieces) + t[i:]
            elif op < 0.8:
                t = t[:i] + t[i + rng.randint(1, 4):]
            elif op < 0.97:
                j = rng.randrange(len(t) + 1)
                t = t[:i] + t[min(i, j):max(i, j)] + t[i:]
            else:
                t = t[:i]
        out.append(t)
    return out


@pytest.fixture(scope="module")
def differential_texts() -> list[str]:
    texts = corpus_texts()
    return texts + mutants(texts, 2000, seed=19)


# parse errors among the outcomes, and their sha256, from the character-loop parser
ERRORS, DIGEST = 1668, "11ab96d90132bea3"


class TestAgainstTheReference:
    def test_tokens_are_the_reference_tokens(self, differential_texts):
        errors = 0
        for text in differential_texts:
            want = lexed(reference_tokenize, text)
            got = lexed(tokenize, text)
            if got[0] != "error":
                got = [(kind, word, *line_col(text, offset)) for kind, word, offset in got]
            assert got == want, text
            errors += want[0] == "error"
        assert 100 < errors < 1000  # stray characters

    def test_outcomes_are_pinned(self, differential_texts):
        # every text gives a model or a ParseError, never another exception;
        # models, kept spans, error messages and error spans are the
        # character-loop parser's (the sha256 of its outcomes)
        outcomes = [outcome(text) for text in differential_texts]
        assert len(outcomes) == 2401
        assert sum(o.startswith("error") for o in outcomes) == ERRORS
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest[:16] == DIGEST


class TestSpans:
    def test_a_long_model_keeps_its_last_spans(self):
        rules = [
            f"# rule {i}\nrule r{i} {{\n  goal: t {{ s: X }}\n  ==>\n  modify goal {{ s: X }}\n}}\n"
            for i in range(4000)
        ]
        head = "type t { s }\nchunk a : t { s: a }\nbuffer goal = a\n"
        m = parse_model(head + "".join(rules))
        last = m.rules[-1]
        assert last.name == "r3999"
        first_line = 3 + 6 * 3999 + 2
        assert (last.span, last.tests[0].span, last.actions[0].span) == (
            Span(first_line, 6), Span(first_line + 1, 3), Span(first_line + 3, 3)
        )
        broken = head + "".join(rules) + "rule late { goal: t { s: X } ==> modify goal { s X } }"
        with pytest.raises(ParseError) as info:
            parse_model(broken)
        assert (info.value.span, info.value.message) == (
            Span(3 + 6 * 4000 + 1, 50), "expected ':', found 'X'"
        )

    def test_spans_are_made_for_kept_elements_only(self, monkeypatch, counting_src):
        texts = [counting_src] + [print_model(random_model(random.Random(i))) for i in range(20)]
        made = []

        def counted(line, col):
            made.append((line, col))
            return Span(line, col)

        monkeypatch.setattr(actrchr.parser, "Span", counted)
        models = [parse_model(text) for text in texts]
        kept = sum(1 + len(r.tests) + len(r.actions) for m in models for r in m.rules)
        assert len(made) == kept
        assert kept < sum(len(tokenize(text)) for text in texts) / 5
