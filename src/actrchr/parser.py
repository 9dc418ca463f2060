"""Parser and printer for the .actr model format.

The format is declaration-oriented::

    type succ { number, successor }
    chunk b : succ { number: 1, successor: 2 }
    dm { 1, 2, b }
    buffer retrieval = b pending
    rule inc {
      goal: g { current: X }
      ==>
      modify goal { current: X }
    }

Capitalised identifiers are rule variables, everything else is a constant.
``#`` starts a line comment unless it glues an identifier to digits
(``c#0``, ``V#0``), which keeps machine-generated names printable; names
starting with ``c#`` are reserved for fresh chunk identifiers.
Symbol resolution problems (unknown types, slots, buffers, chunks) are not
parse errors; they are reported by :func:`actrchr.model.validate`.

The text is lexed in one pass of a single regular expression, each match
one token plus the blanks and comments after it.  A token is a plain
``(kind, text, offset)`` tuple; a :class:`Span` is built only for what
the model keeps (rules, buffer tests, actions) and for a
:class:`ParseError`, by a binary search of a newline table made once per
parse, so parsing stays linear in the length of the text.

Pairs follow :meth:`actrchr.core.TypeTable.ordered`, the slot order of
model text, so ``parse_model(print_model(m)) == m`` for every parsed or
generated model.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .core import FRESH_PREFIX, Chunk, CoreError, NIL, Symbol, TypeTable, Value, Variable
from .model import (
    Action,
    BufferTest,
    MODIFY,
    Model,
    Pair,
    REQUEST,
    Rule,
    Span,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Span) -> None:
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


KEYWORDS = frozenset(
    ["type", "chunk", "dm", "buffer", "rule", "modify", "request", "pending"]
)

#: A token: its kind, its text and the offset of its first character.
Token = tuple[str, str, int]

# Blanks, and comments that a newline ends.  A comment that ends the text
# is left to the ``rest`` alternative, which puts the end of input at its '#'.
_BLANKS = r"[ \t\r\n]*(?:\#[^\n]*\n[ \t\r\n]*)*"
_SKIP = re.compile(_BLANKS)
_NEWLINE = re.compile("\n")
# a keyword is a whole name: no name character and no '#digits' follows
_NAME_END = r"(?![A-Za-z0-9_]|\#[0-9])"
# One token, then the blanks after it; numbers come before identifiers,
# keywords before other names and '==>' before '='.  ``rest`` takes all
# from a character no token starts with, so the matches tile the text.
_TOKEN = re.compile(
    r"(?:(?P<number>[0-9]+)"
    rf"|(?P<kw>(?:{'|'.join(sorted(KEYWORDS))}){_NAME_END})"
    r"|(?P<lident>[a-z_][A-Za-z0-9_]*(?:\#[0-9]+)?)"
    r"|(?P<uident>[A-Z][A-Za-z0-9_]*(?:\#[0-9]+)?)"
    r"|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<colon>:)|(?P<comma>,)"
    r"|(?P<arrow>==>)|(?P<eq>=)"
    r"|(?P<rest>(?s:.+)))" + _BLANKS
)


def _line_starts(text: str) -> list[int]:
    """The offset at which each line of the text starts."""
    return [0] + [m.end() for m in _NEWLINE.finditer(text)]


def _span(starts: list[int], offset: int) -> Span:
    line = bisect_right(starts, offset)
    return Span(line, offset - starts[line - 1] + 1)


def tokenize(text: str) -> list[Token]:
    """The tokens of the text, ending with an ``eof`` token; a character
    that starts no token is a :class:`ParseError`."""
    toks = [
        (kind := m.lastgroup, m[kind], m.start(kind))
        for m in _TOKEN.finditer(text, _SKIP.match(text).end())
    ]
    end = len(text)
    if toks and toks[-1][0] == "rest":
        _, rest, end = toks.pop()
        if rest[0] != "#":  # else a last comment, with no newline after it
            raise ParseError(f"stray character {rest[0]!r}", _span(_line_starts(text), end))
    toks.append(("eof", "", end))
    return toks


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.names: dict[str, Symbol] = {}
        self.starts: list[int] | None = None

    def span(self, offset: int) -> Span:
        if self.starts is None:
            self.starts = _line_starts(self.text)
        return _span(self.starts, offset)

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, self.span(tok[2]))

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise self.error(f"expected {what or kind}, found {tok[1] or 'end of input'!r}", tok)
        self.i += 1
        return tok

    def name(self, what: str) -> Symbol:
        tok = self.toks[self.i]
        kind, text, _ = tok
        # a token's kind follows from its text, so a name met before is a name
        sym = self.names.get(text)
        if sym is None:
            if kind != "lident" and kind != "number":
                raise self.error(f"expected {what}, found {text or 'end of input'!r}", tok)
            if text.startswith(FRESH_PREFIX):
                raise self.error(f"{text!r} is reserved for fresh chunk identifiers", tok)
            sym = self.names[text] = Symbol(text)
        self.i += 1
        return sym

    def type_name(self) -> Symbol:
        # the builtin type is spelt like the declaration keyword
        if self.toks[self.i][:2] == ("kw", "chunk"):
            self.i += 1
            return Symbol("chunk")
        return self.name("a type name")

    def value(self) -> Value:
        kind, text, _ = self.toks[self.i]
        if kind == "uident":
            self.i += 1
            return Variable(text)
        return self.name("a constant or variable")

    def pair_list(self, variables: bool) -> list[tuple[Symbol, Value, int]]:
        """The pairs in braces, each with the offset of its slot name."""
        self.expect("lbrace", "'{'")
        out: list[tuple[Symbol, Value, int]] = []
        while self.toks[self.i][0] != "rbrace":
            offset = self.toks[self.i][2]
            slot = self.name("a slot name")
            self.expect("colon", "':'")
            v = self.value() if variables else self.name("a constant")
            out.append((slot, v, offset))
            if self.toks[self.i][0] == "comma":
                self.i += 1
            else:
                break
        self.expect("rbrace", "'}'")
        return out

    def name_list(self) -> list[Symbol]:
        self.expect("lbrace", "'{'")
        out: list[Symbol] = []
        while self.toks[self.i][0] != "rbrace":
            out.append(self.name("a name"))
            if self.toks[self.i][0] == "comma":
                self.i += 1
            else:
                break
        self.expect("rbrace", "'}'")
        return out

    def single_slots(self, raw: list[tuple[Symbol, Value, int]], where: str) -> dict[Symbol, Value]:
        """The pairs as a dict; a repeated slot is an error at its second pair."""
        given: dict[Symbol, Value] = {}
        for s, v, offset in raw:
            if s in given:
                raise ParseError(f"slot {s} given twice in {where}", self.span(offset))
            given[s] = v
        return given


def parse_model(text: str) -> Model:
    p = _Parser(text)
    types = TypeTable()
    chunks: list[Chunk] = []
    dm: set[Symbol] = set()
    buffers: list[Symbol] = []
    init: list[tuple[Symbol, Symbol, int]] = []
    rules: list[Rule] = []
    rule_names: set[str] = set()

    while (tok := p.advance())[0] != "eof":
        kind, word, _ = tok
        if kind != "kw":
            raise p.error(f"expected a declaration, found {word!r}", tok)
        if word == "type":
            name = p.name("a type name")
            slots = p.name_list()
            try:
                types.declare(name, slots)
            except CoreError as e:
                raise p.error(str(e), tok) from None
        elif word == "chunk":
            id = p.name("a chunk id")
            p.expect("colon", "':'")
            ctype = p.type_name()
            given = p.single_slots(p.pair_list(variables=False), f"chunk {id}")
            # Missing slots become nil; surplus slots stay so validate can point at them.
            if types.has(ctype):
                for s in types.slots(ctype):
                    given.setdefault(s, NIL)
            chunks.append(Chunk(id, ctype, given))
        elif word == "dm":
            dm.update(p.name_list())
        elif word == "buffer":
            b = p.name("a buffer name")
            if b in buffers:
                raise p.error(f"buffer {b} declared twice", tok)
            p.expect("eq", "'='")
            c = p.name("a chunk id")
            delay = 0
            if p.peek()[:2] == ("kw", "pending"):
                p.advance()
                delay = 1
            buffers.append(b)
            init.append((b, c, delay))
        elif word == "rule":
            rname = p.expect("lident", "a rule name")
            if rname[1] in rule_names:
                raise p.error(f"rule {rname[1]} declared twice", rname)
            rule_names.add(rname[1])
            rules.append(_parse_rule(p, types, rname))
        else:
            raise p.error(f"unexpected {word!r}", tok)

    return Model(
        types=types,
        chunks=tuple(sorted(chunks, key=lambda c: c.id.name)),
        dm=tuple(sorted(dm, key=lambda s: s.name)),
        buffers=tuple(buffers),
        init=tuple(init),
        rules=tuple(rules),
    )


def _parse_rule(p: _Parser, types: TypeTable, rname: Token) -> Rule:
    p.expect("lbrace", "'{'")
    tests: list[BufferTest] = []
    while p.peek()[0] != "arrow":
        offset = p.peek()[2]
        buffer = p.name("a buffer name")
        p.expect("colon", "':'")
        ttype = p.type_name()
        raw = p.pair_list(variables=True)
        pairs = types.ordered(ttype, ((s, v) for s, v, _ in raw))
        tests.append(BufferTest(buffer, ttype, pairs, p.span(offset)))
    p.advance()
    actions: list[Action] = []
    while (tok := p.peek())[0] != "rbrace":
        kind, word, offset = tok
        if kind != "kw" or word not in (MODIFY, REQUEST):
            raise p.error(
                f"expected 'modify' or 'request', found {word or 'end of input'!r}", tok
            )
        p.advance()
        buffer = p.name("a buffer name")
        rtype = p.type_name() if word == REQUEST else None
        raw = p.pair_list(variables=True)
        if word == MODIFY:
            # a request may repeat a slot (a conjunction); a modify may not
            p.single_slots(raw, f"modify {buffer}")
        pairs = types.ordered(rtype, ((s, v) for s, v, _ in raw))
        actions.append(Action(word, buffer, rtype, pairs, p.span(offset)))
    p.advance()
    return Rule(rname[1], tuple(tests), tuple(actions), p.span(rname[2]))


# ---------------------------------------------------------------------------
# printing


def _render_pairs(pairs: tuple[Pair, ...]) -> str:
    if not pairs:
        return "{}"
    inner = ", ".join(f"{s.name}: {v.name}" for s, v in pairs)
    return f"{{ {inner} }}"


def print_model(model: Model) -> str:
    """Canonical text for a model; inverse of :func:`parse_model`."""
    lines: list[str] = []
    for t in sorted(model.types.names(), key=lambda s: s.name):
        slots = model.types.slots(t)
        if t.name == "chunk" and not slots:
            continue
        body = _render_pairs(()) if not slots else f"{{ {', '.join(s.name for s in slots)} }}"
        lines.append(f"type {t.name} {body}")
    if lines:
        lines.append("")
    for c in model.chunks:
        lines.append(
            f"chunk {c.id.name} : {c.type.name} "
            f"{_render_pairs(model.types.ordered(c.type, c.pairs))}"
        )
    if model.chunks:
        lines.append("")
    if model.dm:
        lines.append(f"dm {{ {', '.join(s.name for s in model.dm)} }}")
        lines.append("")
    for b, c, d in model.init:
        pending = " pending" if d else ""
        lines.append(f"buffer {b.name} = {c.name}{pending}")
    if model.init:
        lines.append("")
    for r in model.rules:
        lines.append(f"rule {r.name} {{")
        for t in r.tests:
            lines.append(f"  {t.buffer.name}: {t.type.name} {_render_pairs(t.pairs)}")
        lines.append("  ==>")
        for a in r.actions:
            if a.kind == MODIFY:
                lines.append(f"  modify {a.buffer.name} {_render_pairs(a.pairs)}")
            else:
                lines.append(
                    f"  request {a.buffer.name} {a.type.name} {_render_pairs(a.pairs)}"
                )
        lines.append("}")
        lines.append("")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
