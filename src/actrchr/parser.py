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

Pairs follow :meth:`actrchr.core.TypeTable.ordered`, the slot order of
model text, so ``parse_model(print_model(m)) == m`` for every parsed or
generated model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:#[0-9]+)?")
_NUMBER = re.compile(r"[0-9]+")
_PUNCT = {"{": "lbrace", "}": "rbrace", ":": "colon", ",": "comma"}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    span: Span


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
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
        span = Span(line, col)
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            toks.append(Token(_PUNCT[ch], ch, span))
            i += 1
            col += 1
            continue
        if text.startswith("==>", i):
            toks.append(Token("arrow", "==>", span))
            i += 3
            col += 3
            continue
        if ch == "=":
            toks.append(Token("eq", "=", span))
            i += 1
            col += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            toks.append(Token("number", m.group(), span))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group()
            if word in KEYWORDS:
                kind = "kw"
            elif word[0].isupper():
                kind = "uident"
            else:
                kind = "lident"
            toks.append(Token(kind, word, span))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(f"stray character {ch!r}", span)
    toks.append(Token("eof", "", Span(line, col)))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]) -> None:
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or kind
            raise ParseError(f"expected {want}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def name(self, what: str) -> Symbol:
        tok = self.peek()
        if tok.kind not in ("lident", "number"):
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        if tok.text.startswith(FRESH_PREFIX):
            raise ParseError(f"{tok.text!r} is reserved for fresh chunk identifiers", tok.span)
        self.advance()
        return Symbol(tok.text)

    def type_name(self) -> Symbol:
        # the builtin type is spelt like the declaration keyword
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "chunk":
            self.advance()
            return Symbol(tok.text)
        return self.name("a type name")

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "uident":
            self.advance()
            return Variable(tok.text)
        return self.name("a constant or variable")

    def pair_list(self, variables: bool) -> list[tuple[Symbol, Value, Span]]:
        self.expect("lbrace", "'{'")
        out: list[tuple[Symbol, Value, Span]] = []
        while self.peek().kind != "rbrace":
            span = self.peek().span
            slot = self.name("a slot name")
            self.expect("colon", "':'")
            v = self.value() if variables else self.name("a constant")
            out.append((slot, v, span))
            if self.peek().kind == "comma":
                self.advance()
            else:
                break
        self.expect("rbrace", "'}'")
        return out

    def name_list(self) -> list[Symbol]:
        self.expect("lbrace", "'{'")
        out: list[Symbol] = []
        while self.peek().kind != "rbrace":
            out.append(self.name("a name"))
            if self.peek().kind == "comma":
                self.advance()
            else:
                break
        self.expect("rbrace", "'}'")
        return out


def parse_model(text: str) -> Model:
    p = _Parser(tokenize(text))
    types = TypeTable()
    chunks: list[Chunk] = []
    dm: set[Symbol] = set()
    buffers: list[Symbol] = []
    init: list[tuple[Symbol, Symbol, int]] = []
    rules: list[Rule] = []
    rule_names: set[str] = set()

    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "kw":
            raise ParseError(
                f"expected a declaration, found {tok.text!r}", tok.span
            )
        if tok.text == "type":
            p.advance()
            name = p.name("a type name")
            slots = p.name_list()
            try:
                types.declare(name, slots)
            except CoreError as e:
                raise ParseError(str(e), tok.span) from None
        elif tok.text == "chunk":
            p.advance()
            id = p.name("a chunk id")
            p.expect("colon", "':'")
            ctype = p.type_name()
            raw = p.pair_list(variables=False)
            chunks.append(_declared_chunk(types, id, ctype, raw))
        elif tok.text == "dm":
            p.advance()
            dm.update(p.name_list())
        elif tok.text == "buffer":
            p.advance()
            b = p.name("a buffer name")
            if b in buffers:
                raise ParseError(f"buffer {b} declared twice", tok.span)
            p.expect("eq", "'='")
            c = p.name("a chunk id")
            delay = 0
            nxt = p.peek()
            if nxt.kind == "kw" and nxt.text == "pending":
                p.advance()
                delay = 1
            buffers.append(b)
            init.append((b, c, delay))
        elif tok.text == "rule":
            p.advance()
            rname = p.expect("lident", "a rule name")
            if rname.text in rule_names:
                raise ParseError(f"rule {rname.text} declared twice", rname.span)
            rule_names.add(rname.text)
            rules.append(_parse_rule(p, types, rname))
        else:
            raise ParseError(f"unexpected {tok.text!r}", tok.span)

    return Model(
        types=types,
        chunks=tuple(sorted(chunks, key=lambda c: c.id.name)),
        dm=tuple(sorted(dm, key=lambda s: s.name)),
        buffers=tuple(buffers),
        init=tuple(init),
        rules=tuple(rules),
    )


def _single_slots(raw: list[tuple[Symbol, Value, Span]], where: str) -> dict[Symbol, Value]:
    """The pairs as a dict; a repeated slot is an error at its second pair."""
    given: dict[Symbol, Value] = {}
    for s, v, span in raw:
        if s in given:
            raise ParseError(f"slot {s} given twice in {where}", span)
        given[s] = v
    return given


def _declared_chunk(
    types: TypeTable, id: Symbol, ctype: Symbol, raw: list[tuple[Symbol, Value, Span]]
) -> Chunk:
    # Missing slots become nil; surplus slots stay so validate can point at them.
    given = _single_slots(raw, f"chunk {id}")
    if types.has(ctype):
        for s in types.slots(ctype):
            given.setdefault(s, NIL)
    return Chunk(id, ctype, given)


def _parse_rule(p: _Parser, types: TypeTable, rname: Token) -> Rule:
    p.expect("lbrace", "'{'")
    tests: list[BufferTest] = []
    while p.peek().kind != "arrow":
        span = p.peek().span
        buffer = p.name("a buffer name")
        p.expect("colon", "':'")
        ttype = p.type_name()
        raw = p.pair_list(variables=True)
        pairs = types.ordered(ttype, ((s, v) for s, v, _ in raw))
        tests.append(BufferTest(buffer, ttype, pairs, span))
    p.expect("arrow", "'==>'")
    actions: list[Action] = []
    while p.peek().kind != "rbrace":
        tok = p.peek()
        if tok.kind != "kw" or tok.text not in (MODIFY, REQUEST):
            raise ParseError(
                f"expected 'modify' or 'request', found {tok.text or 'end of input'!r}",
                tok.span,
            )
        p.advance()
        buffer = p.name("a buffer name")
        if tok.text == REQUEST:
            rtype: Symbol | None = p.type_name()
        else:
            rtype = None
        raw = p.pair_list(variables=True)
        if tok.text == MODIFY:
            # a request may repeat a slot (a conjunction); a modify may not
            _single_slots(raw, f"modify {buffer}")
        pairs = types.ordered(rtype, ((s, v) for s, v, _ in raw))
        actions.append(Action(tok.text, buffer, rtype, pairs, tok.span))
    p.expect("rbrace", "'}'")
    return Rule(rname.text, tuple(tests), tuple(actions), rname.span)


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
