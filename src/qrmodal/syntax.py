"""Formulas of the labelled systems MSQR and MSpQR.

Two syntactic categories:

  * m-formulas, built from propositions, bot, -> and the three boxes
    ([] over U, [M] over M, [P] over P);
  * formulas, either labelled (``x : A``) or relational (``x U y``,
    ``x M y``, ``x P y``).

Concrete grammar (ASCII, ``#`` starts a comment, whitespace free):

  formula  := ident ":" mformula | ident ("U" | "M" | "P") ident
  mformula := iff
  iff      := imp ( "<->" imp )?
  imp      := disj ( "->" imp )?
  disj     := conj ( "|" conj )*
  conj     := unary ( "&" unary )*
  unary    := ( "~" | "[]" | "[M]" | "[P]" | "<>" | "<M>" | "<P>" )* atom
  atom     := "bot" | ident | "(" mformula ")"

``->`` is right-associative, ``<->`` does not associate.  ``bot``, ``U``,
``M`` and ``P`` are reserved words.  All connectives other than bot, ->
and the boxes are sugar and are expanded while parsing, so an AST only
ever contains Bottom, Prop, Implies and Box nodes:

  ~A      =  A -> bot
  A & B   =  ~(A -> ~B)
  A | B   =  ~A -> B
  A <-> B =  (A -> B) & (B -> A)
  <.> A   =  ~[.]~A        (for each of the three boxes)

``[M]``/``<M>``/``M`` belong to MSQR only, ``[P]``/``<P>``/``P`` to
MSpQR only; parsing with an explicit system rejects the other family
with reason ``wrong-system``.

An m-formula may nest at most ``MAX_DEPTH`` levels, both in its tree
after expansion and in its parentheses; deeper input is rejected with
reason ``too-deep``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class System(enum.Enum):
    MSQR = "MSQR"
    MSPQR = "MSPQR"


class Rel(enum.Enum):
    U = "U"
    M = "M"
    P = "P"


_LEGAL_RELS = {System.MSQR: frozenset((Rel.U, Rel.M)),
               System.MSPQR: frozenset((Rel.U, Rel.P))}


def legal_rels(system: System) -> frozenset[Rel]:
    return _LEGAL_RELS[system]


class MFormula:
    """Base class for m-formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Bottom(MFormula):
    def __str__(self) -> str:
        return print_mformula(self)


@dataclass(frozen=True)
class Prop(MFormula):
    name: str

    def __str__(self) -> str:
        return print_mformula(self)


@dataclass(frozen=True)
class Implies(MFormula):
    left: MFormula
    right: MFormula

    def __str__(self) -> str:
        return print_mformula(self)


@dataclass(frozen=True)
class Box(MFormula):
    rel: Rel
    body: MFormula

    def __str__(self) -> str:
        return print_mformula(self)


BOT = Bottom()


def neg(a: MFormula) -> MFormula:
    return Implies(a, BOT)


def conj(a: MFormula, b: MFormula) -> MFormula:
    return neg(Implies(a, neg(b)))


def disj(a: MFormula, b: MFormula) -> MFormula:
    return Implies(neg(a), b)


def iff(a: MFormula, b: MFormula) -> MFormula:
    return conj(Implies(a, b), Implies(b, a))


def diamond(rel: Rel, a: MFormula) -> MFormula:
    return neg(Box(rel, neg(a)))


class Formula:
    """Base class for labelled and relational formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Labelled(Formula):
    label: str
    body: MFormula

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Relational(Formula):
    left: str
    rel: Rel
    right: str

    def __str__(self) -> str:
        return print_formula(self)


def labels_in(f: Formula) -> frozenset[str]:
    if isinstance(f, Labelled):
        return frozenset((f.label,))
    assert isinstance(f, Relational)
    return frozenset((f.left, f.right))


def props_in(phi: MFormula) -> frozenset[str]:
    if isinstance(phi, Prop):
        return frozenset((phi.name,))
    if isinstance(phi, Implies):
        return props_in(phi.left) | props_in(phi.right)
    if isinstance(phi, Box):
        return props_in(phi.body)
    return frozenset()


def props_in_formula(f: Formula) -> frozenset[str]:
    return props_in(f.body) if isinstance(f, Labelled) else frozenset()


def rels_in(phi: MFormula) -> frozenset[Rel]:
    if isinstance(phi, Implies):
        return rels_in(phi.left) | rels_in(phi.right)
    if isinstance(phi, Box):
        return frozenset((phi.rel,)) | rels_in(phi.body)
    return frozenset()


def rels_in_formula(f: Formula) -> frozenset[Rel]:
    if isinstance(f, Labelled):
        return rels_in(f.body)
    assert isinstance(f, Relational)
    return frozenset((f.rel,))


def well_formed(f: Formula, system: System) -> bool:
    """True when every relation symbol in f belongs to the system."""
    return rels_in_formula(f) <= legal_rels(system)


def substitute(f: Formula, frm: str, to: str) -> Formula:
    """Replace every occurrence of label frm in f by to.

    m-formulas carry no labels, so only the label positions change.
    Zero-occurrence substitution returns f unchanged.
    """
    if frm == to:
        return f
    if isinstance(f, Labelled):
        return Labelled(to, f.body) if f.label == frm else f
    assert isinstance(f, Relational)
    left = to if f.left == frm else f.left
    right = to if f.right == frm else f.right
    if left == f.left and right == f.right:
        return f
    return Relational(left, f.rel, right)


# ---------------------------------------------------------------------------
# printing

_BOX_TOKEN = {Rel.U: "[]", Rel.M: "[M]", Rel.P: "[P]"}


def _render(phi: MFormula, operand: bool) -> str:
    # operand=True puts parentheses around implications
    if isinstance(phi, Implies):
        s = _render(phi.left, True) + " -> " + _render(phi.right, False)
        return "(" + s + ")" if operand else s
    if isinstance(phi, Box):
        boxes = ""
        while isinstance(phi, Box):
            boxes += _BOX_TOKEN[phi.rel]
            phi = phi.body
        if isinstance(phi, Implies):
            return boxes + "(" + _render(phi, False) + ")"
        return boxes + " " + _render(phi, True)
    if isinstance(phi, Prop):
        return phi.name
    assert isinstance(phi, Bottom)
    return "bot"


def print_mformula(phi: MFormula) -> str:
    """Canonical primitive form; parse_mformula inverts it exactly."""
    return _render(phi, False)


def print_formula(f: Formula) -> str:
    if isinstance(f, Labelled):
        return f.label + " : " + print_mformula(f.body)
    assert isinstance(f, Relational)
    return f.left + " " + f.rel.value + " " + f.right


# ---------------------------------------------------------------------------
# parsing

class ParseError(Exception):
    """Rejected input, with a 1-based position and the expected tokens."""

    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = (), reason: str = "syntax"):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        self.reason = reason


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'bot', 'U', 'M', 'P', an operator, or 'end'
    text: str
    line: int
    col: int


_RESERVED = {"bot": "bot", "U": "U", "M": "M", "P": "P"}
_ANGLE = {"<->": "<->", "<>": "<>", "<M>": "<M>", "<P>": "<P>"}
_SQUARE = {"[]": "[]", "[M]": "[M]", "[P]": "[P]"}


def tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token(_RESERVED.get(word, "ident"), word, line, col))
            col += j - i
            i = j
            continue
        if c == "<":
            for op in ("<->", "<M>", "<P>", "<>"):
                if text.startswith(op, i):
                    toks.append(Token(op, op, line, col))
                    i += len(op)
                    col += len(op)
                    break
            else:
                raise ParseError("unexpected '<'", line, col,
                                 expected=("<->", "<>", "<M>", "<P>"))
            continue
        if c == "[":
            for op in ("[M]", "[P]", "[]"):
                if text.startswith(op, i):
                    toks.append(Token(op, op, line, col))
                    i += len(op)
                    col += len(op)
                    break
            else:
                raise ParseError("unexpected '['", line, col,
                                 expected=("[]", "[M]", "[P]"))
            continue
        if c == "-":
            if text.startswith("->", i):
                toks.append(Token("->", "->", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("unexpected '-'", line, col, expected=("->",))
        if c in "()~&|:":
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    toks.append(Token("end", "", line, col))
    return toks


_UNARY = ("~", "[]", "[M]", "[P]", "<>", "<M>", "<P>")
_MSQR_ONLY = ("[M]", "<M>", "M")
_MSPQR_ONLY = ("[P]", "<P>", "P")

# The deepest nesting a parsed m-formula may have, counted both in its
# syntax tree once sugar is expanded and in its parentheses.  hash, ==,
# printing and checking recurse once or twice per tree level, and the
# parser six times per parenthesis, so at this depth none of them needs
# more than about 600 of the 1000 frames Python allows by default.
MAX_DEPTH = 100


class _Parser:
    # each rule returns a formula and the height of its syntax tree
    def __init__(self, toks: list[Token], system: Optional[System]):
        self.toks = toks
        self.i = 0
        self.system = system
        self.parens = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def take(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        t = self.peek()
        found = "end of input" if t.kind == "end" else repr(t.text)
        want = " or ".join(expected)
        return ParseError("expected %s, found %s" % (want, found),
                          t.line, t.col, expected=expected)

    def too_deep(self) -> ParseError:
        t = self.peek()
        return ParseError("formula nested deeper than %d levels" % MAX_DEPTH,
                          t.line, t.col, reason="too-deep")

    def nest(self, height: int) -> int:
        if height > MAX_DEPTH:
            raise self.too_deep()
        return height

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            raise self.fail((kind,))
        return self.take()

    def gate(self, t: Token) -> None:
        # vocabulary restricted to the requested system
        if self.system is System.MSPQR and t.kind in _MSQR_ONLY:
            raise ParseError("%r is not in the MSPQR vocabulary" % t.text,
                             t.line, t.col, reason="wrong-system")
        if self.system is System.MSQR and t.kind in _MSPQR_ONLY:
            raise ParseError("%r is not in the MSQR vocabulary" % t.text,
                             t.line, t.col, reason="wrong-system")

    def mformula(self) -> tuple[MFormula, int]:
        first = self.imp()
        if self.peek().kind != "<->":
            return first
        self.take()
        (a, h), (b, hb) = first, self.imp()
        return iff(a, b), self.nest((h if h > hb else hb) + 4)

    def imp(self) -> tuple[MFormula, int]:
        # right-associative, folded from the right without recursion
        first = self.disj()
        if self.peek().kind != "->":
            return first
        parts = [first]
        while True:
            if len(parts) > MAX_DEPTH:  # each arrow nests one level
                raise self.too_deep()
            self.take()
            parts.append(self.disj())
            if self.peek().kind != "->":
                break
        a, h = parts.pop()
        while parts:
            b, hb = parts.pop()
            a, h = Implies(b, a), (hb if hb > h else h) + 1
        return a, self.nest(h)

    def disj(self) -> tuple[MFormula, int]:
        first = self.conj()
        if self.peek().kind != "|":
            return first
        a, h = first
        while True:
            self.take()
            b, hb = self.conj()
            a, h = disj(a, b), self.nest(h + 2 if h >= hb else hb + 1)
            if self.peek().kind != "|":
                return a, h

    def conj(self) -> tuple[MFormula, int]:
        first = self.unary()
        if self.peek().kind != "&":
            return first
        a, h = first
        while True:
            self.take()
            b, hb = self.unary()
            a, h = conj(a, b), self.nest(h + 2 if h > hb else hb + 3)
            if self.peek().kind != "&":
                return a, h

    def unary(self) -> tuple[MFormula, int]:
        ops = []
        while self.peek().kind in _UNARY:
            if len(ops) == MAX_DEPTH:  # each prefix nests a level or more
                raise self.too_deep()
            t = self.take()
            self.gate(t)
            ops.append(t.kind)
        if not ops:
            return self.atom()
        a, h = self.atom()
        for op in reversed(ops):
            if op == "~":
                a, h = neg(a), h + 1
            elif op in _SQUARE:
                a, h = Box(_REL_OF_BOX[op], a), h + 1
            else:
                a, h = diamond(_REL_OF_DIA[op], a), h + 3
        return a, self.nest(h)

    def atom(self) -> tuple[MFormula, int]:
        t = self.peek()
        if t.kind == "bot":
            self.take()
            return BOT, 0
        if t.kind == "ident":
            self.take()
            return Prop(t.text), 0
        if t.kind == "(":
            if self.parens == MAX_DEPTH:
                raise self.too_deep()
            self.take()
            self.parens += 1
            a = self.mformula()
            self.expect(")")
            self.parens -= 1
            return a
        raise self.fail(("identifier", "bot", "("))

    def end(self) -> None:
        if self.peek().kind != "end":
            raise self.fail(("end of input",))


_REL_OF_BOX = {"[]": Rel.U, "[M]": Rel.M, "[P]": Rel.P}
_REL_OF_DIA = {"<>": Rel.U, "<M>": Rel.M, "<P>": Rel.P}


def parse_mformula(text: str, system: Optional[System] = None) -> MFormula:
    """Parse an m-formula with all sugar expanded away.

    A system restricts the vocabulary; None accepts both families.
    """
    p = _Parser(tokenize(text), system)
    a, _ = p.mformula()
    p.end()
    return a


def parse_formula(text: str, system: Optional[System] = None) -> Formula:
    """Parse a labelled or relational formula."""
    p = _Parser(tokenize(text), system)
    t = p.peek()
    if t.kind != "ident":
        raise p.fail(("identifier",))
    p.take()
    k = p.peek()
    if k.kind == ":":
        p.take()
        body, _ = p.mformula()
        p.end()
        return Labelled(t.text, body)
    if k.kind in ("U", "M", "P"):
        p.take()
        p.gate(k)
        r = p.expect("ident")
        p.end()
        return Relational(t.text, Rel(k.kind), r.text)
    raise p.fail((":", "U", "M", "P"))
