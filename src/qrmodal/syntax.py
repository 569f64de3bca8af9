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
reason ``too-deep``.  Its expanded tree may have at most ``MAX_SIZE``
nodes; a larger one is rejected with reason ``too-large``.  Each nested
``<->`` doubles the tree, so a short text can reach this cap.

Reading a text takes two passes.  ``tokenize`` runs one compiled
pattern over the text with ``findall``.  Each match is a token and the
blanks and comments after it.  A token is a word (a run of letters,
digits and ``_``), an operator, or any other single character that is
not blank.  The blanks are space, tab, CR and LF (``BLANKS``), here and
in every line-oriented reader.  One dict lookup classifies operators
and reserved words.  Any other word is an identifier when it starts
with a letter or ``_`` (``is_identifier`` applies the same test to a
whole field); everything else is refused.  Tokens are plain
``(kind, text)`` pairs.  The line and column of a token are computed
only when a ParseError is raised, by scanning the text again up to
that token.  The parser reads the tokens by index.  One loop per
parenthesis level reads the operands and closes each binary operator
level as soon as the next token ends it.
"""

from __future__ import annotations

import enum
import itertools
import re
from typing import Iterator, NoReturn, Optional


class System(enum.Enum):
    MSQR = "MSQR"
    MSPQR = "MSPQR"


class Rel(enum.Enum):
    U = "U"
    M = "M"
    P = "P"


# The relation each system measures with; U belongs to both.  The
# parser's gate, well_formed, Frame and model files all read this table.
MEASUREMENT = {System.MSQR: Rel.M, System.MSPQR: Rel.P}
_LEGAL_RELS = {system: frozenset((Rel.U, rel))
               for system, rel in MEASUREMENT.items()}


def legal_rels(system: System) -> frozenset[Rel]:
    return _LEGAL_RELS[system]


# A Record sets its fields in __init__ through object.__setattr__,
# because its own __setattr__ refuses every assignment.  The formula
# nodes, built by the thousand while parsing, call it under this
# module-level name, which is faster to look up.
_set = object.__setattr__


class Record:
    """Base class of immutable values.

    A subclass lists its fields in __slots__ and sets them in its
    __init__ through object.__setattr__.  Two records are == when
    they are of the same class and their fields are ==; the hash is
    that of the tuple of fields.  Assigning a field raises
    AttributeError.  Copies and pickles are rebuilt through __init__,
    which takes the fields in __slots__ order.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))

    def __reduce__(self):
        return type(self), self._fields()


# Formula nodes are compared and hashed throughout the kernel and the
# search, so each spells out its == and hash over its fields, with the
# values the Record methods would give, without their generic field
# walk.  == compares tuples of fields, and a tuple comparison skips,
# by identity, the subformulas two formulas share.

class MFormula(Record):
    """Base class for m-formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_mformula(self)


class Bottom(MFormula):
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is Bottom or NotImplemented

    def __hash__(self):
        return hash(())


class Prop(MFormula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not Prop:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((self.name,))


class Implies(MFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: MFormula, right: MFormula):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is not Implies:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))


class Box(MFormula):
    __slots__ = ("rel", "body")

    def __init__(self, rel: Rel, body: MFormula):
        _set(self, "rel", rel)
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is not Box:
            return NotImplemented
        return (self.rel, self.body) == (other.rel, other.body)

    def __hash__(self):
        return hash((self.rel, self.body))


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


class Formula(Record):
    """Base class for labelled and relational formulas."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


class Labelled(Formula):
    __slots__ = ("label", "body")

    def __init__(self, label: str, body: MFormula):
        _set(self, "label", label)
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is not Labelled:
            return NotImplemented
        return (self.label, self.body) == (other.label, other.body)

    def __hash__(self):
        return hash((self.label, self.body))


class Relational(Formula):
    __slots__ = ("left", "rel", "right")

    def __init__(self, left: str, rel: Rel, right: str):
        _set(self, "left", left)
        _set(self, "rel", rel)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is not Relational:
            return NotImplemented
        return ((self.left, self.rel, self.right)
                == (other.left, other.rel, other.right))

    def __hash__(self):
        return hash((self.left, self.rel, self.right))


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

class InputError(Exception):
    """Base class of the errors that refuse an input: a text that does
    not parse (ParseError), a model or query the semantics cannot take
    (semantics.SemanticsError), a search bound out of range
    (search.SearchError), or a command-line argument or file the
    command line cannot use.  The command line reports each one as an
    "error:" line and exit status 2, and no other exception so."""


class ParseError(InputError):
    """Rejected input, with a 1-based position and the expected tokens."""

    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = (), reason: str = "syntax"):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        self.reason = reason


# The blanks that separate tokens, and the fields of a script, model or
# assumption line.  Every reader takes these and no other blank, so a
# no-break space or a form feed is an ordinary character everywhere.
BLANKS = " \t\r\n"
BLANK = "[%s]" % re.escape(BLANKS)
NOT_BLANK = "[^%s]" % re.escape(BLANKS)
_FIELD = re.compile(NOT_BLANK + "+")
# blanks and comments
_SKIP = r"%s*(?:#[^\n]*%s*)*" % (BLANK, BLANK)
_LEADING = re.compile(_SKIP)
# one token and what follows it up to the next; the last alternative
# takes any other character, which tokenize then refuses
_WORD = r"\w+"
_TOKEN = re.compile(r"(%s|<->|<[MP]?>|\[[MP]?\]|->|%s)" % (_WORD, NOT_BLANK)
                    + _SKIP)
# the kind of each operator and reserved word; other words are identifiers
_KIND = {w: w for w in ("bot", "U", "M", "P", "<->", "<>", "<M>", "<P>",
                        "[]", "[M]", "[P]", "->", "(", ")", "~", "&", "|",
                        ":")}
_END = ("end", "")
# what a stray character could have begun
_PARTIAL = {"<": ("<->", "<>", "<M>", "<P>"), "[": ("[]", "[M]", "[P]"),
            "-": ("->",)}


def split_fields(text: str) -> list[str]:
    """The blank-separated fields of text."""
    return _FIELD.findall(text)


def _starts_identifier(c: str) -> bool:
    # a word token that starts so and is not reserved is an identifier
    return c.isalpha() or c == "_"


def is_identifier(word: str) -> bool:
    """Whether word is read as one identifier token: a word of letters,
    digits and "_" that starts with a letter or "_" and is not a
    reserved word."""
    return (re.fullmatch(_WORD, word) is not None and word not in _KIND
            and _starts_identifier(word[0]))


def tokenize(text: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of text, then ("end", "").

    A kind is an operator, "bot", "U", "M", "P" or "ident".
    """
    words = _TOKEN.findall(text, _LEADING.match(text).end())
    toks = [(_KIND.get(w) or ("ident" if _starts_identifier(w[0])
                              else _unexpected(text, words)), w)
            for w in words]
    toks.append(_END)
    return toks


def _unexpected(text: str, words: list[str]) -> NoReturn:
    # the first word that is neither a known token nor an identifier
    i = next(i for i, w in enumerate(words)
             if w not in _KIND and not _starts_identifier(w[0]))
    c = words[i][0]
    if c in _PARTIAL:
        raise _error(text, i, "unexpected %r" % c, _PARTIAL[c])
    raise _error(text, i, "unexpected character %r" % c)


def _error(text: str, index: int, message: str,
           expected: tuple[str, ...] = (), reason: str = "syntax"
           ) -> ParseError:
    """A ParseError at token number index of text.

    Positions are found only here, by scanning the text again.  The end
    token sits after the text, or at the '#' of a comment on its last
    line.
    """
    tokens = _TOKEN.finditer(text, _LEADING.match(text).end())
    m = next(itertools.islice(tokens, index, None), None)
    if m is not None:
        offset = m.start()
    else:
        offset = text.find("#", text.rfind("\n") + 1)
        if offset < 0:
            offset = len(text)
    col = offset - text.rfind("\n", 0, offset)
    return ParseError(message, text.count("\n", 0, offset) + 1, col,
                      expected, reason)


_PREFIX = frozenset(("~", "[]", "[M]", "[P]", "<>", "<M>", "<P>"))
_REL_OF_BOX = {"[]": Rel.U, "[M]": Rel.M, "[P]": Rel.P}
_REL_OF_DIA = {"<>": Rel.U, "<M>": Rel.M, "<P>": Rel.P}
_REL = {"U": Rel.U, "M": Rel.M, "P": Rel.P}
# per system, the tokens that name a relation outside its vocabulary
_FOREIGN = {None: frozenset(), **{
    system: frozenset(tok for table in (_REL_OF_BOX, _REL_OF_DIA, _REL)
                      for tok, rel in table.items() if rel not in legal)
    for system, legal in _LEGAL_RELS.items()}}

# The deepest nesting a parsed m-formula may have, counted both in its
# syntax tree once sugar is expanded and in its parentheses.  hash, ==,
# printing and checking recurse up to three times per tree level, and
# the parser twice per parenthesis, so at this depth none of them needs
# more than about 310 of the 1000 frames Python allows by default.
MAX_DEPTH = 100
# The most nodes the syntax tree of a parsed m-formula may have once
# sugar is expanded.  "<->" copies both of its sides, so without this
# cap each further nesting of it would double the work of hash, ==,
# printing and checking.  The largest formula of the bundled corpus has
# 15 nodes, and the largest of the perfbench inputs 319.
MAX_SIZE = 10_000


class _Parser:
    """Recursive descent over the tokens of one text.

    A rule starts at a token index and returns the formula, the height
    and the node count of its expanded syntax tree, and the index after
    it.  Errors name a token index; _error finds its position.
    """

    def __init__(self, text: str, toks: list[tuple[str, str]],
                 system: Optional[System]):
        self.text = text
        self.toks = toks
        self.system = system
        self.foreign = _FOREIGN[system]
        self.parens = 0

    def fail(self, i: int, expected: tuple[str, ...]) -> ParseError:
        kind, word = self.toks[i]
        found = "end of input" if kind == "end" else repr(word)
        want = " or ".join(expected)
        return _error(self.text, i, "expected %s, found %s" % (want, found),
                      expected)

    def too_deep(self, i: int) -> ParseError:
        return _error(self.text, i, "formula nested deeper than %d levels"
                      % MAX_DEPTH, reason="too-deep")

    def capped(self, height: int, i: int) -> ParseError:
        # a tree over MAX_DEPTH or MAX_SIZE; depth is reported first
        if height > MAX_DEPTH:
            return self.too_deep(i)
        return _error(self.text, i, "formula expands to more than %d nodes"
                      % MAX_SIZE, reason="too-large")

    def gate(self, i: int) -> None:
        # vocabulary restricted to the requested system
        word = self.toks[i][1]
        if word in self.foreign:
            raise _error(self.text, i, "%r is not in the %s vocabulary"
                         % (word, self.system.value), reason="wrong-system")

    def end(self, i: int) -> None:
        if self.toks[i][0] != "end":
            raise self.fail(i, ("end of input",))

    def mformula(self, i: int) -> tuple[MFormula, int, int, int]:
        # mformula := imp ("<->" imp)?   imp := disj ("->" disj)*
        # disj := conj ("|" conj)*        conj := unary ("&" unary)*
        # One turn of the loop reads one operand, then closes every level
        # that the token after it ends, so an operand costs no call per
        # level.  "->" is folded from the right once its chain ends.
        toks = self.toks
        left = None  # the left side of "<->", once read
        arrows: list[tuple[MFormula, int, int]] = []  # chain before "->"
        d = c = None  # the open disjunction and conjunction
        while True:
            kind, word = toks[i]
            if kind == "ident":
                a, h, n = Prop(word), 0, 1
                i += 1
            else:
                a, h, n, i = self.unary(i)
            if c is not None:
                ca, ch, cn = c
                a, h, n = conj(ca, a), ch + 2 if ch > h else h + 3, cn + n + 5
                if h > MAX_DEPTH or n > MAX_SIZE:
                    raise self.capped(h, i)
            kind = toks[i][0]
            if kind == "&":
                c = a, h, n
                i += 1
                continue
            c = None
            if d is not None:
                da, dh, dn = d
                a, h, n = disj(da, a), dh + 2 if dh >= h else h + 1, dn + n + 3
                if h > MAX_DEPTH or n > MAX_SIZE:
                    raise self.capped(h, i)
            if kind == "|":
                d = a, h, n
                i += 1
                continue
            d = None
            if kind == "->":
                if len(arrows) == MAX_DEPTH:  # each arrow nests one level
                    raise self.too_deep(i)
                arrows.append((a, h, n))
                i += 1
                continue
            if arrows:
                while arrows:
                    b, hb, nb = arrows.pop()
                    a, h, n = Implies(b, a), (hb if hb > h else h) + 1, \
                        nb + n + 1
                if h > MAX_DEPTH or n > MAX_SIZE:
                    raise self.capped(h, i)
            if left is not None:
                b, hb, nb = left
                a, h, n = iff(b, a), (hb if hb > h else h) + 4, \
                    2 * (nb + n) + 7
                if h > MAX_DEPTH or n > MAX_SIZE:
                    raise self.capped(h, i)
                return a, h, n, i
            if kind != "<->":
                return a, h, n, i
            left = a, h, n
            i += 1

    def unary(self, i: int) -> tuple[MFormula, int, int, int]:
        # prefix operators, then an atom: "bot", an identifier or
        # "(" mformula ")"
        toks = self.toks
        start = i
        kind, word = toks[i]
        while kind in _PREFIX:
            if i - start == MAX_DEPTH:  # each prefix nests a level or more
                raise self.too_deep(i)
            self.gate(i)
            i += 1
            kind, word = toks[i]
        ops = i
        if kind == "ident":
            a, h, n = Prop(word), 0, 1
            i += 1
        elif kind == "bot":
            a, h, n = BOT, 0, 1
            i += 1
        elif kind == "(":
            if self.parens == MAX_DEPTH:
                raise self.too_deep(i)
            self.parens += 1
            a, h, n, i = self.mformula(i + 1)
            if toks[i][0] != ")":
                raise self.fail(i, (")",))
            self.parens -= 1
            i += 1
        else:
            raise self.fail(i, ("identifier", "bot", "("))
        if ops == start:
            return a, h, n, i
        for k in range(ops - 1, start - 1, -1):
            op = toks[k][0]
            if op == "~":
                a, h, n = neg(a), h + 1, n + 2
            elif op in _REL_OF_BOX:
                a, h, n = Box(_REL_OF_BOX[op], a), h + 1, n + 1
            else:
                a, h, n = diamond(_REL_OF_DIA[op], a), h + 3, n + 5
        if h > MAX_DEPTH or n > MAX_SIZE:
            raise self.capped(h, i)
        return a, h, n, i


def parse_mformula(text: str, system: Optional[System] = None) -> MFormula:
    """Parse an m-formula with all sugar expanded away.

    A system restricts the vocabulary; None accepts both families.
    """
    p = _Parser(text, tokenize(text), system)
    a, _, _, i = p.mformula(0)
    p.end(i)
    return a


def parse_formula(text: str, system: Optional[System] = None) -> Formula:
    """Parse a labelled or relational formula."""
    toks = tokenize(text)
    p = _Parser(text, toks, system)
    kind, label = toks[0]
    if kind != "ident":
        raise p.fail(0, ("identifier",))
    kind = toks[1][0]
    if kind == ":":
        body, _, _, i = p.mformula(2)
        p.end(i)
        return Labelled(label, body)
    if kind in _REL:
        p.gate(1)
        if toks[2][0] != "ident":
            raise p.fail(2, ("ident",))
        p.end(3)
        return Relational(label, _REL[kind], toks[2][1])
    raise p.fail(1, (":", "U", "M", "P"))


# ---------------------------------------------------------------------------
# line-oriented input

class Line:
    """A nonblank line of a script, model or assumption file: its
    number, its text from the first nonblank character up to any "#"
    comment, stripped, and the offset of that character on the line."""

    __slots__ = ("number", "text", "start")

    def __init__(self, number: int, text: str, start: int):
        self.number = number
        self.text = text
        self.start = start

    def error(self, message: str, field: int = 0,
              reason: str = "syntax") -> ParseError:
        """A ParseError at the blank-separated field number field."""
        at = [m.start() for m in _FIELD.finditer(self.text)][field]
        return ParseError(message, self.number, self.start + at + 1,
                          reason=reason)

    def formula(self, where: str = "", at: int = 0, end: Optional[int] = None,
                *args: object, system: Optional[System] = None) -> Formula:
        """The formula in text[at:end]; errors start with where % args."""
        try:
            return parse_formula(self.text[at:end], system)
        except ParseError as e:
            raise ParseError(where % args + e.message, self.number,
                             self.start + at + e.col, e.expected,
                             e.reason) from None

    def system(self) -> System:
        """The system that a system line names."""
        fields = split_fields(self.text)
        if fields not in (["system", "MSQR"], ["system", "MSPQR"]):
            raise self.error("expected 'system MSQR' or 'system MSPQR'")
        return System(fields[1])


def read_lines(text: str) -> Iterator[Line]:
    """Nonblank lines; they end at "\\n" only, as the tokenizer counts."""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.lstrip(BLANKS)
        if stripped:
            yield Line(number, stripped.rstrip(BLANKS),
                       len(line) - len(stripped))
