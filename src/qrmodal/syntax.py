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
``<->`` doubles the tree, so a short text can reach this cap.  Each
node carries its height and size, and the parser checks each node it
builds against both caps.

Reading a text starts with ``tokenize``, unless it is a formula of a
proof script that needs no tokens (see below).  ``tokenize`` runs one
compiled pattern over the text with ``findall``.  Each match is a
token and the blanks and comments after it.  A token is a word (a run
of letters, digits and ``_``), an operator, or any other single
character that is not blank.  The blanks are space, tab, CR and LF
(``BLANKS``), here and in every line-oriented reader.  A token is its
text, and the list ends with ``""``, the end token.  The operators,
the reserved words and ``""`` make up ``_RESERVED``; every other token
must start with a letter or ``_`` and is an identifier
(``is_identifier`` applies the same test to a whole field), and a text
with any other token is refused.  The line and column of a token are
computed only when a ParseError is raised, by scanning the text again
up to that token.  The parser reads the tokens by index and compares
their texts.  One loop per parenthesis level reads the operands and
closes each binary operator level as soon as the next token ends it.

A proof script restates the formulas of earlier steps inside later
ones, so ``script.parse_script`` hands every formula of one script the
same memo, a dict from the text of each parenthesised group read so
far to its node.  The memo is asked before the formula is tokenized,
first for the outermost group: when the text ends with a ``)``, the
text from its first ``(`` to that ``)`` is looked up, and a hit is
cut to ``()`` without visiting the parentheses inside it.  Otherwise
one pass over the text finds each ``(``'s matching ``)``, and each
group whose text the memo holds is cut to ``()``, unless it lies in a
group cut already.  Only the rest is tokenized and parsed; the parser
takes the node of each group cut by the order of its ``(``, and
enters each group it reads under the group's text.  So equal groups
of one script are one object once a formula has held them, and a
group restated with other blanks is read again: its node is equal,
not shared.  A text whose parentheses do not balance or nest deeper
than ``MAX_DEPTH`` is always refused, and is read without the memo.
Any refusal is read again without the memo, so its message and
position are those of the formula alone.  Only groups that parse
enter the memo.

A text without a ``(`` is not scanned.  When it holds a ``:``, the
text after its first ``:`` is the body, and the body's text is a key
too: a formula whose body the memo holds and whose label field, with
blanks stripped, is one identifier is that label and the memo's node.
Otherwise the text is read whole, and a body that parses enters the
memo.  A parenthesis-free key has no parenthesis depth, so body keys
and group keys share the memo.  A text of three fields, an
identifier, ``U``, ``M`` or ``P`` and an identifier, is that
relational formula.  Every other text is tokenized and parsed, and
the parser alone names a refusal.  The memo serves one system and
texts without comments: parse_script reads every formula with system
None, from lines that hold no comment or have had it cut as read_line
cuts it.
"""

from __future__ import annotations

import collections
import enum
import itertools
import re
from typing import Iterable, Iterator, Optional


# Members are singletons and compare by identity, so they hash by it
# too, in C: the kernel and the search hash them, inside Box and
# Relational values and as keys of the tables below.
class System(enum.Enum):
    MSQR = "MSQR"
    MSPQR = "MSPQR"
    __hash__ = object.__hash__


class Rel(enum.Enum):
    U = "U"
    M = "M"
    P = "P"
    __hash__ = object.__hash__


# The relation each system measures with; U belongs to both.  The
# parser's gate, well_formed (and so the kernel, holds and the search),
# evaluate, Frame and model files all read this table.
MEASUREMENT = {System.MSQR: Rel.M, System.MSPQR: Rel.P}
_LEGAL_RELS = {system: frozenset((Rel.U, rel))
               for system, rel in MEASUREMENT.items()}

# Each relation's bit in the relation mask that every m-formula node
# carries, and per system the bits of the relations outside it.
REL_BIT = {rel: 1 << i for i, rel in enumerate(Rel)}
_FOREIGN_BITS = {system: sum(REL_BIT[rel] for rel in Rel if rel not in legal)
                 for system, legal in _LEGAL_RELS.items()}


def legal_rels(system: System) -> frozenset[Rel]:
    return _LEGAL_RELS[system]


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The field descriptors of one namedtuple: _ITEM[i] reads item i of any
# tuple, in C, and refuses assignment.  Records read their fields, and
# the hidden elements that formula nodes carry, through these.
_Items = collections.namedtuple("_Items", ["i%d" % i for i in range(8)])
_ITEM = tuple(getattr(_Items, name) for name in _Items._fields)


class Record(tuple):
    """Base class of immutable values.

    A value is the tuple of its class and then its fields, which its
    class names once, as the arguments of its __new__; they are read by
    index, through the C field descriptors of a namedtuple.  So a value
    is built by one tuple.__new__ call, and == and hash are the tuple's,
    which run in C and skip, by identity, the parts two values share.
    Since the class comes first, values of different classes are never
    equal, no value equals the plain tuple of its fields, and every
    value is true.  Values are not ordered: < between two of them raises
    TypeError.  Assigning a field raises AttributeError.  repr, copy and
    pickle read the fields alone and rebuild through __new__, which also
    takes them by keyword.  The tuple layout is private: read a value
    through its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__new__" in cls.__dict__:
            code = cls.__new__.__code__
            cls.__match_args__ = code.co_varnames[1:code.co_argcount]
            for i, name in enumerate(cls.__match_args__, 1):
                setattr(cls, name, _ITEM[i])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % field for field in zip(self.__match_args__, self[1:])))

    def __reduce__(self):
        return type(self), self[1:len(self.__match_args__) + 1]


class MFormula(Record):
    """Base class for m-formula nodes.

    Each node carries, computed from its children when it is built,
    rels, the REL_BIT mask of the relations its subtree names, and the
    height and size (node count) of its subtree.  Prop and Bottom carry
    them as class constants, Implies and Box as the last elements of
    the tuple.  They are not fields, so repr, copy and pickle leave
    them out.
    """

    __slots__ = ()
    rels: int
    height: int
    size: int

    def __str__(self) -> str:
        return print_mformula(self)


class Bottom(MFormula):
    __slots__ = ()
    rels = height = 0
    size = 1

    def __new__(cls):
        return tuple.__new__(cls, (cls,))


class Prop(MFormula):
    __slots__ = ()
    rels = height = 0
    size = 1

    def __new__(cls, name: str):
        return tuple.__new__(cls, (cls, name))


class Implies(MFormula):
    __slots__ = ()
    rels, height, size = _ITEM[3:6]

    def __new__(cls, left: MFormula, right: MFormula):
        h, g = left.height, right.height
        return tuple.__new__(cls, (cls, left, right, left.rels | right.rels,
                                   (h if h > g else g) + 1,
                                   left.size + right.size + 1))


class Box(MFormula):
    __slots__ = ()
    rels, height, size = _ITEM[3:6]

    def __new__(cls, rel: Rel, body: MFormula):
        return tuple.__new__(cls, (cls, rel, body, REL_BIT[rel] | body.rels,
                                   body.height + 1, body.size + 1))


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
    __slots__ = ()

    def __new__(cls, label: str, body: MFormula):
        return tuple.__new__(cls, (cls, label, body))


class Relational(Formula):
    __slots__ = ()

    def __new__(cls, left: str, rel: Rel, right: str):
        return tuple.__new__(cls, (cls, left, rel, right))


def labels_in(f: Formula) -> frozenset[str]:
    if isinstance(f, Labelled):
        return frozenset((f.label,))
    assert isinstance(f, Relational)
    return frozenset((f.left, f.right))


def well_formed(f: Formula, system: System) -> bool:
    """True when every relation symbol in f belongs to the system."""
    rels = f.body.rels if f.__class__ is Labelled else REL_BIT[f.rel]
    return not rels & _FOREIGN_BITS[system]


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
# the operators, the reserved words and "", the end token; every other
# token is an identifier
_RESERVED = frozenset(("bot", "U", "M", "P", "<->", "<>", "<M>", "<P>",
                       "[]", "[M]", "[P]", "->", "(", ")", "~", "&", "|",
                       ":", ""))
# what a stray character could have begun
_PARTIAL = {"<": ("<->", "<>", "<M>", "<P>"), "[": ("[]", "[M]", "[P]"),
            "-": ("->",)}


def split_fields(text: str) -> list[str]:
    """The blank-separated fields of text."""
    return _FIELD.findall(text)


def _starts_identifier(word: str) -> bool:
    # a nonempty token that starts so and is not reserved is an identifier
    return word[0].isalpha() or word[0] == "_"


_WORD_RE = re.compile(_WORD)


def is_identifier(word: str) -> bool:
    """Whether word is read as one identifier token: a word of letters,
    digits and "_" that starts with a letter or "_" and is not a
    reserved word."""
    return (_WORD_RE.fullmatch(word) is not None
            and word not in _RESERVED and _starts_identifier(word))


def tokenize(text: str) -> list[str]:
    """The tokens of text, then "", the end token."""
    toks = _TOKEN.findall(text, _LEADING.match(text).end())
    if not all(map(_starts_identifier, set(toks) - _RESERVED)):
        # refuse the first token that is neither reserved nor an identifier
        i = next(i for i, w in enumerate(toks)
                 if w not in _RESERVED and not _starts_identifier(w))
        c = toks[i][0]
        message = ("unexpected %r" if c in _PARTIAL
                   else "unexpected character %r")
        raise _error(text, i, message % c, _PARTIAL.get(c, ()))
    toks.append("")
    return toks


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
# syntax tree once sugar is expanded and in its parentheses.  == runs in
# C but still takes two frames of Python's recursion limit per tree
# level, and so does checking, which compares formulas; hash takes none.
# Printing takes one frame per level and the parser two per
# parenthesis, so at this depth none of them needs more than about 210
# of the 1000 frames Python allows by default.
MAX_DEPTH = 100
# The most nodes the syntax tree of a parsed m-formula may have once
# sugar is expanded.  "<->" copies both of its sides, so without this
# cap each further nesting of it would double the work of hash, ==,
# printing and checking.  The largest formula of the bundled corpus has
# 15 nodes, and the largest of the perfbench inputs 319.
MAX_SIZE = 10_000


class _Parser:
    """Recursive descent over the tokens of one text.

    A rule starts at a token index and returns the formula, its sugar
    expanded, and the index after it.  Errors name a token index;
    _error finds its position.
    """

    def __init__(self, text: str, toks: list[str],
                 system: Optional[System], memo: Optional[dict] = None,
                 groups: Iterable = ()):
        self.text = text
        self.toks = toks
        self.system = system
        self.foreign = _FOREIGN[system]
        self.parens = 0
        # parse_script's memo, and per "(" of text, in order, what
        # _cut_groups found there
        self.memo = memo
        self.groups = iter(groups)

    def fail(self, i: int, expected: tuple[str, ...]) -> ParseError:
        word = self.toks[i]
        found = repr(word) if word else "end of input"
        want = " or ".join(expected)
        return _error(self.text, i, "expected %s, found %s" % (want, found),
                      expected)

    def too_deep(self, i: int) -> ParseError:
        return _error(self.text, i, "formula nested deeper than %d levels"
                      % MAX_DEPTH, reason="too-deep")

    def capped(self, a: MFormula, i: int) -> MFormula:
        # a, unless its tree passes MAX_DEPTH or MAX_SIZE; the refusal is
        # at token i, and depth is reported first
        if a.height > MAX_DEPTH:
            raise self.too_deep(i)
        if a.size > MAX_SIZE:
            raise _error(self.text, i, "formula expands to more than %d "
                         "nodes" % MAX_SIZE, reason="too-large")
        return a

    def gate(self, i: int) -> None:
        # vocabulary restricted to the requested system
        word = self.toks[i]
        if word in self.foreign:
            raise _error(self.text, i, "%r is not in the %s vocabulary"
                         % (word, self.system.value), reason="wrong-system")

    def end(self, i: int) -> None:
        if self.toks[i]:
            raise self.fail(i, ("end of input",))

    def mformula(self, i: int) -> tuple[MFormula, int]:
        # mformula := imp ("<->" imp)?   imp := disj ("->" disj)*
        # disj := conj ("|" conj)*        conj := unary ("&" unary)*
        # One turn of the loop reads one operand, then closes every level
        # that the token after it ends, so an operand costs no call per
        # level.  "->" is folded from the right once its chain ends.
        toks = self.toks
        left = None  # the left side of "<->", once read
        arrows: list[MFormula] = []  # the chain before "->"
        d = c = None  # the open disjunction and conjunction
        while True:
            word = toks[i]
            if word not in _RESERVED:
                a = Prop(word)
                i += 1
            else:
                a, i = self.unary(i)
            if c is not None:
                a = self.capped(conj(c, a), i)
            word = toks[i]
            if word == "&":
                c = a
                i += 1
                continue
            c = None
            if d is not None:
                a = self.capped(disj(d, a), i)
            if word == "|":
                d = a
                i += 1
                continue
            d = None
            if word == "->":
                if len(arrows) == MAX_DEPTH:  # each arrow nests one level
                    raise self.too_deep(i)
                arrows.append(a)
                i += 1
                continue
            if arrows:
                while arrows:
                    a = Implies(arrows.pop(), a)
                a = self.capped(a, i)
            if left is not None:
                return self.capped(iff(left, a), i), i
            if word != "<->":
                return a, i
            left = a
            i += 1

    def unary(self, i: int) -> tuple[MFormula, int]:
        # prefix operators, then an atom: "bot", an identifier or
        # "(" mformula ")"
        toks = self.toks
        start = i
        word = toks[i]
        while word in _PREFIX:
            if i - start == MAX_DEPTH:  # each prefix nests a level or more
                raise self.too_deep(i)
            self.gate(i)
            i += 1
            word = toks[i]
        ops = i
        if word not in _RESERVED:
            a = Prop(word)
            i += 1
        elif word == "bot":
            a = BOT
            i += 1
        elif word == "(":
            if self.parens == MAX_DEPTH:
                raise self.too_deep(i)
            group = next(self.groups, None)
            if isinstance(group, MFormula):  # a group the memo holds
                a = group
                i += 2
            else:
                self.parens += 1
                a, i = self.mformula(i + 1)
                if toks[i] != ")":
                    raise self.fail(i, (")",))
                self.parens -= 1
                i += 1
                if group is not None:
                    self.memo[group] = a
        else:
            raise self.fail(i, ("identifier", "bot", "("))
        if ops == start:
            return a, i
        for k in range(ops - 1, start - 1, -1):
            op = toks[k]
            if op == "~":
                a = neg(a)
            elif op in _REL_OF_BOX:
                a = Box(_REL_OF_BOX[op], a)
            else:
                a = diamond(_REL_OF_DIA[op], a)
        return self.capped(a, i), i


def parse_mformula(text: str, system: Optional[System] = None) -> MFormula:
    """Parse an m-formula with all sugar expanded away.

    A system restricts the vocabulary; None accepts both families.
    """
    p = _Parser(text, tokenize(text), system)
    a, i = p.mformula(0)
    p.end(i)
    return a


def parse_formula(text: str, system: Optional[System] = None,
                  _memo: Optional[dict] = None) -> Formula:
    """Parse a labelled or relational formula.

    _memo is private: parse_script's memo of parenthesised groups and
    of parenthesis-free bodies, for system None and texts without a
    comment only (read_line cuts them).
    """
    if _memo is not None and "(" in text:
        cut = _cut_groups(text, _memo)
        if cut is not None:
            rest, groups = cut
            try:
                return _formula(_Parser(rest, tokenize(rest), system, _memo,
                                        groups))
            except ParseError:
                pass  # read again below, for the memo-free error
    elif _memo is not None:
        # a labelled text whose body the memo holds, or a relational
        # text of three fields, is read without tokens
        label, colon, body = text.partition(":")
        if colon:
            node = _memo.get(body)
            if node is not None:
                label = label.strip(BLANKS)
                if is_identifier(label):
                    return Labelled(label, node)
            f = _formula(_Parser(text, tokenize(text), system))
            # a text holding ":" parses only as a labelled formula
            _memo[body] = f.body
            return f
        fields = _FIELD.findall(text)
        if (len(fields) == 3 and fields[1] in _REL
                and is_identifier(fields[0]) and is_identifier(fields[2])):
            return Relational(fields[0], _REL[fields[1]], fields[2])
    return _formula(_Parser(text, tokenize(text), system))


def _formula(p: _Parser) -> Formula:
    toks = p.toks
    label = toks[0]
    if label in _RESERVED:
        raise p.fail(0, ("identifier",))
    word = toks[1]
    if word == ":":
        body, i = p.mformula(2)
        p.end(i)
        return Labelled(label, body)
    if word in _REL:
        p.gate(1)
        if toks[2] in _RESERVED:
            raise p.fail(2, ("identifier",))
        p.end(3)
        return Relational(label, _REL[word], toks[2])
    raise p.fail(1, (":", "U", "M", "P"))


_PARENS = re.compile(r"[()]")


def _cut_groups(text: str, memo: dict) -> Optional[tuple[str, list]]:
    # text with each group that the memo holds cut to "()", unless it
    # lies in a group cut already; and per "(" of that text, in order,
    # the node of the group cut there, or else the group's text, the
    # key under which the parser enters the node it reads.  None when
    # the parentheses do not balance or nest deeper than MAX_DEPTH:
    # such a text is refused.
    # The group from the first "(" to a ")" that ends the text is asked
    # first.  Every key is the balanced text of a group read within
    # MAX_DEPTH, or a body without parentheses, so a hit is the group
    # the scan would cut there; only a ")" before the "(" differs, and
    # the parser refuses that.
    first = text.find("(")
    last = len(text.rstrip(BLANKS)) - 1
    node = memo.get(text[first + 1:last]) if text[last] == ")" else None
    if node is not None:
        return text[:first + 1] + text[last:], [node]
    spans = []  # [offset of "(", offset of its ")"], in order of "("
    stack = []
    for m in _PARENS.finditer(text):
        at = m.start()
        if text[at] == "(":
            if len(stack) == MAX_DEPTH:
                return None
            span = [at, 0]
            stack.append(span)
            spans.append(span)
        elif stack:
            stack.pop()[1] = at
        else:
            return None
    if stack:
        return None
    pieces = []
    groups: list = []
    done = 0  # text[:done] is copied or cut already
    for start, end in spans:
        if start < done:  # inside a group cut
            continue
        key = text[start + 1:end]
        node = memo.get(key)
        if node is None:
            groups.append(key)
        else:
            groups.append(node)
            pieces.append(text[done:start + 1])
            done = end
    if not pieces:
        return text, groups
    pieces.append(text[done:])
    return "".join(pieces), groups


# ---------------------------------------------------------------------------
# line-oriented input

class Line(Record):
    """A nonblank line of a script, model or assumption file: its
    number, its text from the first nonblank character up to any "#"
    comment, stripped, and the offset of that character on the line."""

    __slots__ = ()

    def __new__(cls, number: int, text: str, start: int):
        return tuple.__new__(cls, (cls, number, text, start))

    def error(self, message: str, field: int = 0,
              reason: str = "syntax") -> ParseError:
        """A ParseError at the blank-separated field number field."""
        at = [m.start() for m in _FIELD.finditer(self.text)][field]
        return ParseError(message, self.number, self.start + at + 1,
                          reason=reason)

    def formula(self, where: str = "", at: int = 0, end: Optional[int] = None,
                *args: object, system: Optional[System] = None,
                memo: Optional[dict] = None) -> Formula:
        """The formula in text[at:end]; errors start with where % args.

        memo, a dict that parse_script keeps for one script, maps the
        text of each parenthesised group and parenthesis-free body read
        so far to its node; see the module docstring.
        """
        return parse_formula_at(self.text[at:end], self.number,
                                self.start + at, where, *args,
                                system=system, memo=memo)

    def system(self) -> System:
        """The system that a system line names."""
        fields = split_fields(self.text)
        if fields not in (["system", "MSQR"], ["system", "MSPQR"]):
            raise self.error("expected 'system MSQR' or 'system MSPQR'")
        return System(fields[1])


def parse_formula_at(text: str, number: int, offset: int, where: str = "",
                     *args: object, system: Optional[System] = None,
                     memo: Optional[dict] = None) -> Formula:
    """parse_formula of text, which starts on line number after offset
    characters; a refusal is placed there and its message starts with
    where % args."""
    try:
        return parse_formula(text, system, memo)
    except ParseError as e:
        raise ParseError(where % args + e.message, number, offset + e.col,
                         e.expected, e.reason) from None


def read_line(number: int, raw: str) -> Optional[Line]:
    """The Line of raw, the text of line number up to its "\\n"; None
    when it is blank or a comment."""
    line = raw.split("#", 1)[0]
    stripped = line.lstrip(BLANKS)
    if not stripped:
        return None
    return Line(number, stripped.rstrip(BLANKS), len(line) - len(stripped))


def read_lines(text: str) -> Iterator[Line]:
    """Nonblank lines; they end at "\\n" only, as the tokenizer counts."""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = read_line(number, raw)
        if line is not None:
            yield line
