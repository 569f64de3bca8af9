import copy
import importlib
import json
import pickle
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from qrmodal import kernel, script as script_module, syntax
from qrmodal.kernel import DERIVED, Diagnostic, check, parse_script
from qrmodal.script import ALL_RULES, ProofScript, ProofStep
from qrmodal.search import Found, NotFoundWithin, SearchBudget
from qrmodal.semantics import (
    Frame, FrameViolation, Model, Structure, holds, parse_structure,
)
from qrmodal.syntax import (
    BOT,
    MAX_DEPTH,
    MAX_SIZE,
    Bottom,
    Box,
    Formula,
    Implies,
    Labelled,
    MFormula,
    ParseError,
    Prop,
    Record,
    Rel,
    Relational,
    System,
    conj,
    diamond,
    disj,
    iff,
    labels_in,
    legal_rels,
    neg,
    parse_formula,
    parse_mformula,
    print_formula,
    print_mformula,
    read_lines,
    substitute,
    tokenize,
    well_formed,
)


def test_parse_atoms():
    assert parse_mformula("bot") == Bottom()
    assert parse_mformula("r0") == Prop("r0")
    assert parse_mformula("some_long_name3") == Prop("some_long_name3")


def test_parse_implication_right_associative():
    got = parse_mformula("r0 -> r1 -> r2")
    assert got == Implies(Prop("r0"), Implies(Prop("r1"), Prop("r2")))


def test_parse_boxes():
    assert parse_mformula("[] r0") == Box(Rel.U, Prop("r0"))
    assert parse_mformula("[M] r0") == Box(Rel.M, Prop("r0"))
    assert parse_mformula("[P] r0") == Box(Rel.P, Prop("r0"))
    assert parse_mformula("[M][M] r0") == Box(Rel.M, Box(Rel.M, Prop("r0")))


def test_desugaring():
    r0, r1 = Prop("r0"), Prop("r1")
    assert parse_mformula("~ r0") == Implies(r0, BOT)
    assert parse_mformula("r0 & r1") == Implies(Implies(r0, Implies(r1, BOT)), BOT)
    assert parse_mformula("r0 | r1") == Implies(Implies(r0, BOT), r1)
    assert parse_mformula("r0 <-> r1") == conj(Implies(r0, r1), Implies(r1, r0))
    assert parse_mformula("<> r0") == neg(Box(Rel.U, neg(r0)))
    assert parse_mformula("<M> r0") == neg(Box(Rel.M, neg(r0)))
    assert parse_mformula("<P> r0") == neg(Box(Rel.P, neg(r0)))


def test_desugared_iff_prints_in_primitive_form():
    # only bot, -> and boxes survive parsing
    printed = print_mformula(parse_mformula("[M](r0 <-> [M] r0)"))
    assert "<->" not in printed and "&" not in printed and "~" not in printed
    assert parse_mformula(printed) == parse_mformula("[M](r0 <-> [M] r0)")


def test_precedence_conj_tighter_than_disj_tighter_than_imp():
    r0, r1, r2 = Prop("r0"), Prop("r1"), Prop("r2")
    assert parse_mformula("r0 & r1 | r2") == disj(conj(r0, r1), r2)
    assert parse_mformula("r0 | r1 -> r2") == Implies(disj(r0, r1), r2)
    assert parse_mformula("~ r0 & r1") == conj(neg(r0), r1)


def test_iff_is_non_associative():
    with pytest.raises(ParseError):
        parse_mformula("r0 <-> r1 <-> r2")


def test_parse_formula_labelled_and_relational():
    assert parse_formula("x : [] r0") == Labelled("x", Box(Rel.U, Prop("r0")))
    assert parse_formula("x M y") == Relational("x", Rel.M, "y")
    assert parse_formula("x U y") == Relational("x", Rel.U, "y")
    assert parse_formula("x P y") == Relational("x", Rel.P, "y")


def test_parse_error_missing_body():
    with pytest.raises(ParseError) as exc:
        parse_formula("x :")
    assert exc.value.line == 1
    assert exc.value.col >= 3


def test_parse_error_positions_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_mformula("r0 ->")
    err = exc.value
    assert (err.line, err.reason) == (1, "syntax")
    assert err.expected
    with pytest.raises(ParseError) as exc:
        parse_mformula("(r0 -> r1")
    assert exc.value.col == 10


def test_parse_error_on_second_line():
    with pytest.raises(ParseError) as exc:
        parse_mformula("r0 ->\n  ) r1")
    assert exc.value.line == 2


def test_comments_and_whitespace():
    assert parse_formula("x : r0 # trailing note") == Labelled("x", Prop("r0"))
    assert parse_mformula("  r0   ->\n\t r1 ") == Implies(Prop("r0"), Prop("r1"))


def test_reserved_words_rejected_as_identifiers():
    with pytest.raises(ParseError):
        parse_formula("bot : r0")
    with pytest.raises(ParseError):
        parse_mformula("r0 -> U")


def test_system_gating():
    parse_mformula("[M] r0", System.MSQR)
    parse_mformula("[P] r0", System.MSPQR)
    with pytest.raises(ParseError) as exc:
        parse_mformula("[P] r0", System.MSQR)
    assert exc.value.reason == "wrong-system"
    with pytest.raises(ParseError) as exc:
        parse_mformula("<M> r0", System.MSPQR)
    assert exc.value.reason == "wrong-system"
    with pytest.raises(ParseError) as exc:
        parse_formula("x P y", System.MSQR)
    assert exc.value.reason == "wrong-system"
    with pytest.raises(ParseError) as exc:
        parse_formula("x M y", System.MSPQR)
    assert exc.value.reason == "wrong-system"
    # the parser's gate and well_formed read the same vocabulary table
    for text in ("x : [] r0", "x : [M] r0", "x : [P] r0", "x : <> r0",
                 "x : <M> r0", "x : <P> r0", "x U y", "x M y", "x P y"):
        for system in System:
            legal = well_formed(parse_formula(text), system)
            try:
                parse_formula(text, system)
                refused = False
            except ParseError as e:
                assert e.reason == "wrong-system"
                refused = True
            assert refused is not legal, (text, system)


def test_legal_rels():
    assert legal_rels(System.MSQR) == frozenset({Rel.U, Rel.M})
    assert legal_rels(System.MSPQR) == frozenset({Rel.U, Rel.P})


def test_well_formed():
    assert well_formed(parse_formula("x : [M] r0"), System.MSQR)
    assert not well_formed(parse_formula("x : [M] r0"), System.MSPQR)
    assert not well_formed(parse_formula("x P y"), System.MSQR)
    assert well_formed(parse_formula("x : [] r0"), System.MSPQR)


def test_print_examples():
    assert print_formula(Labelled("x", Implies(Prop("r0"), BOT))) == "x : r0 -> bot"
    assert print_formula(Relational("x", Rel.U, "y")) == "x U y"
    assert print_formula(Labelled("x", Box(Rel.M, Box(Rel.M, Prop("r0"))))) == "x : [M][M] r0"
    assert print_mformula(Implies(Implies(Prop("r0"), BOT), BOT)) == "(r0 -> bot) -> bot"
    assert print_mformula(Box(Rel.M, Implies(Prop("r0"), BOT))) == "[M](r0 -> bot)"


def test_substitute():
    assert substitute(parse_formula("x : r0"), "x", "y") == parse_formula("y : r0")
    assert substitute(parse_formula("x M x"), "x", "y") == parse_formula("y M y")
    assert substitute(parse_formula("z U x"), "x", "x") == parse_formula("z U x")
    # no occurrence: identity
    assert substitute(parse_formula("x : r0"), "w", "y") == parse_formula("x : r0")


# -- depth cap ----------------------------------------------------------------

def nested(op: str, depth: int) -> str:
    """An m-formula nesting op depth times around the proposition p."""
    if op == "(":
        return "(" * depth + "p" + ")" * depth
    if op == "<->":
        return "p <-> (" * depth + "p" + ")" * depth
    if op in ("->", "&", "|"):
        return (" %s " % op).join(["p"] * (depth + 1))
    return op * depth + " p"


def deepest(text_at, reasons=("too-deep",)) -> int:
    """The largest depth d at which text_at(d) parses; the next one must
    fail for one of the reasons."""
    depth = 0
    while True:
        try:
            parse_formula(text_at(depth + 1))
        except ParseError as e:
            assert e.reason in reasons
            return depth
        depth += 1


def height(phi, memo=None) -> int:
    # levels of the expanded tree; the memo keeps shared subtrees linear
    memo = {} if memo is None else memo
    if id(phi) not in memo:
        if isinstance(phi, Implies):
            memo[id(phi)] = 1 + max(height(phi.left, memo),
                                    height(phi.right, memo))
        elif isinstance(phi, Box):
            memo[id(phi)] = 1 + height(phi.body, memo)
        else:
            memo[id(phi)] = 0
    return memo[id(phi)]


def size(phi, memo=None) -> int:
    # nodes of the expanded tree, shared subtrees counted once per use
    memo = {} if memo is None else memo
    if id(phi) not in memo:
        if isinstance(phi, Implies):
            memo[id(phi)] = 1 + size(phi.left, memo) + size(phi.right, memo)
        elif isinstance(phi, Box):
            memo[id(phi)] = 1 + size(phi.body, memo)
        else:
            memo[id(phi)] = 1
    return memo[id(phi)]


# levels of the expanded tree that one more nesting of each operator adds
GROWTH = {"~": 1, "[]": 1, "<>": 3, "->": 1, "&": 2, "|": 2, "<->": 4}
CAPPED_OPS = ["("] + sorted(GROWTH)


@pytest.mark.parametrize("op", CAPPED_OPS)
def test_too_deep_formula_is_refused(op):
    text = "x : " + nested(op, 10_000)
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert exc.value.reason == "too-deep"
    assert exc.value.message == "formula nested deeper than %d levels" \
        % MAX_DEPTH
    # refused at the same token as by the oracle below
    assert outcome(parse_formula, text) == outcome(old_parse_formula, text)


@pytest.mark.parametrize("op", sorted(GROWTH))
def test_cap_counts_the_expanded_tree(op):
    if op == "<->":
        # nested "<->" meets the size cap first, so three of them sit
        # under a chain of "~" that meets the depth cap
        def text_at(d):
            return "~" * d + " (" + nested(op, 3) + ")"

        depth = deepest(lambda d: "x : " + text_at(d))
        assert height(parse_mformula(text_at(depth))) == MAX_DEPTH
        return
    depth = deepest(lambda d: "x : " + nested(op, d))
    got = height(parse_mformula(nested(op, depth)))
    assert MAX_DEPTH - GROWTH[op] < got <= MAX_DEPTH


def test_cap_counts_parentheses():
    assert deepest(lambda d: "x : " + nested("(", d)) == MAX_DEPTH
    # k nested "<>(" are k parentheses but 3k levels once expanded
    assert deepest(lambda d: "x : " + "<>(" * d + "p" + ")" * d) \
        == MAX_DEPTH // 3


def test_too_large_formula_is_refused():
    # each nesting of "<->" doubles the tree while adding four levels
    depth = deepest(lambda d: "x : " + nested("<->", d), ("too-large",))
    assert size(parse_mformula(nested("<->", depth))) <= MAX_SIZE
    assert size(iff(Prop("p"), parse_mformula(nested("<->", depth)))) \
        > MAX_SIZE
    assert 4 * depth < MAX_DEPTH
    with pytest.raises(ParseError) as exc:
        parse_formula("x : " + nested("<->", depth + 1))
    assert (exc.value.reason, exc.value.message) == (
        "too-large", "formula expands to more than %d nodes" % MAX_SIZE)


@pytest.mark.parametrize("text", [
    nested(op, d) for op in sorted(GROWTH) for d in (1, 2, 3)] + [
    "(p & q) | ~(r -> <M> p)", "[] p <-> <P> (q & ~p)", "~~[M] bot"])
def test_size_cap_counts_every_node(monkeypatch, text):
    # the cap set to the expanded tree's size admits the formula, one
    # below refuses it
    want = size(parse_mformula(text))
    monkeypatch.setattr(syntax, "MAX_SIZE", want)
    assert size(parse_mformula(text)) == want
    monkeypatch.setattr(syntax, "MAX_SIZE", want - 1)
    with pytest.raises(ParseError) as exc:
        parse_mformula(text)
    assert exc.value.reason == "too-large"


# the deepest formula each cap admits: hash, ==, printing, checking and
# evaluation walk it without running out of stack or time
@pytest.mark.parametrize("op", CAPPED_OPS)
def test_deepest_accepted_formula_is_usable(op):
    def statement(depth):
        a = nested(op, depth)
        return "x : (%s) -> (%s)" % (a, a)

    depth = deepest(statement, ("too-deep", "too-large"))
    text = statement(depth)
    f = parse_formula(text)
    assert hash(f) == hash(parse_formula(text))
    assert parse_formula(print_formula(f)) == f
    assert print_formula(parse_formula(print_formula(f))) == print_formula(f)
    a = nested(op, depth)
    script = parse_script(
        "system MSQR\ntheorem t : %s\n1. x : %s ; hyp\n"
        "2. %s ; ImpI 1 discharge 1\nqed\n" % (text, a, text))
    assert check(script).accepted
    model = parse_structure("system MSQR\nworlds v\nU v v\nM v v\n"
                            "interp x = v\n")
    assert holds(model, f)


def test_label_and_prop_queries():
    f = parse_formula("x : r0 -> [M] r1")
    assert labels_in(f) == frozenset({"x"})
    assert rels_walk(f) == frozenset({Rel.M})
    g = parse_formula("x U y")
    assert labels_in(g) == frozenset({"x", "y"})


# -- property tests ---------------------------------------------------------

_props = st.sampled_from(["r0", "r1", "r2"])
_rels = st.sampled_from(list(Rel))


def _mformulas(depth: int = 6):
    base = st.one_of(st.just(BOT), st.builds(Prop, _props))
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(Implies, sub, sub),
            st.builds(Box, _rels, sub),
        ),
        max_leaves=2 ** depth,
    )


_labels = st.sampled_from(["x", "y", "z", "w0"])


def _formulas():
    return st.one_of(
        st.builds(Labelled, _labels, _mformulas()),
        st.builds(Relational, _labels, _rels, _labels),
    )


@given(_mformulas())
def test_roundtrip_mformula(phi):
    assert parse_mformula(print_mformula(phi)) == phi


@given(_formulas())
def test_roundtrip_formula(f):
    assert parse_formula(print_formula(f)) == f


@given(_formulas())
@settings(max_examples=200)
def test_print_parse_print_fixpoint(f):
    once = print_formula(f)
    assert print_formula(parse_formula(once)) == once


@given(_formulas(), st.sampled_from(["x", "y", "z"]))
def test_substitution_composition(f, frm):
    fresh, target = "v9", "z"
    assert fresh not in labels_in(f)
    via = substitute(substitute(f, frm, fresh), fresh, target)
    assert via == substitute(f, frm, target)


@given(_formulas())
def test_substitution_identity(f):
    for lab in labels_in(f):
        assert substitute(f, lab, lab) == f


# -- value semantics -------------------------------------------------------
#
# Formulas, proof steps and scripts are keys of the kernel's sets and
# dicts: == and hash go by value, and no field can be reassigned.

@given(_formulas())
def test_two_parses_are_equal_values(f):
    text = print_formula(f)
    a, b = parse_formula(text), parse_formula(text)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def _node(cls, *fields):
    # an Implies or Box node whose fields need not be formulas, which the
    # constructors refuse because they read the children's relation
    # masks; built as the tuple of the class, the fields and the mask
    return tuple.__new__(cls, (cls, *fields, 0))


def _values():
    """One value of every value class."""
    f = parse_formula("x : [] r0 -> ~(r1 & bot)")
    step = ProofStep(1, f, "hyp")
    script = ProofScript(System.MSQR, "t", f, (step,))
    frame = Frame(System.MSQR, 1, (0b1,), (0b1,))
    model = Model(frame, {0: ["r0"]})
    structure = Structure(model, {"x": 0})
    return [
        BOT, Prop("r0"), f.body, f.body.left, f, parse_formula("x U y"),
        step, script, check(script),
        Diagnostic(1, "wrong-arity", "hyp takes no premises or annotations"),
        frame, FrameViolation("not-serial", (0,)), model, structure,
        Found(structure), NotFoundWithin(3, 28), SearchBudget(3),
        next(read_lines("\n  1. x : r0 ; hyp  # note\n")),
    ]


def _value_classes(base=Record):
    for cls in base.__subclasses__():
        if "__new__" in vars(cls):
            yield cls
        yield from _value_classes(cls)


def _fields(value):
    return tuple(getattr(value, f) for f in type(value).__match_args__)


def test_every_value_class_has_a_sample():
    assert sorted(type(v).__name__ for v in _values()) == \
        sorted(cls.__name__ for cls in _value_classes())


def test_nodes_of_different_classes_are_never_equal():
    # the same field values under each class, then one value of every
    # value class
    nodes = [BOT, Prop("x"), _node(Implies, "x", BOT), _node(Box, "x", BOT),
             Labelled("x", BOT), FrameViolation("x", BOT),
             _node(Implies, Rel.U, BOT), Box(Rel.U, BOT),
             Relational("x", Rel.U, "x"), Diagnostic("x", Rel.U, "x")]
    nodes += _values()
    for a in nodes:
        # no value equals the plain tuple of its fields, and each is true
        assert a != _fields(a) and _fields(a) != a
        assert a
        for b in nodes:
            assert (a == b) is (a is b)
            with pytest.raises(TypeError):
                a < b
            with pytest.raises(TypeError):
                a >= b
    assert Prop("x") != ("x",) and Prop("x") != "x"
    assert Labelled("x", BOT) != ("x", BOT)


def test_values_build_by_keyword():
    f = Labelled(label="x", body=Implies(left=Prop(name="r0"), right=BOT))
    assert f == parse_formula("x : ~r0")
    assert Relational(left="x", rel=Rel.M, right="y") == \
        parse_formula("x M y")
    assert ProofStep(id=1, formula=f, rule="hyp") == \
        ProofStep(1, f, "hyp", (), (), None)
    assert ProofScript(system=System.MSQR, name="t", statement=f,
                       steps=()) == ProofScript(System.MSQR, "t", f, ())
    for value in _values():
        names = type(value).__match_args__
        assert type(value)(**dict(zip(names, _fields(value)))) == value


def test_values_copy_and_pickle():
    for value in _values():
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
            assert repr(twin) == repr(value)
            assert hash(twin) == hash(value)


def test_values_repr_their_fields():
    assert repr(Labelled("x", Box(Rel.U, Prop("r0")))) == (
        "Labelled(label='x', "
        "body=Box(rel=<Rel.U: 'U'>, body=Prop(name='r0')))")
    assert repr(ProofStep(1, Labelled("x", BOT), "hyp")) == (
        "ProofStep(id=1, formula=Labelled(label='x', body=Bottom()), "
        "rule='hyp', premises=(), discharges=(), fresh=None)")


@pytest.mark.parametrize("value, field", [
    (BOT, "name"),
    (Prop("r0"), "name"),
    (Implies(BOT, BOT), "left"),
    (Box(Rel.U, BOT), "body"),
    (Labelled("x", BOT), "label"),
    (Relational("x", Rel.U, "y"), "rel"),
    (ProofStep(1, Labelled("x", BOT), "hyp"), "premises"),
    (ProofScript(System.MSQR, "t", None, ()), "steps"),
])
def test_values_refuse_assignment(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, "changed")
    with pytest.raises(AttributeError):
        value.extra = 1
    if hasattr(value, field):
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before


# -- the character-loop front end, kept as the oracle ------------------------
#
# The tokenizer, formula parser and step-line parser as they were before
# the regular-expression front end, with every token carrying its line
# and column.


@dataclass(frozen=True)
class OldToken:
    kind: str  # 'ident', 'bot', 'U', 'M', 'P', an operator, or 'end'
    text: str
    line: int
    col: int


_RESERVED = {"bot": "bot", "U": "U", "M": "M", "P": "P"}
_SQUARE = {"[]": "[]", "[M]": "[M]", "[P]": "[P]"}


def old_tokenize(text: str) -> list[OldToken]:
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
            toks.append(OldToken(_RESERVED.get(word, "ident"), word, line, col))
            col += j - i
            i = j
            continue
        if c == "<":
            for op in ("<->", "<M>", "<P>", "<>"):
                if text.startswith(op, i):
                    toks.append(OldToken(op, op, line, col))
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
                    toks.append(OldToken(op, op, line, col))
                    i += len(op)
                    col += len(op)
                    break
            else:
                raise ParseError("unexpected '['", line, col,
                                 expected=("[]", "[M]", "[P]"))
            continue
        if c == "-":
            if text.startswith("->", i):
                toks.append(OldToken("->", "->", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("unexpected '-'", line, col, expected=("->",))
        if c in "()~&|:":
            toks.append(OldToken(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    toks.append(OldToken("end", "", line, col))
    return toks


_UNARY = ("~", "[]", "[M]", "[P]", "<>", "<M>", "<P>")
_MSQR_ONLY = ("[M]", "<M>", "M")
_MSPQR_ONLY = ("[P]", "<P>", "P")



class OldParser:
    # each rule returns a formula and the height of its syntax tree
    def __init__(self, toks: list[OldToken], system: Optional[System]):
        self.toks = toks
        self.i = 0
        self.system = system
        self.parens = 0

    def peek(self) -> OldToken:
        return self.toks[self.i]

    def take(self) -> OldToken:
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

    def expect(self, kind: str) -> OldToken:
        if self.peek().kind != kind:
            raise self.fail((kind,))
        return self.take()

    def gate(self, t: OldToken) -> None:
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


def old_parse_mformula(text: str, system: Optional[System] = None) -> MFormula:
    """Parse an m-formula with all sugar expanded away.

    A system restricts the vocabulary; None accepts both families.
    """
    p = OldParser(old_tokenize(text), system)
    a, _ = p.mformula()
    p.end()
    return a


def old_parse_formula(text: str, system: Optional[System] = None) -> Formula:
    """Parse a labelled or relational formula."""
    p = OldParser(old_tokenize(text), system)
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
        if p.peek().kind != "ident":
            raise p.fail(("identifier",))
        r = p.take()
        p.end()
        return Relational(t.text, Rel(k.kind), r.text)
    raise p.fail((":", "U", "M", "P"))


# The blanks of the oracle's line and field splits: the tokenizer's
# four, not every blank that str.split and str.strip take.
BLANKS = " \t\r\n"


def blank_split(text: str) -> list[str]:
    return re.findall(r"[^ \t\r\n]+", text)


def old_parse_script(text: str, split=str.splitlines) -> ProofScript:
    """Parse a proof script file, cut into lines by split.

    Formulas are parsed with the full vocabulary; using the wrong
    system's relations is reported by check as wrong-system, so a
    script can be rechecked under the other system.
    """
    system: Optional[System] = None
    name: Optional[str] = None
    statement: Optional[Formula] = None
    steps: list[ProofStep] = []
    seen: set[int] = set()
    done = False

    def err(lineno: int, msg: str) -> ParseError:
        return ParseError(msg, lineno, 1)

    for lineno, raw in enumerate(split(text), start=1):
        line = raw.split("#", 1)[0].strip(BLANKS)
        if not line:
            continue
        if done:
            raise err(lineno, "content after qed")
        if system is None:
            fields = blank_split(line)
            if len(fields) != 2 or fields[0] != "system" \
                    or fields[1] not in ("MSQR", "MSPQR"):
                raise err(lineno, "expected 'system MSQR' or 'system MSPQR'")
            system = System(fields[1])
            continue
        if name is None:
            head, sep, rest = line.partition(":")
            fields = blank_split(head)
            if len(fields) != 2 or fields[0] != "theorem" or not sep:
                raise err(lineno, "expected 'theorem <name> : <formula>'")
            name = fields[1]
            try:
                statement = old_parse_formula(rest)
            except ParseError as e:
                raise ParseError("in theorem statement: %s" % e.message,
                                 lineno, e.col, e.expected, e.reason)
            continue
        if line == "qed":
            done = True
            continue
        steps.append(old_parse_step(line, lineno, seen))

    if system is None or name is None:
        raise ParseError("missing system or theorem line", 1, 1)
    if not steps:
        raise ParseError("a proof needs at least one step", 1, 1)
    if not done:
        raise ParseError("missing qed line", 1, 1)
    return ProofScript(system, name, statement, tuple(steps))


def old_parse_step(line: str, lineno: int, seen: set[int]) -> ProofStep:
    def err(msg: str) -> ParseError:
        return ParseError(msg, lineno, 1)

    head, dot, rest = line.partition(".")
    if not dot or not head.strip(BLANKS).isdigit():
        raise err("expected '<id>. <formula> ; <justification>'")
    sid = int(head.strip(BLANKS))
    if sid <= 0:
        raise err("step ids are positive")
    if sid in seen:
        raise err("duplicate step id %d" % sid)
    seen.add(sid)
    ftext, semi, jtext = rest.partition(";")
    if not semi:
        raise err("missing ';' before the justification")
    try:
        formula = old_parse_formula(ftext)
    except ParseError as e:
        raise ParseError("in step %d: %s" % (sid, e.message), lineno, e.col,
                         e.expected, e.reason)

    fields = blank_split(jtext)
    if not fields:
        raise err("empty justification")
    rule = fields[0]
    if rule not in ALL_RULES:
        raise err("unknown rule %r" % rule)
    rest_fields = fields[1:]
    premises: tuple[int, ...] = ()
    discharges: tuple[int, ...] = ()
    fresh: Optional[str] = None

    def take_ids(fields: list[str], what: str) -> tuple[tuple[int, ...], list[str]]:
        parts: list[str] = []
        while fields and fields[0] not in ("discharge", "fresh"):
            parts.append(fields.pop(0))
        blob = "".join(parts)
        if not blob:
            return (), fields
        ids = []
        for piece in blob.split(","):
            if not piece.isdigit():
                raise err("bad %s id %r" % (what, piece))
            ids.append(int(piece))
        return tuple(ids), fields

    premises, rest_fields = take_ids(rest_fields, "premise")
    if rest_fields and rest_fields[0] == "discharge":
        rest_fields.pop(0)
        discharges, rest_fields = take_ids(rest_fields, "discharge")
        if not discharges:
            raise err("discharge needs at least one id")
    if rest_fields and rest_fields[0] == "fresh":
        rest_fields.pop(0)
        if not rest_fields:
            raise err("fresh needs a label")
        fresh = rest_fields.pop(0)
    if rest_fields:
        raise err("trailing junk in justification: %r" % rest_fields[0])
    return ProofStep(sid, formula, rule, premises, discharges, fresh)


# -- differential tests against the oracle -----------------------------------

class Refusal(NamedTuple):
    """Every field of a ParseError.  Formulas and scripts are tuples
    too, so a result is told from a refusal by this class."""
    message: str
    line: int
    col: int
    expected: tuple
    reason: str
    text: str


def refusal(e):
    return Refusal(e.message, e.line, e.col, e.expected, e.reason, str(e))


def outcome(parse, *args):
    """What a parse gives: its result, or the Refusal of its ParseError."""
    try:
        return parse(*args)
    except ParseError as e:
        return refusal(e)


PIECES = ["x", "y", "p", "r0", "_a", "bot", "U", "M", "P", ":", "->", "<->",
          "<>", "<M>", "<P>", "[]", "[M]", "[P]", "~", "&", "|", "(", ")",
          "<", "[", "]", "-", ">", "M]", " ", "  ", "\t", "\r", "#", "\n",
          "\x0b", "\xa0", "\u00b2", "\u216b", "\u00e9", "1", "."]
_ATOMS = st.sampled_from(["p", "q", "r0", "bot", "x_1"])
_BINARY = st.sampled_from(["->", "<->", "&", "|"])
_PREFIXES = st.sampled_from(["~", "[]", "[M]", "[P]", "<>", "<M>", "<P>"])


def _sugared():
    # m-formula text with every connective, parenthesised or not
    return st.recursive(_ATOMS, lambda sub: st.one_of(
        st.tuples(sub, _BINARY, sub, st.sampled_from(["%s %s %s",
                                                      "(%s %s %s)"]))
        .map(lambda t: t[3] % t[:3]),
        st.tuples(_PREFIXES, sub).map(" ".join)), max_leaves=12)


@st.composite
def _mutated(draw, text, pieces):
    # text with up to three pieces inserted and a slice deleted
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(pieces)) + text[i:]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + text[j:]
    return text


def _formula_texts():
    body = st.one_of(st.lists(st.sampled_from(PIECES), max_size=30)
                     .map("".join),
                     _sugared().flatmap(lambda t: _mutated(t, PIECES)))
    return st.one_of(body, body.map(lambda b: "x : " + b),
                     st.sampled_from(["x U y", "x M y", "x P y", "x Uy #"]))


_SYSTEMS = st.sampled_from([None, System.MSQR, System.MSPQR])


# -- relation masks ----------------------------------------------------------

def rels_walk(f):
    """The relations named in a formula or m-formula, by a recursive
    walk: the oracle for the relation mask each m-formula node carries."""
    if isinstance(f, Labelled):
        return rels_walk(f.body)
    if isinstance(f, Relational):
        return frozenset((f.rel,))
    if isinstance(f, Implies):
        return rels_walk(f.left) | rels_walk(f.right)
    if isinstance(f, Box):
        return frozenset((f.rel,)) | rels_walk(f.body)
    return frozenset()


def _nodes(phi):
    yield phi
    for child in ((phi.left, phi.right) if isinstance(phi, Implies)
                  else (phi.body,) if isinstance(phi, Box) else ()):
        yield from _nodes(child)


def _bracketed():
    # m-formula text with every connective, each binary one parenthesised
    return st.recursive(_ATOMS, lambda sub: st.one_of(
        st.tuples(sub, _BINARY, sub).map("(%s %s %s)".__mod__),
        st.tuples(_PREFIXES, sub).map(" ".join)), max_leaves=12)


@given(st.one_of(_bracketed().map("x : ".__add__),
                 st.sampled_from(["x U y", "x M y", "x P y"])))
@settings(max_examples=300)
def test_relation_masks_match_the_walk(text):
    try:
        f = parse_formula(text)
    except ParseError as e:  # nested "<->" can pass the node cap
        assert e.reason == "too-large"
        return
    if isinstance(f, Labelled):
        for node in _nodes(f.body):
            assert {rel for rel in Rel
                    if node.rels & syntax.REL_BIT[rel]} == rels_walk(node)
    for system in System:
        assert well_formed(f, system) == (rels_walk(f) <= legal_rels(system))


# -- node heights and sizes -------------------------------------------------

def assert_fields_match_the_oracles(phi):
    """Every node of phi carries the height and size that the recursive
    oracles give, and so does each copy of phi."""
    hmemo, smemo, seen, todo = {}, {}, set(), [phi]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert (node.height, node.size) == (height(node, hmemo),
                                                size(node, smemo))
            todo += (node.left, node.right) if isinstance(node, Implies) \
                else (node.body,) if isinstance(node, Box) else ()
    for twin in (copy.copy(phi), copy.deepcopy(phi),
                 pickle.loads(pickle.dumps(phi))):
        assert (twin.height, twin.size) == (height(twin), size(twin)) \
            == (phi.height, phi.size)


def _sugared_nodes():
    # m-formulas built by the sugar functions, sharing subtrees
    return st.recursive(_mformulas(2), lambda sub: st.one_of(
        st.builds(neg, sub), st.builds(conj, sub, sub),
        st.builds(disj, sub, sub), st.builds(iff, sub, sub),
        st.builds(diamond, _rels, sub), sub.map(lambda a: Implies(a, a)),
        st.builds(Box, _rels, sub)), max_leaves=16)


@given(_sugared_nodes())
def test_nodes_carry_their_height_and_size(phi):
    assert_fields_match_the_oracles(phi)


@given(_bracketed())
@settings(max_examples=300)
def test_parsed_nodes_carry_their_height_and_size(text):
    # a script stating the formula twice, so its groups share nodes
    try:
        script = parse_script("system MSQR\ntheorem t : x : %s\n"
                              "1. x : %s ; hyp\nqed\n" % (text, text))
    except ParseError as e:  # nested "<->" can pass the node cap
        assert e.reason == "too-large"
        return
    assert_fields_match_the_oracles(script.statement.body)


def test_corpus_and_expansion_nodes_carry_their_height_and_size(
        monkeypatch):
    built, rules = [], set()
    expand = kernel.expand_derived

    def recording_expand(step, *args):
        steps = expand(step, *args)
        rules.add(step.rule)
        built.extend(s.formula for s in steps)
        return steps

    monkeypatch.setattr(kernel, "expand_derived", recording_expand)
    formulas = []
    for text in CORPUS_TEXTS:
        script = parse_script(text)
        formulas += [script.statement] + [s.formula for s in script.steps]
        check(script)
    assert rules == DERIVED
    for f in formulas + built:
        if isinstance(f, Labelled):
            assert_fields_match_the_oracles(f.body)


def agree_or_too_large(new, old):
    """The new front end gives what the oracle gives, or refuses as too
    large exactly what the oracle expands past MAX_SIZE nodes."""
    def over(r):
        body = r.body if isinstance(r, Labelled) else r
        return isinstance(body, MFormula) and size(body) > syntax.MAX_SIZE

    if isinstance(new, Refusal) and new.reason == "too-large":
        assert isinstance(old, Refusal) or over(old), (new, old)
    else:
        assert new == old
        assert not over(new)


@pytest.mark.parametrize("cap", [MAX_SIZE, 25])
@given(text=_formula_texts(), system=_SYSTEMS)
@settings(max_examples=400, deadline=None)
def test_front_end_matches_the_oracle(cap, text, system):
    saved, syntax.MAX_SIZE = syntax.MAX_SIZE, cap
    try:
        for new, old in ((parse_formula, old_parse_formula),
                         (parse_mformula, old_parse_mformula)):
            agree_or_too_large(outcome(new, text, system),
                               outcome(old, text, system))
    finally:
        syntax.MAX_SIZE = saved


@pytest.mark.parametrize("text, line, col", [
    ("x : p -> # note", 1, 10), ("x :# note", 1, 4), ("x : (p #", 1, 8),
    ("x : p ->\n  # note", 2, 3), ("x : p -> # note\n", 2, 1)])
def test_end_of_input_after_a_comment(text, line, col):
    # the end token of a text whose last line ends in a comment sits at
    # the comment's '#'
    err = outcome(parse_formula, text)
    assert (err[1], err[2]) == (line, col)
    assert err == outcome(old_parse_formula, text)


CORPUS = resources.files("qrmodal") / "corpus"
CORPUS_TEXTS = [(CORPUS / e["path"]).read_text() for e in json.loads(
    (CORPUS / "manifest.json").read_text())["entries"]]
SCRIPT_PIECES = PIECES + [
    ";", ",", " ,", ", ", "discharge", "fresh", " discharge ", " fresh y",
    "hyp", "ImpE", "BoxI", "qed", "0", "12", "7 ", " 1,2", "\u0661",
    "\x85", "\u2028", "system MSQR", "theorem t : "]


@st.composite
def _script_mutants(draw):
    # a corpus script with one line mutated, dropped or doubled
    lines = draw(st.sampled_from(CORPUS_TEXTS)).split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["edit", "edit", "edit", "drop", "double"]))
    if kind == "drop":
        del lines[i]
    elif kind == "double":
        lines.insert(i, lines[i])
    else:
        lines[i] = draw(_mutated(lines[i], SCRIPT_PIECES))
    return "\n".join(lines)


def splitlines_only_ends(text):
    """Whether text holds a line end that str.splitlines honours and
    the line reader does not: anything but "\\n"."""
    rest = text.replace("\n", "")
    return rest.splitlines() != ([rest] if rest else [])


def _old_script(text):
    # the oracle cut lines with str.splitlines; texts that tell the two
    # splits apart are compared with the oracle cutting at "\n" only
    split = (lambda t: t.split("\n")) if splitlines_only_ends(text) \
        else str.splitlines
    try:
        return outcome(old_parse_script, text, split)
    except ValueError:  # int() of a non-ASCII digit the oracle let through
        return "ValueError"


# errors about a whole line that is not a step line
LINE_ERRORS = ("expected 'system MSQR' or 'system MSPQR'",
               "expected 'theorem <name> : <formula>'", "content after qed")
NON_ASCII_ID = ("expected '<id>. <formula> ; <justification>'",
                "bad premise id", "bad discharge id", "duplicate step id",
                "step ids are positive")


def id_lists(line):
    """The premise and discharge fields of a step line, split as the
    oracle splits them."""
    fields = blank_split(line.split("#", 1)[0].partition(";")[2])[1:]
    lists = {"premise": [], "discharge": []}
    what = "premise"
    for f in fields:
        if f == "fresh" or f == "discharge" == what:
            break  # a second "discharge" is a field left over
        if f == "discharge":
            what = "discharge"
        else:
            lists[what].append(f)
    return lists


def blank_separated_digits(fields):
    digits = "0123456789"
    return any(a[-1] in digits and b[0] in digits
               for a, b in zip(fields, fields[1:]))


def at_column(old, col):
    """The oracle's error, moved to column col."""
    return refusal(ParseError(old[0], old[1], col, old[3], old[4]))


def column_on_the_line(old, line):
    """The oracle's formula error, with its column moved from the
    formula's start to the line's."""
    start = line.index(":" if old[0].startswith("in theorem") else ".") + 1
    return at_column(old, start + old[2])


def step_field_column(message, line):
    """The column on a step line of the field that a step-line error is
    about, with the justification split into fields as the oracle
    splits it: the rule, the premise ids, "discharge" and its ids,
    "fresh" and its label, then the first field left over."""
    text = line.split("#", 1)[0]
    semi = text.find(";") + 1
    starts = [m.start() + semi + 1
              for m in re.finditer(r"[^ \t\r\n]+", text[semi:])]
    words = blank_split(text[semi:])
    discharge = fresh = None
    i = 1
    while i < len(words) and words[i] not in ("discharge", "fresh"):
        i += 1
    if i < len(words) and words[i] == "discharge":
        discharge = i
        i += 1
        while i < len(words) and words[i] not in ("discharge", "fresh"):
            i += 1
    if i < len(words) and words[i] == "fresh":
        fresh = i
        i += 2
    if message == "empty justification":
        return len(text.rstrip(BLANKS)) + 1
    if message.startswith("unknown rule"):
        return starts[0]
    if message.startswith(("bad premise id", "premise ids")):
        return starts[1]
    if message.startswith("discharge needs"):
        return starts[discharge]
    if message.startswith(("bad discharge id", "discharge ids")):
        return starts[discharge + 1]
    if message.startswith("fresh needs"):
        return starts[fresh]
    if message.startswith("trailing junk"):
        return starts[i]
    return first_nonblank_column(line)  # the step id


def bad_id(line, what):
    """The first piece of a step line's premise or discharge id list
    that is not an ASCII id, with its column.  The list is split at
    commas and blanks; a comma with no piece since the list's start or
    the last comma, and a comma that ends the list, close an empty
    piece, at that comma or at the list's end."""
    col = step_field_column("bad %s id" % what, line)
    text = line.split("#", 1)[0]
    fields = list(re.finditer(r"[^ \t\r\n]+", text[col - 1:]))
    raw = text[col - 1:][:fields[len(id_lists(line)[what]) - 1].end()]
    pieces, piece, seen = [], None, False
    for i, c in enumerate(raw + ","):
        if c == "," or c in BLANKS:
            if piece is not None:
                pieces.append(piece)
                piece, seen = None, True
            if c == ",":
                if not seen:
                    pieces.append(("", i))
                seen = False
        elif piece is None:
            piece = (c, i)
        else:
            piece = (piece[0] + c, piece[1])
    bad, at = next((p, at) for p, at in pieces
                   if not (p.isascii() and p.isdigit()))
    return bad, col + at


def first_nonblank_column(line):
    return len(line) - len(line.lstrip(BLANKS)) + 1


@given(_script_mutants())
@example("system MSQR\ntheorem t : x : r0 & &\n1. x : r0 ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 ; ImpE 1 x\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 ; ImpE 1, ,1 discharge 1,\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 ; ImpI 1 discharge 1 ,\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n 1. x : r0 ; hyp\n"
         "2. x : r0 -> r0 ; ImpI 1 discharge 1 1\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; BoxI 1 fresh y z\n"
         "qed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; BoxI 1 fresh\nqed\n")
@example("  system MSQR\n\ttheorem t x : r0\n1. x : r0 ; hyp\nqed\n")
@example("system MSQR # a\x0cb\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "  qed # \x85\n 2. x : r0 ; hyp # \u2028\n")
@example("system MSQR\ntheorem\xa0t : x : r0\n1. x : r0 ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 -> r0 ; ImpI 1\x0cdischarge 1\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 -> r0 ; ImpI 1 discharge 1, discharge 2\nqed\n")
# the edges of the one-match step reader: each line below leaves it
# for the field-by-field reader, or is refused by the formula alone
@example("system MSQR\ntheorem t : x : r0\n1 . x : r0 ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 ; ImpE 1 ,2\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp # a note\nqed\n")
@example("system MSQR\r\ntheorem t : x : r0\r\n1. x : r0 ; hyp\r\n"
         "2. x : r0 ; ImpE 1,1\r\nqed\r\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 ; ImpE 1,\xa01\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x :\x0cr0 ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n%s. x : r0 ; hyp\nqed\n"
         % ("1" * 641))
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 ; ImpE %s,1\nqed\n" % ("1" * 641))
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 -> r0 ; ImpI 1 discharge\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "1. x : r0 ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; Hyp\nqed\n")
@example("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
         "2. x : r0 -> ; ImpE 1,1 discharge 1 fresh y\nqed\n")
@settings(max_examples=400, deadline=None)
def test_parse_script_matches_the_oracle(text):
    new, old = outcome(parse_script, text), _old_script(text)
    if new == old:
        return
    # the differences: ids that are not ASCII digits, which the oracle
    # read with int() or crashed on; formulas over the size cap; formula
    # errors, which the oracle placed by the formula's own columns; id
    # lists with blanks between digits, which the oracle read as one id;
    # bad ids, which the oracle named as a comma piece of the list's
    # fields joined, at column 1; other step-line errors, which the
    # oracle placed at column 1; and
    # errors about a whole other line, which the oracle placed at column
    # 1 and the reader places at the line's first nonblank character
    assert isinstance(new, Refusal), (new, old)
    if new[4] == "too-large":
        return
    line = text.split("\n")[new[1] - 1]
    if new[0] in LINE_ERRORS:
        assert new == at_column(old, first_nonblank_column(line)), (new, old)
    elif new[0].startswith(("in step ", "in theorem statement: ")):
        assert new == column_on_the_line(old, line), (new, old)
    elif new[0].endswith(" ids must be separated by commas"):
        what = new[0].split()[0]
        assert new[0] == "%s ids must be separated by commas" % what
        assert new[2] == step_field_column(new[0], line), (new, line)
        assert blank_separated_digits(id_lists(line)[what]), (new, old)
    elif new[0].startswith(("bad premise id", "bad discharge id")):
        what = new[0].split()[1]
        piece, col = bad_id(line, what)
        assert (new[0], new[2]) == ("bad %s id %r" % (what, piece), col), \
            (new, line)
        assert (isinstance(old, Refusal)
                and old[0].startswith("bad %s id" % what)
                or any(c.isdigit() and not c.isascii() for c in line)), \
            (new, old)
    elif isinstance(old, Refusal) and old[0] == new[0]:
        assert new == at_column(old, step_field_column(old[0], line)), \
            (new, old)
    else:
        assert any(c.isdigit() and not c.isascii() for c in line), (new, old)
        assert new[0].startswith(NON_ASCII_ID), (new, old)


ID_LISTS = [
    ("ImpE 1 x", "bad premise id 'x'", "x"),
    ("ImpE 1x,2", "bad premise id '1x'", "1x,2"),
    ("ImpE 1,\xa02", "bad premise id '\\xa02'", "\xa02"),
    ("ImpE 1 ,x", "bad premise id 'x'", "x"),
    ("ImpE ,1", "bad premise id ''", ",1"),
    ("ImpE 1, ,2", "bad premise id ''", ",2"),
    ("ImpE 1,", "bad premise id ''", ""),
    ("ImpI 1 discharge 1 y", "bad discharge id 'y'", "y"),
]


@pytest.mark.parametrize("just, message, rest", ID_LISTS,
                         ids=[j for j, _, _ in ID_LISTS])
def test_bad_id_is_the_piece_at_its_column(just, message, rest):
    # the list is split at commas and blanks, and the first piece that is
    # not an id is named at its own column; an empty one at its comma,
    # or past the end of the list
    line = "2. x : r0 ; " + just
    with pytest.raises(ParseError) as exc:
        parse_script("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
                     "%s\nqed\n" % line)
    assert (exc.value.message, exc.value.line) == (message, 4)
    assert line[exc.value.col - 1:] == rest


# -- the tokenize boundary ---------------------------------------------------

@pytest.mark.parametrize("word, identifier", [
    ("x", True), ("_a", True), ("é9", True), ("r0", True),
    ("²x", False), ("٣x", False), ("1x", False), ("bot", False),
    ("U", False), ("x y", False), ("x\n", False), ("x-y", False),
    ("", False)])
def test_is_identifier_is_one_identifier_token(word, identifier):
    # "²x" and "٣x" are words, but start with a digit
    assert syntax.is_identifier(word) is identifier
    toks = outcome(tokenize, word)
    assert identifier == (toks == [word, ""] and word not in syntax._RESERVED)


def test_every_tokenize_call_goes_through_the_module_attribute(monkeypatch):
    # perfbench wraps syntax.tokenize to count tokens, so every text that
    # is tokenized must reach it through the module attribute.  A formula
    # read alone is tokenized once; in a script, a relational formula and
    # a body restated with the same text are not tokenized at all
    seen = []

    def counting(text):
        toks = tokenize(text)
        seen.append((text, toks))
        return toks

    monkeypatch.setattr(syntax, "tokenize", counting)
    parse_formula("x : [M] r0 -> (r1 & ~r2) # note")
    parse_formula("x U y")
    parse_mformula("<P> r0 <-> bot")
    assert len(seen) == 3
    text = (CORPUS / "msqr" / "thm1.prf").read_text()
    script = parse_script(text)
    # step 2 is x U x; step 4 restates the statement's body, but with a
    # blank after it, so its text is another key
    assert [text.strip() for text, _ in seen[3:]] == [
        "x : [] r0 -> r0", "x : [] r0", "x : r0", "x : [] r0 -> r0"]
    assert script.steps[1].formula == parse_formula("x U x")
    for text, toks in seen:
        assert toks == [t.text for t in old_tokenize(text)]
        assert toks[-1] == ""


# -- the one-match step reader ----------------------------------------------

def counted_reads(monkeypatch):
    """How many step lines parse_script reads field by field, and how
    many Line records it builds, as they happen."""
    counts = {"fields": 0, "lines": 0}
    parse_step, line = script_module._parse_step, syntax.Line

    def field_by_field(*args):
        counts["fields"] += 1
        return parse_step(*args)

    def counted_line(*args):
        counts["lines"] += 1
        return line(*args)

    monkeypatch.setattr(script_module, "_parse_step", field_by_field)
    monkeypatch.setattr(syntax, "Line", counted_line)
    return counts


def test_common_step_lines_are_read_with_one_match(monkeypatch):
    # every step line of the bundled corpus has the common shape, so only
    # the system, theorem and qed lines become Line records
    counts = counted_reads(monkeypatch)
    for text in CORPUS_TEXTS:
        parse_script(text)
    assert counts == {"fields": 0, "lines": 3 * len(CORPUS_TEXTS)}


def test_an_odd_step_line_alone_is_read_field_by_field(monkeypatch):
    # a blank beside a comma leaves the common shape: that line alone is
    # read field by field, into the step the common shape gives
    text = (CORPUS / "msqr" / "diamond_mono.prf").read_text()
    plain = next(line for line in text.split("\n")
                 if re.search(r"; ImpE [0-9]+,[0-9]+$", line))
    odd = plain.replace(",", ", ")
    counts = counted_reads(monkeypatch)
    expected = parse_script(text)
    assert counts == {"fields": 0, "lines": 3}
    assert parse_script(text.replace(plain, odd)) == expected
    assert counts == {"fields": 1, "lines": 7}


# -- the group memo of parse_script ------------------------------------------

def memo_free(text):
    """What parse_script gives when each formula is read on its own,
    without the script's memo of parenthesised groups."""
    parse = syntax.parse_formula
    syntax.parse_formula = lambda text, system=None, _memo=None: \
        parse(text, system)
    try:
        return outcome(parse_script, text)
    finally:
        syntax.parse_formula = parse


def assert_memo_changes_nothing(text):
    new, old = outcome(parse_script, text), memo_free(text)
    assert new == old, (text, new, old)
    assert repr(new) == repr(old)


# blanks changed in a restated formula: its tokens stay, its text changes
_RESPACINGS = st.sampled_from([(" ", " "), (" ", "  "), (" ", "\t"),
                               ("(", "( "), (")", " )")])


@st.composite
def _restating_scripts(draw):
    # a script whose steps restate earlier formulas inside new ones, as
    # natural-deduction conclusions do, some with other blanks; some
    # steps are mutated
    bodies = [draw(_sugared())]
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(["(%s) -> (%s)", "[M] ((%s) & (%s))",
                                      "~(%s) | %s", "(%s) <-> (%s)"]))
        body = shape % tuple(draw(st.sampled_from(bodies)).replace(
            *draw(_RESPACINGS)) for _ in range(2))
        if draw(st.integers(0, 3)) == 0:
            body = draw(_mutated(body, PIECES))
        bodies.append(body)
    return "system MSQR\ntheorem t : x : %s\n%sqed\n" % (bodies[-1], "".join(
        "%d. x : %s ; hyp\n" % step for step in enumerate(bodies, 1)))


@given(_restating_scripts())
@example("system MSQR\ntheorem t : x : (ab) -> (a b)\n1. x : (ab) ; hyp\n"
         "2. x : (a b) ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x : (p -> q)\n1. x : (p -> q) ; hyp\n"
         "2. x : (p -> q)) ; hyp\nqed\n")
@settings(max_examples=300, deadline=None)
def test_memo_reads_a_script_as_each_formula_alone(text):
    assert_memo_changes_nothing(text)


def _rarely(odd, usual):
    # a value from odd in one draw of eight, else one from usual
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(odd if i == 0 else usual))


# fields that are identifiers, and rarely fields that are not: reserved
# words, a leading digit (ASCII, superscript, Arabic-Indic), two fields,
# none; so most scripts parse
_LABEL_FIELDS = _rarely(["bot", "U", "1x", "\u00b2x", "\u0663x", "x y", ""],
                        ["x", "y0", "_a", "\u00e99"])
_RELATION_FIELDS = _rarely(["u", "R", ":", "bot"], ["U", "U", "M", "P"])
_PLAIN_BODIES = _rarely(["r0 ->", "[]", "r0 r1"],
                        ["bot", "[] bot", "r0 -> r1", "~r0 & [M] r1",
                         "<P> r0 <-> bot", "[] [] r0 | r1"])
_FIELD_BLANKS = st.sampled_from([" ", "  ", "\t", " \t ", "\r"])


@st.composite
def _plain_steps(draw):
    # a formula text without parentheses: a body, restated under several
    # labels with changed blanks, or a relational formula with odd fields
    kind = draw(st.sampled_from(["body", "body", "group", "relational"]))
    if kind == "relational":
        fields = [draw(_LABEL_FIELDS), draw(_RELATION_FIELDS),
                  draw(_LABEL_FIELDS)]
        if draw(st.integers(0, 7)) == 0:  # "x U" or "x U y z"
            fields = fields[:2] if draw(st.booleans()) else fields + ["z"]
        return draw(_FIELD_BLANKS).join(fields)
    body = draw(_PLAIN_BODIES)
    if draw(st.booleans()):
        body = body.replace(" ", draw(_FIELD_BLANKS))
    if kind == "group":  # a body restated as a group, where keys meet
        body = draw(st.sampled_from(["(%s) -> r0", "~(%s)", "(%s)"])) % body
    colon = draw(st.sampled_from([" : ", ":", " :", ": ", "\t:\t"]))
    return draw(_LABEL_FIELDS) + colon + body


@st.composite
def _plain_scripts(draw):
    steps = draw(st.lists(_plain_steps(), min_size=1, max_size=8))
    return "system MSQR\ntheorem t : %s\n%sqed\n" % (
        draw(st.sampled_from(steps)), "".join(
            "%d. %s ; hyp\n" % step for step in enumerate(steps, 1)))


@given(_plain_scripts())
@example("system MSQR\ntheorem t : x : [] bot\n1. y : [] bot ; hyp\n"
         "2. bot : [] bot ; hyp\nqed\n")
@example("system MSQR\ntheorem t : x :r0 -> r1\n1. y :r0 -> r1 ; hyp\n"
         "2. x : %sr0 -> r1%s ; hyp\nqed\n" % ("(" * 100, ")" * 100))
@example("system MSQR\ntheorem t : x :r0 -> r1\n1. y :r0 -> r1 ; hyp\n"
         "2. x : %sr0 -> r1%s ; hyp\nqed\n" % ("(" * 101, ")" * 101))
@example("system MSQR\ntheorem t : x U\xb2x\n1. x\tP y ; hyp\nqed\n")
@settings(max_examples=400, deadline=None)
def test_memo_reads_plain_formulas_as_each_formula_alone(text):
    assert_memo_changes_nothing(text)


_STEP_FORMULA = re.compile(r"([0-9]+\. *\w+ : )([^;]*)(;.*)")


def step_mutations(text):
    """The text, and for each step line the text with that line dropped,
    doubled, its formula wrapped in 99 parentheses, and the formula's
    first blank-separated field dropped."""
    lines = text.split("\n")
    yield text
    for i, line in enumerate(lines):
        m = _STEP_FORMULA.fullmatch(line)
        if m is None:
            continue
        head, body, tail = m.groups()
        rest = body.split(" ", 1)[-1]
        for new in ([], [line, line], [head + "(" * 99 + body.strip()
                                       + ")" * 99 + " " + tail],
                    [head + rest + tail]):
            yield "\n".join(lines[:i] + new + lines[i + 1:])


def test_memo_reads_corpus_mutants_as_each_formula_alone():
    results = set()
    for text in CORPUS_TEXTS:
        for mutant in step_mutations(text):
            assert_memo_changes_nothing(mutant)
            new = outcome(parse_script, mutant)
            results.add(new.reason if isinstance(new, Refusal) else "parsed")
    assert results >= {"parsed", "syntax", "too-deep"}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_memo_reads_realistic_scripts_as_each_formula_alone(monkeypatch):
    # every proofs input of the benchmark at seed 1: the bundled corpus,
    # derived-rule, BoxI, seriality, mutant, chain and deep scripts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    texts = [op["text"] for op in inputs.proofs_inputs(PERFBENCH.parent, 1)]
    assert set(CORPUS_TEXTS) < set(texts)
    for text in texts:
        assert_memo_changes_nothing(text)


def test_memo_is_asked_before_tokenizing(monkeypatch):
    # a group restated with the same text is cut to "()" before its
    # formula is tokenized, and the steps share its node; restated with
    # other blanks it is read again, equal but not shared, while the
    # groups it holds are still cut
    seen = []

    def recording(text):
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(syntax, "tokenize", recording)
    group = "[M] (p & q) -> <> r"
    script = parse_script(
        "system MSQR\ntheorem t : x : (%s) -> s\n1. x : (%s) ; hyp\n"
        "2. y : ~(%s) ; hyp\n3. z : (p & q) ; hyp\n4. x : ( %s ) ; hyp\n"
        "5. x : (%s) -> s ; hyp\nqed\n" % ((group,) * 5))
    assert [text.strip() for text in seen] == [
        "x : (%s) -> s" % group, "x : ()", "y : ~()", "z : ()",
        "x : ( [M] () -> <> r )", "x : () -> s"]
    node = script.statement.body.left
    s1, s2, s3, s4, s5 = (step.formula.body for step in script.steps)
    assert s1 is node and s2.left is node and s5.left is node
    assert s3 is node.left.body
    assert s4 == node and s4 is not node and s4.left.body is s3


def test_memo_keeps_the_depth_cap_where_a_group_is_reused():
    # a group 60 deep in parentheses is read at depth 1 and then restated
    # inside 40 and 41 further ones: the first fits MAX_DEPTH exactly and
    # reuses the group's node; the second is refused as too deep at the
    # same position as without the memo
    group = "(" * 60 + "p -> q" + ")" * 60
    for outer, fits in ((40, True), (41, False)):
        text = ("system MSQR\ntheorem t : x : %s\n1. x : %s ; hyp\n"
                "2. x : %s ; hyp\nqed\n"
                % (group, group, "(" * outer + group + ")" * outer))
        assert_memo_changes_nothing(text)
        if fits:
            assert outer + 60 == MAX_DEPTH
            script = parse_script(text)
            assert script.steps[1].formula.body is script.statement.body
        else:
            err = outcome(parse_script, text)
            assert (err.reason, err.line, err.col) == \
                ("too-deep", 4, len("2. x : ") + MAX_DEPTH + 1)


def recorded_scans(monkeypatch):
    """The texts whose parentheses _cut_groups scans, in order, as the
    scans happen."""
    scanned = []
    pattern = syntax._PARENS

    class Recording:
        def finditer(self, text):
            scanned.append(text.strip())
            return pattern.finditer(text)

    monkeypatch.setattr(syntax, "_PARENS", Recording())
    return scanned


def test_memo_is_asked_for_the_outermost_group_before_the_scan(monkeypatch):
    # a formula that is one restated group after its first "(" takes the
    # group's node without scanning the parentheses inside it; any other
    # text around the group, or other blanks in it, is scanned as before
    scanned = recorded_scans(monkeypatch)
    group = "[M] (p & q) -> <> (r | s)"
    text = ("system MSQR\ntheorem t : x : (%s) -> s\n1. x : (%s) ; hyp\n"
            "2. y : ~(%s) ; hyp\n3. z : [] (%s)   ; hyp\n"
            "4. x : (%s) -> s ; hyp\n5. x : ( %s ) ; hyp\nqed\n"
            % ((group,) * 6))
    script = parse_script(text)
    assert scanned == ["x : (%s) -> s" % group, "x : (%s) -> s" % group,
                       "x : ( %s )" % group]
    node = script.statement.body.left
    s1, s2, s3, s4, s5 = (step.formula.body for step in script.steps)
    assert s1 is node and s2.left is node and s3.body is node
    assert s4.left is node and s5 == node and s5 is not node
    assert_memo_changes_nothing(text)


def test_memo_asked_for_the_outermost_group_keeps_the_depth_cap(
        monkeypatch):
    # a group 99 deep in parentheses, restated inside one more, fits
    # MAX_DEPTH and takes the memo's node unscanned; inside two more it
    # is refused as too deep, at the same position as without the memo
    scanned = recorded_scans(monkeypatch)
    group = "(" * 99 + "p -> q" + ")" * 99
    for outer, fits in ((1, True), (2, False)):
        scanned.clear()
        restated = "(" * outer + group + ")" * outer
        text = ("system MSQR\ntheorem t : x : (%s)\n1. x : (%s) ; hyp\n"
                "2. x : %s ; hyp\nqed\n" % (group, group, restated))
        result = outcome(parse_script, text)
        if fits:
            assert outer + 99 == MAX_DEPTH
            assert scanned == ["x : (%s)" % group]
            statement = result.statement.body
            assert all(step.formula.body is statement
                       for step in result.steps)
        else:
            assert scanned == ["x : (%s)" % group, "x : " + restated]
            assert (result.reason, result.line, result.col) == \
                ("too-deep", 4, len("2. x : ") + MAX_DEPTH + 1)
        assert_memo_changes_nothing(text)


@pytest.mark.parametrize("step", [
    # a ")" before the first "(": the cut text is refused, then read alone
    "x ) : (p & q)",
    # "(p" is not a group that ends the text, though "p" is a key
    "x : (pq"])
def test_memo_asked_for_the_outermost_group_refuses_as_alone(step):
    text = ("system MSQR\ntheorem t : x : [M] (p & q)\n1. x : (p) ; hyp\n"
            "2. %s ; hyp\nqed\n" % step)
    assert isinstance(outcome(parse_script, text), Refusal)
    assert_memo_changes_nothing(text)


def test_memo_shares_equal_groups_within_one_script_only():
    text = ("system MSQR\ntheorem t : x : [M] (p -> q) -> (p -> q)\n"
            "1. x : (p -> q) & r ; hyp\n"
            "2. x : ~(p -> q) ; hyp\n"
            "3. x : [M] (p -> q) -> (p -> q) ; hyp\nqed\n")
    first, second = parse_script(text), parse_script(text)
    assert first == second
    s1, s2, s3 = (step.formula.body for step in first.steps)
    group = s3.right
    assert s3.left.body is group
    assert s2.left is group
    assert s1.left.left is group
    assert first.statement.body.right is group

    def node_ids(script):
        return {id(node) for f in (script.statement, *(
            step.formula for step in script.steps))
            for node in _nodes(f.body) if node is not BOT}

    assert not node_ids(first) & node_ids(second)
