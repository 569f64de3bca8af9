import pytest
from hypothesis import given, settings, strategies as st

from qrmodal.kernel import check, parse_script
from qrmodal.semantics import holds, parse_structure
from qrmodal.syntax import (
    BOT,
    MAX_DEPTH,
    Bottom,
    Box,
    Implies,
    Labelled,
    ParseError,
    Prop,
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
    props_in,
    props_in_formula,
    rels_in_formula,
    substitute,
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


def deepest(text_at) -> int:
    """The largest depth d at which text_at(d) parses; the next one must
    fail as too deep."""
    depth = 0
    while True:
        try:
            parse_formula(text_at(depth + 1))
        except ParseError as e:
            assert e.reason == "too-deep"
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


# levels of the expanded tree that one more nesting of each operator adds
GROWTH = {"~": 1, "[]": 1, "<>": 3, "->": 1, "&": 2, "|": 2, "<->": 4}
CAPPED_OPS = ["("] + sorted(GROWTH)


@pytest.mark.parametrize("op", CAPPED_OPS)
def test_too_deep_formula_is_refused(op):
    with pytest.raises(ParseError) as exc:
        parse_formula("x : " + nested(op, 10_000))
    assert exc.value.reason == "too-deep"
    assert exc.value.message == "formula nested deeper than %d levels" \
        % MAX_DEPTH


@pytest.mark.parametrize("op", sorted(GROWTH))
def test_cap_counts_the_expanded_tree(op):
    depth = deepest(lambda d: "x : " + nested(op, d))
    got = height(parse_mformula(nested(op, depth)))
    assert MAX_DEPTH - GROWTH[op] < got <= MAX_DEPTH


def test_cap_counts_parentheses():
    assert deepest(lambda d: "x : " + nested("(", d)) == MAX_DEPTH
    # k nested "<->" are k parentheses but 4k levels once expanded
    assert deepest(lambda d: "x : " + nested("<->", d)) == MAX_DEPTH // 4


# a nested "<->" copies both sides, so its tree doubles with every level
# and walking the deepest one is exponential work whatever the recursion
@pytest.mark.parametrize("op", [op for op in CAPPED_OPS if op != "<->"])
def test_deepest_accepted_formula_is_usable(op):
    def statement(depth):
        a = nested(op, depth)
        return "x : (%s) -> (%s)" % (a, a)

    depth = deepest(statement)
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
    assert props_in_formula(f) == frozenset({"r0", "r1"})
    assert rels_in_formula(f) == frozenset({Rel.M})
    g = parse_formula("x U y")
    assert labels_in(g) == frozenset({"x", "y"})
    assert props_in_formula(g) == frozenset()
    assert props_in(parse_mformula("bot")) == frozenset()


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
