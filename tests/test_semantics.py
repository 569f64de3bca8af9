import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qrmodal.semantics import (
    Frame,
    InvalidFrame,
    Model,
    Structure,
    UnboundLabel,
    UnknownWorld,
    WrongSystem,
    compile_formulas,
    describe_violation,
    evaluate,
    holds,
    parse_structure,
    print_structure,
    truth_sets,
    validate_frame,
)
from qrmodal.syntax import (
    Bottom,
    Box,
    Implies,
    Labelled,
    ParseError,
    Prop,
    Rel,
    Relational,
    System,
    legal_rels,
    parse_formula,
    parse_mformula,
)

U_TOTAL2 = {(0, 0), (0, 1), (1, 0), (1, 1)}


def two_world_model():
    """U total on {v, w}, v measures to the classical world w, r0 true at w."""
    frame = Frame(System.MSQR, 2, U_TOTAL2, {(0, 1), (1, 1)}, names=("v", "w"))
    return Model(frame, {1: {"r0"}})


def truth_set(model, phi):
    # independent oracle: bottom-up set computation instead of
    # per-world recursion
    worlds = range(model.frame.size)
    if isinstance(phi, Bottom):
        return frozenset()
    if isinstance(phi, Prop):
        return frozenset(w for w in worlds if phi.name in model.valuation[w])
    if isinstance(phi, Implies):
        a = truth_set(model, phi.left)
        b = truth_set(model, phi.right)
        return frozenset(w for w in worlds if w not in a or w in b)
    body = truth_set(model, phi.body)
    rel = model.frame.pairs(phi.rel)
    return frozenset(w for w in worlds
                     if all(v in body for (u, v) in rel if u == w))


# -- frame validation --------------------------------------------------------

def test_one_world_classical_frame_is_valid():
    frame = Frame(System.MSQR, 1, {(0, 0)}, {(0, 0)})
    assert validate_frame(frame) == []
    assert frame.classical(0)


def test_two_world_frame_missing_serial_and_shift():
    frame = Frame(System.MSQR, 2, U_TOTAL2, {(0, 1)}, names=("v", "w"))
    got = {(v.prop, v.witnesses) for v in validate_frame(frame)}
    assert got == {("not-serial", (1,)), ("not-shift-reflexive", (0, 1))}


def test_two_world_frame_valid():
    frame = Frame(System.MSQR, 2, U_TOTAL2, {(0, 1), (1, 1)})
    assert validate_frame(frame) == []


def test_u_must_be_equivalence():
    frame = Frame(System.MSQR, 2, {(0, 0), (1, 1), (0, 1)}, {(0, 0), (1, 1)})
    props = {v.prop for v in validate_frame(frame)}
    assert props == {"not-equivalence"}


def test_meas_outside_u():
    frame = Frame(System.MSQR, 2, {(0, 0), (1, 1)}, {(0, 1), (1, 1), (0, 0)})
    props = {v.prop for v in validate_frame(frame)}
    assert "meas-not-sub-U" in props


def test_classical_world_with_second_successor():
    frame = Frame(System.MSQR, 2, U_TOTAL2, {(0, 0), (0, 1), (1, 1)})
    props = {v.prop for v in validate_frame(frame)}
    assert "classical-not-unique" in props


def test_mspqr_requires_transitivity_not_seriality():
    # P = {(0,1),(1,1)} is transitive and classically reachable
    frame = Frame(System.MSPQR, 2, U_TOTAL2, {(0, 1), (1, 1)})
    assert validate_frame(frame) == []
    # a chain missing its composite fails
    u3 = {(a, b) for a in range(3) for b in range(3)}
    frame = Frame(System.MSPQR, 3, u3, {(0, 1), (1, 2), (2, 2)})
    props = {v.prop for v in validate_frame(frame)}
    assert "not-transitive" in props


def test_mspqr_classical_reachability():
    frame = Frame(System.MSPQR, 2, U_TOTAL2, {(0, 1)})
    props = {v.prop for v in validate_frame(frame)}
    assert "no-classical-reachable" in props
    # MSQR-style seriality is not enough: 0 -> 1 -> 0 never reaches a
    # classical world and is not transitive either
    frame = Frame(System.MSPQR, 2, U_TOTAL2, {(0, 1), (1, 0)})
    props = {v.prop for v in validate_frame(frame)}
    assert "no-classical-reachable" in props


def test_describe_violation_uses_world_names():
    frame = Frame(System.MSQR, 2, U_TOTAL2, {(0, 1)}, names=("v", "w"))
    texts = [describe_violation(frame, v) for v in validate_frame(frame)]
    assert texts == ["not-serial at (w)", "not-shift-reflexive at (v, w)"]


def test_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        Frame(System.MSQR, 0, set(), set())
    with pytest.raises(ValueError):
        Frame(System.MSQR, 1, {(0, 1)}, set())
    with pytest.raises(ValueError):
        Frame(System.MSQR, 2, U_TOTAL2, set(), names=("v", "v"))
    with pytest.raises(WrongSystem):
        Frame(System.MSQR, 1, {(0, 0)}, {(0, 0)}).pairs(Rel.P)


# -- evaluation --------------------------------------------------------------

def test_eval_two_world_examples():
    m = two_world_model()
    assert evaluate(m, 0, parse_mformula("[M] r0")) is True
    assert evaluate(m, 0, parse_mformula("[] r0")) is False
    assert evaluate(m, 0, parse_mformula("bot")) is False
    assert evaluate(m, 1, parse_mformula("bot")) is False


def test_eval_one_world_classical_fixpoint():
    frame = Frame(System.MSQR, 1, {(0, 0)}, {(0, 0)})
    m = Model(frame, {0: {"r0"}})
    assert evaluate(m, 0, parse_mformula("[M](r0 <-> [M] r0)")) is True


def test_eval_checks_world_range_and_system():
    m = two_world_model()
    with pytest.raises(UnknownWorld):
        evaluate(m, 2, parse_mformula("r0"))
    with pytest.raises(WrongSystem, match="relation P is not part of MSQR"):
        evaluate(m, 0, parse_mformula("[P] r0"))


def test_eval_matches_truth_set_oracle():
    from qrmodal.search import enumerate_frames

    formulas = [parse_mformula(s) for s in (
        "r0", "bot", "r0 -> r1", "[M] r0", "[] (r0 -> r1)",
        "<M> r0", "[M](r0 <-> [M] r0)", "~ r0 & r1", "r0 | ~ r1",
        "[M] r0 -> [M] [M] r0", "<> (r0 & r1)",
    )]
    for size in (1, 2, 3):
        for frame in enumerate_frames(System.MSQR, size):
            for mask in range(1 << (2 * size)):
                val = {w: {p for i, p in enumerate(("r0", "r1"))
                           if mask >> (2 * w + i) & 1}
                       for w in range(size)}
                model = Model(frame, val)
                for phi in formulas:
                    expect = truth_set(model, phi)
                    for w in range(size):
                        assert evaluate(model, w, phi) == (w in expect)


def test_duality_shares_one_ast():
    assert parse_mformula("<M> r0") == parse_mformula("~ [M] ~ r0")
    assert parse_mformula("<> r0") == parse_mformula("~ [] ~ r0")


def test_conjunction_evaluates_componentwise():
    from qrmodal.search import enumerate_frames

    a, b = parse_mformula("r0"), parse_mformula("[M] r1")
    both = parse_mformula("r0 & [M] r1")
    for size in (1, 2, 3):
        for frame in enumerate_frames(System.MSQR, size):
            model = Model(frame, {w: {"r0", "r1"} if w % 2 else {"r1"}
                                  for w in range(size)})
            for w in range(size):
                assert evaluate(model, w, both) == (
                    evaluate(model, w, a) and evaluate(model, w, b))


def test_classical_world_meas_box_fixpoint():
    """At a classical world the measurement box is transparent."""
    from qrmodal.search import enumerate_frames

    formulas = [parse_mformula(s) for s in ("r0", "r0 -> r1", "[M] r0", "<M> r1")]
    for size in (1, 2, 3):
        for frame in enumerate_frames(System.MSQR, size):
            model = Model(frame, {w: {"r0"} if w % 2 == 0 else {"r1"}
                                  for w in range(size)})
            for w in range(size):
                if not frame.classical(w):
                    continue
                for phi in formulas:
                    assert (evaluate(model, w, Box(Rel.M, phi))
                            == evaluate(model, w, phi))


def test_monotone_agreement():
    # adding valuation entries for unused propositions changes nothing
    m = two_world_model()
    m2 = Model(m.frame, {0: {"junk"}, 1: {"r0", "junk2"}})
    phi = parse_mformula("[M](r0 <-> [M] r0)")
    for w in range(2):
        assert evaluate(m, w, phi) == evaluate(m2, w, phi)


# -- structures: holds and entailment ---------------------------------------

def test_holds_labelled_and_relational():
    m = two_world_model()
    st_ = Structure(m, {"x": 0, "y": 0})
    assert holds(st_, parse_formula("x U y")) is True
    assert holds(st_, parse_formula("x : <M> r0")) is True
    assert holds(st_, parse_formula("x M y")) is False
    with pytest.raises(UnboundLabel):
        holds(st_, parse_formula("z : r0"))


def test_entailment_examples():
    # gamma entails alpha in a structure unless all of gamma holds there
    # while alpha fails
    m = two_world_model()
    gamma = [parse_formula("x : [] r0"), parse_formula("x U y")]
    alpha = parse_formula("y : r0")
    for ix, iy in itertools.product(range(2), repeat=2):
        st_ = Structure(m, {"x": ix, "y": iy})
        assert not all(holds(st_, g) for g in gamma) or holds(st_, alpha)
    st_ = Structure(m, {"x": 1})
    assert holds(st_, parse_formula("x : r0 -> [] r0")) is False
    # a premise false everywhere makes the entailment vacuous
    assert holds(st_, parse_formula("x : bot")) is False


def test_holds_unbound_label_in_false_formula():
    # the label check comes first, also for a formula false everywhere
    m = two_world_model()
    st_ = Structure(m, {"x": 0})
    with pytest.raises(UnboundLabel):
        holds(st_, parse_formula("z : bot"))


def test_structure_rejects_out_of_range():
    m = two_world_model()
    with pytest.raises(UnknownWorld):
        Structure(m, {"x": 5})
    with pytest.raises(UnknownWorld):
        Model(m.frame, {3: {"r0"}})


# -- model files -------------------------------------------------------------

MODEL_TEXT = """\
system MSQR
worlds v w
U v v
U v w
U w v
U w w
M v w
M w w
val w: r0
interp x = v
"""


def test_parse_structure_round_trip():
    st_ = parse_structure(MODEL_TEXT)
    assert st_.model.frame.names == ("v", "w")
    assert holds(st_, parse_formula("x : [M] r0"))
    assert print_structure(st_) == MODEL_TEXT
    again = parse_structure(print_structure(st_))
    assert print_structure(again) == MODEL_TEXT


def test_parse_structure_refuses_invalid_frame():
    bad = MODEL_TEXT.replace("M w w\n", "")
    with pytest.raises(InvalidFrame) as exc:
        parse_structure(bad)
    assert any(v.prop == "not-serial" for v in exc.value.violations)
    st_ = parse_structure(bad, allow_invalid=True)
    assert validate_frame(st_.model.frame) != []


def test_parse_structure_wrong_relation_symbol():
    bad = MODEL_TEXT.replace("system MSQR", "system MSPQR")
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert exc.value.reason == "wrong-system"


def test_parse_structure_diagnostics():
    with pytest.raises(ParseError):
        parse_structure(MODEL_TEXT.replace("worlds v w", "worlds v v"))
    with pytest.raises(ParseError):
        parse_structure(MODEL_TEXT + "val w: r1\n")
    with pytest.raises(ParseError):
        parse_structure(MODEL_TEXT.replace("M v w", "M v q"))
    with pytest.raises(ParseError):
        parse_structure("worlds v\n" + MODEL_TEXT)


# -- random-model property: oracle agreement --------------------------------

@st.composite
def _random_model(draw):
    from qrmodal.search import random_valid_frame

    seed = draw(st.integers(0, 2 ** 32 - 1))
    frame = random_valid_frame(System.MSQR, 3, seed)
    val = {w: draw(st.sets(st.sampled_from(["r0", "r1"])))
           for w in range(frame.size)}
    return Model(frame, val)


@given(_random_model(), st.integers(0, 2))
@settings(max_examples=120)
def test_oracle_agreement_random_models(model, widx):
    phi = parse_mformula("([M] r0 -> r1) <-> <M> (r0 | r1)")
    w = widx % model.frame.size
    assert evaluate(model, w, phi) == (w in truth_set(model, phi))


_PROPS = ["r0", "r1", "r2"]


def _mformulas(rels):
    return st.recursive(
        st.one_of(st.just(Bottom()), st.sampled_from(_PROPS).map(Prop)),
        lambda kids: st.one_of(
            st.builds(Implies, kids, kids),
            st.builds(Box, st.sampled_from(sorted(rels, key=str)), kids)),
        max_leaves=10)


@st.composite
def _models_and_formulas(draw):
    from qrmodal.search import random_valid_frame

    system = draw(st.sampled_from(list(System)))
    frame = random_valid_frame(system, 4, draw(st.integers(0, 2 ** 32 - 1)))
    # dropping measurement pairs may leave worlds without successors
    drop = draw(st.sets(st.sampled_from(sorted(frame.meas))))
    frame = Frame(system, frame.size, frame.u, frame.meas - drop)
    vals = draw(st.lists(
        st.lists(st.sets(st.sampled_from(_PROPS)),
                 min_size=frame.size, max_size=frame.size),
        min_size=1, max_size=5))
    phis = draw(st.lists(_mformulas(legal_rels(system)),
                         min_size=1, max_size=3))
    return frame, vals, phis


@given(_models_and_formulas())
@settings(max_examples=150, deadline=None)
def test_truth_sets_agree_with_oracle(case):
    # valuation i of the batch is bit i of every truth-set int
    frame, vals, phis = case
    columns = {p: [sum(1 << i for i, val in enumerate(vals) if p in val[w])
                   for w in range(frame.size)] for p in _PROPS}
    program, roots = compile_formulas(phis)
    sat = truth_sets(program, frame, columns, (1 << len(vals)) - 1)
    for i, val in enumerate(vals):
        model = Model(frame, dict(enumerate(val)))
        for phi, root in zip(phis, roots):
            expect = truth_set(model, phi)
            for w in range(frame.size):
                assert (sat[root][w] >> i & 1) == (w in expect)
                assert evaluate(model, w, phi) == (w in expect)


@given(_models_and_formulas(), st.data())
@settings(max_examples=60, deadline=None)
def test_holds_agrees_with_oracle(case, data):
    frame, vals, phis = case
    model = Model(frame, dict(enumerate(vals[0])))
    worlds = st.integers(0, frame.size - 1)
    interp = {"x": data.draw(worlds), "y": data.draw(worlds)}
    structure = Structure(model, interp)
    for rel in legal_rels(frame.system):
        pairs = frame.u if rel is Rel.U else frame.meas
        assert holds(structure, Relational("x", rel, "y")) == \
            ((interp["x"], interp["y"]) in pairs)
    for phi in phis:
        assert holds(structure, Labelled("y", phi)) == \
            (interp["y"] in truth_set(model, phi))
