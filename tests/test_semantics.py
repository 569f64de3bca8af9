import itertools
import random
import time

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
    bit_indices,
    legal_rels,
    parse_formula,
    parse_mformula,
)

U_TOTAL2 = (0b11, 0b11)


def masks(n, pairs):
    """The successor bitmasks, as Frame takes them, of the relation on n
    worlds with these pairs; pairs inverts it.  The oracles read and
    build relations as pairs through these two alone."""
    out = [0] * n
    for v, w in pairs:
        out[v] |= 1 << w
    return tuple(out)


def pairs(masks):
    """The pairs of a relation given as successor bitmasks."""
    return frozenset((v, w) for v, mask in enumerate(masks)
                     for w in range(len(masks)) if mask >> w & 1)


def two_world_model():
    """U total on {v, w}, v measures to the classical world w, r0 true at w."""
    frame = Frame(System.MSQR, 2, U_TOTAL2, (0b10, 0b10), names=("v", "w"))
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
    rel = pairs(model.frame.u if phi.rel is Rel.U else model.frame.meas)
    return frozenset(w for w in worlds
                     if all(v in body for (u, v) in rel if u == w))


def per_world_truth_sets(program, frame, columns, full):
    # oracle for truth_sets: one int per world instead of one packed over
    # all worlds, so bit i of sat[node][w] is the node's truth at world w
    # under valuation i of the batch, and columns[p][w] likewise
    zero = [0] * frame.size
    sat = []
    for node in program:
        kind = node[0]
        if kind is Implies:
            col = [(full ^ a) | b for a, b in zip(sat[node[1]], sat[node[2]])]
        elif kind is Box:
            body = sat[node[2]]
            col = []
            for mask in frame.masks(node[1]):
                got = full
                for w in bit_indices(mask):
                    got &= body[w]
                col.append(got)
        elif kind is Prop:
            col = columns.get(node[1], zero)
        else:
            col = zero
        sat.append(col)
    return sat


def pack(slices, width):
    """One int holding world w's slice at bit w * width."""
    return sum(x << w * width for w, x in enumerate(slices))


# -- frame validation --------------------------------------------------------

def test_one_world_classical_frame_is_valid():
    frame = Frame(System.MSQR, 1, (1,), (1,))
    assert validate_frame(frame) == []
    assert frame.meas == (0b1,)


def test_two_world_frame_missing_serial_and_shift():
    frame = Frame(System.MSQR, 2, U_TOTAL2, (0b10, 0), names=("v", "w"))
    got = {(v.prop, v.witnesses) for v in validate_frame(frame)}
    assert got == {("not-serial", (1,)), ("not-shift-reflexive", (0, 1))}


def test_two_world_frame_valid():
    frame = Frame(System.MSQR, 2, U_TOTAL2, (0b10, 0b10))
    assert validate_frame(frame) == []


def test_u_must_be_equivalence():
    frame = Frame(System.MSQR, 2, (0b11, 0b10), (0b01, 0b10))
    props = {v.prop for v in validate_frame(frame)}
    assert props == {"not-equivalence"}


def test_meas_outside_u():
    frame = Frame(System.MSQR, 2, (0b01, 0b10), (0b11, 0b10))
    props = {v.prop for v in validate_frame(frame)}
    assert "meas-not-sub-U" in props


def test_classical_world_with_second_successor():
    frame = Frame(System.MSQR, 2, U_TOTAL2, (0b11, 0b10))
    props = {v.prop for v in validate_frame(frame)}
    assert "classical-not-unique" in props


def test_mspqr_requires_transitivity_not_seriality():
    # P = {(0,1),(1,1)} is transitive and classically reachable
    frame = Frame(System.MSPQR, 2, U_TOTAL2, (0b10, 0b10))
    assert validate_frame(frame) == []
    # a chain missing its composite fails
    frame = Frame(System.MSPQR, 3, (0b111,) * 3, (0b010, 0b100, 0b100))
    props = {v.prop for v in validate_frame(frame)}
    assert "not-transitive" in props


def test_mspqr_classical_reachability():
    frame = Frame(System.MSPQR, 2, U_TOTAL2, (0b10, 0))
    props = {v.prop for v in validate_frame(frame)}
    assert "no-classical-reachable" in props
    # MSQR-style seriality is not enough: 0 -> 1 -> 0 never reaches a
    # classical world and is not transitive either
    frame = Frame(System.MSPQR, 2, U_TOTAL2, (0b10, 0b01))
    props = {v.prop for v in validate_frame(frame)}
    assert "no-classical-reachable" in props


def test_describe_violation_uses_world_names():
    frame = Frame(System.MSQR, 2, U_TOTAL2, (0b10, 0), names=("v", "w"))
    texts = [describe_violation(frame, v) for v in validate_frame(frame)]
    assert texts == ["not-serial at (w)", "not-shift-reflexive at (v, w)"]


def test_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        Frame(System.MSQR, 0, (), ())
    for u, meas in [((0b10,), (0,)), ((-1,), (0,)), ((1,), (1, 1))]:
        with pytest.raises(ValueError, match=r"need 1 successor masks"):
            Frame(System.MSQR, 1, u, meas)
    with pytest.raises(ValueError):
        Frame(System.MSQR, 2, U_TOTAL2, (0, 0), names=("v", "v"))
    with pytest.raises(WrongSystem):
        Frame(System.MSQR, 1, (1,), (1,)).masks(Rel.P)


def old_validate_frame(frame):
    """The validator as first written, straight from the conditions
    over the pair sets, cubic in the world count: the oracle for
    validate_frame's bitmask version."""
    out = []
    rng = range(frame.size)
    u, meas = pairs(frame.u), pairs(frame.meas)

    for w in rng:
        if (w, w) not in u:
            out.append(("not-equivalence", (w,)))
    for (v, w) in sorted(u):
        if (w, v) not in u:
            out.append(("not-equivalence", (v, w)))
    for (v, w) in sorted(u):
        for z in rng:
            if (w, z) in u and (v, z) not in u:
                out.append(("not-equivalence", (v, w, z)))
    for (v, w) in sorted(meas):
        if (v, w) not in u:
            out.append(("meas-not-sub-U", (v, w)))
    if frame.system is System.MSQR:
        for v in rng:
            if not any((v, w) in meas for w in rng):
                out.append(("not-serial", (v,)))
        for (v, w) in sorted(meas):
            if (w, w) not in meas:
                out.append(("not-shift-reflexive", (v, w)))
    else:
        for (v, w) in sorted(meas):
            for z in rng:
                if (w, z) in meas and (v, z) not in meas:
                    out.append(("not-transitive", (v, w, z)))
        for v in rng:
            if not any((v, w) in meas and (w, w) in meas for w in rng):
                out.append(("no-classical-reachable", (v,)))
    for v in rng:
        if (v, v) in meas:
            for w in rng:
                if w != v and (v, w) in meas:
                    out.append(("classical-not-unique", (v, w)))
    return out


def _near_frame(rng, system, n):
    """A frame on n worlds near the valid ones, mostly invalid: U from
    a random partition, Meas a random subset of U, then a few pairs of
    each relation flipped."""
    blocks = [rng.randrange(n) for _ in range(n)]
    u = {(v, w) for v in range(n) for w in range(n) if blocks[v] == blocks[w]}
    meas = {p for p in u if rng.random() < 0.4}
    pairs = list(itertools.product(range(n), repeat=2))
    for rel in (u, meas):
        for _ in range(rng.randrange(3)):
            rel ^= {rng.choice(pairs)}
    return Frame(system, n, masks(n, u), masks(n, meas))


def test_validate_frame_matches_the_pair_set_oracle():
    rng = random.Random(19)
    invalid = 0
    for i in range(4000):
        frame = _near_frame(rng, list(System)[i % 2], rng.randint(1, 6))
        got = [(v.prop, v.witnesses) for v in validate_frame(frame)]
        assert got == old_validate_frame(frame), frame
        invalid += bool(got)
    assert invalid > 3000


def test_validate_frame_is_quick_on_a_large_block():
    # one U-block of 400 worlds, world 0 classical and every world
    # measuring it: 160,000 U-pairs, valid
    n = 400
    frame = Frame(System.MSQR, n, [(1 << n) - 1] * n, [1] * n)
    t0 = time.perf_counter()
    assert validate_frame(frame) == []
    assert time.perf_counter() - t0 < 5.0


# -- evaluation --------------------------------------------------------------

def test_eval_two_world_examples():
    m = two_world_model()
    assert evaluate(m, 0, parse_mformula("[M] r0")) is True
    assert evaluate(m, 0, parse_mformula("[] r0")) is False
    assert evaluate(m, 0, parse_mformula("bot")) is False
    assert evaluate(m, 1, parse_mformula("bot")) is False


def test_eval_one_world_classical_fixpoint():
    frame = Frame(System.MSQR, 1, (1,), (1,))
    m = Model(frame, {0: {"r0"}})
    assert evaluate(m, 0, parse_mformula("[M](r0 <-> [M] r0)")) is True


def test_eval_checks_world_range_and_system():
    m = two_world_model()
    with pytest.raises(UnknownWorld):
        evaluate(m, 2, parse_mformula("r0"))
    for phi in ("[P] r0", "[M] r0 -> [] [P] r0"):
        with pytest.raises(WrongSystem,
                           match="relation P is not part of MSQR"):
            evaluate(m, 0, parse_mformula(phi))


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
                if not frame.meas[w] >> w & 1:
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


def test_structure_from_a_mapping_or_pairs_in_any_order():
    m = two_world_model()
    forms = [Structure(m, {"y": 1, "x": 0}),
             Structure(m, [("x", 0), ("y", 1)]),
             Structure(m, iter([("y", 1), ("x", 0)]))]
    for st_ in forms:
        assert st_ == forms[0] and hash(st_) == hash(forms[0])
        assert st_.interp == (("x", 0), ("y", 1))
        assert print_structure(st_) == print_structure(forms[0])
    assert len(set(forms)) == 1


def test_interpretation_refuses_assignment():
    st_ = parse_structure(MODEL_TEXT)
    with pytest.raises(TypeError):
        st_.interp["x"] = 7
    assert st_.interp == (("x", 0),)
    assert holds(st_, parse_formula("x : [M] r0")) is True
    assert holds(st_, parse_formula("x M x")) is False
    assert print_structure(st_) == MODEL_TEXT


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


def _named_structure(names=("v", "w"), props=("r0",), label="x"):
    frame = Frame(System.MSQR, 2, U_TOTAL2, (0b10, 0b10), names=names)
    return Structure(Model(frame, {1: set(props)}), {label: 0})


def test_parse_structure_round_trip():
    st_ = parse_structure(MODEL_TEXT)
    assert st_.model.frame.names == ("v", "w")
    assert holds(st_, parse_formula("x : [M] r0"))
    assert print_structure(st_) == MODEL_TEXT
    again = parse_structure(print_structure(st_))
    assert print_structure(again) == MODEL_TEXT
    # world names need only be fields without "#"
    odd = _named_structure(names=("v:", "="))
    assert parse_structure(print_structure(odd)) == odd


@pytest.mark.parametrize("kind, value, structure", [
    ("proposition", "a b", _named_structure(props=("a b",))),
    ("proposition", "p#q", _named_structure(props=("p#q",))),
    ("proposition", "bot", _named_structure(props=("r0", "bot"))),
    ("world name", "a b", _named_structure(names=("v", "a b"))),
    ("world name", "a#", _named_structure(names=("a#", "w"))),
    ("world name", "", _named_structure(names=("v", ""))),
    ("world name", "a\tb", _named_structure(names=("a\tb", "w"))),
    ("label", "x y", _named_structure(label="x y")),
    ("label", "U", _named_structure(label="U")),
], ids=["prop-blank", "prop-hash", "prop-reserved", "world-blank",
        "world-hash", "world-empty", "world-tab", "label-blank",
        "label-reserved"])
def test_print_structure_refuses_what_parse_structure_reads_otherwise(
        kind, value, structure):
    # written out, each of these would be read back as another structure
    # or refused, so the writer names the value instead
    with pytest.raises(ValueError) as exc:
        print_structure(structure)
    assert kind in str(exc.value) and repr(value) in str(exc.value)


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
    meas = pairs(frame.meas)
    drop = draw(st.sets(st.sampled_from(sorted(meas))))
    frame = Frame(system, frame.size, frame.u, masks(frame.size, meas - drop))
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
    # valuation i of a batch of W is bit w * W + i of a truth-set int
    frame, vals, phis = case
    width = len(vals)
    columns = {p: pack([sum(1 << i for i, val in enumerate(vals)
                            if p in val[w]) for w in range(frame.size)],
                       width) for p in _PROPS}
    program, roots = compile_formulas(phis)
    sat = truth_sets(program, frame, columns, (1 << width) - 1)
    for i, val in enumerate(vals):
        model = Model(frame, dict(enumerate(val)))
        for phi, root in zip(phis, roots):
            expect = truth_set(model, phi)
            for w in range(frame.size):
                assert (sat[root] >> w * width + i & 1) == (w in expect)
                assert evaluate(model, w, phi) == (w in expect)


@st.composite
def _any_frames(draw):
    # 1 to 6 worlds in either system, valid or not: the frames of
    # _models_and_formulas, or a U partition with measurement masks drawn
    # from a pool of up to three, so that worlds share successor masks,
    # the empty one included
    if draw(st.booleans()):
        return draw(_models_and_formulas())[0]
    system = draw(st.sampled_from(list(System)))
    n = draw(st.integers(1, 6))
    block = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    u = [sum(1 << w for w in range(n) if block[w] == block[v])
         for v in range(n)]
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                         max_size=3))
    meas = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return Frame(system, n, u, meas)


@given(_any_frames(), st.sampled_from([1, 2, 64, 4096]),
       st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_truth_sets_agree_with_per_world_oracle(frame, batch, seed,
                                                       data):
    # every node, every world, every valuation of the batch; r2 has no
    # column, and a box over a relation outside the system must raise in
    # both
    phis = data.draw(st.lists(_mformulas(set(Rel)), min_size=1, max_size=3))
    rng = random.Random(seed)
    full = (1 << batch) - 1
    slices = {p: [rng.getrandbits(batch) for _ in range(frame.size)]
              for p in _PROPS[:2]}
    columns = {p: pack(col, batch) for p, col in slices.items()}
    program, _ = compile_formulas(phis)
    try:
        expect = per_world_truth_sets(program, frame, slices, full)
    except WrongSystem:
        with pytest.raises(WrongSystem):
            truth_sets(program, frame, columns, full)
        return
    assert truth_sets(program, frame, columns, full) == \
        [pack(col, batch) for col in expect]


@st.composite
def _large_models(draw):
    # 16 to 64 worlds in 2 to 5 U-blocks of at least 3 worlds; per block
    # a nonempty classical set, each classical world measuring only
    # itself and every other world one of two subsets of the classical
    # set, so that several successor masks each cover many worlds.  The
    # frame is valid in both systems.
    system = draw(st.sampled_from(list(System)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n, k = rng.randint(16, 64), rng.randint(2, 5)
    block = [v % k for v in range(n)]
    rng.shuffle(block)
    u = [sum(1 << w for w in range(n) if block[w] == block[v])
         for v in range(n)]
    meas = [0] * n
    for b in range(k):
        members = [w for w in range(n) if block[w] == b]
        classical = rng.sample(members, rng.randint(1, len(members) - 1))
        subsets = [sum(1 << w for w in rng.sample(
            classical, rng.randint(1, len(classical)))) for _ in range(2)]
        for w in members:
            meas[w] = (1 << w if w in classical else rng.choice(subsets))
    frame = Frame(system, n, u, meas)
    val = {w: draw(st.sets(st.sampled_from(_PROPS))) for w in range(n)}
    return Model(frame, val)


@given(_large_models(), st.data())
@settings(max_examples=25, deadline=None)
def test_large_models_agree_with_oracle(model, data):
    # a batch of one valuation, so every world's slice is one bit
    frame = model.frame
    assert validate_frame(frame) == []
    shared = [mask for masks in (frame.u, frame.meas) for mask in set(masks)
              if masks.count(mask) > 1]
    assert len(shared) >= 2
    phis = data.draw(st.lists(_mformulas(legal_rels(frame.system)),
                              min_size=1, max_size=3))
    worlds = st.integers(0, frame.size - 1)
    interp = {"x": data.draw(worlds), "y": data.draw(worlds)}
    structure = Structure(model, interp)
    for phi in phis:
        expect = truth_set(model, phi)
        assert [evaluate(model, w, phi) for w in range(frame.size)] == \
            [w in expect for w in range(frame.size)]
        assert holds(structure, Labelled("y", phi)) == \
            (interp["y"] in expect)
    for rel in legal_rels(frame.system):
        assert holds(structure, Relational("x", rel, "y")) == \
            ((interp["x"], interp["y"]) in
             pairs(frame.u if rel is Rel.U else frame.meas))
    foreign = next(r for r in (Rel.M, Rel.P)
                   if r not in legal_rels(frame.system))
    with pytest.raises(WrongSystem):
        evaluate(model, interp["x"], Implies(phis[0], Box(foreign, phis[0])))
    with pytest.raises(WrongSystem):
        holds(structure, Labelled("x", Box(foreign, phis[0])))


@given(_models_and_formulas(), st.data())
@settings(max_examples=60, deadline=None)
def test_holds_agrees_with_oracle(case, data):
    frame, vals, phis = case
    model = Model(frame, dict(enumerate(vals[0])))
    worlds = st.integers(0, frame.size - 1)
    interp = {"x": data.draw(worlds), "y": data.draw(worlds)}
    structure = Structure(model, interp)
    for rel in legal_rels(frame.system):
        assert holds(structure, Relational("x", rel, "y")) == \
            ((interp["x"], interp["y"]) in
             pairs(frame.u if rel is Rel.U else frame.meas))
    for phi in phis:
        assert holds(structure, Labelled("y", phi)) == \
            (interp["y"] in truth_set(model, phi))
