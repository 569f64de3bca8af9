from itertools import product

import pytest

from qrmodal.search import (
    BoundTooLarge,
    Found,
    NotFoundWithin,
    SearchBudget,
    SearchError,
    enumerate_frames,
    find_countermodel,
    random_valid_frame,
)
from qrmodal.semantics import Frame, WrongSystem, holds, validate_frame
from qrmodal.syntax import System, parse_formula


def _pair_subsets(pool):
    pool = list(pool)
    for mask in range(1 << len(pool)):
        yield frozenset(p for i, p in enumerate(pool) if mask >> i & 1)


def _is_equivalence(u, n):
    rng = range(n)
    return (all((w, w) in u for w in rng)
            and all((b, a) in u for (a, b) in u)
            and all((a, c) in u for (a, b) in u for (b2, c) in u if b2 == b))


def _valid_msqr(u, m, n):
    rng = range(n)
    return (m <= u
            and all(any((v, w) in m for w in rng) for v in rng)
            and all((w, w) in m for (v, w) in m)
            and all(v == w for (v, w) in m if (v, v) in m))


def _valid_mspqr(u, p, n):
    rng = range(n)
    return (p <= u
            and all((a, c) in p for (a, b) in p for (b2, c) in p if b2 == b)
            and all(any((v, w) in p and (w, w) in p for w in rng) for v in rng)
            and all(v == w for (v, w) in p if (v, v) in p))


def brute_force_frames(system, n):
    """All (U, Meas) pairs over n worlds passing the conditions directly."""
    ok = _valid_msqr if system is System.MSQR else _valid_mspqr
    pairs = list(product(range(n), repeat=2))
    out = set()
    for u in _pair_subsets(pairs):
        if not _is_equivalence(u, n):
            continue
        for meas in _pair_subsets(pairs):
            if ok(u, meas, n):
                out.add((u, meas))
    return out


# -- enumeration -------------------------------------------------------------

def test_size_one_is_the_identity_frame():
    for system in System:
        frames = list(enumerate_frames(system, 1))
        assert len(frames) == 1
        assert frames[0].u == {(0, 0)}
        assert frames[0].meas == {(0, 0)}


def test_size_two_discrete_partition_forces_diagonal_meas():
    discrete = [f for f in enumerate_frames(System.MSQR, 2)
                if f.u == {(0, 0), (1, 1)}]
    assert len(discrete) == 1
    assert discrete[0].meas == {(0, 0), (1, 1)}


@pytest.mark.parametrize("system,counts", [
    (System.MSQR, (1, 4, 23)),
    (System.MSPQR, (1, 4, 29)),
])
def test_enumeration_matches_brute_force(system, counts):
    for n, expected in zip((1, 2, 3), counts):
        brute = brute_force_frames(system, n)
        got = {(f.u, f.meas) for f in enumerate_frames(system, n)}
        assert got == brute
        assert len(got) == expected
        seen = list(enumerate_frames(system, n))
        assert len(seen) == len(set(seen)), "duplicate frames emitted"


def test_enumeration_all_validate():
    for system in System:
        for n in (1, 2, 3, 4):
            for frame in enumerate_frames(system, n):
                assert validate_frame(frame) == []


def test_enumeration_bound():
    with pytest.raises(BoundTooLarge):
        list(enumerate_frames(System.MSQR, 5))
    with pytest.raises(ValueError):
        list(enumerate_frames(System.MSQR, 0))


def test_enumeration_with_disabled_condition_grows():
    normal = list(enumerate_frames(System.MSQR, 2))
    relaxed = list(enumerate_frames(System.MSQR, 2, disabled=("not-serial",)))
    assert len(relaxed) > len(normal)
    for frame in relaxed:
        assert validate_frame(frame, disabled=("not-serial",)) == []


def test_enumeration_meas_outside_u_when_disabled():
    relaxed = enumerate_frames(System.MSQR, 2, disabled=("meas-not-sub-U",))
    assert any(not (f.meas <= f.u) for f in relaxed)


# -- random generation -------------------------------------------------------

def test_random_frame_single_world():
    frame = random_valid_frame(System.MSQR, 1, 7)
    assert frame.size == 1
    assert frame.u == {(0, 0)} and frame.meas == {(0, 0)}


def test_random_frame_golden_seed_42():
    u_total3 = frozenset((a, b) for a in range(3) for b in range(3))
    for system in System:
        frame = random_valid_frame(system, 3, 42)
        assert frame.size == 3
        assert frame.u == u_total3
        assert frame.meas == {(0, 1), (1, 1), (2, 2)}


def test_random_frame_deterministic_and_valid():
    for seed in range(300):
        a = random_valid_frame(System.MSQR, 4, seed)
        b = random_valid_frame(System.MSQR, 4, seed)
        assert (a.size, a.u, a.meas) == (b.size, b.u, b.meas)
        assert validate_frame(a) == []
        c = random_valid_frame(System.MSPQR, 4, seed)
        assert validate_frame(c) == []


# -- countermodel search -----------------------------------------------------

def test_countermodel_for_box_u_necessitation():
    alpha = parse_formula("x : r0 -> [] r0")
    result = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=2))
    assert isinstance(result, Found)
    structure = result.structure
    assert structure.model.frame.size == 2
    assert validate_frame(structure.model.frame) == []
    assert not holds(structure, alpha)
    # no one-world countermodel exists
    none = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=1))
    assert isinstance(none, NotFoundWithin)
    assert none.bound == 1


def test_countermodel_respects_gamma():
    gamma = [parse_formula("x : r0"), parse_formula("x M y")]
    alpha = parse_formula("y : r0")
    result = find_countermodel(System.MSQR, gamma, alpha, SearchBudget(max_worlds=3))
    assert isinstance(result, Found)
    for g in gamma:
        assert holds(result.structure, g)
    assert not holds(result.structure, alpha)


def test_theorem_has_no_countermodel_at_bound_four():
    alpha = parse_formula("x : [] r0 -> r0")
    result = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=4))
    assert isinstance(result, NotFoundWithin)
    assert result.bound == 4
    assert result.frames_checked > 0


def test_meas_implies_u_semantically():
    gamma = [parse_formula("x M y")]
    alpha = parse_formula("x U y")
    result = find_countermodel(System.MSQR, gamma, alpha, SearchBudget(max_worlds=4))
    assert isinstance(result, NotFoundWithin)


def test_search_bound_guard():
    alpha = parse_formula("x : r0")
    with pytest.raises(BoundTooLarge):
        find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=9))
    with pytest.raises(SearchError):
        find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=0))


def test_search_rejects_wrong_system_formulas():
    alpha = parse_formula("x : [P] r0")
    with pytest.raises(WrongSystem):
        find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=2))


def test_labels_beyond_bound_are_reported():
    # three labels forced pairwise distinct cannot fit in two worlds
    gamma = [parse_formula(s) for s in ("x M y", "x M z", "y : r0", "z : ~ r0")]
    alpha = parse_formula("x : bot")
    result = find_countermodel(System.MSQR, gamma, alpha, SearchBudget(max_worlds=2))
    assert isinstance(result, NotFoundWithin)
    assert result.labels_exceed_bound is True
    bigger = find_countermodel(System.MSQR, gamma, alpha, SearchBudget(max_worlds=3))
    assert isinstance(bigger, Found)


def test_search_deterministic():
    alpha = parse_formula("x : r0 -> [M] r0")
    a = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    b = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(a, Found) and isinstance(b, Found)
    assert a.structure.model == b.structure.model
    assert a.structure.interp == b.structure.interp


def test_search_propositions_default_to_those_occurring():
    # an explicit larger universe may not change the verdict
    alpha = parse_formula("x : r0 -> [M] r0")
    given = find_countermodel(
        System.MSQR, [], alpha,
        SearchBudget(max_worlds=2, propositions=("r0", "r1")))
    defaulted = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=2))
    assert isinstance(given, Found) and isinstance(defaulted, Found)
    assert not holds(defaulted.structure, alpha)


def test_correspondence_shift_reflexivity():
    alpha = parse_formula("x : [M](r0 <-> [M] r0)")
    strict = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(strict, NotFoundWithin)
    relaxed = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3),
                                disabled=("not-shift-reflexive",))
    assert isinstance(relaxed, Found)
    leftovers = validate_frame(relaxed.structure.model.frame)
    assert {v.prop for v in leftovers} == {"not-shift-reflexive"}


def test_correspondence_seriality():
    alpha = parse_formula("x : [M] r0 -> <M> r0")
    strict = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(strict, NotFoundWithin)
    relaxed = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3),
                                disabled=("not-serial",))
    assert isinstance(relaxed, Found)
    assert relaxed.structure.model.frame.size == 1


def test_correspondence_classical_reachability():
    alpha = parse_formula("x : <P>(r0 -> [P] r0)")
    strict = find_countermodel(System.MSPQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(strict, NotFoundWithin)
    relaxed = find_countermodel(System.MSPQR, [], alpha, SearchBudget(max_worlds=3),
                                disabled=("no-classical-reachable",))
    assert isinstance(relaxed, Found)


def test_total_meas_collapse_needs_three_worlds():
    # a world with two distinct classical outcomes refutes the collapse
    # of possibly-r0 into necessarily-r0
    alpha = parse_formula("x : <M> r0 -> [M] r0")
    small = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=2))
    assert isinstance(small, NotFoundWithin)
    found = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(found, Found)
    assert found.structure.model.frame.size == 3


def test_found_structure_reuses_standard_evaluator():
    alpha = parse_formula("x : r0 -> [M] r0")
    result = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=2))
    assert isinstance(result, Found)
    frame = result.structure.model.frame
    assert isinstance(frame, Frame)
    assert frame.system is System.MSQR
