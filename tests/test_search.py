import json
from importlib import resources
from itertools import permutations, product

import pytest

import qrmodal.search as search
from qrmodal.search import (
    MAX_ENUM_SIZE,
    BoundTooLarge,
    Found,
    NotFoundWithin,
    SearchBudget,
    SearchError,
    enumerate_frames,
    find_countermodel,
    random_valid_frame,
)
from qrmodal.semantics import (
    Frame, Model, Structure, WrongSystem, holds, validate_frame,
)
from qrmodal.syntax import (
    Labelled, System, labels_in, parse_formula, props_in_formula, well_formed,
)
from test_semantics import truth_set


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


def _partitions(n):
    # restricted growth strings in lexicographic order
    return [a for a in product(range(n), repeat=n)
            if all(a[i] <= max(a[:i], default=-1) + 1 for i in range(n))]


def sweep_frames(system, n, disabled=()):
    """Every measurement mask over the allowed pairs, per U-partition,
    kept when validate_frame finds no violation outside disabled: the
    reference frame order, and with disabled the relaxed frame class."""
    out = []
    for a in _partitions(n):
        u = frozenset((v, w) for v in range(n) for w in range(n)
                      if a[v] == a[w])
        if "meas-not-sub-U" in disabled:
            pool = sorted(product(range(n), repeat=2))
        else:
            pool = sorted(u)
        for meas in _pair_subsets(pool):
            frame = Frame(system, n, u, meas)
            if {v.prop for v in validate_frame(frame)} <= set(disabled):
                out.append(frame)
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


@pytest.mark.parametrize("system", list(System))
def test_enumeration_order_is_the_mask_sweep(system):
    # frame order decides which countermodel the search returns first
    for n in (1, 2, 3):
        assert list(enumerate_frames(system, n)) == sweep_frames(system, n)


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


# -- isomorphism classes -----------------------------------------------------

CLASS_COUNTS = [(System.MSQR, (1, 3, 7, 19), (1, 4, 23, 185)),
                (System.MSPQR, (1, 3, 8, 27), (1, 4, 29, 341))]


@pytest.mark.parametrize("system, classes, frames", CLASS_COUNTS)
def test_class_counts_and_orbits(system, classes, frames):
    for n, want, labelled in zip((1, 2, 3, 4), classes, frames):
        table = search._classes(system, n)
        assert len(table) == want
        assert sum(orbit for _, orbit in table) == labelled
        for frame, _ in table:
            assert validate_frame(frame) == []


def canonical(frame):
    """The least (U, Meas) image of frame over every renaming of its
    worlds: one key per isomorphism class."""
    n = frame.size
    return min((tuple(sorted((p[v], p[w]) for v, w in frame.u)),
                tuple(sorted((p[v], p[w]) for v, w in frame.meas)))
               for p in permutations(range(n)))


@pytest.mark.parametrize("system", list(System))
def test_classes_match_brute_force_canonical_forms(system):
    # every labelled frame, canonicalised over all n! renamings: each
    # class's representative is its first frame in enumeration order,
    # and its orbit is the number of frames in the class
    for n in (1, 2, 3, 4):
        first, orbit = {}, {}
        for frame in enumerate_frames(system, n):
            key = canonical(frame)
            first.setdefault(key, frame)
            orbit[key] = orbit.get(key, 0) + 1
        want = [(first[k], orbit[k]) for k in first]
        assert list(search._classes(system, n)) == want


# -- random generation -------------------------------------------------------

def test_random_frame_single_world():
    frame = random_valid_frame(System.MSQR, 1, 7)
    assert frame.size == 1
    assert frame.u == {(0, 0)} and frame.meas == {(0, 0)}


def test_random_frame_golden_seed_42():
    u_total3 = frozenset((a, b) for a in range(3) for b in range(3))
    meas = {System.MSQR: {(0, 1), (1, 1), (2, 1)},
            System.MSPQR: {(0, 0), (1, 1), (2, 1)}}
    for system in System:
        frame = random_valid_frame(system, 3, 42)
        assert frame.size == 3
        assert frame.u == u_total3
        assert frame.meas == meas[system]


@pytest.mark.parametrize("system", list(System))
def test_random_frames_cover_the_enumeration(system):
    # every valid frame of at most 4 worlds is drawn within 20,000 seeds
    every = {f for n in range(1, 5) for f in enumerate_frames(system, n)}
    drawn = {random_valid_frame(system, 4, seed) for seed in range(20_000)}
    assert drawn == every


def test_random_frame_bound():
    for system in System:
        with pytest.raises(BoundTooLarge):
            random_valid_frame(system, MAX_ENUM_SIZE + 1, 0)


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
    assert result.frames_checked == 1 + 4 + 23 + 185


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


def test_correspondence_shift_reflexivity():
    alpha = parse_formula("x : [M](r0 <-> [M] r0)")
    strict = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(strict, NotFoundWithin)
    relaxed = nested_loop(System.MSQR, [], alpha, 3, ("not-shift-reflexive",))
    assert isinstance(relaxed, Found)
    leftovers = validate_frame(relaxed.structure.model.frame)
    assert {v.prop for v in leftovers} == {"not-shift-reflexive"}


def test_correspondence_seriality():
    alpha = parse_formula("x : [M] r0 -> <M> r0")
    strict = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(strict, NotFoundWithin)
    relaxed = nested_loop(System.MSQR, [], alpha, 3, ("not-serial",))
    assert isinstance(relaxed, Found)
    assert relaxed.structure.model.frame.size == 1


def test_correspondence_classical_reachability():
    alpha = parse_formula("x : <P>(r0 -> [P] r0)")
    strict = find_countermodel(System.MSPQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(strict, NotFoundWithin)
    relaxed = nested_loop(System.MSPQR, [], alpha, 3, ("no-classical-reachable",))
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


# -- the search against the per-structure nested loop ------------------------

def nested_loop(system, gamma, alpha, max_worlds, disabled=()):
    """The reference search: frames of the mask sweep (of the relaxed
    frame class when disabled names conditions), then valuations, then
    label interpretations, each structure checked with the truth_set
    oracle; the first failing structure wins."""
    fs = gamma + [alpha]
    props = sorted(set().union(*(props_in_formula(f) for f in fs)))
    labels = sorted(set().union(*(labels_in(f) for f in fs)))
    subsets = [frozenset(p for k, p in enumerate(props) if mask >> k & 1)
               for mask in range(1 << len(props))]
    checked = 0
    for size in range(1, max_worlds + 1):
        for frame in sweep_frames(system, size, disabled):
            checked += 1
            for val in product(subsets, repeat=size):
                model = Model(frame, dict(enumerate(val)))
                sets = {f.body: truth_set(model, f.body)
                        for f in fs if isinstance(f, Labelled)}

                def true(f, interp):
                    if isinstance(f, Labelled):
                        return interp[f.label] in sets[f.body]
                    return (interp[f.left], interp[f.right]) in \
                        frame.pairs(f.rel)
                for combo in product(range(size), repeat=len(labels)):
                    interp = dict(zip(labels, combo))
                    if (all(true(g, interp) for g in gamma)
                            and not true(alpha, interp)):
                        return Found(Structure(model, interp))
    return NotFoundWithin(max_worlds, checked,
                          labels_exceed_bound=len(labels) > max_worlds)


def _corpus_statements():
    manifest = json.loads((resources.files("qrmodal") / "corpus"
                           / "manifest.json").read_text())
    return sorted({e["statement"] for e in manifest["entries"]})


REFUTABLE = [
    ((), "x : r0 -> [] r0"),
    ((), "x : r0 -> [M] r0"),
    ((), "x : <M> r0 -> [M] r0"),
    ((), "x : [M](r0 | r1) -> [M] r0 | [M] r1"),
    ((), "x : <> r0 -> <P> r0"),
    ((), "x : <P> r0 -> [P] r0"),
    (("x M y",), "x M x"),
    (("x U y",), "x M y"),
    (("x P y",), "y P x"),
    (("x : r0",), "y : r0"),
    (("x : [] r0",), "x : [M] r1"),
    (("x U y", "y : r0"), "x : <P> r0"),
]

QUERIES = [((), s) for s in _corpus_statements()] + REFUTABLE


@pytest.mark.parametrize("system", list(System))
def test_search_matches_nested_loop(system):
    ran = 0
    for assumptions, goal in QUERIES:
        gamma = [parse_formula(a) for a in assumptions]
        alpha = parse_formula(goal)
        if not all(well_formed(f, system) for f in gamma + [alpha]):
            continue
        for bound in (1, 2, 3):
            got = find_countermodel(system, gamma, alpha,
                                    SearchBudget(max_worlds=bound))
            want = nested_loop(system, gamma, alpha, bound)
            assert type(got) is type(want), (goal, bound)
            if isinstance(want, Found):
                assert got.structure == want.structure, (goal, bound)
            else:
                assert got == want, (goal, bound)
            ran += 1
    assert ran >= 30


@pytest.mark.parametrize("chunk_bits", [0, 1, 3])
def test_search_in_small_valuation_chunks(monkeypatch, chunk_bits):
    # the corpus queries fit in one chunk; force several per frame
    import qrmodal.search as search

    queries = [(System.MSQR, goal) for _, goal in QUERIES[:8]] + [
        (System.MSQR, "x : [M](r0 | r1) -> [M] r0 | [M] r1"),
        (System.MSPQR, "x : <P> r0 -> [P] r0"),
        (System.MSQR, "x : (r0 -> r1) -> r1 -> r1"),
    ]
    queries = [(s, parse_formula(g)) for s, g in queries]
    queries = [(s, a) for s, a in queries if well_formed(a, s)]
    budget = SearchBudget(max_worlds=3)
    want = [find_countermodel(s, [], a, budget) for s, a in queries]
    monkeypatch.setattr(search, "CHUNK_BITS", chunk_bits)
    got = [find_countermodel(s, [], a, budget) for s, a in queries]
    assert got == want
    assert any(isinstance(r, Found) for r in want)


@pytest.mark.parametrize("system", list(System))
def test_search_at_bound_four_matches_every_labelled_frame(monkeypatch,
                                                           system):
    # one frame per class gives what evaluating every labelled frame
    # gives: the same structure, or the same labelled frame count
    queries = []
    for assumptions, goal in QUERIES:
        gamma = [parse_formula(a) for a in assumptions]
        alpha = parse_formula(goal)
        if all(well_formed(f, system) for f in gamma + [alpha]):
            queries.append((gamma, alpha))
    budget = SearchBudget(max_worlds=4)
    want = [find_countermodel(system, gamma, alpha, budget)
            for gamma, alpha in queries]
    monkeypatch.setattr(search, "_classes", lambda system, size: (
        (frame, 1) for frame in search._frames(system, size)))
    got = [find_countermodel(system, gamma, alpha, budget)
           for gamma, alpha in queries]
    assert got == want
    assert any(isinstance(r, Found) for r in want)
    assert any(isinstance(r, NotFoundWithin) for r in want)
