import json
from importlib import resources
from itertools import permutations, product
from math import comb

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
    Frame, Model, Structure, WrongSystem, holds, print_structure,
    truth_sets, validate_frame,
)
from qrmodal.syntax import (
    Box, Implies, Labelled, Prop, Rel, System, labels_in, parse_formula,
    well_formed,
)
from test_semantics import masks, pairs, truth_set


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
            frame = Frame(system, n, masks(n, u), masks(n, meas))
            if {v.prop for v in validate_frame(frame)} <= set(disabled):
                out.append(frame)
    return out


# -- enumeration -------------------------------------------------------------

def test_size_one_is_the_identity_frame():
    for system in System:
        frames = list(enumerate_frames(system, 1))
        assert len(frames) == 1
        assert frames[0].u == (0b1,)
        assert frames[0].meas == (0b1,)


def test_size_two_discrete_partition_forces_diagonal_meas():
    discrete = [f for f in enumerate_frames(System.MSQR, 2)
                if f.u == (0b01, 0b10)]
    assert len(discrete) == 1
    assert discrete[0].meas == (0b01, 0b10)


@pytest.mark.parametrize("system,counts", [
    (System.MSQR, (1, 4, 23)),
    (System.MSPQR, (1, 4, 29)),
])
def test_enumeration_matches_brute_force(system, counts):
    for n, expected in zip((1, 2, 3), counts):
        brute = brute_force_frames(system, n)
        got = {(pairs(f.u), pairs(f.meas))
               for f in enumerate_frames(system, n)}
        assert got == brute
        assert len(got) == expected
        seen = list(enumerate_frames(system, n))
        assert len(seen) == len(set(seen)), "duplicate frames emitted"


@pytest.mark.parametrize("system", list(System))
def test_enumeration_order_is_the_mask_sweep(system):
    # frame order decides which countermodel the search returns first
    for n in (1, 2, 3):
        assert list(enumerate_frames(system, n)) == sweep_frames(system, n)


def sweep_key(frame):
    """A frame's place in the mask sweep, read from its pairs: U's
    partition as a restricted growth string, then the Meas bitmask over
    the sorted U-pairs."""
    n, u, meas = frame.size, pairs(frame.u), pairs(frame.meas)
    leader = [min(w for w in range(n) if (v, w) in u) for v in range(n)]
    growth = tuple(sorted(set(leader)).index(k) for k in leader)
    return growth, sum(1 << k for k, p in enumerate(sorted(u)) if p in meas)


@pytest.mark.parametrize("system, frames, classes", [
    (System.MSQR, (185, 1962), 48),
    (System.MSPQR, (341, 6252), 100),
])
def test_enumeration_order_at_four_and_five_worlds(system, frames, classes):
    # sweep_frames is too slow past 3 worlds, so at 4 and 5 the order is
    # checked frame by frame against its key; _frames itself has no cap
    for n, count in zip((4, 5), frames):
        keys = [sweep_key(f) for f in search._frames(system, n)]
        assert len(keys) == count
        assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(search._classes(system, 5)) == classes


def test_enumeration_all_validate():
    for system in System:
        for n in (1, 2, 3, 4):
            for frame in enumerate_frames(system, n):
                assert validate_frame(frame) == []


def test_enumeration_bound():
    with pytest.raises(BoundTooLarge, match="capped at 4 worlds"):
        list(enumerate_frames(System.MSQR, 5))
    with pytest.raises(ValueError, match="^size must be at least 1$"):
        list(enumerate_frames(System.MSQR, 0))


# -- isomorphism classes -----------------------------------------------------

CLASS_COUNTS = [(System.MSQR, (1, 3, 7, 19), (1, 4, 23, 185)),
                (System.MSPQR, (1, 3, 8, 27), (1, 4, 29, 341))]

# per size 1 to 4: the classes whose frame has a single U-block
ONE_BLOCK_COUNTS = [(System.MSQR, (1, 2, 4, 9)),
                    (System.MSPQR, (1, 2, 5, 16))]


def blocks(frame):
    """The number of U-blocks of frame, read from its U-pairs."""
    u = pairs(frame.u)
    return len({frozenset(w for w in range(frame.size) if (v, w) in u)
                for v in range(frame.size)})


@pytest.mark.parametrize("system, classes, frames", CLASS_COUNTS)
def test_class_counts_and_orbits(system, classes, frames):
    for n, want, labelled in zip((1, 2, 3, 4), classes, frames):
        table = search._classes(system, n)
        assert len(table) == want
        assert len(list(enumerate_frames(system, n))) == labelled
        for frame in table:
            assert validate_frame(frame) == []


@pytest.mark.parametrize("system, one_block", ONE_BLOCK_COUNTS)
def test_one_block_classes_and_block_filter(system, one_block):
    for n, single in zip((1, 2, 3, 4), one_block):
        table = search._classes(system, n)
        assert sum(blocks(f) == 1 for f in table) == single
        # the classes the search evaluates for a query with k labels
        for k in range(1, n + 1):
            assert search._classes_within(system, n, k) == tuple(
                f for f in table if blocks(f) <= k)


@pytest.mark.parametrize("system", list(System))
def test_frame_counts_follow_from_one_block_frames(system):
    # The frame conditions are local to a U-block, so a frame on n worlds
    # is a one-block frame on the k worlds of world 0's block (C(n-1,
    # k-1) choices of them) beside any frame on the other n-k worlds:
    # F(n) = sum over k of C(n-1, k-1) * b(k) * F(n-k), F(0) = 1, where
    # b(k) counts the one-block frames on k worlds.  The search's block
    # filter rests on this locality.
    sizes = range(1, 6)
    b = [None] + [sum(blocks(f) == 1 for f in search._frames(system, k))
                  for k in sizes]
    F = [1]
    for n in sizes:
        F.append(sum(comb(n - 1, k - 1) * b[k] * F[n - k]
                     for k in range(1, n + 1)))
    assert F[1:] == [len(search._frames(system, n)) for n in sizes] == {
        System.MSQR: [1, 4, 23, 185, 1962],
        System.MSPQR: [1, 4, 29, 341, 6252]}[system]


def canonical(frame):
    """The least (U, Meas) image of frame over every renaming of its
    worlds: one key per isomorphism class."""
    n = frame.size
    return min((tuple(sorted((p[v], p[w]) for v, w in pairs(frame.u))),
                tuple(sorted((p[v], p[w]) for v, w in pairs(frame.meas))))
               for p in permutations(range(n)))


@pytest.mark.parametrize("system", list(System))
def test_classes_match_brute_force_canonical_forms(system):
    # every labelled frame, canonicalised over all n! renamings: each
    # class's representative is its first frame in enumeration order
    for n in (1, 2, 3, 4):
        first = {}
        for frame in enumerate_frames(system, n):
            first.setdefault(canonical(frame), frame)
        assert list(search._classes(system, n)) == list(first.values())


@pytest.mark.parametrize("system", list(System))
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_frames_checked_counts_every_labelled_frame(system, bound):
    result = find_countermodel(system, [], parse_formula("x : r0 -> r0"),
                               SearchBudget(max_worlds=bound))
    assert result == NotFoundWithin(bound, sum(
        len(list(enumerate_frames(system, n))) for n in range(1, bound + 1)))


@pytest.mark.parametrize("system, evaluated", [(System.MSQR, 16),
                                               (System.MSPQR, 24)])
def test_one_label_query_evaluates_one_block_classes(monkeypatch, system,
                                                     evaluated):
    # a query with one label cannot fail on a frame of two blocks first,
    # so of the 30 MSQR and 39 MSpQR classes of 1 to 4 worlds the search
    # evaluates the one-block ones, one valuation chunk each
    calls = []

    def counted(*args):
        calls.append(args[1])
        return truth_sets(*args)
    monkeypatch.setattr(search, "truth_sets", counted)
    result = find_countermodel(system, [], parse_formula("x : r0 -> r0"),
                               SearchBudget(max_worlds=4))
    assert isinstance(result, NotFoundWithin)
    assert len(calls) == evaluated
    assert {blocks(frame) for frame in calls} == {1}


# -- random generation -------------------------------------------------------

def test_random_frame_single_world():
    frame = random_valid_frame(System.MSQR, 1, 7)
    assert frame.size == 1
    assert frame.u == (0b1,) and frame.meas == (0b1,)


def test_random_frame_golden_seed_42():
    u_total3 = (0b111,) * 3
    meas = {System.MSQR: (0b010, 0b010, 0b010),
            System.MSPQR: (0b001, 0b010, 0b010)}
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
        with pytest.raises(BoundTooLarge, match="capped at 4 worlds"):
            random_valid_frame(system, MAX_ENUM_SIZE + 1, 0)
        with pytest.raises(ValueError, match="^max_worlds must be at least"):
            random_valid_frame(system, 0, 0)


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


def test_search_budget_checks_its_bound():
    with pytest.raises(SearchError) as exc:
        SearchBudget(max_worlds=0)
    assert not isinstance(exc.value, BoundTooLarge)
    with pytest.raises(BoundTooLarge):
        SearchBudget(max_worlds=MAX_ENUM_SIZE + 1)
    assert SearchBudget().max_worlds == 3
    assert SearchBudget(max_worlds=MAX_ENUM_SIZE).max_worlds == MAX_ENUM_SIZE


def test_search_rejects_wrong_system_formulas():
    alpha = parse_formula("x : [P] r0")
    with pytest.raises(WrongSystem):
        find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=2))


def test_holds_and_search_refuse_a_foreign_formula_alike():
    structures = {system: Structure(Model(next(enumerate_frames(system, 1)),
                                          {}), {"x": 0, "y": 0})
                  for system in System}
    for system, text in [(System.MSQR, "x : [P] r0"), (System.MSQR, "x P y"),
                         (System.MSPQR, "y : r0 -> [M] r0"),
                         (System.MSPQR, "x M y")]:
        f = parse_formula(text)
        with pytest.raises(WrongSystem) as by_holds:
            holds(structures[system], f)
        with pytest.raises(WrongSystem) as by_search:
            find_countermodel(system, [parse_formula("x : r0")], f,
                              SearchBudget(max_worlds=1))
        assert str(by_holds.value) == str(by_search.value) == \
            "formula %s is not in the %s vocabulary" % (text, system.value)


def test_labels_beyond_bound_are_reported():
    # three labels forced pairwise distinct cannot fit in two worlds
    gamma = [parse_formula(s) for s in ("x M y", "x M z", "y : r0", "z : ~ r0")]
    alpha = parse_formula("x : bot")
    result = find_countermodel(System.MSQR, gamma, alpha, SearchBudget(max_worlds=2))
    assert isinstance(result, NotFoundWithin)
    assert result.labels_exceed_bound is True
    bigger = find_countermodel(System.MSQR, gamma, alpha, SearchBudget(max_worlds=3))
    assert isinstance(bigger, Found)


README_COUNTERMODEL = """\
system MSQR
worlds w0 w1
U w0 w0
U w0 w1
U w1 w0
U w1 w1
M w0 w0
M w1 w0
val w1: r0
interp x = w1
"""


def test_values_the_search_hands_out_refuse_assignment():
    # enumerate_frames and random_valid_frame hand out the frames the
    # search caches, so an assignment that went through would change
    # every later search, and one to a budget would pass its cap
    alpha = parse_formula("x : r0 -> [M] r0")
    theorem = parse_formula("x : [] r0 -> r0")
    budget = SearchBudget(max_worlds=2)
    found = find_countermodel(System.MSQR, [], alpha, budget)
    frames = list(enumerate_frames(System.MSQR, 2))
    frames += [random_valid_frame(System.MSQR, 2, seed) for seed in range(4)]
    targets = [(frame, "meas", ()) for frame in frames]
    targets += [(budget, "max_worlds", 5),
                (found.structure.model, "valuation", ())]
    for value, field, new in targets:
        with pytest.raises(AttributeError):
            setattr(value, field, new)
    assert print_structure(find_countermodel(
        System.MSQR, [], alpha, budget).structure) == README_COUNTERMODEL
    assert find_countermodel(System.MSQR, [], theorem, budget) == \
        NotFoundWithin(2, sum(len(list(enumerate_frames(System.MSQR, n)))
                              for n in (1, 2)))


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

def props_walk(f):
    """The propositions named in a formula or m-formula, by a recursive
    walk that shares no code with the search."""
    if isinstance(f, Labelled):
        return props_walk(f.body)
    if isinstance(f, Prop):
        return frozenset((f.name,))
    if isinstance(f, Implies):
        return props_walk(f.left) | props_walk(f.right)
    if isinstance(f, Box):
        return props_walk(f.body)
    return frozenset()


def nested_loop(system, gamma, alpha, max_worlds, disabled=()):
    """The reference search: frames of the mask sweep (of the relaxed
    frame class when disabled names conditions), then valuations, then
    label interpretations, each structure checked with the truth_set
    oracle; the first failing structure wins."""
    fs = gamma + [alpha]
    props = sorted(set().union(*map(props_walk, fs)))
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
                    return (interp[f.left], interp[f.right]) in pairs(
                        frame.u if f.rel is Rel.U else frame.meas)
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
    # refuted at 2 worlds only by the frame of two blocks: a search that
    # allowed fewer blocks than the query has labels would miss both, and
    # one that counted alpha's labels alone would miss the second
    ((), "x U y"),
    (("x : [] r0",), "y : r0"),
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
    # one frame per class, of at most as many blocks as the query has
    # labels, gives what evaluating every labelled frame gives: the same
    # structure, or the same labelled frame count
    queries = []
    for assumptions, goal in QUERIES:
        gamma = [parse_formula(a) for a in assumptions]
        alpha = parse_formula(goal)
        if all(well_formed(f, system) for f in gamma + [alpha]):
            queries.append((gamma, alpha))
    budget = SearchBudget(max_worlds=4)
    want = [find_countermodel(system, gamma, alpha, budget)
            for gamma, alpha in queries]
    monkeypatch.setattr(search, "_classes_within",
                        lambda system, size, _: search._frames(system, size))
    got = [find_countermodel(system, gamma, alpha, budget)
           for gamma, alpha in queries]
    assert got == want
    assert any(isinstance(r, Found) for r in want)
    assert any(isinstance(r, NotFoundWithin) for r in want)
