"""Frame enumeration, random valid frames, and countermodel search.

Enumeration is exhaustive and canonical: for every equivalence relation
U on {0..size-1} (one per set partition, in restricted-growth order) it
yields the valid measurement relations over U in bitmask order over the
sorted U-pairs.  The candidates are built from the frame conditions,
block by block: a nonempty classical set C whose worlds measure only
themselves, every other world measuring a nonempty subset of C, and
under MSpQR any edges among the non-classical worlds.  Each candidate
is kept when validate_frame accepts it.  Membership is decided by the
validator alone, so the enumeration cannot drift from the frame
conditions, and neither can random_valid_frame, which draws its frames
from it.

The countermodel search returns the first failing structure in the
order frames of growing size, then valuations over the propositions of
the query (itertools.product order, world 0 slowest), then label
interpretations (product order; labels may share worlds).  It evaluates
one frame per isomorphism class: the frame conditions do not change
when worlds are renamed, and valuations and interpretations range over
all worlds, so a class fails exactly when its first frame in
enumeration order does, and that frame comes before every other member
of its class.  The first failing frame is therefore the one the
labelled order would reach first.  Nor does the search visit the
structures one by one: per frame it computes the truth set of every
subformula for a chunk of valuations at once (see
semantics.truth_sets), ANDs the gamma columns and masks out alpha for
each interpretation, and takes the lowest failing valuation, then the
first interpretation failing under it.  Otherwise the search reports how
many frames it checked, counting every labelled frame of each class it
evaluated.  A no-countermodel answer is relative to the bound and is
never a theoremhood claim.

Sizes above MAX_ENUM_SIZE are refused (bound-too-large) to keep the
search exhaustive within sane time, and bounds below 1 with SearchError;
a SearchBudget decides both when it is made.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .syntax import (
    Formula, Labelled, Rel, System, labels_in, props_in_formula, well_formed,
)
from .semantics import (
    Frame, Model, Pair, Structure, WrongSystem, compile_formulas, truth_sets,
    validate_frame,
)

MAX_ENUM_SIZE = 4
# valuations evaluated together: 2**CHUNK_BITS bits per truth-set int
CHUNK_BITS = 12


class SearchError(Exception):
    code = "search"


class BoundTooLarge(SearchError):
    code = "bound-too-large"


@dataclass(frozen=True)
class SearchBudget:
    """max_worlds: largest frame size tried, 1 to MAX_ENUM_SIZE; any
    other bound is refused here, before any search."""

    max_worlds: int = 3

    def __post_init__(self):
        if self.max_worlds < 1:
            raise SearchError("the world bound must be at least 1")
        if self.max_worlds > MAX_ENUM_SIZE:
            raise BoundTooLarge("search is capped at %d worlds"
                                % MAX_ENUM_SIZE)


@dataclass(frozen=True)
class Found:
    structure: Structure


@dataclass(frozen=True)
class NotFoundWithin:
    """No structure within bound worlds refutes the query.

    frames_checked counts labelled frames: every frame of each
    isomorphism class the search evaluated, although it evaluated one
    frame per class.
    """

    bound: int
    frames_checked: int
    labels_exceed_bound: bool = False


CountermodelResult = Union[Found, NotFoundWithin]


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    # block assignments as restricted growth strings, lexicographic
    def rec(prefix: list[int], used: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from rec(prefix, max(used, b + 1))
            prefix.pop()
    yield from rec([], 0)


def _u_pairs(assignment: Sequence[int]) -> frozenset[tuple[int, int]]:
    n = len(assignment)
    return frozenset((v, w) for v in range(n) for w in range(n)
                     if assignment[v] == assignment[w])


def _nonempty_subsets(items: Sequence[int]) -> list[tuple[int, ...]]:
    return [sub for r in range(1, len(items) + 1)
            for sub in itertools.combinations(items, r)]


def _block_relations(system: System,
                     block: Sequence[int]) -> list[frozenset[Pair]]:
    # every measurement relation on one U-block that the frame conditions
    # can accept: a nonempty classical set C whose worlds see only
    # themselves, every other world seeing a nonempty subset of C and,
    # under MSpQR, any edges among the other worlds
    out = []
    for classical in _nonempty_subsets(block):
        rest = [w for w in block if w not in classical]
        loops = [(c, c) for c in classical]
        between = [(v, w) for v in rest for w in rest if v != w]
        extras = ([()] if system is System.MSQR
                  else [sub for r in range(len(between) + 1)
                        for sub in itertools.combinations(between, r)])
        for targets in itertools.product(_nonempty_subsets(classical),
                                         repeat=len(rest)):
            base = loops + [(v, c) for v, cs in zip(rest, targets) for c in cs]
            out.extend(frozenset(base + list(extra)) for extra in extras)
    return out


@lru_cache(maxsize=None)
def _frames(system: System, size: int) -> tuple[Frame, ...]:
    out = []
    for assignment in _partitions(size):
        u = _u_pairs(assignment)
        bit = {p: 1 << k for k, p in enumerate(sorted(u))}
        blocks = [[w for w in range(size) if assignment[w] == b]
                  for b in range(max(assignment) + 1)]
        candidates = sorted(
            (frozenset().union(*parts) for parts in itertools.product(
                *(_block_relations(system, blk) for blk in blocks))),
            key=lambda meas: sum(bit[p] for p in meas))
        for meas in candidates:
            frame = Frame(system, size, u, meas)
            if not validate_frame(frame):
                out.append(frame)
    return tuple(out)


@lru_cache(maxsize=None)
def _classes(system: System, size: int) -> tuple[tuple[Frame, int], ...]:
    """One (frame, orbit) per isomorphism class of _frames(system, size):
    the class's first frame in that order and the number of its frames,
    the classes in the order of their first frames."""
    classes: dict[tuple, list] = {}
    for frame in _frames(system, size):
        entry = classes.setdefault(_class_key(frame), [frame, 0])
        entry[1] += 1
    return tuple((frame, orbit) for frame, orbit in classes.values())


def _class_key(frame: Frame) -> tuple[tuple[int, int], ...]:
    # Meas lies within U, so a renaming of worlds maps U-blocks onto
    # U-blocks: a class is the multiset of its blocks' one-block classes
    key = []
    for block in set(frame.succ[Rel.U]):
        k = len(block)
        at = {w: i for i, w in enumerate(block)}
        mask = sum(1 << (at[v] * k + at[w]) for v, w in frame.meas
                   if v in at)
        key.append((k, _block_class(k, mask)))
    return tuple(sorted(key))


@lru_cache(maxsize=None)
def _block_class(k: int, mask: int) -> int:
    # the least relabelling of a relation on k worlds, pair (i, j) being
    # bit i * k + j
    pairs = [(i, j) for i in range(k) for j in range(k)
             if mask >> (i * k + j) & 1]
    return min(sum(1 << (p[i] * k + p[j]) for i, j in pairs)
               for p in itertools.permutations(range(k)))


def enumerate_frames(system: System, size: int) -> Iterator[Frame]:
    """All valid frames on worlds {0..size-1}, each exactly once."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if size > MAX_ENUM_SIZE:
        raise BoundTooLarge("enumeration is capped at %d worlds"
                            % MAX_ENUM_SIZE)
    return iter(_frames(system, size))


def random_valid_frame(system: System, max_worlds: int, seed: int) -> Frame:
    """A pseudorandom valid frame, a deterministic function of the seed.

    A world count uniform in 1..max_worlds, then a frame uniform among
    the enumerated frames of that size, so every frame of at most
    max_worlds worlds can be drawn.  Bounds above MAX_ENUM_SIZE raise
    BoundTooLarge, as enumerate_frames does.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if max_worlds > MAX_ENUM_SIZE:
        raise BoundTooLarge("enumeration is capped at %d worlds"
                            % MAX_ENUM_SIZE)
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    return rng.choice(_frames(system, n))


def _patterns(bits: int, full: int) -> list[int]:
    # pattern j has bit v set iff bit j of v is set, for v < 2**bits
    return [full // ((1 << (1 << j)) + 1) << (1 << j) for j in range(bits)]


def _columns(places: list[tuple[str, int, int]], size: int, chunk: int,
             chunk_bits: int, low: list[int],
             full: int) -> dict[str, list[int]]:
    # proposition columns of one chunk: valuation bit j below chunk_bits
    # varies inside the chunk, the bits above it are fixed by the chunk
    columns: dict[str, list[int]] = {}
    for p, w, j in places:
        col = columns.setdefault(p, [0] * size)
        if j < chunk_bits:
            col[w] |= low[j]
        elif chunk >> (j - chunk_bits) & 1:
            col[w] = full
    return columns


def find_countermodel(system: System, gamma: Iterable[Formula],
                      alpha: Formula,
                      budget: SearchBudget) -> CountermodelResult:
    """Search every structure within the budget for one where all of
    gamma holds and alpha fails, in enumeration order."""
    gamma = list(gamma)
    formulas = gamma + [alpha]
    for f in formulas:
        if not well_formed(f, system):
            raise WrongSystem("formula %s is not in the %s vocabulary"
                              % (f, system.value))

    props = sorted(set().union(*(props_in_formula(f) for f in formulas)))
    labels = sorted(set().union(*(labels_in(f) for f in formulas)))
    slot = {lab: k for k, lab in enumerate(labels)}
    program, roots = compile_formulas(
        [f.body for f in formulas if isinstance(f, Labelled)])
    root = iter(roots)
    # per formula: ("lab", label slot, program root) or
    # ("rel", left slot, relation, right slot)
    queries = [("lab", slot[f.label], next(root))
               if isinstance(f, Labelled)
               else ("rel", slot[f.left], f.rel, slot[f.right])
               for f in formulas]
    alpha_q = queries.pop()

    frames_checked = 0
    for size in range(1, budget.max_worlds + 1):
        # valuation v is the v-th of itertools.product over the subsets
        # of props (subset mask k holds props[k]), repeated per world:
        # world 0 owns the top len(props) bits of v
        places = [(p, w, len(props) * (size - 1 - w) + k)
                  for k, p in enumerate(props) for w in range(size)]
        total_bits = len(props) * size
        chunk_bits = min(total_bits, CHUNK_BITS)
        full = (1 << (1 << chunk_bits)) - 1
        low = _patterns(chunk_bits, full)
        first = _columns(places, size, 0, chunk_bits, low, full)
        combos = list(itertools.product(range(size), repeat=len(labels)))
        for frame, orbit in _classes(system, size):
            frames_checked += orbit
            for chunk in range(1 << (total_bits - chunk_bits)):
                columns = first if chunk == 0 else _columns(
                    places, size, chunk, chunk_bits, low, full)
                sat = truth_sets(program, frame, columns, full)
                hit = _first_failure(frame, sat, queries, alpha_q, combos,
                                     full)
                if hit is not None:
                    bit, combo = hit
                    v = (chunk << chunk_bits) + bit
                    val = {w: frozenset(p for p, w2, j in places
                                        if w2 == w and v >> j & 1)
                           for w in range(size)}
                    return Found(Structure(Model(frame, val),
                                           dict(zip(labels, combo))))
    return NotFoundWithin(budget.max_worlds, frames_checked,
                          labels_exceed_bound=len(labels) > budget.max_worlds)


def _value(q: tuple, frame: Frame, sat: list[list[int]],
           combo: tuple[int, ...], full: int) -> int:
    # the valuations of the chunk under which query q holds at combo
    if q[0] == "lab":
        return sat[q[2]][combo[q[1]]]
    return full if (combo[q[1]], combo[q[3]]) in frame.pairs(q[2]) else 0


def _first_failure(frame: Frame, sat: list[list[int]], gamma_q: list[tuple],
                   alpha_q: tuple, combos: list[tuple[int, ...]], full: int):
    """The lowest valuation bit under which some interpretation makes
    every gamma query true and alpha false, with the first such
    interpretation; None when there is none."""
    failing = []
    anywhere = 0
    for combo in combos:
        bad = full ^ _value(alpha_q, frame, sat, combo, full)
        for q in gamma_q:
            if not bad:
                break
            bad &= _value(q, frame, sat, combo, full)
        if bad:
            failing.append((bad, combo))
            anywhere |= bad
    if not anywhere:
        return None
    lowest = anywhere & -anywhere
    combo = next(c for bad, c in failing if bad & lowest)
    return lowest.bit_length() - 1, combo
