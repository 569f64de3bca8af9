"""Frame enumeration, random valid frames, and countermodel search.

Enumeration is exhaustive and canonical: for every equivalence relation
U on {0..size-1} (one per set partition, in restricted-growth order) it
yields the valid measurement relations over U in bitmask order over the
sorted U-pairs, which is the order of meas[::-1], the frame's successor
masks from the last world to the first.  The candidates are built from
the frame conditions: per U-block a nonempty classical set C whose
worlds measure only themselves, every other world measuring a nonempty
subset of C, and under MSpQR any edges among the non-classical worlds.
Each candidate is kept when validate_frame accepts it.  Membership is
decided by the validator alone, so the enumeration cannot drift from the
frame conditions, and neither can random_valid_frame, which draws its
frames from it.

The countermodel search returns the first failing structure in the
order frames of growing size, then valuations over the propositions of
the query (itertools.product order, world 0 slowest; _columns defines
which bit of a valuation is which proposition at which world, and packs
each proposition's chunk of valuations into one int, world w's slice at
bit w * 2**chunk_bits, the layout of truth_sets), then label
interpretations (product order; labels may share worlds).  It evaluates
one frame per isomorphism class, the orbit of a frame under renaming
its worlds: the frame conditions do not change when worlds are renamed,
and valuations and interpretations range over all worlds, so a class
fails exactly when its first frame in enumeration order does, and that
frame comes before every other member of its class.  The first failing
frame is therefore the one the labelled order would reach first.  Of
those classes it evaluates the ones with at most L U-blocks, L the
number of distinct labels of gamma and alpha together.  Meas and P lie
inside U, so every modality, every relational formula and every frame
condition stays inside one U-block, and a failing structure cut down to
the blocks that hold a label still fails (its generated submodel), on
fewer worlds if some block held none.  At the smallest failing size
every failing class therefore has at most L blocks, and the first
failing class is among those evaluated.  Nor does the search visit the
structures one by one, or read a formula:
semantics.compile_queries compiles the query once; per frame and chunk
of valuations, truth_sets gives each subformula's truth and satisfying
the valuations where an interpretation makes gamma hold and alpha fail;
the lowest such valuation wins, then the first interpretation failing
under it.  Otherwise the search reports how many frames it checked:
every valid labelled frame up to the bound, since a class it skipped
fails only if one it evaluated on fewer worlds does.  A no-countermodel
answer is relative to the bound and is never a theoremhood claim.

Sizes above MAX_ENUM_SIZE are refused (bound-too-large) to keep the
search exhaustive within sane time, and bounds below 1 with SearchError;
_bounded decides both, for a SearchBudget when it is made.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterable, Iterator, Union

from . import semantics
from .syntax import Formula, InputError, Record, System
from .semantics import (
    Frame, Model, Structure, compile_queries, satisfying, truth_sets,
)

MAX_ENUM_SIZE = 4
# valuations evaluated together: 2**CHUNK_BITS bits per truth-set int
CHUNK_BITS = 12


class SearchError(InputError, ValueError):
    code = "search"


class BoundTooLarge(SearchError):
    code = "bound-too-large"


def _bounded(n: int, name: str, what: str) -> None:
    # 1 <= n <= MAX_ENUM_SIZE, for budgets and enumerators alike
    if n < 1:
        raise SearchError("%s must be at least 1" % name)
    if n > MAX_ENUM_SIZE:
        raise BoundTooLarge("%s is capped at %d worlds"
                            % (what, MAX_ENUM_SIZE))


class SearchBudget(Record):
    """max_worlds: the largest frame size a search tries, 1 to
    MAX_ENUM_SIZE.  Any other bound is refused here, before any search,
    and a budget is immutable, so no later assignment can pass the cap."""

    __slots__ = ()

    def __new__(cls, max_worlds: int = 3):
        _bounded(max_worlds, "the world bound", "search")
        return tuple.__new__(cls, (cls, max_worlds))


class Found(Record):
    __slots__ = ()

    def __new__(cls, structure: Structure):
        return tuple.__new__(cls, (cls, structure))


class NotFoundWithin(Record):
    """No structure within bound worlds refutes the query.

    frames_checked counts every valid labelled frame of at most bound
    worlds, although the search evaluated one frame per isomorphism
    class, and only the classes with at most as many U-blocks as the
    query has labels.
    """

    __slots__ = ()

    def __new__(cls, bound: int, frames_checked: int,
                labels_exceed_bound: bool = False):
        return tuple.__new__(cls, (cls, bound, frames_checked,
                                   labels_exceed_bound))


CountermodelResult = Union[Found, NotFoundWithin]


def _partitions(n: int) -> list[tuple[int, ...]]:
    # block assignments as restricted growth strings, lexicographic
    out = [()]
    for _ in range(n):
        out = [p + (b,) for p in out for b in range(max(p, default=-1) + 2)]
    return out


def _meas_relations(system: System,
                    u: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # every measurement relation over U that the frame conditions can
    # accept, as successor masks: per U-block a nonempty classical set
    # whose worlds see only themselves, every other world seeing a
    # nonempty set of classical worlds of its block and, under MSpQR,
    # any other worlds of its block besides
    masks = range(1 << len(u))
    for picks in itertools.product(*([c for c in masks if c and not c & ~b]
                                     for b in set(u))):
        classical = sum(picks)
        rows = []
        for v, block in enumerate(u):
            if classical >> v & 1:
                rows.append([1 << v])
                continue
            allowed = block & (classical if system is System.MSQR
                               else ~(1 << v))
            rows.append([s for s in masks
                         if s & classical and not s & ~allowed])
        yield from itertools.product(*rows)


@lru_cache(maxsize=None)
def _frames(system: System, size: int) -> tuple[Frame, ...]:
    out = []
    for assignment in _partitions(size):
        u = tuple(sum(1 << w for w in range(size) if assignment[w] == b)
                  for b in assignment)
        for meas in sorted(_meas_relations(system, u), key=lambda m: m[::-1]):
            frame = Frame(system, size, u, meas)
            # through the module at call time, where perfbench counts calls
            if not semantics.validate_frame(frame):
                out.append(frame)
    return tuple(out)


@lru_cache(maxsize=None)
def _classes(system: System, size: int) -> tuple[Frame, ...]:
    """The first frame of each isomorphism class of _frames(system,
    size), in that order: a frame is kept unless a renaming of its
    worlds gives a frame kept before it."""
    out, seen = [], set()
    # per renaming, the world renamed x at order[x], and the image of
    # every successor mask
    renamings = [(order, [sum(1 << x for x, w in enumerate(order)
                              if m >> w & 1) for m in range(1 << size)])
                 for order in itertools.permutations(range(size))]
    for frame in _frames(system, size):
        if (frame.u, frame.meas) in seen:
            continue
        out.append(frame)
        for order, image in renamings:
            seen.add((tuple(image[frame.u[v]] for v in order),
                      tuple(image[frame.meas[v]] for v in order)))
    return tuple(out)


@lru_cache(maxsize=None)
def _classes_within(system: System, size: int,
                    blocks: int) -> tuple[Frame, ...]:
    """The frames of _classes(system, size) that have at most blocks
    U-blocks (the distinct masks of frame.u), in that order."""
    return tuple(f for f in _classes(system, size) if len(set(f.u)) <= blocks)


def enumerate_frames(system: System, size: int) -> Iterator[Frame]:
    """All valid frames on worlds {0..size-1}, each exactly once."""
    _bounded(size, "size", "enumeration")
    return iter(_frames(system, size))


def random_valid_frame(system: System, max_worlds: int, seed: int) -> Frame:
    """A pseudorandom valid frame, a deterministic function of the seed.

    A world count uniform in 1..max_worlds, then a frame uniform among
    the enumerated frames of that size, so every frame of at most
    max_worlds worlds can be drawn.  Bounds above MAX_ENUM_SIZE raise
    BoundTooLarge, as enumerate_frames does.
    """
    _bounded(max_worlds, "max_worlds", "enumeration")
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    return rng.choice(_frames(system, n))


def _patterns(bits: int, full: int) -> list[int]:
    # pattern j has bit v set iff bit j of v is set, for v < 2**bits
    return [full // ((1 << (1 << j)) + 1) << (1 << j) for j in range(bits)]


def _columns(props: list[str], size: int, chunk: int, chunk_bits: int,
             low: list[int], full: int) -> dict[str, int]:
    # The valuation layout: valuation v is the v-th of itertools.product
    # over the subsets of props (mask k holds props[k]), one per world, so
    # world w owns bit len(props) * (size - 1 - w) + k of v for props[k].
    # Bit i of a chunk's slices is valuation (chunk << chunk_bits) + i;
    # world w's slice sits at bit w << chunk_bits of the packed column.
    columns: dict[str, int] = {}
    for k, p in enumerate(props):
        col = 0
        for w in range(size):
            j = len(props) * (size - 1 - w) + k
            if j < chunk_bits:
                col |= low[j] << (w << chunk_bits)
            elif chunk >> (j - chunk_bits) & 1:
                col |= full << (w << chunk_bits)
        columns[p] = col
    return columns


def find_countermodel(system: System, gamma: Iterable[Formula],
                      alpha: Formula,
                      budget: SearchBudget) -> CountermodelResult:
    """Search every structure within the budget for one where all of
    gamma holds and alpha fails, in enumeration order."""
    labels, props, program, queries = compile_queries(
        system, list(gamma) + [alpha])
    alpha_q = queries.pop()

    frames_checked = 0
    for size in range(1, budget.max_worlds + 1):
        total_bits = len(props) * size
        chunk_bits = min(total_bits, CHUNK_BITS)
        full = (1 << (1 << chunk_bits)) - 1
        low = _patterns(chunk_bits, full)
        first = _columns(props, size, 0, chunk_bits, low, full)
        combos = list(itertools.product(range(size), repeat=len(labels)))
        frames_checked += len(_frames(system, size))
        for frame in _classes_within(system, size, min(len(labels), size)):
            for chunk in range(1 << (total_bits - chunk_bits)):
                columns = first if chunk == 0 else _columns(
                    props, size, chunk, chunk_bits, low, full)
                sat = truth_sets(program, frame, columns, full)
                # the lowest failing valuation bit, and the first combo there
                lowest, hit = full + 1, None
                for combo in combos:
                    bad = full ^ satisfying(alpha_q, frame, sat, combo, full)
                    for q in queries:
                        if not bad:
                            break
                        bad &= satisfying(q, frame, sat, combo, full)
                    bad &= -bad
                    if 0 < bad < lowest:
                        lowest, hit = bad, combo
                if hit is not None:
                    val = {w: [p for p in props
                               if columns[p] >> (w << chunk_bits) & lowest]
                           for w in range(size)}
                    return Found(Structure(Model(frame, val),
                                           zip(labels, hit)))
    return NotFoundWithin(budget.max_worlds, frames_checked,
                          labels_exceed_bound=len(labels) > budget.max_worlds)
