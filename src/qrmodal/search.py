"""Frame enumeration, random valid frames, and countermodel search.

Enumeration is exhaustive and canonical: every equivalence relation on
{0..size-1} (one per set partition, in restricted-growth order) is
paired with every measurement relation drawn from the allowed pair set
(in bitmask order), and the pair is kept when validate_frame accepts
it.  Membership is decided by the validator alone, so the enumeration
cannot drift from the frame conditions.

The countermodel search tries every structure in that order: frames of
growing size, then valuations over the proposition budget, then label
interpretations (labels may share worlds).  The first failing structure
is returned; otherwise the search reports how many frames it checked.
A no-countermodel answer is relative to the bound and is never a
theoremhood claim.

Sizes above MAX_ENUM_SIZE are refused (bound-too-large) to keep the
search exhaustive within sane time, and bounds below 1 with SearchError.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .syntax import (
    Formula, System, labels_in, props_in_formula, well_formed,
)
from .semantics import (
    Frame, Model, Structure, WrongSystem, _holds, validate_frame,
)

MAX_ENUM_SIZE = 4


class SearchError(Exception):
    code = "search"


class BoundTooLarge(SearchError):
    code = "bound-too-large"


@dataclass(frozen=True)
class SearchBudget:
    """max_worlds: largest frame size tried, 1 to MAX_ENUM_SIZE;
    propositions: what valuations range over (empty: the query's)."""

    max_worlds: int = 3
    propositions: tuple[str, ...] = ()


@dataclass(frozen=True)
class Found:
    structure: Structure


@dataclass(frozen=True)
class NotFoundWithin:
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


@lru_cache(maxsize=None)
def _frames(system: System, size: int,
            disabled: tuple[str, ...]) -> tuple[Frame, ...]:
    out = []
    for assignment in _partitions(size):
        u = _u_pairs(assignment)
        if "meas-not-sub-U" in disabled:
            pool = sorted((v, w) for v in range(size) for w in range(size))
        else:
            pool = sorted(u)  # anything else already fails meas-not-sub-U
        for mask in range(1 << len(pool)):
            meas = frozenset(p for k, p in enumerate(pool) if mask >> k & 1)
            frame = Frame(system, size, u, meas)
            if not validate_frame(frame, disabled):
                out.append(frame)
    return tuple(out)


def enumerate_frames(system: System, size: int,
                     disabled: Iterable[str] = ()) -> Iterator[Frame]:
    """All valid frames on worlds {0..size-1}, each exactly once.

    disabled switches off individual frame conditions (by violation
    name) so the surviving frame class can be explored.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if size > MAX_ENUM_SIZE:
        raise BoundTooLarge("enumeration is capped at %d worlds"
                            % MAX_ENUM_SIZE)
    return iter(_frames(system, size, tuple(sorted(set(disabled)))))


def _nonempty_subset(rng: random.Random, items: Sequence[int]) -> list[int]:
    chosen = [x for x in items if rng.random() < 0.5]
    if not chosen:
        chosen = [rng.choice(items)]
    return chosen


def _closure(size: int, pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for c in range(size):
                if (b, c) in closed and (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return closed


def random_valid_frame(system: System, max_worlds: int, seed: int) -> Frame:
    """A pseudorandom valid frame, a deterministic function of the seed.

    Construction: sample a world count and a U-partition, mark a
    nonempty classical subset per block, give classical worlds only
    their self-loop and every other world a nonempty set of classical
    targets in its block.  Under MSpQR, optionally throw in edges
    between non-classical worlds of a block, transitively close, and
    keep the result only if it still validates (bounded retries, then
    the classical-only frame).
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    assignment = [0] * n
    used = 1
    for i in range(1, n):
        assignment[i] = rng.randint(0, used)
        used = max(used, assignment[i] + 1)
    u = _u_pairs(assignment)
    blocks: dict[int, list[int]] = {}
    for w in range(n):
        blocks.setdefault(assignment[w], []).append(w)

    base: set[tuple[int, int]] = set()
    nonclassical: list[int] = []
    classical_of: dict[int, list[int]] = {}
    for b, members in sorted(blocks.items()):
        classical = _nonempty_subset(rng, members)
        classical_of[b] = classical
        for c in classical:
            base.add((c, c))
        for v in members:
            if v in classical:
                continue
            nonclassical.append(v)
            for c in _nonempty_subset(rng, classical):
                base.add((v, c))

    meas = base
    if system is System.MSPQR and nonclassical and rng.random() < 0.5:
        for _ in range(8):
            extra = set(base)
            for v in nonclassical:
                peers = [w for w in blocks[assignment[v]]
                         if w != v and w in nonclassical]
                for w in peers:
                    if rng.random() < 0.3:
                        extra.add((v, w))
            extra = _closure(n, extra)
            frame = Frame(system, n, u, extra)
            if not validate_frame(frame):
                return frame
        # retries exhausted: fall back to the classical-only frame
    return Frame(system, n, u, meas)


def _subsets(props: Sequence[str]) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(p for k, p in enumerate(props) if mask >> k & 1)
                 for mask in range(1 << len(props)))


def find_countermodel(system: System, gamma: Iterable[Formula],
                      alpha: Formula, budget: SearchBudget,
                      disabled: Iterable[str] = ()) -> CountermodelResult:
    """Search every structure within the budget for one where all of
    gamma holds and alpha fails, in enumeration order."""
    gamma = list(gamma)
    for f in gamma + [alpha]:
        if not well_formed(f, system):
            raise WrongSystem("formula %s is not in the %s vocabulary"
                              % (f, system.value))
    if budget.max_worlds < 1:
        raise SearchError("the world bound must be at least 1")
    if budget.max_worlds > MAX_ENUM_SIZE:
        raise BoundTooLarge("search is capped at %d worlds" % MAX_ENUM_SIZE)

    props = budget.propositions
    if not props:
        gathered: set[str] = set()
        for f in gamma + [alpha]:
            gathered |= props_in_formula(f)
        props = tuple(sorted(gathered))
    labels = sorted(set().union(*(labels_in(f) for f in gamma + [alpha])))

    frames_checked = 0
    for size in range(1, budget.max_worlds + 1):
        worlds = range(size)
        val_choices = _subsets(props)
        for frame in enumerate_frames(system, size, disabled):
            frames_checked += 1
            for val in itertools.product(val_choices, repeat=size):
                model = Model(frame, dict(enumerate(val)))
                for combo in itertools.product(worlds, repeat=len(labels)):
                    interp = dict(zip(labels, combo))
                    if (all(_holds(model, interp, g) for g in gamma)
                            and not _holds(model, interp, alpha)):
                        return Found(Structure(model, interp))
    return NotFoundWithin(budget.max_worlds, frames_checked,
                          labels_exceed_bound=len(labels) > budget.max_worlds)
