"""Finite frames and models, frame validation, and truth evaluation.

A frame has worlds 0..size-1, an equivalence relation U and a
measurement relation Meas (read as M under MSQR, as P under MSpQR),
each stored as one successor bitmask per world (bit w of u[v] is set
when v U w).  validate_frame checks the frame conditions of the
requested system and returns one violation per witness instead of a
bare verdict:

  MSQR:  U equivalence, Meas subset of U, Meas serial, Meas
         shift-reflexive (v M w implies w M w), and classical worlds
         measure only themselves (v M v and v M w imply v = w).
  MSpQR: U equivalence, Meas subset of U, Meas transitive, every world
         reaches a classical world (some w with v P w and w P w), and
         the classical-uniqueness condition as in MSQR.

Truth is classical: bot is false, -> is material, a box quantifies over
the successors of the evaluation world along its relation.  Formulas
are evaluated bottom-up, by truth sets (the labelling algorithm of
global model checking): compile_formulas lists the distinct subformulas
in post order, and truth_sets computes each one's truth at every world
once, for a batch of valuations at once.  A truth set is one int over
all worlds, bit-sliced: world w owns bits w * W to w * W + W - 1, one
per valuation of the batch (W is 1 for a single valuation).  So -> is
one int operation for all worlds, and a box ANDs its body's slices once
per distinct successor mask and copies the result to every world with
that mask by one multiply.  holds and the countermodel search share
compile_queries, which refuses a formula outside the system's
vocabulary, and satisfying, which reads a query's truth off truth_sets:
holds under the model's own valuation, the search under many.

Model files look like:

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

One relation pair per line, `val` lines list the propositions true at a
world (worlds with no line get none), `interp` binds labels to worlds.
Propositions and labels are identifiers, as syntax.is_identifier
decides; world names are any fields without "#".
Lines are cut by syntax.read_lines, as script lines are.  An error
points at the field it is about, such as an unknown world, or else at
the line's first field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import (
    MEASUREMENT, Bottom, Box, Formula, Implies, InputError, Labelled,
    Line, MFormula, ParseError, Prop, Record, Rel, Relational, System,
    bit_indices, is_identifier, labels_in, legal_rels, print_formula,
    read_lines, split_fields, well_formed,
)


class SemanticsError(InputError):
    code = "semantics"


class UnknownWorld(SemanticsError):
    code = "unknown-world"


class UnboundLabel(SemanticsError):
    code = "unbound-label"


class WrongSystem(SemanticsError):
    code = "wrong-system"


class InvalidFrame(SemanticsError):
    """Raised by the loader when a frame fails validation."""

    code = "invalid-frame"

    def __init__(self, frame, violations):
        super().__init__("; ".join(describe_violation(frame, v)
                                   for v in violations))
        self.violations = violations


class Frame(Record):
    """A frame on worlds 0..size-1 named by names (w0, w1, ... by
    default), with U and the system's measurement relation as successor
    bitmasks: bit w of u[v] is set when v U w, and of meas[v] when v M w
    (v P w under MSpQR).  Frames are immutable, so the search hands out
    those it caches, and their equality includes world names.
    """

    __slots__ = ()

    def __new__(cls, system: System, size: int, u: Iterable[int],
                meas: Iterable[int], names: Optional[Sequence[str]] = None):
        if size < 1:
            raise ValueError("a frame needs at least one world")
        u, meas = tuple(u), tuple(meas)
        if len(u) != size or len(meas) != size or not all(
                0 <= mask < 1 << size for mask in u + meas):
            raise ValueError("need %d successor masks below 2**%d"
                             % (size, size))
        names = tuple(("w%d" % i for i in range(size)) if names is None
                      else names)
        if len(names) != size or len(set(names)) != size:
            raise ValueError("need %d distinct world names" % size)
        return tuple.__new__(cls, (cls, system, size, u, meas, names))

    def masks(self, rel: Rel) -> tuple[int, ...]:
        """Per world, its successor bitmask along rel."""
        if rel is Rel.U:
            return self.u
        if rel is MEASUREMENT[self.system]:
            return self.meas
        raise WrongSystem("relation %s is not part of %s"
                          % (rel.value, self.system.value))


class FrameViolation(Record):
    __slots__ = ()

    def __new__(cls, prop: str, witnesses: tuple[int, ...]):
        # prop is the stable property name
        return tuple.__new__(cls, (cls, prop, witnesses))


def describe_violation(frame: Frame, v: FrameViolation) -> str:
    return "%s at (%s)" % (v.prop, ", ".join(frame.names[w] for w in v.witnesses))


def validate_frame(frame: Frame) -> list[FrameViolation]:
    """All violated frame conditions, one entry per witness, named
    not-equivalence, meas-not-sub-U, not-serial, not-shift-reflexive,
    classical-not-unique, not-transitive or no-classical-reachable.

    A frame stores each relation as one successor bitmask per world, so
    a witness search is a mask difference: the successors of w that v
    lacks, for instance, are the transitivity witnesses of v R w."""
    out: list[FrameViolation] = []
    rng = range(frame.size)
    u, m = frame.u, frame.meas
    classical = sum(1 << w for w in rng if m[w] >> w & 1)

    for w in rng:
        if not u[w] >> w & 1:
            out.append(FrameViolation("not-equivalence", (w,)))
    for v in rng:
        for w in bit_indices(u[v]):
            if not u[w] >> v & 1:
                out.append(FrameViolation("not-equivalence", (v, w)))
    for v in rng:
        for w in bit_indices(u[v]):
            for z in bit_indices(u[w] & ~u[v]):
                out.append(FrameViolation("not-equivalence", (v, w, z)))
    for v in rng:
        for w in bit_indices(m[v] & ~u[v]):
            out.append(FrameViolation("meas-not-sub-U", (v, w)))
    if frame.system is System.MSQR:
        for v in rng:
            if not m[v]:
                out.append(FrameViolation("not-serial", (v,)))
        for v in rng:
            for w in bit_indices(m[v] & ~classical):
                out.append(FrameViolation("not-shift-reflexive", (v, w)))
    else:
        for v in rng:
            for w in bit_indices(m[v]):
                for z in bit_indices(m[w] & ~m[v]):
                    out.append(FrameViolation("not-transitive", (v, w, z)))
        for v in rng:
            if not m[v] & classical:
                out.append(FrameViolation("no-classical-reachable", (v,)))
    for v in bit_indices(classical):
        for w in bit_indices(m[v] & ~(1 << v)):
            out.append(FrameViolation("classical-not-unique", (v, w)))
    return out


class Model(Record):
    """A frame plus a valuation: per world, the set of its true
    propositions.  valuation maps worlds to propositions, a world left
    out having none, or is the field's own tuple of one frozenset per
    world."""

    __slots__ = ()

    def __new__(cls, frame: Frame,
                valuation: Mapping[int, Iterable[str]]
                | tuple[frozenset[str], ...]):
        val = [frozenset()] * frame.size
        for w, props in (enumerate(valuation) if isinstance(valuation, tuple)
                         else valuation.items()):
            if not (0 <= w < frame.size):
                raise UnknownWorld("world %r out of range" % (w,))
            val[w] = frozenset(props)
        return tuple.__new__(cls, (cls, frame, tuple(val)))


class Structure(Record):
    """A model plus an interpretation of labels as worlds, given as dict()
    takes one and stored as (label, world) pairs sorted by label."""

    __slots__ = ()

    def __new__(cls, model: Model, interp: Mapping | Iterable[tuple]):
        pairs = tuple(sorted(dict(interp).items()))
        for lab, w in pairs:
            if not (0 <= w < model.frame.size):
                raise UnknownWorld("label %s bound to world %r out of range"
                                   % (lab, w))
        return tuple.__new__(cls, (cls, model, pairs))


def compile_formulas(
        phis: Iterable[MFormula]) -> tuple[list[tuple], list[int]]:
    """The distinct subformulas of phis in post order, and the index of
    each phi in that list.

    A node is (Bottom,), (Prop, name), (Implies, left, right) or
    (Box, rel, body), where left, right and body index earlier nodes.
    """
    program: list[tuple] = []
    index: dict[MFormula, int] = {}
    roots = []
    for root in phis:
        stack = [root]
        while stack:
            phi = stack[-1]
            if phi in index:
                stack.pop()
                continue
            if isinstance(phi, Implies):
                kids = [k for k in (phi.left, phi.right) if k not in index]
                if kids:
                    stack.extend(kids)
                    continue
                node = (Implies, index[phi.left], index[phi.right])
            elif isinstance(phi, Box):
                if phi.body not in index:
                    stack.append(phi.body)
                    continue
                node = (Box, phi.rel, index[phi.body])
            elif isinstance(phi, Prop):
                node = (Prop, phi.name)
            else:
                node = (Bottom,)
            stack.pop()
            index[phi] = len(program)
            program.append(node)
        roots.append(index[root])
    return program, roots


@lru_cache(maxsize=1024)
def _box_groups(masks: tuple[int, ...],
                width: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Per distinct successor mask, the bit offsets of its worlds' slices
    # and the spread of the worlds that have it (bit v * width set for
    # each).  A box ANDs its body's slices at the offsets into a value
    # no greater than full, so one multiply by the spread copies it to
    # those worlds without a carry.  The search caches its frames, so
    # the grouping is computed once per frame and width.
    spreads: dict[int, int] = {}
    for v, mask in enumerate(masks):
        spreads[mask] = spreads.get(mask, 0) | 1 << v * width
    return tuple((tuple(w * width for w in bit_indices(mask)), spread)
                 for mask, spread in spreads.items())


def truth_sets(program: Sequence[tuple], frame: Frame,
               columns: Mapping[str, int], full: int) -> list[int]:
    """Sat of every node of a compiled program on a frame, for a batch
    of valuations at once.

    Truth sets are bit-sliced: with W = full.bit_length(), one bit per
    valuation, bit w * W + i of an int says that the formula is true at
    world w under valuation i, so world w's slice is (x >> w * W) & full.
    columns[p] holds proposition p in that layout; the result holds one
    such int per node.  Propositions without a column are false
    everywhere; a relation outside the frame's system raises WrongSystem.
    """
    width = full.bit_length()
    every = (1 << frame.size * width) - 1
    sat: list[int] = []
    for node in program:
        kind = node[0]
        if kind is Implies:
            col = (every ^ sat[node[1]]) | sat[node[2]]
        elif kind is Box:
            body = sat[node[2]]
            col = 0
            for shifts, spread in _box_groups(frame.masks(node[1]), width):
                got = full
                for k in shifts:
                    got &= body >> k
                col |= got * spread
        elif kind is Prop:
            col = columns.get(node[1], 0)
        else:
            col = 0
        sat.append(col)
    return sat


def compile_queries(system: System, formulas: Sequence[Formula]) -> tuple:
    """The sorted labels and propositions of formulas, the program of
    their labelled bodies, and per formula a query, (Labelled, slot,
    root) or (Relational, slot, rel, slot), where slot k is labels[k].
    A formula outside the system's vocabulary raises WrongSystem."""
    for f in formulas:
        if not well_formed(f, system):
            raise WrongSystem("formula %s is not in the %s vocabulary"
                              % (print_formula(f), system.value))
    labels = sorted(set().union(*map(labels_in, formulas)))
    slot = {lab: k for k, lab in enumerate(labels)}
    program, roots = compile_formulas(
        [f.body for f in formulas if isinstance(f, Labelled)])
    root = iter(roots)
    queries = [(Labelled, slot[f.label], next(root))
               if isinstance(f, Labelled)
               else (Relational, slot[f.left], f.rel, slot[f.right])
               for f in formulas]
    props = sorted(node[1] for node in program if node[0] is Prop)
    return labels, props, program, queries


def satisfying(q: tuple, frame: Frame, sat: Sequence[int],
               combo: Sequence[int], full: int) -> int:
    """The valuations (bits of full) where compiled query q holds on
    frame, label slot k denoting world combo[k], given truth_sets' sat:
    a labelled query reads the slice of its world."""
    if q[0] is Labelled:
        return sat[q[2]] >> combo[q[1]] * full.bit_length() & full
    return full if frame.masks(q[2])[combo[q[1]]] >> combo[q[3]] & 1 else 0


def _model_sets(model: Model, program: Sequence[tuple]) -> list[int]:
    # truth_sets under the model's own valuation, a batch of one: bit w
    # is the truth at world w
    columns = {node[1]: sum(1 << w for w, props in enumerate(model.valuation)
                            if node[1] in props)
               for node in program if node[0] is Prop}
    return truth_sets(program, model.frame, columns, 1)


def evaluate(model: Model, world: int, phi: MFormula) -> bool:
    """Truth of an m-formula at a world of a model."""
    if not (0 <= world < model.frame.size):
        raise UnknownWorld("world %r out of range" % (world,))
    program, (root,) = compile_formulas([phi])
    return _model_sets(model, program)[root] >> world & 1 == 1


def holds(structure: Structure, f: Formula) -> bool:
    """Truth of a labelled or relational formula under an interpretation."""
    model = structure.model
    labels, _, program, (query,) = compile_queries(model.frame.system, [f])
    interp = dict(structure.interp)
    for lab in labels:
        if lab not in interp:
            raise UnboundLabel("label %s is not interpreted" % lab)
    combo = [interp[lab] for lab in labels]
    return satisfying(query, model.frame, _model_sets(model, program),
                      combo, 1) == 1


# ---------------------------------------------------------------------------
# model files

def parse_structure(text: str, allow_invalid: bool = False) -> Structure:
    """Load a structure from the model file format.

    Unless allow_invalid is set, the frame is validated and violations
    raise InvalidFrame.
    """
    system: Optional[System] = None
    names: Optional[list[str]] = None
    index: dict[str, int] = {}
    u: list[int] = []
    meas: list[int] = []
    val: dict[int, set[str]] = {}
    interp: dict[str, int] = {}

    def world(line: Line, name: str, field: int) -> int:
        if names is None:
            raise line.error("worlds must be declared first")
        if name not in index:
            raise line.error("unknown world %r" % name, field)
        return index[name]

    for line in read_lines(text):
        fields = split_fields(line.text)
        head = fields[0]
        if system is None and head in ("worlds", "U", "M", "P"):
            raise line.error("system must be declared first")
        if head == "system":
            if system is not None:
                raise line.error("duplicate system line")
            system = line.system()
        elif head == "worlds":
            if names is not None:
                raise line.error("duplicate worlds line")
            if len(fields) < 2:
                raise line.error("at least one world is required")
            names = fields[1:]
            if len(set(names)) != len(names):
                k = next(k for k, n in enumerate(names) if names.index(n) < k)
                raise line.error("duplicate world name", k + 1)
            index = {n: i for i, n in enumerate(names)}
            u, meas = [0] * len(names), [0] * len(names)
        elif head in ("U", "M", "P"):
            if head != "U" and Rel(head) not in legal_rels(system):
                raise line.error("relation %s is not part of %s"
                                 % (head, system.value), reason="wrong-system")
            if len(fields) != 3:
                raise line.error("expected '%s <world> <world>'" % head)
            v, w = world(line, fields[1], 1), world(line, fields[2], 2)
            (u if head == "U" else meas)[v] |= 1 << w
        elif head == "val":
            if len(fields) < 2 or not fields[1].endswith(":"):
                raise line.error("expected 'val <world>: <props>'")
            w = world(line, fields[1][:-1], 1)
            if w in val:
                raise line.error("duplicate val line for %r" % names[w], 1)
            for k, p in enumerate(fields[2:], start=2):
                if not is_identifier(p):
                    raise line.error("expected a proposition, found %r" % p,
                                     k)
            val[w] = set(fields[2:])
        elif head == "interp":
            if len(fields) != 4 or fields[2] != "=":
                raise line.error("expected 'interp <label> = <world>'")
            if not is_identifier(fields[1]):
                raise line.error("expected a label, found %r" % fields[1], 1)
            if fields[1] in interp:
                raise line.error("duplicate interp for label %r"
                                 % fields[1], 1)
            interp[fields[1]] = world(line, fields[3], 3)
        else:
            raise line.error("unrecognized line %r" % head)

    if system is None:
        raise ParseError("missing system line", 1, 1)
    if names is None:
        raise ParseError("missing worlds line", 1, 1)
    frame = Frame(system, len(names), u, meas, names)
    if not allow_invalid:
        violations = validate_frame(frame)
        if violations:
            raise InvalidFrame(frame, violations)
    return Structure(Model(frame, val), interp)


def print_structure(structure: Structure) -> str:
    """Canonical model file text; parse_structure inverts it.  Raises
    ValueError for a world name that is empty or holds a blank or "#",
    or a proposition or label that is not an identifier, which the text
    could not hold."""
    model = structure.model
    frame, names = model.frame, model.frame.names
    for name in names:
        if split_fields(name) != [name] or "#" in name:
            raise ValueError("world name %r cannot be written to a model "
                             "file" % name)
    for kind, words in (("proposition", set().union(*model.valuation)),
                        ("label", [lab for lab, _ in structure.interp])):
        for word in sorted(words):
            if not is_identifier(word):
                raise ValueError("%s %r is not an identifier" % (kind, word))
    lines = ["system " + frame.system.value, "worlds " + " ".join(names)]
    for sym, masks in (("U", frame.u),
                       (MEASUREMENT[frame.system].value, frame.meas)):
        for v, mask in enumerate(masks):
            for w in bit_indices(mask):
                lines.append("%s %s %s" % (sym, names[v], names[w]))
    for w, props in enumerate(model.valuation):
        if props:
            lines.append("val %s: %s" % (names[w], " ".join(sorted(props))))
    for lab, w in structure.interp:
        lines.append("interp %s = %s" % (lab, names[w]))
    return "\n".join(lines) + "\n"
