"""Finite frames and models, frame validation, and truth evaluation.

A frame has worlds 0..size-1, an equivalence relation U and a
measurement relation Meas (read as M under MSQR, as P under MSpQR).
validate_frame checks the frame conditions of the requested system and
returns one violation per witness instead of a bare verdict:

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
once, for a batch of valuations at once, one bit per valuation.  A box
ANDs its body's truth over each distinct successor row.  evaluate and
holds run it with a single valuation; the countermodel search runs it
over many.

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
decides; world names are any fields.
Lines are read by syntax.read_lines, as scripts are.  An error points
at the field it is about, such as an unknown world, or else at the
line's first field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import (
    MEASUREMENT, Bottom, Box, Formula, Implies, Labelled, Line, MFormula,
    ParseError, Prop, Rel, System, is_identifier, labels_in, legal_rels,
    print_formula, read_lines, rels_in, split_fields, well_formed,
)


class SemanticsError(Exception):
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


Pair = tuple[int, int]


class Frame:
    """Immutable frame; worlds are 0..size-1 with display names."""

    def __init__(self, system: System, size: int, u: Iterable[Pair],
                 meas: Iterable[Pair], names: Optional[Sequence[str]] = None):
        if size < 1:
            raise ValueError("a frame needs at least one world")
        self.system = system
        self.size = size
        self.u = frozenset(u)
        self.meas = frozenset(meas)
        for (v, w) in self.u | self.meas:
            if not (0 <= v < size and 0 <= w < size):
                raise ValueError("relation pair (%d, %d) out of range" % (v, w))
        if names is None:
            names = tuple("w%d" % i for i in range(size))
        else:
            names = tuple(names)
            if len(names) != size or len(set(names)) != size:
                raise ValueError("need %d distinct world names" % size)
        self.names = names
        self.succ = {
            Rel.U: _rows(size, self.u),
            MEASUREMENT[system]: _rows(size, self.meas),
        }

    def pairs(self, rel: Rel) -> frozenset[Pair]:
        if rel is Rel.U:
            return self.u
        if rel not in self.succ:
            raise WrongSystem("relation %s is not part of %s"
                              % (rel.value, self.system.value))
        return self.meas

    def classical(self, w: int) -> bool:
        return (w, w) in self.meas

    def __eq__(self, other):
        return (isinstance(other, Frame) and self.system == other.system
                and self.size == other.size and self.u == other.u
                and self.meas == other.meas)

    def __hash__(self):
        return hash((self.system, self.size, self.u, self.meas))

    def __repr__(self):
        return "Frame(%s, %d, u=%s, meas=%s)" % (
            self.system.value, self.size, sorted(self.u), sorted(self.meas))


def _rows(size: int, pairs: frozenset[Pair]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(w for w in range(size) if (v, w) in pairs)
                 for v in range(size))


@dataclass(frozen=True)
class FrameViolation:
    prop: str  # stable property name
    witnesses: tuple[int, ...]


def describe_violation(frame: Frame, v: FrameViolation) -> str:
    return "%s at (%s)" % (v.prop, ", ".join(frame.names[w] for w in v.witnesses))


def validate_frame(frame: Frame) -> list[FrameViolation]:
    """All violated frame conditions, one entry per witness, named
    not-equivalence, meas-not-sub-U, not-serial, not-shift-reflexive,
    classical-not-unique, not-transitive or no-classical-reachable."""
    out: list[FrameViolation] = []
    rng = range(frame.size)
    u, meas = frame.u, frame.meas

    for w in rng:
        if (w, w) not in u:
            out.append(FrameViolation("not-equivalence", (w,)))
    for (v, w) in sorted(u):
        if (w, v) not in u:
            out.append(FrameViolation("not-equivalence", (v, w)))
    for (v, w) in sorted(u):
        for z in rng:
            if (w, z) in u and (v, z) not in u:
                out.append(FrameViolation("not-equivalence", (v, w, z)))
    for (v, w) in sorted(meas):
        if (v, w) not in u:
            out.append(FrameViolation("meas-not-sub-U", (v, w)))
    if frame.system is System.MSQR:
        for v in rng:
            if not any((v, w) in meas for w in rng):
                out.append(FrameViolation("not-serial", (v,)))
        for (v, w) in sorted(meas):
            if (w, w) not in meas:
                out.append(FrameViolation("not-shift-reflexive", (v, w)))
    else:
        for (v, w) in sorted(meas):
            for z in rng:
                if (w, z) in meas and (v, z) not in meas:
                    out.append(FrameViolation("not-transitive", (v, w, z)))
        for v in rng:
            if not any((v, w) in meas and (w, w) in meas for w in rng):
                out.append(FrameViolation("no-classical-reachable", (v,)))
    for v in rng:
        if (v, v) in meas:
            for w in rng:
                if w != v and (v, w) in meas:
                    out.append(FrameViolation("classical-not-unique", (v, w)))
    return out


class Model:
    """A frame plus a valuation (set of true propositions per world)."""

    def __init__(self, frame: Frame, valuation: Mapping[int, Iterable[str]]):
        self.frame = frame
        val = [frozenset()] * frame.size
        for w, props in valuation.items():
            if not (0 <= w < frame.size):
                raise UnknownWorld("world %r out of range" % (w,))
            val[w] = frozenset(props)
        self.valuation = tuple(val)

    def __eq__(self, other):
        return (isinstance(other, Model) and self.frame == other.frame
                and self.valuation == other.valuation)

    def __hash__(self):
        return hash((self.frame, self.valuation))

    def __repr__(self):
        return "Model(%r, %s)" % (self.frame,
                                  [sorted(s) for s in self.valuation])


class Structure:
    """A model plus an interpretation of labels as worlds."""

    def __init__(self, model: Model, interp: Mapping[str, int]):
        self.model = model
        for lab, w in interp.items():
            if not (0 <= w < model.frame.size):
                raise UnknownWorld("label %s bound to world %r out of range"
                                   % (lab, w))
        self.interp = dict(interp)

    def __eq__(self, other):
        return (isinstance(other, Structure) and self.model == other.model
                and self.interp == other.interp)

    def __repr__(self):
        return "Structure(%r, %r)" % (self.model, self.interp)


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


def truth_sets(program: Sequence[tuple], frame: Frame,
               columns: Mapping[str, Sequence[int]],
               full: int) -> list[list[int]]:
    """Sat of every node of a compiled program on a frame, for a batch
    of valuations at once.

    Bit v of columns[p][w] says that p is true at world w under
    valuation v; full has one bit per valuation.  The result holds, per
    node, one int per world with the same meaning for the node's
    formula.  Propositions without a column are false everywhere.
    """
    zero = [0] * frame.size
    sat: list[list[int]] = []
    for node in program:
        kind = node[0]
        if kind is Implies:
            col = [(full ^ a) | b for a, b in zip(sat[node[1]], sat[node[2]])]
        elif kind is Box:
            body = sat[node[2]]
            seen: dict[tuple[int, ...], int] = {}
            col = []
            for row in frame.succ[node[1]]:
                got = seen.get(row)
                if got is None:
                    got = full
                    for w in row:
                        got &= body[w]
                    seen[row] = got
                col.append(got)
        elif kind is Prop:
            col = columns.get(node[1], zero)
        else:
            col = zero
        sat.append(col)
    return sat


def _truth(model: Model, phi: MFormula) -> list[int]:
    # truth of phi at every world of the model, as 0 or 1 per world
    program, (root,) = compile_formulas([phi])
    columns = {node[1]: [int(node[1] in props) for props in model.valuation]
               for node in program if node[0] is Prop}
    return truth_sets(program, model.frame, columns, 1)[root]


def evaluate(model: Model, world: int, phi: MFormula) -> bool:
    """Truth of an m-formula at a world of a model."""
    if not (0 <= world < model.frame.size):
        raise UnknownWorld("world %r out of range" % (world,))
    for rel in rels_in(phi):
        model.frame.pairs(rel)  # raises WrongSystem for a foreign relation
    return _truth(model, phi)[world] == 1


def _check_bound(structure: Structure, f: Formula) -> None:
    for lab in sorted(labels_in(f)):
        if lab not in structure.interp:
            raise UnboundLabel("label %s is not interpreted" % lab)


def holds(structure: Structure, f: Formula) -> bool:
    """Truth of a labelled or relational formula under an interpretation."""
    system = structure.model.frame.system
    if not well_formed(f, system):
        raise WrongSystem("formula %s is not in the %s vocabulary"
                          % (print_formula(f), system.value))
    _check_bound(structure, f)
    model, interp = structure.model, structure.interp
    if isinstance(f, Labelled):
        return _truth(model, f.body)[interp[f.label]] == 1
    return (interp[f.left], interp[f.right]) in model.frame.pairs(f.rel)


def entails_in(structure: Structure, gamma: Iterable[Formula],
               alpha: Formula) -> bool:
    """True unless every formula of gamma holds while alpha fails."""
    gamma = list(gamma)
    for g in gamma:  # surface unbound labels even when gamma fails early
        _check_bound(structure, g)
    if all(holds(structure, g) for g in gamma):
        return holds(structure, alpha)
    return True


# ---------------------------------------------------------------------------
# model files

def parse_structure(text: str, allow_invalid: bool = False) -> Structure:
    """Load a structure from the model file format.

    The frame is validated; violations raise InvalidFrame unless
    allow_invalid is set.
    """
    system: Optional[System] = None
    names: Optional[list[str]] = None
    index: dict[str, int] = {}
    u: set[Pair] = set()
    meas: set[Pair] = set()
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
        elif head in ("U", "M", "P"):
            if head != "U" and Rel(head) not in legal_rels(system):
                raise line.error("relation %s is not part of %s"
                                 % (head, system.value), reason="wrong-system")
            if len(fields) != 3:
                raise line.error("expected '%s <world> <world>'" % head)
            pair = (world(line, fields[1], 1), world(line, fields[2], 2))
            (u if head == "U" else meas).add(pair)
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
    violations = validate_frame(frame)
    if violations and not allow_invalid:
        raise InvalidFrame(frame, violations)
    return Structure(Model(frame, val), interp)


def print_structure(structure: Structure) -> str:
    """Canonical model file text; parse_structure inverts it."""
    model = structure.model
    frame = model.frame
    meas_sym = MEASUREMENT[frame.system].value
    lines = ["system " + frame.system.value,
             "worlds " + " ".join(frame.names)]
    for (v, w) in sorted(frame.u):
        lines.append("U %s %s" % (frame.names[v], frame.names[w]))
    for (v, w) in sorted(frame.meas):
        lines.append("%s %s %s" % (meas_sym, frame.names[v], frame.names[w]))
    for w in range(frame.size):
        if model.valuation[w]:
            lines.append("val %s: %s" % (frame.names[w],
                                         " ".join(sorted(model.valuation[w]))))
    for lab in sorted(structure.interp):
        lines.append("interp %s = %s" % (lab, frame.names[structure.interp[lab]]))
    return "\n".join(lines) + "\n"
