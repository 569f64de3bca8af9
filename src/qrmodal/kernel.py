"""Trusted checker for labelled natural deduction proofs.

Proofs are linear scripts: numbered steps, each a hypothesis or a rule
applied to earlier steps.  Subproofs are implicit; a discharging rule
names the hypothesis steps it closes and the checker tracks, per step,
the set of hypotheses the step still depends on.  Discharging removes
the named steps from that set, so a hypothesis already closed along a
path cannot be closed again, while discharging an unused hypothesis is
a sound no-op (vacuous discharge, permitted for every discharging
rule).

The set is an int bitset: each hypothesis gets the next bit when it is
admitted, a step's set is the OR of its premises' sets with the
discharged bits cleared, and each label keeps the bits of the
hypotheses whose formula names it.  The eigenvariable condition of
BoxI, Mser and Class is then one AND of the fresh label's bits with
the premise's open set, so checking is linear in script length.

Primitive rules, shared:

  hyp                        assume any formula
  ImpI   x:B [x:A] => x:A->B          discharges x:A
  ImpE   x:A->B, x:A => x:B           minor premise is the antecedent
  RAA    y:bot [x:A->bot] => x:A      discharges the negated conclusion
  BotE   x:bot => any formula
  BoxI   y:A [x R y] => x:[R]A        y fresh: y /= x, y in no other
                                      open assumption
  BoxE   x:[R]A, x R y => y:A
  Urefl  => x U x
  Usymm  x U y => y U x
  Utrans x U y, y U z => x U z

MSQR only:

  UIfromM  x M y => x U y
  Mser     a [x M y] => a             discharges x M y; y fresh: y /= x,
                                      y not in a nor other open assumptions
  Msrefl   x M y => y M y
  Msub1    a, x M x, x M y => a[y/x]
  Msub2    a, x M x, x M y => a[x/y]

MSpQR only:

  PUI     x P y => x U y
  Ptrans  x P y, y P z => x P z
  Class   a [x P y][y P y] => a       discharges both; y fresh as in Mser
  Psub1   a, x P x, x P y => a[y/x]
  Psub2   a, x P x, x P y => a[x/y]

Derived rules (NegI, NegE, IffI, IffE1, IffE2, AndI, AndE1, AndE2, and
Mtrans under MSQR) are expanded to primitive steps before checking, so
the checker never trusts them.  A derived step passes the admission
checks of a primitive one (system, premises, arity, discharges, fresh)
before it is expanded.  Helper steps are private to their expansion:
later steps cannot cite or discharge them, nor open_assumptions name
them.  Premises are matched in the order the schema lists them.

Script file format::

    system MSQR                      # or MSPQR
    theorem name : x : [M] r0 -> r0
    1. x : [M] r0 ; hyp
    2. x M y ; hyp
    ...
    9. x : [M] r0 -> r0 ; ImpI 8 discharge 1
    qed

Justifications are ``hyp`` or ``Rule p1,p2 [discharge h1,h2] [fresh y]``;
the optional ``fresh`` names the fresh label of BoxI/Mser/Class and is
checked against the inferred one.  Ids are ASCII decimal numbers.
``#`` comments and blank lines are ignored.  The final step must
restate the theorem.

Diagnostics carry stable reason codes: wrong-arity, schema-mismatch,
illegal-discharge, freshness-violation, undischarged-at-theorem,
wrong-system, unknown-premise, unknown-derived-rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .syntax import (
    BOT, Box, Formula, Implies, Labelled, ParseError, Rel, Relational, System,
    labels_in, parse_formula, print_formula, substitute, well_formed,
)

WRONG_ARITY = "wrong-arity"
SCHEMA_MISMATCH = "schema-mismatch"
ILLEGAL_DISCHARGE = "illegal-discharge"
FRESHNESS_VIOLATION = "freshness-violation"
UNDISCHARGED_AT_THEOREM = "undischarged-at-theorem"
WRONG_SYSTEM = "wrong-system"
UNKNOWN_PREMISE = "unknown-premise"
UNKNOWN_DERIVED_RULE = "unknown-derived-rule"

HYP = "hyp"

PRIMITIVE_SHARED = frozenset((
    "ImpI", "ImpE", "RAA", "BotE", "BoxI", "BoxE",
    "Urefl", "Usymm", "Utrans",
))
PRIMITIVE_MSQR = frozenset(("UIfromM", "Mser", "Msrefl", "Msub1", "Msub2"))
PRIMITIVE_MSPQR = frozenset(("PUI", "Ptrans", "Class", "Psub1", "Psub2"))
DERIVED_SHARED = frozenset((
    "NegI", "NegE", "IffI", "IffE1", "IffE2", "AndI", "AndE1", "AndE2",
))
DERIVED_MSQR = frozenset(("Mtrans",))
DERIVED = DERIVED_SHARED | DERIVED_MSQR
ALL_RULES = (frozenset((HYP,)) | PRIMITIVE_SHARED | PRIMITIVE_MSQR
             | PRIMITIVE_MSPQR | DERIVED)

_ARITY = {
    HYP: 0, "ImpI": 1, "ImpE": 2, "RAA": 1, "BotE": 1, "BoxI": 1,
    "BoxE": 2, "Urefl": 0, "Usymm": 1, "Utrans": 2,
    "UIfromM": 1, "Mser": 1, "Msrefl": 1, "Msub1": 3, "Msub2": 3,
    "PUI": 1, "Ptrans": 2, "Class": 1, "Psub1": 3, "Psub2": 3,
    "NegI": 1, "NegE": 2, "IffI": 2, "IffE1": 1, "IffE2": 1,
    "AndI": 2, "AndE1": 1, "AndE2": 1, "Mtrans": 2,
}

_DISCHARGING = frozenset(("ImpI", "RAA", "BoxI", "Mser", "Class", "NegI"))
_FRESH_RULES = frozenset(("BoxI", "Mser", "Class"))

_SHARED_RULES = frozenset((HYP,)) | PRIMITIVE_SHARED | DERIVED_SHARED
_RULES_OF = {
    System.MSQR: _SHARED_RULES | PRIMITIVE_MSQR | DERIVED_MSQR,
    System.MSPQR: _SHARED_RULES | PRIMITIVE_MSPQR,
}


def rules_of(system: System) -> frozenset[str]:
    return _RULES_OF[system]


@dataclass(frozen=True)
class ProofStep:
    id: int
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()
    discharges: tuple[int, ...] = ()
    fresh: Optional[str] = None


@dataclass(frozen=True)
class ProofScript:
    system: System
    name: str
    statement: Optional[Formula]
    steps: tuple[ProofStep, ...]


@dataclass(frozen=True)
class Diagnostic:
    step: int  # id of the (original) step the problem belongs to
    reason: str
    message: str

    def __str__(self):
        return "step %d: %s: %s" % (self.step, self.reason, self.message)


@dataclass(frozen=True)
class CheckReport:
    open_assumptions: frozenset[Formula]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def accepted(self) -> bool:
        return not self.diagnostics


class KernelError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Expand(Exception):
    def __init__(self, reason: str, message: str):
        self.reason = reason
        self.message = message


def expand_derived(step: ProofStep, premises: Mapping[int, Formula],
                   first_id: Optional[int] = None) -> list[ProofStep]:
    """Primitive steps replacing a derived step.

    The final step keeps the derived step's id, conclusion and
    discharges; helper steps take ids first_id, first_id+1, ...  The
    result is not trusted: it is checked like hand-written steps, and
    its final conclusion depends exactly on the derived step's premises
    and undischarged hypotheses.
    """
    if step.rule not in DERIVED:
        raise KernelError(UNKNOWN_DERIVED_RULE,
                          "%r is not a derived rule" % step.rule)
    if len(step.premises) != _ARITY[step.rule]:
        raise KernelError(WRONG_ARITY, "%s takes %d premises, got %d"
                          % (step.rule, _ARITY[step.rule], len(step.premises)))
    res = {}
    for pid in step.premises:
        if pid not in premises:
            raise KernelError(UNKNOWN_PREMISE,
                              "premise %d is not an earlier step" % pid)
        res[pid] = premises[pid]
    if first_id is None:
        first_id = max([step.id] + list(premises)) + 1
    try:
        return _expansion(step, res, first_id)
    except _Expand as e:
        raise KernelError(e.reason, e.message) from None


def _labelled(f: Formula, what: str) -> Labelled:
    if not isinstance(f, Labelled):
        raise _Expand(SCHEMA_MISMATCH, "%s must be a labelled formula, got %s"
                      % (what, print_formula(f)))
    return f


def _expansion(step: ProofStep, res: dict[int, Formula],
               nid: int) -> list[ProofStep]:
    rule = step.rule
    pids = step.premises

    if rule == "NegE":
        # x:~A, x:A => x:bot is an ImpE instance
        return [ProofStep(step.id, step.formula, "ImpE", pids)]

    if rule == "NegI":
        # subproof of y:bot from [x:A]; BotE moves bot to x, ImpI closes
        concl = _labelled(step.formula, "NegI conclusion")
        bot_at_x = Labelled(concl.label, BOT)
        return [
            ProofStep(nid, bot_at_x, "BotE", (pids[0],)),
            ProofStep(step.id, step.formula, "ImpI", (nid,),
                      step.discharges),
        ]

    if rule in ("AndI", "IffI"):
        # from x:A and x:B, close a hypothesis x:A->(B->bot)
        p1 = _labelled(res[pids[0]], "%s premise" % rule)
        p2 = _labelled(res[pids[1]], "%s premise" % rule)
        x = p1.label
        guard = Labelled(x, Implies(p1.body, Implies(p2.body, BOT)))
        return [
            ProofStep(nid, guard, HYP),
            ProofStep(nid + 1, Labelled(x, Implies(p2.body, BOT)),
                      "ImpE", (nid, pids[0])),
            ProofStep(nid + 2, Labelled(x, BOT), "ImpE", (nid + 1, pids[1])),
            ProofStep(step.id, step.formula, "ImpI", (nid + 2,), (nid,)),
        ]

    if rule in ("AndE1", "AndE2", "IffE1", "IffE2"):
        p = _labelled(res[pids[0]], "%s premise" % rule)
        shape = p.body
        ok = (isinstance(shape, Implies) and shape.right == BOT
              and isinstance(shape.left, Implies)
              and isinstance(shape.left.right, Implies)
              and shape.left.right.right == BOT)
        if not ok:
            raise _Expand(SCHEMA_MISMATCH,
                          "%s premise is not a conjunction: %s"
                          % (rule, print_formula(p)))
        x = p.label
        a, b = shape.left.left, shape.left.right.left
        if rule in ("AndE1", "IffE1"):
            # refute x:A->bot: from it A->(B->bot) follows via BotE
            h1 = Labelled(x, Implies(a, BOT))
            h2 = Labelled(x, a)
            return [
                ProofStep(nid, h1, HYP),
                ProofStep(nid + 1, h2, HYP),
                ProofStep(nid + 2, Labelled(x, BOT), "ImpE", (nid, nid + 1)),
                ProofStep(nid + 3, Labelled(x, Implies(b, BOT)),
                          "BotE", (nid + 2,)),
                ProofStep(nid + 4, Labelled(x, shape.left),
                          "ImpI", (nid + 3,), (nid + 1,)),
                ProofStep(nid + 5, Labelled(x, BOT),
                          "ImpE", (pids[0], nid + 4)),
                ProofStep(step.id, step.formula, "RAA", (nid + 5,), (nid,)),
            ]
        # refute x:B->bot: A->(B->bot) follows by two ImpI
        h1 = Labelled(x, Implies(b, BOT))
        h2 = Labelled(x, a)
        h3 = Labelled(x, b)
        return [
            ProofStep(nid, h1, HYP),
            ProofStep(nid + 1, h2, HYP),
            ProofStep(nid + 2, h3, HYP),
            ProofStep(nid + 3, Labelled(x, BOT), "ImpE", (nid, nid + 2)),
            ProofStep(nid + 4, Labelled(x, Implies(b, BOT)),
                      "ImpI", (nid + 3,), (nid + 2,)),
            ProofStep(nid + 5, Labelled(x, shape.left),
                      "ImpI", (nid + 4,), (nid + 1,)),
            ProofStep(nid + 6, Labelled(x, BOT), "ImpE", (pids[0], nid + 5)),
            ProofStep(step.id, step.formula, "RAA", (nid + 6,), (nid,)),
        ]

    if rule == "Mtrans":
        # a M b, b M c => a M c; the customary display derives c M c by
        # Msrefl, but the Msub1 instance that actually fires needs
        # b M b, so both shift-reflexivity steps are emitted
        p1, p2 = res[pids[0]], res[pids[1]]
        for p in (p1, p2):
            if not (isinstance(p, Relational) and p.rel is Rel.M):
                raise _Expand(SCHEMA_MISMATCH,
                              "Mtrans premise must be an M formula, got %s"
                              % print_formula(p))
        b = p1.right
        c = p2.right
        return [
            ProofStep(nid, Relational(c, Rel.M, c), "Msrefl", (pids[1],)),
            ProofStep(nid + 1, Relational(b, Rel.M, b), "Msrefl", (pids[0],)),
            ProofStep(step.id, step.formula, "Msub1",
                      (pids[0], nid + 1, pids[1])),
        ]

    raise AssertionError("unhandled derived rule %r" % rule)


# ---------------------------------------------------------------------------
# checking

def check(script: ProofScript, system: Optional[System] = None) -> CheckReport:
    """Check a script; accepted iff there are no diagnostics.

    system overrides the script's own header (the basis of the CLI's
    --system flag).  Open assumptions are those of the final step; when
    the script declares a statement they must be empty and the final
    formula must equal the statement.
    """
    return _run(script, system).report()


def open_assumptions(script: ProofScript, step_id: int) -> frozenset[Formula]:
    """Hypothesis formulas a step still depends on."""
    state = _run(script, None)
    if step_id not in state.deps:
        raise KernelError(UNKNOWN_PREMISE, "no step with id %d" % step_id)
    return state.formulas_of(state.deps[step_id])


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _State:
    def __init__(self, script: ProofScript, system: Optional[System]):
        self.script = script
        self.system = system or script.system
        self.diags: list[Diagnostic] = []
        self.formulas: dict[int, Formula] = {}
        # per step, its open hypotheses as a bitset over hypothesis indices
        self.deps: dict[int, int] = {}
        # hypothesis step id -> index, and index -> step id and formula
        self.index: dict[int, int] = {}
        self.hyp_ids: list[int] = []
        self.hyp_formulas: list[Formula] = []
        # label -> bits of the hypotheses whose formula names it
        self.mentions: dict[str, int] = {}
        self.helper_base = max(st.id for st in script.steps) + 1

    def diag(self, step: int, reason: str, message: str) -> None:
        self.diags.append(Diagnostic(step, reason, message))

    def mask_of(self, ids) -> int:
        # the bits of those ids that name hypotheses
        mask = 0
        for i in ids:
            if i in self.index:
                mask |= 1 << self.index[i]
        return mask

    def formulas_of(self, mask: int) -> frozenset[Formula]:
        return frozenset(self.hyp_formulas[i] for i in _bits(mask))

    def report(self) -> CheckReport:
        final = self.script.steps[-1].id
        open_ = self.formulas_of(self.deps[final])
        stmt = self.script.statement
        if stmt is not None:
            if self.formulas[final] != stmt:
                self.diag(final, SCHEMA_MISMATCH,
                          "final step proves %s, theorem states %s"
                          % (print_formula(self.formulas[final]),
                             print_formula(stmt)))
            if open_:
                self.diag(final, UNDISCHARGED_AT_THEOREM,
                          "open assumptions remain: %s"
                          % ", ".join(sorted(map(print_formula, open_))))
        return CheckReport(open_, tuple(self.diags))


def _run(script: ProofScript, system: Optional[System]) -> _State:
    if not script.steps:
        raise ValueError("a script needs at least one step")
    seen = set()
    for st in script.steps:
        if st.id <= 0:
            raise ValueError("step ids must be positive, got %d" % st.id)
        if st.id in seen:
            raise ValueError("duplicate step id %d" % st.id)
        seen.add(st.id)

    state = _State(script, system)
    for st in script.steps:
        _vocabulary(state, st, st.id)
        _step(state, st, st.id)
    return state


def _vocabulary(state: _State, st: ProofStep, origin: int) -> None:
    if not well_formed(st.formula, state.system):
        state.diag(origin, WRONG_SYSTEM,
                   "formula %s is not in the %s vocabulary"
                   % (print_formula(st.formula), state.system.value))


def _record(state: _State, st: ProofStep) -> None:
    # the premises' open hypotheses minus the hypotheses the step lists
    # as discharged; a step that failed, whatever its rule, still
    # footprints its known premises and clears its listed discharges
    deps = 0
    for pid in st.premises:
        deps |= state.deps.get(pid, 0)
    state.formulas[st.id] = st.formula
    state.deps[st.id] = deps & ~state.mask_of(st.discharges)


def _step(state: _State, st: ProofStep, origin: int) -> None:
    # the caller has checked st's vocabulary
    diag = state.diag
    derived = st.rule in DERIVED
    if st.rule == HYP:
        if st.premises or st.discharges or st.fresh:
            diag(origin, WRONG_ARITY, "hyp takes no premises or annotations")
        i = len(state.hyp_ids)
        bit = 1 << i
        state.index[st.id] = i
        state.hyp_ids.append(st.id)
        state.hyp_formulas.append(st.formula)
        for label in labels_in(st.formula):
            state.mentions[label] = state.mentions.get(label, 0) | bit
        state.formulas[st.id] = st.formula
        state.deps[st.id] = bit
        return

    if st.rule not in ALL_RULES:
        diag(origin, SCHEMA_MISMATCH, "unknown rule %r" % st.rule)
        _record(state, st)
        return
    if st.rule not in rules_of(state.system):
        diag(origin, WRONG_SYSTEM, "rule %s is not part of %s"
             % (st.rule, state.system.value))
        _record(state, st)
        return

    prems: list[tuple[int, Formula]] = []
    missing = False
    for pid in st.premises:
        if pid not in state.formulas:
            diag(origin, UNKNOWN_PREMISE,
                 "premise %d is not an earlier step" % pid)
            missing = True
        else:
            prems.append((pid, state.formulas[pid]))
    if len(st.premises) != _ARITY[st.rule]:
        diag(origin, WRONG_ARITY, "%s takes %d premises, got %d"
             % (st.rule, _ARITY[st.rule], len(st.premises)))
        missing = True
    if missing:
        _record(state, st)
        return

    dis: list[tuple[int, Formula]] = []
    bad_discharge = False
    if st.discharges and st.rule not in _DISCHARGING:
        diag(origin, ILLEGAL_DISCHARGE, "rule %s discharges nothing" % st.rule)
        bad_discharge = True
    else:
        for did in st.discharges:
            if did not in state.formulas:
                diag(origin, ILLEGAL_DISCHARGE,
                     "discharge %d is not an earlier step" % did)
                bad_discharge = True
            elif did not in state.index:
                diag(origin, ILLEGAL_DISCHARGE,
                     "discharge %d is not a hypothesis" % did)
                bad_discharge = True
            else:
                dis.append((did, state.formulas[did]))
    bad_fresh = st.fresh is not None and st.rule not in _FRESH_RULES
    if bad_fresh:
        diag(origin, SCHEMA_MISMATCH,
             "rule %s takes no fresh label" % st.rule)

    if derived and not (bad_discharge or bad_fresh):
        _expand(state, st, origin)
        return
    if not (derived or bad_discharge):
        _schema(state, st, origin, prems, dis)
    _record(state, st)


def _expand(state: _State, st: ProofStep, origin: int) -> None:
    try:
        steps = expand_derived(st, state.formulas, state.helper_base)
    except KernelError as e:
        state.diag(origin, e.code, str(e))
        _record(state, st)
        return
    # the last step repeats st's conclusion, whose vocabulary is checked
    for sub in steps:
        if sub is not steps[-1]:
            _vocabulary(state, sub, origin)
        _step(state, sub, origin)
    # helper ids are private to this expansion; the next one reuses them
    for sub in steps[:-1]:
        del state.formulas[sub.id], state.deps[sub.id]
        state.index.pop(sub.id, None)


def _fresh_check(state: _State, origin: int, y: str, x: str,
                 premise_id: int, discharged: int,
                 conclusion: Optional[Formula]) -> None:
    if y == x:
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s must differ from %s" % (y, x))
        return
    if conclusion is not None and y in labels_in(conclusion):
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s occurs in the conclusion %s"
                   % (y, print_formula(conclusion)))
        return
    clash = state.mentions.get(y, 0) & state.deps[premise_id] & ~discharged
    if clash:
        # the open hypothesis naming y with the smallest step id; bit
        # order is script order, which need not be id order
        h = min(_bits(clash), key=state.hyp_ids.__getitem__)
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s occurs in open assumption %s"
                   % (y, print_formula(state.hyp_formulas[h])))


def _schema(state: _State, st: ProofStep, origin: int,
            prems: list[tuple[int, Formula]],
            dis: list[tuple[int, Formula]]) -> None:
    rule = st.rule
    f = st.formula

    def mism(message: str) -> None:
        state.diag(origin, SCHEMA_MISMATCH, message)

    def bad_dis(message: str) -> None:
        state.diag(origin, ILLEGAL_DISCHARGE, message)

    def fresh_matches(y: str) -> bool:
        if st.fresh is not None and st.fresh != y:
            mism("fresh annotation says %s, rule instance uses %s"
                 % (st.fresh, y))
            return False
        return True

    if rule == "ImpI":
        if not (isinstance(f, Labelled) and isinstance(f.body, Implies)):
            mism("ImpI concludes a labelled implication")
            return
        x, a, b = f.label, f.body.left, f.body.right
        if prems[0][1] != Labelled(x, b):
            mism("premise must be %s" % print_formula(Labelled(x, b)))
        want = Labelled(x, a)
        for _, df in dis:
            if df != want:
                bad_dis("ImpI here discharges %s, not %s"
                        % (print_formula(want), print_formula(df)))
        return

    if rule == "ImpE":
        p1, p2 = prems[0][1], prems[1][1]
        if not (isinstance(p1, Labelled) and isinstance(p1.body, Implies)):
            mism("major premise must be a labelled implication")
            return
        x, a, b = p1.label, p1.body.left, p1.body.right
        if p2 != Labelled(x, a):
            mism("minor premise must be the antecedent %s"
                 % print_formula(Labelled(x, a)))
        if f != Labelled(x, b):
            mism("conclusion must be %s" % print_formula(Labelled(x, b)))
        return

    if rule == "RAA":
        if not isinstance(f, Labelled):
            mism("RAA concludes a labelled formula")
            return
        p = prems[0][1]
        if not (isinstance(p, Labelled) and p.body == BOT):
            mism("premise must conclude bot at some label")
        want = Labelled(f.label, Implies(f.body, BOT))
        for _, df in dis:
            if df != want:
                bad_dis("RAA here discharges %s, not %s"
                        % (print_formula(want), print_formula(df)))
        return

    if rule == "BotE":
        p = prems[0][1]
        if not (isinstance(p, Labelled) and p.body == BOT):
            mism("premise must conclude bot at some label")
        return

    if rule == "BoxI":
        if not (isinstance(f, Labelled) and isinstance(f.body, Box)):
            mism("BoxI concludes a labelled box formula")
            return
        x, rel, body = f.label, f.body.rel, f.body.body
        pid, p = prems[0]
        if not (isinstance(p, Labelled) and p.body == body):
            mism("premise must prove the box body at the fresh label")
            return
        y = p.label
        want = Relational(x, rel, y)
        ok = True
        for _, df in dis:
            if df != want:
                bad_dis("BoxI here discharges %s, not %s"
                        % (print_formula(want), print_formula(df)))
                ok = False
        if ok and fresh_matches(y):
            _fresh_check(state, origin, y, x, pid,
                         state.mask_of(d for d, _ in dis), None)
        return

    if rule == "BoxE":
        p1, p2 = prems[0][1], prems[1][1]
        if not (isinstance(p1, Labelled) and isinstance(p1.body, Box)):
            mism("major premise must be a labelled box formula")
            return
        x, rel, body = p1.label, p1.body.rel, p1.body.body
        if not (isinstance(p2, Relational) and p2.rel is rel
                and p2.left == x):
            mism("relational premise must be %s R y for the box relation"
                 % x)
            return
        if f != Labelled(p2.right, body):
            mism("conclusion must be %s"
                 % print_formula(Labelled(p2.right, body)))
        return

    if rule == "Urefl":
        if not (isinstance(f, Relational) and f.rel is Rel.U
                and f.left == f.right):
            mism("conclusion must have the shape x U x")
        return

    if rule == "Usymm":
        p = prems[0][1]
        if not (isinstance(p, Relational) and p.rel is Rel.U):
            mism("premise must be a U formula")
            return
        if f != Relational(p.right, Rel.U, p.left):
            mism("conclusion must be %s"
                 % print_formula(Relational(p.right, Rel.U, p.left)))
        return

    if rule in ("Utrans", "Ptrans"):
        rel = Rel.U if rule == "Utrans" else Rel.P
        p1, p2 = prems[0][1], prems[1][1]
        if not (isinstance(p1, Relational) and p1.rel is rel
                and isinstance(p2, Relational) and p2.rel is rel):
            mism("%s premises must be %s formulas" % (rule, rel.value))
            return
        if p2.left != p1.right:
            mism("premises must chain: second must start at %s" % p1.right)
            return
        if f != Relational(p1.left, rel, p2.right):
            mism("conclusion must be %s"
                 % print_formula(Relational(p1.left, rel, p2.right)))
        return

    if rule in ("UIfromM", "PUI"):
        rel = Rel.M if rule == "UIfromM" else Rel.P
        p = prems[0][1]
        if not (isinstance(p, Relational) and p.rel is rel):
            mism("premise must be a %s formula" % rel.value)
            return
        if f != Relational(p.left, Rel.U, p.right):
            mism("conclusion must be %s"
                 % print_formula(Relational(p.left, Rel.U, p.right)))
        return

    if rule == "Msrefl":
        p = prems[0][1]
        if not (isinstance(p, Relational) and p.rel is Rel.M):
            mism("premise must be an M formula")
            return
        if f != Relational(p.right, Rel.M, p.right):
            mism("conclusion must be %s"
                 % print_formula(Relational(p.right, Rel.M, p.right)))
        return

    if rule in ("Msub1", "Msub2", "Psub1", "Psub2"):
        rel = Rel.M if rule[0] == "M" else Rel.P
        alpha = prems[0][1]
        p2, p3 = prems[1][1], prems[2][1]
        if not (isinstance(p2, Relational) and p2.rel is rel
                and p2.left == p2.right):
            mism("second premise must have the shape x %s x" % rel.value)
            return
        x = p2.left
        if not (isinstance(p3, Relational) and p3.rel is rel
                and p3.left == x):
            mism("third premise must be %s %s y" % (x, rel.value))
            return
        y = p3.right
        want = (substitute(alpha, x, y) if rule.endswith("1")
                else substitute(alpha, y, x))
        if f != want:
            mism("conclusion must be %s" % print_formula(want))
        return

    if rule in ("Mser", "Class"):
        rel = Rel.M if rule == "Mser" else Rel.P
        pid, alpha = prems[0]
        if f != alpha:
            mism("conclusion must repeat the premise %s"
                 % print_formula(alpha))
            return
        if not dis:
            bad_dis("%s must discharge a hypothesis of the shape x %s y"
                    % (rule, rel.value))
            return
        shapes = [df for _, df in dis]
        if not all(isinstance(df, Relational) and df.rel is rel
                   for df in shapes):
            bad_dis("%s discharges only %s hypotheses" % (rule, rel.value))
            return
        if rule == "Mser":
            first = shapes[0]
            if any(df != first for df in shapes):
                bad_dis("Mser discharges occurrences of one hypothesis")
                return
            x, y = first.left, first.right
        else:
            proper = [df for df in shapes if df.left != df.right]
            if not proper:
                bad_dis("Class needs a discharged hypothesis x P y "
                        "with two distinct labels")
                return
            x, y = proper[0].left, proper[0].right
            want_refl = Relational(y, Rel.P, y)
            for df in shapes:
                if df != proper[0] and df != want_refl:
                    bad_dis("Class here discharges %s and %s, not %s"
                            % (print_formula(proper[0]),
                               print_formula(want_refl), print_formula(df)))
                    return
        if fresh_matches(y):
            _fresh_check(state, origin, y, x, pid,
                         state.mask_of(d for d, _ in dis), alpha)
        return

    raise AssertionError("unhandled rule %r" % rule)


# ---------------------------------------------------------------------------
# script files

def parse_script(text: str) -> ProofScript:
    """Parse a proof script file.

    Formulas are parsed with the full vocabulary; using the wrong
    system's relations is reported by check as wrong-system, so a
    script can be rechecked under the other system.
    """
    system: Optional[System] = None
    name: Optional[str] = None
    statement: Optional[Formula] = None
    steps: list[ProofStep] = []
    seen: set[int] = set()
    done = False

    def err(lineno: int, msg: str) -> ParseError:
        return ParseError(msg, lineno, 1)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if done:
            raise err(lineno, "content after qed")
        if system is None:
            fields = line.split()
            if len(fields) != 2 or fields[0] != "system" \
                    or fields[1] not in ("MSQR", "MSPQR"):
                raise err(lineno, "expected 'system MSQR' or 'system MSPQR'")
            system = System(fields[1])
            continue
        if name is None:
            head, sep, rest = line.partition(":")
            fields = head.split()
            if len(fields) != 2 or fields[0] != "theorem" or not sep:
                raise err(lineno, "expected 'theorem <name> : <formula>'")
            name = fields[1]
            try:
                statement = parse_formula(rest)
            except ParseError as e:
                raise ParseError("in theorem statement: %s" % e.message,
                                 lineno, e.col, e.expected, e.reason)
            continue
        if line == "qed":
            done = True
            continue
        steps.append(_parse_step(line, lineno, seen))

    if system is None or name is None:
        raise ParseError("missing system or theorem line", 1, 1)
    if not steps:
        raise ParseError("a proof needs at least one step", 1, 1)
    if not done:
        raise ParseError("missing qed line", 1, 1)
    return ProofScript(system, name, statement, tuple(steps))


# An id list runs over the fields up to the next keyword field; it is
# read with its blanks removed, so "1, 2" is "1,2".
_ID_FIELDS = r"( (?: \s+ (?! (?:discharge|fresh) (?!\S) ) \S+ )* )"
_STEP = re.compile(r"""
    ([0-9]+) \s* \.                      # step id
    ([^;]*)                              # formula
    (?: ; \s* (\S*)                      # rule
        """ + _ID_FIELDS + r"""           # premise ids
        (?: \s+ (discharge) """ + _ID_FIELDS + r""" )?
        (?: \s+ (fresh) (?: \s+ (\S+) )? )?
        \s* (\S*)                        # the first field left over
    )?""", re.VERBOSE)
_ID_LIST = re.compile(r"[0-9]+(?:,[0-9]+)*")


def _parse_step(line: str, lineno: int, seen: set[int]) -> ProofStep:
    def err(msg: str) -> ParseError:
        return ParseError(msg, lineno, 1)

    m = _STEP.match(line)
    if m is None:
        raise err("expected '<id>. <formula> ; <justification>'")
    head, ftext, rule, premises, discharge, discharges, fresh_kw, fresh, \
        junk = m.groups()
    sid = int(head)
    if sid <= 0:
        raise err("step ids are positive")
    if sid in seen:
        raise err("duplicate step id %d" % sid)
    seen.add(sid)
    if rule is None:
        raise err("missing ';' before the justification")
    try:
        formula = parse_formula(ftext)
    except ParseError as e:
        raise ParseError("in step %d: %s" % (sid, e.message), lineno, e.col,
                         e.expected, e.reason)
    if not rule:
        raise err("empty justification")
    if rule not in ALL_RULES:
        raise err("unknown rule %r" % rule)
    premise_ids = _ids(premises, "premise", err)
    discharge_ids: tuple[int, ...] = ()
    if discharge:
        discharge_ids = _ids(discharges, "discharge", err)
        if not discharge_ids:
            raise err("discharge needs at least one id")
    if fresh_kw and fresh is None:
        raise err("fresh needs a label")
    if junk:
        raise err("trailing junk in justification: %r" % junk)
    return ProofStep(sid, formula, rule, premise_ids, discharge_ids, fresh)


def _ids(fields: str, what: str, err) -> tuple[int, ...]:
    # a comma list of ASCII decimal ids, blanks ignored
    if not fields:
        return ()
    blob = "".join(fields.split())
    ids = blob.split(",")
    if _ID_LIST.fullmatch(blob) is None:
        bad = next(i for i in ids if not (i.isascii() and i.isdigit()))
        raise err("bad %s id %r" % (what, bad))
    return tuple(map(int, ids))


def print_script(script: ProofScript) -> str:
    """Canonical script text; parse_script inverts it."""
    lines = ["system " + script.system.value]
    stmt = script.statement if script.statement is not None \
        else script.steps[-1].formula
    lines.append("theorem %s : %s" % (script.name, print_formula(stmt)))
    for st in script.steps:
        just = st.rule
        if st.premises:
            just += " " + ",".join(map(str, st.premises))
        if st.discharges:
            just += " discharge " + ",".join(map(str, st.discharges))
        if st.fresh is not None:
            just += " fresh " + st.fresh
        lines.append("%d. %s ; %s" % (st.id, print_formula(st.formula), just))
    lines.append("qed")
    return "\n".join(lines) + "\n"
