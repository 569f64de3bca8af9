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

Derived rules (DERIVED; Mtrans is MSQR's only) are expanded to
primitive steps before checking, so the checker never trusts them.  A
derived step passes the admission checks of a primitive one (system,
premises, arity, discharges, fresh) before it is expanded.  Helper
steps are private to their expansion: later steps cannot cite or
discharge them, nor open_at name them.  Premises are matched in the
order the schema lists them.

Diagnostics carry stable reason codes: wrong-arity, schema-mismatch,
illegal-discharge, freshness-violation, undischarged-at-theorem,
wrong-system, unknown-premise.

Every rule fact the checker uses is stated in the tables below the
reason codes: each system's rules with their premise counts
(_PREMISES), the derived rules, and the rules that discharge or take a
fresh label.  Scripts are read and printed by qrmodal.script, which
knows only the rule names its reader accepts; derived rules are
expanded by qrmodal.derived, which is handed only the derived step and
a tuple of its premises' formulas.  Neither is trusted.  This module
re-exports parse_script only, because the CLI, the README's library
example and perfbench call it as kernel.parse_script.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .derived import ExpansionError, expand_derived
from .script import HYP, ProofScript, ProofStep, parse_script
from .syntax import (
    BOT, Box, Formula, Implies, Labelled, Record, Rel, Relational, System,
    bit_indices, labels_in, print_formula, substitute, well_formed,
)

WRONG_ARITY = "wrong-arity"
SCHEMA_MISMATCH = "schema-mismatch"
ILLEGAL_DISCHARGE = "illegal-discharge"
FRESHNESS_VIOLATION = "freshness-violation"
UNDISCHARGED_AT_THEOREM = "undischarged-at-theorem"
WRONG_SYSTEM = "wrong-system"
UNKNOWN_PREMISE = "unknown-premise"

# each system's rules and their premise counts: the shared, then its own
_SHARED = {
    HYP: 0, "ImpI": 1, "ImpE": 2, "RAA": 1, "BotE": 1, "BoxI": 1,
    "BoxE": 2, "Urefl": 0, "Usymm": 1, "Utrans": 2,
    "NegI": 1, "NegE": 2, "IffI": 2, "IffE1": 1, "IffE2": 1,
    "AndI": 2, "AndE1": 1, "AndE2": 1,
}
_PREMISES = {
    System.MSQR: {**_SHARED, "UIfromM": 1, "Mser": 1, "Msrefl": 1,
                  "Msub1": 3, "Msub2": 3, "Mtrans": 2},
    System.MSPQR: {**_SHARED, "PUI": 1, "Ptrans": 2, "Class": 1,
                   "Psub1": 3, "Psub2": 3},
}
DERIVED = frozenset(("NegI", "NegE", "IffI", "IffE1", "IffE2", "AndI",
                     "AndE1", "AndE2", "Mtrans"))
_DISCHARGING = frozenset(("ImpI", "RAA", "BoxI", "Mser", "Class", "NegI"))
_FRESH_RULES = frozenset(("BoxI", "Mser", "Class"))


def rules_of(system: System) -> frozenset[str]:
    return frozenset(_PREMISES[system])


class Diagnostic(Record):
    __slots__ = ()

    def __new__(cls, step: int, reason: str, message: str):
        # step is the id of the (original) step the problem belongs to
        return tuple.__new__(cls, (cls, step, reason, message))

    def __str__(self):
        return "step %d: %s: %s" % (self.step, self.reason, self.message)


class CheckReport(Record):
    __slots__ = ()

    def __new__(cls, open_assumptions: frozenset[Formula],
                diagnostics: tuple[Diagnostic, ...], step_ids: tuple[int, ...],
                deps: tuple[int, ...], hyp_formulas: tuple[Formula, ...]):
        # deps[k]: step_ids[k]'s open hypotheses, a bitset over hyp_formulas
        return tuple.__new__(cls, (cls, open_assumptions, diagnostics,
                                   step_ids, deps, hyp_formulas))

    @property
    def accepted(self) -> bool:
        return not self.diagnostics

    def open_at(self, step_id: int) -> frozenset[Formula]:
        """Hypothesis formulas a step of the checked script depends on.

        The id is found by a scan of step_ids, so a call costs O(n) for
        n steps, plus building the set it returns.
        """
        if step_id not in self.step_ids:
            raise KernelError(UNKNOWN_PREMISE, "no step with id %d" % step_id)
        return _formulas_of(self.hyp_formulas,
                            self.deps[self.step_ids.index(step_id)])


class KernelError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


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


def _formulas_of(hyps: Sequence[Formula], mask: int) -> frozenset[Formula]:
    return frozenset(hyps[i] for i in bit_indices(mask))


class _State:
    def __init__(self, script: ProofScript, system: Optional[System]):
        self.script = script
        self.system = system or script.system
        self.premises = _PREMISES[self.system]  # rule -> premise count
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

    def report(self) -> CheckReport:
        final = self.script.steps[-1].id
        open_ = _formulas_of(self.hyp_formulas, self.deps[final])
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
        return CheckReport(open_, tuple(self.diags), tuple(self.deps),
                           tuple(self.deps.values()), tuple(self.hyp_formulas))


def _run(script: ProofScript, system: Optional[System]) -> _State:
    if not script.steps:
        raise ValueError("a script needs at least one step")
    seen = set()
    for st in script.steps:
        sid = st.id
        if sid <= 0:
            raise ValueError("step ids must be positive, got %d" % sid)
        if sid in seen:
            raise ValueError("duplicate step id %d" % sid)
        seen.add(sid)

    state = _State(script, system)
    for st in script.steps:
        sid = st.id
        _vocabulary(state, st, sid)
        _step(state, st, sid)
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
    sid = st.id
    state.formulas[sid] = st.formula
    state.deps[sid] = deps & ~state.mask_of(st.discharges)


def _step(state: _State, st: ProofStep, origin: int) -> None:
    # the caller has checked st's vocabulary.  Each field of st is read
    # once, into a local, which is cheaper to read than the field.
    diag = state.diag
    rule, premises, discharges, fresh = \
        st.rule, st.premises, st.discharges, st.fresh
    if rule == HYP:
        if premises or discharges or fresh:
            diag(origin, WRONG_ARITY, "hyp takes no premises or annotations")
        sid, formula = st.id, st.formula
        i = len(state.hyp_ids)
        bit = 1 << i
        state.index[sid] = i
        state.hyp_ids.append(sid)
        state.hyp_formulas.append(formula)
        for label in labels_in(formula):
            state.mentions[label] = state.mentions.get(label, 0) | bit
        state.formulas[sid] = formula
        state.deps[sid] = bit
        return

    arity = state.premises.get(rule)
    if arity is None:
        if any(rule in table for table in _PREMISES.values()):
            diag(origin, WRONG_SYSTEM, "rule %s is not part of %s"
                 % (rule, state.system.value))
        else:
            diag(origin, SCHEMA_MISMATCH, "unknown rule %r" % rule)
        _record(state, st)
        return

    prems: list[Formula] = []
    missing = False
    for pid in premises:
        if pid not in state.formulas:
            diag(origin, UNKNOWN_PREMISE,
                 "premise %d is not an earlier step" % pid)
            missing = True
        else:
            prems.append(state.formulas[pid])
    if len(premises) != arity:
        diag(origin, WRONG_ARITY, "%s takes %d premises, got %d"
             % (rule, arity, len(premises)))
        missing = True
    if missing:
        _record(state, st)
        return

    dis: list[Formula] = []
    bad_discharge = False
    if discharges and rule not in _DISCHARGING:
        diag(origin, ILLEGAL_DISCHARGE, "rule %s discharges nothing" % rule)
        bad_discharge = True
    else:
        for did in discharges:
            if did not in state.formulas:
                diag(origin, ILLEGAL_DISCHARGE,
                     "discharge %d is not an earlier step" % did)
                bad_discharge = True
            elif did not in state.index:
                diag(origin, ILLEGAL_DISCHARGE,
                     "discharge %d is not a hypothesis" % did)
                bad_discharge = True
            else:
                dis.append(state.formulas[did])
    bad_fresh = fresh is not None and rule not in _FRESH_RULES
    if bad_fresh:
        diag(origin, SCHEMA_MISMATCH,
             "rule %s takes no fresh label" % rule)

    derived = rule in DERIVED
    if derived and not (bad_discharge or bad_fresh):
        _expand(state, st, origin, tuple(prems))
        return
    if not (derived or bad_discharge):
        _schema(state, st, origin, prems, dis)
    _record(state, st)


def _expand(state: _State, st: ProofStep, origin: int,
            prems: tuple[Formula, ...]) -> None:
    # expand_derived sees st and a tuple of its premises' formulas only.
    # perfbench wraps it here, so it is looked up in this module per call
    try:
        steps = expand_derived(st, prems, state.helper_base)
    except ExpansionError as e:
        state.diag(origin, SCHEMA_MISMATCH, str(e))
        _record(state, st)
        return
    # the last step repeats st's conclusion, whose vocabulary is checked.
    # When st's formula or a premise is foreign, the script already has
    # its wrong-system diagnostic, and a foreign helper would only echo it.
    system = state.system
    own = well_formed(st.formula, system) and all(
        well_formed(p, system) for p in prems)
    for sub in steps:
        if own and sub is not steps[-1]:
            _vocabulary(state, sub, origin)
        _step(state, sub, origin)
    # helper ids are private to this expansion; the next one reuses them
    for sub in steps[:-1]:
        del state.formulas[sub.id], state.deps[sub.id]
        state.index.pop(sub.id, None)


def _fresh_check(state: _State, origin: int, y: str, x: str,
                 premise_id: int, discharged: int,
                 conclusion: Formula) -> None:
    if y == x:
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s must differ from %s" % (y, x))
        return
    if y in labels_in(conclusion):
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s occurs in the conclusion %s"
                   % (y, print_formula(conclusion)))
        return
    clash = state.mentions.get(y, 0) & state.deps[premise_id] & ~discharged
    if clash:
        # the open hypothesis naming y with the smallest step id; bit
        # order is script order, which need not be id order
        h = min(bit_indices(clash), key=state.hyp_ids.__getitem__)
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s occurs in open assumption %s"
                   % (y, print_formula(state.hyp_formulas[h])))


def _schema(state: _State, st: ProofStep, origin: int,
            prems: list[Formula], dis: list[Formula]) -> None:
    # prems, dis: st's premise and discharge formulas.  What the rule
    # instance fixes: its conclusion, the hypothesis it discharges, and
    # its eigenvariable (the fresh label, and the label it must differ from)
    rule, f = st.rule, st.formula
    p1, p2, p3 = (*prems, None, None, None)[:3]
    want = assumed = eigen = None

    def mism(message: str) -> None:
        state.diag(origin, SCHEMA_MISMATCH, message)

    def bad_dis(message: str) -> None:
        state.diag(origin, ILLEGAL_DISCHARGE, message)

    if rule == "ImpI":
        if not (isinstance(f, Labelled) and isinstance(f.body, Implies)):
            mism("ImpI concludes a labelled implication")
            return
        x, a, b = f.label, f.body.left, f.body.right
        if p1 != Labelled(x, b):
            mism("premise must be %s" % print_formula(Labelled(x, b)))
        assumed = Labelled(x, a)

    elif rule == "ImpE":
        if not (isinstance(p1, Labelled) and isinstance(p1.body, Implies)):
            mism("major premise must be a labelled implication")
            return
        x, a, b = p1.label, p1.body.left, p1.body.right
        if p2 != Labelled(x, a):
            mism("minor premise must be the antecedent %s"
                 % print_formula(Labelled(x, a)))
        want = Labelled(x, b)

    elif rule == "RAA":
        if not isinstance(f, Labelled):
            mism("RAA concludes a labelled formula")
            return
        if not (isinstance(p1, Labelled) and p1.body == BOT):
            mism("premise must conclude bot at some label")
        assumed = Labelled(f.label, Implies(f.body, BOT))

    elif rule == "BotE":
        if not (isinstance(p1, Labelled) and p1.body == BOT):
            mism("premise must conclude bot at some label")

    elif rule == "BoxI":
        if not (isinstance(f, Labelled) and isinstance(f.body, Box)):
            mism("BoxI concludes a labelled box formula")
            return
        x, rel, body = f.label, f.body.rel, f.body.body
        if not (isinstance(p1, Labelled) and p1.body == body):
            mism("premise must prove the box body at the fresh label")
            return
        assumed = Relational(x, rel, p1.label)
        eigen = p1.label, x

    elif rule == "BoxE":
        if not (isinstance(p1, Labelled) and isinstance(p1.body, Box)):
            mism("major premise must be a labelled box formula")
            return
        x, rel, body = p1.label, p1.body.rel, p1.body.body
        if not (isinstance(p2, Relational) and p2.rel is rel
                and p2.left == x):
            mism("relational premise must be %s R y for the box relation"
                 % x)
            return
        want = Labelled(p2.right, body)

    elif rule == "Urefl":
        if not (isinstance(f, Relational) and f.rel is Rel.U
                and f.left == f.right):
            mism("conclusion must have the shape x U x")

    elif rule == "Usymm":
        if not (isinstance(p1, Relational) and p1.rel is Rel.U):
            mism("premise must be a U formula")
            return
        want = Relational(p1.right, Rel.U, p1.left)

    elif rule in ("Utrans", "Ptrans"):
        rel = Rel.U if rule == "Utrans" else Rel.P
        if not (isinstance(p1, Relational) and p1.rel is rel
                and isinstance(p2, Relational) and p2.rel is rel):
            mism("%s premises must be %s formulas" % (rule, rel.value))
            return
        if p2.left != p1.right:
            mism("premises must chain: second must start at %s" % p1.right)
            return
        want = Relational(p1.left, rel, p2.right)

    elif rule in ("UIfromM", "PUI"):
        rel = Rel.M if rule == "UIfromM" else Rel.P
        if not (isinstance(p1, Relational) and p1.rel is rel):
            mism("premise must be a %s formula" % rel.value)
            return
        want = Relational(p1.left, Rel.U, p1.right)

    elif rule == "Msrefl":
        if not (isinstance(p1, Relational) and p1.rel is Rel.M):
            mism("premise must be an M formula")
            return
        want = Relational(p1.right, Rel.M, p1.right)

    elif rule in ("Msub1", "Msub2", "Psub1", "Psub2"):
        rel = Rel.M if rule[0] == "M" else Rel.P
        if not (isinstance(p2, Relational) and p2.rel is rel
                and p2.left == p2.right):
            mism("second premise must have the shape x %s x" % rel.value)
            return
        x = p2.left
        if not (isinstance(p3, Relational) and p3.rel is rel
                and p3.left == x):
            mism("third premise must be a %s formula from %s"
                 % (rel.value, x))
            return
        y = p3.right
        want = (substitute(p1, x, y) if rule.endswith("1")
                else substitute(p1, y, x))

    elif rule in ("Mser", "Class"):
        rel = Rel.M if rule == "Mser" else Rel.P
        if f != p1:
            mism("conclusion must repeat the premise %s"
                 % print_formula(p1))
            return
        if not dis:
            bad_dis("%s must discharge a hypothesis of the shape x %s y"
                    % (rule, rel.value))
            return
        if not all(isinstance(df, Relational) and df.rel is rel
                   for df in dis):
            bad_dis("%s discharges only %s hypotheses" % (rule, rel.value))
            return
        if rule == "Mser":
            first = dis[0]
            if any(df != first for df in dis):
                bad_dis("Mser discharges occurrences of one hypothesis")
                return
            x, y = first.left, first.right
        else:
            proper = [df for df in dis if df.left != df.right]
            if not proper:
                bad_dis("Class needs a discharged hypothesis x P y "
                        "with two distinct labels")
                return
            x, y = proper[0].left, proper[0].right
            want_refl = Relational(y, Rel.P, y)
            for df in dis:
                if df != proper[0] and df != want_refl:
                    bad_dis("Class here discharges %s and %s, not %s"
                            % (print_formula(proper[0]),
                               print_formula(want_refl), print_formula(df)))
                    return
        eigen = y, x

    else:
        raise AssertionError("unhandled rule %r" % rule)

    if want is not None and f != want:
        mism("conclusion must be %s" % print_formula(want))
    if assumed is not None:
        wrong = [df for df in dis if df != assumed]
        for df in wrong:
            bad_dis("%s here discharges %s, not %s"
                    % (rule, print_formula(assumed), print_formula(df)))
        if wrong:
            return
    if eigen is not None:
        y, x = eigen
        if st.fresh is not None and st.fresh != y:
            mism("fresh annotation says %s, rule instance uses %s"
                 % (st.fresh, y))
        else:
            _fresh_check(state, origin, y, x, st.premises[0],
                         state.mask_of(st.discharges), f)
