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
premises, arity, discharges, fresh) before it is expanded, and an
expansion that does not end in the step itself after new primitive
helper steps is refused (schema-mismatch) before any of it runs.  Helper
steps are private to their expansion: later steps cannot cite or
discharge them, nor open_at name them.  Premises are matched in the
order the schema lists them.

Diagnostics carry stable reason codes: wrong-arity, schema-mismatch,
illegal-discharge, freshness-violation, undischarged-at-theorem,
wrong-system, unknown-premise.

Every rule fact the checker uses is stated in one table per system,
_RULES, at the end of this module: a rule's row holds its premise
count, whether it discharges or takes a fresh label, and the function
that checks an instance, which a derived rule lacks.  Scripts are read
and printed by qrmodal.script, which knows only the rule names its
reader accepts; derived rules are expanded by qrmodal.derived, which
is handed only the derived step and a tuple of its premises' formulas.
Neither is trusted.  This module re-exports parse_script only, because
the CLI, the README's library example and perfbench call it as
kernel.parse_script.
"""

from __future__ import annotations

from itertools import compress
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


def rules_of(system: System) -> frozenset[str]:
    return frozenset((HYP, *_RULES[system]))


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
    # one pass over mask's binary digits, lowest first
    return frozenset(compress(hyps, map("1".__eq__, bin(mask)[:1:-1])))


class _State:
    def __init__(self, script: ProofScript, system: Optional[System]):
        self.script = script
        self.system = system or script.system
        if self.system not in _RULES:
            raise ValueError("no system to check in: %r" % (self.system,))
        self.rules = _RULES[self.system]  # rule -> its row
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


def _step(state: _State, st: ProofStep, origin: int) -> None:
    # the caller has checked st's vocabulary.  Each field of st is read
    # once, into a local, which is cheaper to read than the field.
    diag, formulas, deps_of = state.diag, state.formulas, state.deps
    rule, premises, discharges, sid, formula = \
        st.rule, st.premises, st.discharges, st.id, st.formula
    if rule == HYP:
        if premises or discharges or st.fresh:
            diag(origin, WRONG_ARITY, "hyp takes no premises or annotations")
        state.index[sid] = i = len(state.hyp_ids)
        bit = 1 << i
        state.hyp_ids.append(sid)
        state.hyp_formulas.append(formula)
        for label in labels_in(formula):
            state.mentions[label] = state.mentions.get(label, 0) | bit
        formulas[sid] = formula
        deps_of[sid] = bit
        return

    # each premise is read once.  A failed step, whatever its rule, still
    # footprints its known premises and clears its listed discharges
    prems: list[Formula] = []
    deps = 0
    for pid in premises:
        p = formulas.get(pid)
        if p is not None:
            prems.append(p)
            deps |= deps_of[pid]
    row = state.rules.get(rule)
    if row is None:
        if any(rule in rules for rules in _RULES.values()):
            diag(origin, WRONG_SYSTEM, "rule %s is not part of %s"
                 % (rule, state.system.value))
        else:
            diag(origin, SCHEMA_MISMATCH, "unknown rule %r" % rule)
    else:
        arity, discharging, takes_fresh, schema = row
        if len(premises) != arity or len(prems) != arity:
            for pid in premises:
                if pid not in formulas:
                    diag(origin, UNKNOWN_PREMISE,
                         "premise %d is not an earlier step" % pid)
            if len(premises) != arity:
                diag(origin, WRONG_ARITY, "%s takes %d premises, got %d"
                     % (rule, arity, len(premises)))
        else:
            dis: list[Formula] = []
            bad_discharge = False
            if discharges and not discharging:
                diag(origin, ILLEGAL_DISCHARGE,
                     "rule %s discharges nothing" % rule)
                bad_discharge = True
            else:
                for did in discharges:
                    d = formulas.get(did)
                    if d is None:
                        diag(origin, ILLEGAL_DISCHARGE,
                             "discharge %d is not an earlier step" % did)
                        bad_discharge = True
                    elif did not in state.index:
                        diag(origin, ILLEGAL_DISCHARGE,
                             "discharge %d is not a hypothesis" % did)
                        bad_discharge = True
                    else:
                        dis.append(d)
            bad_fresh = st.fresh is not None and not takes_fresh
            if bad_fresh:
                diag(origin, SCHEMA_MISMATCH,
                     "rule %s takes no fresh label" % rule)
            if schema is None:
                if not (bad_discharge or bad_fresh) \
                        and _expand(state, st, origin, tuple(prems)):
                    return
            elif not bad_discharge:
                want = schema(state, st, origin, prems, dis)
                if want is not None and formula != want:
                    diag(origin, SCHEMA_MISMATCH,
                         "conclusion must be %s" % print_formula(want))
    formulas[sid] = formula
    deps_of[sid] = deps & ~state.mask_of(discharges) if discharges else deps


def _expand(state: _State, st: ProofStep, origin: int,
            prems: tuple[Formula, ...]) -> bool:
    # False when expand_derived refuses st or answers with a malformed
    # expansion.  It sees st and a tuple of its premises' formulas only,
    # and perfbench wraps it: it is read per call
    try:
        steps = expand_derived(st, prems, state.helper_base)
    except ExpansionError as e:
        state.diag(origin, SCHEMA_MISMATCH, str(e))
        return False
    if _malformed(st, steps, state.helper_base):
        state.diag(origin, SCHEMA_MISMATCH, "the expansion of %s does not "
                   "end in this step after new primitive steps" % st.rule)
        return False
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
    return True


def _malformed(st: ProofStep, steps: list[ProofStep], base: int) -> bool:
    # the expander is not trusted: its answer must end in st itself, not
    # as a hypothesis, after primitive helpers with new ids from base
    if not steps:
        return True
    last = steps[-1]
    if (last.id != st.id or last.formula != st.formula or last.rule == HYP
            or last.rule in DERIVED):
        return True
    ids = set()
    for sub in steps[:-1]:
        if sub.id < base or sub.id in ids or sub.rule in DERIVED:
            return True
        ids.add(sub.id)
    return False


def _closes(state: _State, st: ProofStep, origin: int,
            dis: list[Formula], assumed: Formula) -> bool:
    # the instance may discharge assumed only; False when it names another
    wrong = [df for df in dis if df != assumed]
    for df in wrong:
        state.diag(origin, ILLEGAL_DISCHARGE, "%s here discharges %s, not %s"
                   % (st.rule, print_formula(assumed), print_formula(df)))
    return not wrong


def _fresh(state: _State, st: ProofStep, origin: int, y: str,
           x: str) -> None:
    # y, the instance's eigenvariable, must differ from x and be fresh
    if st.fresh is not None and st.fresh != y:
        state.diag(origin, SCHEMA_MISMATCH,
                   "fresh annotation says %s, rule instance uses %s"
                   % (st.fresh, y))
        return
    if y == x:
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s must differ from %s" % (y, x))
        return
    if y in labels_in(st.formula):
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s occurs in the conclusion %s"
                   % (y, print_formula(st.formula)))
        return
    clash = state.mentions.get(y, 0) & ~state.mask_of(st.discharges) \
        & state.deps[st.premises[0]]
    if clash:
        # the open hypothesis naming y with the smallest step id; bit
        # order is script order, which need not be id order
        h = min(bit_indices(clash), key=state.hyp_ids.__getitem__)
        state.diag(origin, FRESHNESS_VIOLATION,
                   "fresh label %s occurs in open assumption %s"
                   % (y, print_formula(state.hyp_formulas[h])))


# A primitive rule's check takes an admitted step and its premises' and
# discharges' formulas, and reports what is wrong with the instance.  It
# returns the conclusion the instance fixes, for _step to compare, if any.

def _imp_i(state, st, origin, prems, dis):
    f = st.formula
    if not (isinstance(f, Labelled) and isinstance(f.body, Implies)):
        state.diag(origin, SCHEMA_MISMATCH,
                   "ImpI concludes a labelled implication")
        return
    x, a, b = f.label, f.body.left, f.body.right
    if prems[0] != Labelled(x, b):
        state.diag(origin, SCHEMA_MISMATCH,
                   "premise must be %s" % print_formula(Labelled(x, b)))
    _closes(state, st, origin, dis, Labelled(x, a))


def _imp_e(state, st, origin, prems, dis):
    p1, p2 = prems
    if not (isinstance(p1, Labelled) and isinstance(p1.body, Implies)):
        state.diag(origin, SCHEMA_MISMATCH,
                   "major premise must be a labelled implication")
        return
    x, a, b = p1.label, p1.body.left, p1.body.right
    if p2 != Labelled(x, a):
        state.diag(origin, SCHEMA_MISMATCH,
                   "minor premise must be the antecedent %s"
                   % print_formula(Labelled(x, a)))
    return Labelled(x, b)


def _raa(state, st, origin, prems, dis):
    f, p1 = st.formula, prems[0]
    if not isinstance(f, Labelled):
        state.diag(origin, SCHEMA_MISMATCH, "RAA concludes a labelled formula")
        return
    if not (isinstance(p1, Labelled) and p1.body == BOT):
        state.diag(origin, SCHEMA_MISMATCH,
                   "premise must conclude bot at some label")
    _closes(state, st, origin, dis, Labelled(f.label, Implies(f.body, BOT)))


def _bot_e(state, st, origin, prems, dis):
    p1 = prems[0]
    if not (isinstance(p1, Labelled) and p1.body == BOT):
        state.diag(origin, SCHEMA_MISMATCH,
                   "premise must conclude bot at some label")


def _box_i(state, st, origin, prems, dis):
    f, p1 = st.formula, prems[0]
    if not (isinstance(f, Labelled) and isinstance(f.body, Box)):
        state.diag(origin, SCHEMA_MISMATCH,
                   "BoxI concludes a labelled box formula")
        return
    x, rel, body = f.label, f.body.rel, f.body.body
    if not (isinstance(p1, Labelled) and p1.body == body):
        state.diag(origin, SCHEMA_MISMATCH,
                   "premise must prove the box body at the fresh label")
        return
    if _closes(state, st, origin, dis, Relational(x, rel, p1.label)):
        _fresh(state, st, origin, p1.label, x)


def _box_e(state, st, origin, prems, dis):
    p1, p2 = prems
    if not (isinstance(p1, Labelled) and isinstance(p1.body, Box)):
        state.diag(origin, SCHEMA_MISMATCH,
                   "major premise must be a labelled box formula")
        return
    x, rel, body = p1.label, p1.body.rel, p1.body.body
    if not (isinstance(p2, Relational) and p2.rel is rel and p2.left == x):
        state.diag(origin, SCHEMA_MISMATCH,
                   "relational premise must be %s R y for the box relation"
                   % x)
        return
    return Labelled(p2.right, body)


def _u_refl(state, st, origin, prems, dis):
    f = st.formula
    if not (isinstance(f, Relational) and f.rel is Rel.U
            and f.left == f.right):
        state.diag(origin, SCHEMA_MISMATCH,
                   "conclusion must have the shape x U x")


def _u_symm(state, st, origin, prems, dis):
    p1 = prems[0]
    if not (isinstance(p1, Relational) and p1.rel is Rel.U):
        state.diag(origin, SCHEMA_MISMATCH, "premise must be a U formula")
        return
    return Relational(p1.right, Rel.U, p1.left)


def _trans(state, st, origin, prems, dis):
    rule, (p1, p2) = st.rule, prems
    rel = Rel.U if rule == "Utrans" else Rel.P
    if not (isinstance(p1, Relational) and p1.rel is rel
            and isinstance(p2, Relational) and p2.rel is rel):
        state.diag(origin, SCHEMA_MISMATCH,
                   "%s premises must be %s formulas" % (rule, rel.value))
        return
    if p2.left != p1.right:
        state.diag(origin, SCHEMA_MISMATCH,
                   "premises must chain: second must start at %s" % p1.right)
        return
    return Relational(p1.left, rel, p2.right)


def _to_u(state, st, origin, prems, dis):
    p1 = prems[0]
    rel = Rel.M if st.rule == "UIfromM" else Rel.P
    if not (isinstance(p1, Relational) and p1.rel is rel):
        state.diag(origin, SCHEMA_MISMATCH,
                   "premise must be a %s formula" % rel.value)
        return
    return Relational(p1.left, Rel.U, p1.right)


def _ms_refl(state, st, origin, prems, dis):
    p1 = prems[0]
    if not (isinstance(p1, Relational) and p1.rel is Rel.M):
        state.diag(origin, SCHEMA_MISMATCH, "premise must be an M formula")
        return
    return Relational(p1.right, Rel.M, p1.right)


def _sub(state, st, origin, prems, dis):
    rule, (p1, p2, p3) = st.rule, prems
    rel = Rel.M if rule[0] == "M" else Rel.P
    if not (isinstance(p2, Relational) and p2.rel is rel
            and p2.left == p2.right):
        state.diag(origin, SCHEMA_MISMATCH,
                   "second premise must have the shape x %s x" % rel.value)
        return
    x = p2.left
    if not (isinstance(p3, Relational) and p3.rel is rel and p3.left == x):
        state.diag(origin, SCHEMA_MISMATCH,
                   "third premise must be a %s formula from %s"
                   % (rel.value, x))
        return
    y = p3.right
    return (substitute(p1, x, y) if rule.endswith("1")
            else substitute(p1, y, x))


def _serial(state, st, origin, prems, dis):
    rule, f, p1 = st.rule, st.formula, prems[0]
    rel = Rel.M if rule == "Mser" else Rel.P
    if f != p1:
        state.diag(origin, SCHEMA_MISMATCH,
                   "conclusion must repeat the premise %s" % print_formula(p1))
        return
    if not dis:
        state.diag(origin, ILLEGAL_DISCHARGE,
                   "%s must discharge a hypothesis of the shape x %s y"
                   % (rule, rel.value))
        return
    if not all(isinstance(df, Relational) and df.rel is rel for df in dis):
        state.diag(origin, ILLEGAL_DISCHARGE,
                   "%s discharges only %s hypotheses" % (rule, rel.value))
        return
    if rule == "Mser":
        first = dis[0]
        if any(df != first for df in dis):
            state.diag(origin, ILLEGAL_DISCHARGE,
                       "Mser discharges occurrences of one hypothesis")
            return
        x, y = first.left, first.right
    else:
        proper = [df for df in dis if df.left != df.right]
        if not proper:
            state.diag(origin, ILLEGAL_DISCHARGE,
                       "Class needs a discharged hypothesis x P y "
                       "with two distinct labels")
            return
        x, y = proper[0].left, proper[0].right
        want_refl = Relational(y, Rel.P, y)
        for df in dis:
            if df != proper[0] and df != want_refl:
                state.diag(origin, ILLEGAL_DISCHARGE,
                           "Class here discharges %s and %s, not %s"
                           % (print_formula(proper[0]),
                              print_formula(want_refl), print_formula(df)))
                return
    _fresh(state, st, origin, y, x)


# Each system's rules, one row per rule: its premise count, whether it
# discharges, whether it takes a fresh label, and its check.  A derived
# rule has no check: _step expands it and checks every helper step.
# hyp, which _step admits before it looks a row up, has no row.
_SHARED = {
    "ImpI": (1, True, False, _imp_i), "ImpE": (2, False, False, _imp_e),
    "RAA": (1, True, False, _raa), "BotE": (1, False, False, _bot_e),
    "BoxI": (1, True, True, _box_i), "BoxE": (2, False, False, _box_e),
    "Urefl": (0, False, False, _u_refl), "Usymm": (1, False, False, _u_symm),
    "Utrans": (2, False, False, _trans),
    "NegI": (1, True, False, None), "NegE": (2, False, False, None),
    "IffI": (2, False, False, None), "IffE1": (1, False, False, None),
    "IffE2": (1, False, False, None), "AndI": (2, False, False, None),
    "AndE1": (1, False, False, None), "AndE2": (1, False, False, None),
}
_RULES = {
    System.MSQR: {
        **_SHARED, "UIfromM": (1, False, False, _to_u),
        "Mser": (1, True, True, _serial), "Msrefl": (1, False, False, _ms_refl),
        "Msub1": (3, False, False, _sub), "Msub2": (3, False, False, _sub),
        "Mtrans": (2, False, False, None)},
    System.MSPQR: {
        **_SHARED, "PUI": (1, False, False, _to_u),
        "Ptrans": (2, False, False, _trans), "Class": (1, True, True, _serial),
        "Psub1": (3, False, False, _sub), "Psub2": (3, False, False, _sub)},
}
DERIVED = frozenset(rule for rules in _RULES.values()
                    for rule, row in rules.items() if row[3] is None)
