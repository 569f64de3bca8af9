import ast
import json
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qrmodal import kernel, syntax
from qrmodal.derived import expand_derived
from qrmodal.kernel import DERIVED, KernelError, check, parse_script, rules_of
from qrmodal.script import ALL_RULES, ProofScript, ProofStep, print_script
from qrmodal.search import Found, SearchBudget, find_countermodel
from qrmodal.syntax import (
    BOT, Box, Implies, Labelled, ParseError, Rel, Relational, System,
    labels_in, parse_formula, print_formula, substitute,
)

CORPUS = resources.files("qrmodal") / "corpus"


def corpus_entries():
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    return manifest["entries"]


def load(rel_path):
    return parse_script((CORPUS / rel_path).read_text())


def reasons(report):
    return {d.reason for d in report.diagnostics}


# -- corpus ------------------------------------------------------------------

@pytest.mark.parametrize("entry", corpus_entries(), ids=lambda e: e["name"])
def test_corpus_entry(entry):
    script = load(entry["path"])
    report = check(script)
    if entry["expected"] == "accepted":
        assert report.accepted, report.diagnostics
        assert report.open_assumptions == frozenset()
    else:
        assert not report.accepted
        assert entry["reason"] in reasons(report)


def assert_sound_at_every_step(script, system, report):
    """The semantic oracle for a script whose steps all check: each
    step's formula holds wherever the assumptions it depends on hold,
    on every structure of at most 3 worlds.  A kernel that matched
    formulas too loosely would admit a step that this refutes."""
    for step in script.steps:
        gamma = sorted(report.open_at(step.id), key=print_formula)
        result = find_countermodel(system, gamma, step.formula,
                                   SearchBudget(max_worlds=3))
        assert not isinstance(result, Found), (step, print_script(script))


def test_every_step_of_the_corpus_is_sound():
    checked = 0
    for entry in corpus_entries():
        script = load(entry["path"])
        report = check(script)
        if report.accepted:
            assert_sound_at_every_step(script, script.system, report)
            checked += len(script.steps)
    assert checked > 100


def test_retargeted_premises_are_rejected_or_sound():
    # each premise of each corpus step pointed at each other earlier
    # step: the kernel rejects the script, or every step is sound.  A
    # kernel whose ImpE ignored the minor premise accepts 17 of these
    # 624 scripts; 10 of them have an unsound step, and none has an
    # unsound last step.
    for entry in corpus_entries():
        script = load(entry["path"])
        steps = script.steps
        for i, st in enumerate(steps):
            for j, pid in enumerate(st.premises):
                for other in steps[:i]:
                    if other.id == pid:
                        continue
                    premises = st.premises[:j] + (other.id,) \
                        + st.premises[j + 1:]
                    step = ProofStep(st.id, st.formula, st.rule, premises,
                                     st.discharges, st.fresh)
                    bare = ProofScript(script.system, script.name, None,
                                       steps[:i] + (step,) + steps[i + 1:])
                    report = check(bare)
                    if report.accepted:
                        assert_sound_at_every_step(bare, script.system,
                                                   report)


def test_statement_cross_check():
    for entry in corpus_entries():
        script = load(entry["path"])
        assert script.statement == parse_formula(entry["statement"])


def test_unjustified_step_flagged_at_its_id():
    report = check(load("negative/bad_unjustified.prf"))
    assert [(d.step, d.reason) for d in report.diagnostics] == [(2, "schema-mismatch")]


def test_impe_minor_premise_message():
    report = check(load("negative/bad_impe_minor.prf"))
    assert reasons(report) == {"schema-mismatch"}
    assert any("minor premise" in d.message for d in report.diagnostics)


def test_boxi_freshness_script_and_refutability():
    report = check(load("negative/bad_boxi_fresh.prf"))
    assert "freshness-violation" in reasons(report)
    # the statement is not provable at all: it has a finite countermodel
    # (three worlds: one register with two distinct outcomes)
    alpha = parse_formula("x : <M> r0 -> [M] r0")
    found = find_countermodel(System.MSQR, [], alpha, SearchBudget(max_worlds=3))
    assert isinstance(found, Found)


# -- open assumptions --------------------------------------------------------

def test_open_assumptions_closed_theorem():
    script = load("msqr/thm5.prf")
    final = script.steps[-1].id
    assert check(script).open_at(final) == frozenset()


def test_open_assumptions_lone_hypothesis():
    script = parse_script(
        "system MSQR\n"
        "theorem t : x M y\n"
        "1. x M y ; hyp\n"
        "qed\n")
    assert check(script).open_at(1) == {parse_formula("x M y")}


def test_open_assumptions_boxe_over_urefl():
    script = parse_script(
        "system MSQR\n"
        "theorem t : x : r0\n"
        "1. x : [] r0 ; hyp\n"
        "2. x U x ; Urefl\n"
        "3. x : r0 ; BoxE 1,2\n"
        "qed\n")
    assert check(script).open_at(3) == {parse_formula("x : [] r0")}
    assert check(script).open_at(2) == frozenset()
    with pytest.raises(KernelError):
        check(script).open_at(9)


def test_report_holds_no_mutable_container():
    script = load("msqr/thm5.prf")
    report = check(script)
    assert report.step_ids == tuple(step.id for step in script.steps)
    opened = {sid: report.open_at(sid) for sid in report.step_ids}
    with pytest.raises(AttributeError):
        report.hyp_formulas.clear()
    assert {sid: report.open_at(sid) for sid in report.step_ids} == opened
    assert any(opened.values())
    assert hash(report) == hash(check(script))


def linear_open_at(report, step_id):
    """open_at by a linear scan of the step ids, the oracle."""
    if step_id not in report.step_ids:
        raise KernelError(kernel.UNKNOWN_PREMISE, "no step %d" % step_id)
    mask = report.deps[report.step_ids.index(step_id)]
    return frozenset(h for i, h in enumerate(report.hyp_formulas)
                     if mask >> i & 1)


def renumbered(script, new_ids):
    """script with its step ids renamed, in order, to new_ids."""
    rename = dict(zip((step.id for step in script.steps), new_ids))

    def ids(old):
        return tuple(rename.get(i, i) for i in old)

    return ProofScript(script.system, script.name, script.statement, tuple(
        ProofStep(rename[step.id], step.formula, step.rule,
                  ids(step.premises), ids(step.discharges), step.fresh)
        for step in script.steps))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_open_at_matches_a_linear_scan(data):
    # ids out of order: open_at finds each step's open set where a scan of
    # step_ids does, and refuses any other id as an unknown premise
    script = load(data.draw(st.sampled_from(
        [e["path"] for e in corpus_entries()])))
    n = len(script.steps)
    new_ids = data.draw(st.one_of(
        st.just(range(n, 0, -1)),
        st.lists(st.integers(1, 10 ** 6), min_size=n, max_size=n,
                 unique=True)))
    report = check(renumbered(script, new_ids))
    assert report.step_ids == tuple(new_ids)
    for sid in report.step_ids:
        assert report.open_at(sid) == linear_open_at(report, sid)
    others = data.draw(st.lists(st.integers(-2, 10 ** 6 + 1).filter(
        lambda i: i not in report.step_ids), max_size=5))
    for sid in others:
        with pytest.raises(KernelError) as exc:
            report.open_at(sid)
        assert exc.value.code == kernel.UNKNOWN_PREMISE
    again = check(renumbered(script, new_ids))
    assert again == report and hash(again) == hash(report)


# -- dependency bitsets against a frozenset oracle ---------------------------

def frozenset_deps(script):
    """Per step, the ids of the hypotheses it still depends on, as
    frozensets: the premises' sets joined, minus the hypotheses the step
    lists as discharged, whether or not its rule may discharge them.
    This is how the kernel tracked dependencies before it used bitsets."""
    deps, hyps = {}, set()
    for step in script.steps:
        if step.rule == "hyp":
            deps[step.id] = frozenset((step.id,))
            hyps.add(step.id)
            continue
        got = frozenset()
        for pid in step.premises:
            got |= deps.get(pid, frozenset())
        deps[step.id] = got - hyps.intersection(step.discharges)
    return deps


def utrans_chain(n):
    """w0 : [] bot -> bot through a Utrans chain of n open hypotheses,
    closed again by n BoxI steps; 5n + 2 steps in all."""
    w = ["w%d" % i for i in range(n + 1)]
    steps = []

    def add(formula, rule, premises=(), discharges=(), fresh=None):
        steps.append(ProofStep(len(steps) + 1, formula, rule,
                               tuple(premises), tuple(discharges), fresh))
        return len(steps)

    box_bot = Box(Rel.U, BOT)
    top = add(Labelled(w[0], box_bot), "hyp")
    hyp = [add(Relational(w[i], Rel.U, w[i + 1]), "hyp") for i in range(n)]
    cur = hyp[0]
    for i in range(1, n):
        cur = add(Relational(w[0], Rel.U, w[i + 1]), "Utrans", (cur, hyp[i]))
    cur = add(Labelled(w[n], BOT), "BoxE", (top, cur))
    for i in range(n - 1, -1, -1):
        box = add(Labelled(w[i], box_bot), "BoxI", (cur,), (hyp[i],),
                  w[i + 1])
        refl = add(Relational(w[i], Rel.U, w[i]), "Urefl")
        cur = add(Labelled(w[i], BOT), "BoxE", (box, refl))
    add(Labelled(w[0], Implies(box_bot, BOT)), "ImpI", (cur,), (top,))
    return ProofScript(System.MSQR, "chain", steps[-1].formula, tuple(steps))


def test_open_assumptions_match_frozenset_oracle():
    for entry in corpus_entries():
        script = load(entry["path"])
        formulas = {s.id: s.formula for s in script.steps}
        want = frozenset_deps(script)
        for step in script.steps:
            assert check(script).open_at(step.id) == \
                {formulas[h] for h in want[step.id]}, (entry["name"], step.id)
    # each check runs the whole script, so the chain's 1,002 steps are
    # read from the report of a single check
    script = utrans_chain(200)
    formulas = {s.id: s.formula for s in script.steps}
    want = frozenset_deps(script)
    report = check(script)
    assert max(len(ids) for ids in want.values()) == 201
    for step in script.steps:
        assert report.open_at(step.id) == \
            {formulas[h] for h in want[step.id]}, step.id
    assert report.accepted
    # a failed step clears its listed discharges whatever its rule: every
    # step of a non-discharging rule, primitive or derived, made to list
    # every earlier hypothesis
    for entry in corpus_entries():
        script = load(entry["path"])
        hyps, steps = [], []
        for s in script.steps:
            if s.rule == "hyp":
                hyps.append(s.id)
            elif s.rule not in DISCHARGING and hyps:
                s = ProofStep(s.id, s.formula, s.rule, s.premises,
                              tuple(hyps), s.fresh)
            steps.append(s)
        script = ProofScript(script.system, script.name, None, tuple(steps))
        formulas = {s.id: s.formula for s in steps}
        want = frozenset_deps(script)
        report = check(script)
        for step in steps:
            assert report.open_at(step.id) == \
                {formulas[h] for h in want[step.id]}, (entry["name"], step.id)


@pytest.mark.parametrize("rule", ["AndI 1,2", "ImpE 2,1"])
def test_failed_step_clears_its_listed_discharges(rule):
    # AndI is derived and ImpE primitive; neither may discharge, and both
    # leave the same hypothesis open
    script = parse_script(
        "system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
        "2. x : r0 -> r0 ; hyp\n3. x : r0 ; %s discharge 1\nqed\n" % rule)
    report = check(script)
    assert "illegal-discharge" in reasons(report)
    assert report.open_assumptions == {parse_formula("x : r0 -> r0")}


def test_freshness_names_the_smallest_open_hypothesis_id():
    # hypotheses 9 and 4 both name the fresh label y; 9 comes first in
    # the script, but the diagnostic names 4, the smaller id
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : [] r0\n"
        "9. y : r0 ; hyp\n"
        "4. y : r0 -> r0 ; hyp\n"
        "7. x U y ; hyp\n"
        "5. y : r0 ; ImpE 4,9\n"
        "8. x : [] r0 ; BoxI 5 discharge 7 fresh y\n"
        "qed\n"))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (8, "freshness-violation",
         "fresh label y occurs in open assumption y : r0 -> r0"),
        (8, "undischarged-at-theorem",
         "open assumptions remain: y : r0, y : r0 -> r0")]


def test_freshness_sees_both_labels_of_a_relation():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : [] r0\n"
        "1. w : [] r0 ; hyp\n"
        "2. w U y ; hyp\n"
        "3. x U y ; hyp\n"
        "4. y : r0 ; BoxE 1,2\n"
        "5. x : [] r0 ; BoxI 4 discharge 3 fresh y\n"
        "qed\n"))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics
            if d.reason == "freshness-violation"] == [
        (5, "freshness-violation",
         "fresh label y occurs in open assumption w U y")]


def test_long_utrans_chain_is_accepted():
    script = utrans_chain(3200)
    assert len(script.steps) == 16_002
    report = check(script)
    assert report.accepted
    assert report.open_assumptions == frozenset()


# -- derived-rule helper steps are private to their expansion ----------------

HELPER_CITE = (
    "system MSQR\n"
    "theorem t : x : (p -> (q -> bot)) -> (p -> (q -> bot))\n"
    "1. x : p ; hyp\n"
    "2. x : q ; hyp\n"
    "3. x : p & q ; AndI 1,2\n"
    "5. x : (p -> (q -> bot)) -> (p -> (q -> bot)) ; ImpI 6 discharge 6\n"
    "qed\n")


def test_helper_step_cannot_be_cited():
    # step 6 is the hypothesis x : p -> (q -> bot) inside the AndI expansion
    script = parse_script(HELPER_CITE)
    report = check(script)
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (5, "unknown-premise", "premise 6 is not an earlier step")]
    with pytest.raises(KernelError) as exc:
        check(script).open_at(6)
    assert exc.value.code == "unknown-premise"


def test_helper_step_cannot_be_discharged():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : p -> p\n"
        "1. x : p ; hyp\n"
        "2. x : q ; hyp\n"
        "3. x : p & q ; AndI 1,2\n"
        "5. x : p -> p ; ImpI 1 discharge 1,6\n"
        "qed\n"))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (5, "illegal-discharge", "discharge 6 is not an earlier step")]


# each admission failure gets one reason code, whether the rule is derived
# (AndI, Mtrans) or primitive (ImpE, UIfromM)
@pytest.mark.parametrize("system,derived,primitive,code", [
    ("MSPQR", "x U x ; Mtrans 1,2", "x U x ; UIfromM 1", "wrong-system"),
    ("MSQR", "x : r0 & (r0 -> r0) ; AndI 1,2 fresh y",
     "x : r0 ; ImpE 2,1 fresh y", "schema-mismatch"),
    ("MSQR", "x : r0 & (r0 -> r0) ; AndI 1,2 discharge 1",
     "x : r0 ; ImpE 2,1 discharge 1", "illegal-discharge"),
    ("MSQR", "x : r0 & (r0 -> r0) ; AndI 1", "x : r0 ; ImpE 2",
     "wrong-arity"),
    ("MSQR", "x : r0 & (r0 -> r0) ; AndI 1,9", "x : r0 ; ImpE 2,9",
     "unknown-premise"),
], ids=["wrong-system", "fresh", "discharge", "arity", "unknown-premise"])
def test_admission_same_for_derived_and_primitive(system, derived, primitive,
                                                  code):
    def step3(line):
        report = check(parse_script(
            "system %s\ntheorem t : x : r0\n"
            "1. x : r0 ; hyp\n2. x : r0 -> r0 ; hyp\n"
            "3. %s\n4. x : r0 ; hyp\nqed\n" % (system, line)))
        return [d.reason for d in report.diagnostics if d.step == 3]
    assert step3(derived) == step3(primitive) == [code]


@pytest.mark.parametrize("line, message", [
    ("x : r0 ; AndE1 1", "AndE1 premise is not a conjunction: x : r0"),
    ("x : r0 & r0 ; AndI 1,3", "AndI premise must be a labelled formula, "
     "got x U x"),
    ("x M x ; Mtrans 1,3", "Mtrans premise must be an M formula, "
     "got x : r0"),
    ("x M w ; Mtrans 6,7", "Mtrans premises must chain: second must "
     "start at y"),
    ("x U x ; NegI 1", "NegI conclusion must be a labelled formula, "
     "got x U x"),
])
def test_expansion_failure_is_a_schema_mismatch(line, message):
    # the relational hypotheses 6 and 7 come first, so ids 1, 3 and 4
    # keep their places
    report = check(parse_script(
        "system MSQR\ntheorem t : x : r0\n6. x M y ; hyp\n7. z M w ; hyp\n"
        "1. x : r0 ; hyp\n3. x U x ; hyp\n4. %s\n5. x : r0 ; hyp\nqed\n"
        % line))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics
            if d.step == 4] == [(4, "schema-mismatch", message)]


def test_failed_expansion_still_records_its_step():
    # step 2's expansion fails, yet step 2 is recorded with the open
    # hypothesis of its premise, so step 3 may cite it: the theorem is
    # refused for that assumption, not for an unknown premise
    report = check(parse_script(
        "system MSQR\ntheorem t : x U y\n1. x : bot ; hyp\n"
        "2. x M y ; NegI 1\n3. x U y ; UIfromM 2\nqed\n"))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (2, "schema-mismatch",
         "NegI conclusion must be a labelled formula, got x M y"),
        (3, "undischarged-at-theorem", "open assumptions remain: x : bot")]


def test_stale_helper_hypothesis_cannot_be_discharged(monkeypatch):
    # derived.py is not trusted: here step 2 expands through a helper
    # hypothesis x : bot that stays open, and step 3 reuses that helper
    # id for a non-hypothesis and discharges it.  Helper ids are
    # forgotten after each expansion, so the discharge is refused and
    # x : bot stays open; remembered, it would silently close x : bot
    def wrong_expansion(step, formulas, base):
        if step.id == 2:
            return [ProofStep(base, parse_formula("x : bot"), "hyp"),
                    ProofStep(2, step.formula, "BotE", (base,))]
        return [ProofStep(base, parse_formula("x : bot"), "BotE", (2,)),
                ProofStep(3, step.formula, "ImpI", (base,), (base,))]

    monkeypatch.setattr(kernel, "expand_derived", wrong_expansion)
    report = check(parse_script(
        "system MSQR\ntheorem t : x : bot -> bot\n1. x : r0 ; hyp\n"
        "2. x : bot ; AndE1 1\n3. x : bot -> bot ; AndE1 2\nqed\n"))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (3, "illegal-discharge", "discharge 4 is not a hypothesis"),
        (3, "undischarged-at-theorem", "open assumptions remain: x : bot")]


def test_unknown_rule_is_a_schema_mismatch():
    # parse_script refuses unknown rule names, but a script built in code
    # can carry one; check rejects it before any expansion
    report = check(ProofScript(System.MSQR, "t", None, (
        ProofStep(1, parse_formula("x : r0"), "hyp"),
        ProofStep(2, parse_formula("x : r0"), "Frobnicate", (1,)))))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (2, "schema-mismatch", "unknown rule 'Frobnicate'")]


def test_vocabulary_of_derived_step_checked_once():
    # step 11 of mspqr/thm3 is a NegI discharging hypothesis 3; under
    # MSQR its conclusion is foreign vocabulary
    def step11(script):
        report = check(script, System.MSQR)
        return sorted(d.reason for d in report.diagnostics if d.step == 11)

    script = load("mspqr/thm3.prf")
    # admitted and expanded: the expansion's last step is not re-checked
    assert step11(script) == ["wrong-system"]
    # without hypothesis 3 the NegI fails admission and is not expanded
    no_hyp = ProofScript(script.system, script.name, script.statement,
                         tuple(s for s in script.steps if s.id != 3))
    assert step11(no_hyp) == ["illegal-discharge", "wrong-system"]
    # step 11 of msqr/thm5 is an IffI of two [M] formulas: under MSpQR
    # its helpers repeat the foreign relation and are not reported
    report = check(load("msqr/thm5.prf"), System.MSPQR)
    assert [d.reason for d in report.diagnostics if d.step == 11] == [
        "wrong-system"]


# a [P] box 60 levels down a chain of implications
_DEEP_P = "r0 -> " * 59 + "[P] r0"


def _foreign(text):
    return ("formula %s is not in the MSQR vocabulary"
            % print_formula(parse_formula(text)))


@pytest.mark.parametrize("script, expected", [
    ("theorem t : x : r0 -> r0\n1. x : %s ; hyp\n2. x : r0 ; hyp\n"
     "3. x : r0 -> r0 ; ImpI 2 discharge 2\n" % _DEEP_P,
     [(1, "wrong-system", _foreign("x : " + _DEEP_P))]),
    ("theorem t : x : (%s) -> (%s)\n1. x : %s ; hyp\n"
     "2. x : (%s) -> (%s) ; ImpI 1 discharge 1\n" % ((_DEEP_P,) * 5),
     [(1, "wrong-system", _foreign("x : " + _DEEP_P)),
      (2, "wrong-system", _foreign("x : (%s) -> (%s)" % (_DEEP_P, _DEEP_P)))]),
    # the AndI conclusion, once: the expansion's hypothesis x : A -> ~B
    # repeats its relation and is not reported again
    ("theorem t : x : [P] r0 & r1\n1. x : [P] r0 ; hyp\n2. x : r1 ; hyp\n"
     "3. x : [P] r0 & r1 ; AndI 1,2\n",
     [(1, "wrong-system", _foreign("x : [P] r0")),
      (3, "wrong-system", _foreign("x : [P] r0 & r1")),
      (3, "undischarged-at-theorem",
       "open assumptions remain: x : [P] r0, x : r1")]),
    # the AndE1 premise, once: the expansion's helpers x : [P] r1 -> bot
    # and x : r0 -> [P] r1 -> bot repeat its relation
    ("theorem t : x : r0\n1. x : r0 & [P] r1 ; hyp\n2. x : r0 ; AndE1 1\n",
     [(1, "wrong-system", _foreign("x : r0 & [P] r1")),
      (2, "undischarged-at-theorem",
       "open assumptions remain: x : (r0 -> [P] r1 -> bot) -> bot")]),
], ids=["deep-step", "deep-statement", "andi-conclusion", "ande1-premise"])
def test_foreign_relation_is_wrong_system_wherever_it_sits(script, expected):
    report = check(parse_script("system MSQR\n%sqed\n" % script))
    assert [(d.step, d.reason, d.message)
            for d in report.diagnostics] == expected


def test_foreign_helper_of_an_in_vocabulary_step_is_reported(monkeypatch):
    # the kernel checks every helper whose derived step and premises are
    # in the vocabulary: an expansion that adds a [P] hypothesis to an
    # MSQR AndI gets the step a wrong-system diagnostic
    expand = kernel.expand_derived
    foreign = ProofStep(99, parse_formula("x : [P] r0"), "hyp")

    def foreign_helper(step, *args):
        return [foreign] + expand(step, *args)

    monkeypatch.setattr(kernel, "expand_derived", foreign_helper)
    report = check(ProofScript(System.MSQR, "t", None, (
        ProofStep(1, parse_formula("x : r0"), "hyp"),
        ProofStep(2, parse_formula("x : r1"), "hyp"),
        ProofStep(3, parse_formula("x : r0 & r1"), "AndI", (1, 2)))))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (3, "wrong-system", _foreign("x : [P] r0"))]


def test_the_expander_cannot_write_into_the_checker(monkeypatch):
    # derived.py is not trusted.  This expander stores a stray x : bot
    # under id 50 before it expands step 3; handed the checker's own
    # table, that would let step 4 cite step 50 and prove x : r0, which
    # fails on one world, from no assumption.  A tuple refuses the write
    expand = kernel.expand_derived

    def scribbling_expand(step, prems, base):
        prems[50] = parse_formula("x : bot")
        return expand(step, prems, base)

    monkeypatch.setattr(kernel, "expand_derived", scribbling_expand)
    script = parse_script(
        "system MSQR\ntheorem t : x : r0\n1. x : r1 ; hyp\n"
        "2. x : r1 -> bot ; hyp\n3. x : bot ; NegE 2,1\n"
        "4. x : r0 ; BotE 50\nqed\n")
    with pytest.raises(TypeError, match="does not support item assignment"):
        check(script)


def test_the_expander_gets_its_premises_formulas_in_citing_order(
        monkeypatch):
    seen = []
    expand = kernel.expand_derived

    def recording_expand(step, prems, base):
        seen.append((step, prems))
        return expand(step, prems, base)

    monkeypatch.setattr(kernel, "expand_derived", recording_expand)
    expected = []
    for entry in corpus_entries():
        script = load(entry["path"])
        formula = {s.id: s.formula for s in script.steps}
        expected += [(s, tuple(formula[pid] for pid in s.premises))
                     for s in script.steps if s.rule in DERIVED]
        check(script)
    assert len(expected) > 10
    assert seen == expected
    assert all(type(prems) is tuple for _, prems in seen)


# -- derived rule expansion --------------------------------------------------

def test_expand_mtrans_two_steps():
    # y M y by Msrefl from x M y, then Msub1 rewrites y to z in x M y
    step = ProofStep(5, parse_formula("x M z"), "Mtrans", premises=(1, 2))
    out = expand_derived(step, (parse_formula("x M y"),
                                parse_formula("y M z")), 6)
    assert out == [
        ProofStep(6, parse_formula("y M y"), "Msrefl", (1,)),
        ProofStep(5, parse_formula("x M z"), "Msub1", (1, 6, 2)),
    ]


def test_expand_mtrans_reflexive_first_premise_one_step():
    # from x M x, rewriting x to y would rewrite the premise's both
    # labels; Msub1 rewrites x to x in x M y instead, which is x M y
    step = ProofStep(5, parse_formula("x M y"), "Mtrans", premises=(1, 2))
    out = expand_derived(step, (parse_formula("x M x"),
                                parse_formula("x M y")), 6)
    assert out == [ProofStep(5, parse_formula("x M y"), "Msub1", (2, 1, 1))]


@pytest.mark.parametrize("premises, conclusion", [
    (("x M x", "x M y"), "x M y"),   # a = b
    (("x M y", "y M y"), "x M y"),   # b = c
    (("x M y", "y M x"), "x M x"),   # a = c
    (("x M x", "x M x"), "x M x"),   # a = b = c
], ids=["a=b", "b=c", "a=c", "a=b=c"])
def test_mtrans_with_aliased_labels_is_checked_and_sound(premises, conclusion):
    script = _script(["%s ; hyp" % premises[0], "%s ; hyp" % premises[1],
                      "%s ; Mtrans 1,2" % conclusion])
    report = check(script)
    assert [d.reason for d in report.diagnostics] == [
        "undischarged-at-theorem"]
    assert report.open_assumptions == set(map(parse_formula, premises))
    assert_sound_at_every_step(script, System.MSQR, report)


def test_expand_ande2_four_steps():
    # refute x:r1->bot: a vacuous ImpI turns it into x:r0->(r1->bot),
    # which the premise refutes, and RAA discharges it
    step = ProofStep(5, parse_formula("x : r1"), "AndE2", premises=(1,))
    out = expand_derived(step, (parse_formula("x : r0 & r1"),), 6)
    assert out == [
        ProofStep(6, parse_formula("x : r1 -> bot"), "hyp"),
        ProofStep(7, parse_formula("x : r0 -> r1 -> bot"), "ImpI", (6,)),
        ProofStep(8, parse_formula("x : bot"), "ImpE", (1, 7)),
        ProofStep(5, parse_formula("x : r1"), "RAA", (8,), (6,)),
    ]


def test_conjunction_and_iff_rules_under_mspqr():
    # no corpus script uses these six rules under MSpQR
    script = parse_script(
        "system MSPQR\n"
        "theorem t : x : ((r0 <-> [P] r1) & r0)"
        " -> ([P] r1 & ([P] r1 <-> r0))\n"
        "1. x : (r0 <-> [P] r1) & r0 ; hyp\n"
        "2. x : r0 <-> [P] r1 ; AndE1 1\n"
        "3. x : r0 ; AndE2 1\n"
        "4. x : r0 -> [P] r1 ; IffE1 2\n"
        "5. x : [P] r1 -> r0 ; IffE2 2\n"
        "6. x : [P] r1 ; ImpE 4,3\n"
        "7. x : [P] r1 <-> r0 ; IffI 5,4\n"
        "8. x : [P] r1 & ([P] r1 <-> r0) ; AndI 6,7\n"
        "9. x : ((r0 <-> [P] r1) & r0) -> ([P] r1 & ([P] r1 <-> r0)) ;"
        " ImpI 8 discharge 1\n"
        "qed\n")
    report = check(script)
    assert report.accepted, report.diagnostics
    assert {s.rule for s in script.steps} >= {
        "AndI", "AndE1", "AndE2", "IffI", "IffE1", "IffE2"}
    assert_sound_at_every_step(script, System.MSPQR, report)


def test_expand_negi_is_impi_over_bote():
    step = ProofStep(3, parse_formula("x : ~ r0"), "NegI",
                     premises=(2,), discharges=(1,))
    out = expand_derived(step, {1: parse_formula("x : r0"),
                                2: parse_formula("y : bot")}, 4)
    assert [s.rule for s in out] == ["BotE", "ImpI"]
    assert out[-1].formula == parse_formula("x : r0 -> bot")
    assert out[-1].discharges == (1,)


def test_expand_iffi_concludes_the_sugar():
    step = ProofStep(9, parse_formula("x : r0 <-> r1"), "IffI", premises=(1, 2))
    out = expand_derived(step, (parse_formula("x : r0 -> r1"),
                                parse_formula("x : r1 -> r0")), 10)
    assert out[-1].formula == parse_formula("x : r0 <-> r1")
    assert all(s.rule in {"hyp", "ImpI", "ImpE"} for s in out)


def test_expansion_conservativity():
    sugar = load("msqr/thm6_via_mtrans.prf")
    primitive = load("msqr/thm6.prf")
    assert check(sugar).accepted and check(primitive).accepted
    assert sugar.statement == primitive.statement
    # the sugar script survives a print/parse cycle as well
    again = parse_script(print_script(sugar))
    assert check(again).accepted


def test_layer_boundaries_are_module_attributes(monkeypatch):
    # perfbench counts parses and expansions by wrapping the module
    # attributes syntax.parse_formula and kernel.expand_derived, so the
    # script reader and the kernel must reach them through those, once
    # per formula and once per derived step
    parses, expansions = [], []
    parse, expand = syntax.parse_formula, kernel.expand_derived

    def counting_parse(text, *args):
        parses.append(text)
        return parse(text, *args)

    def counting_expand(step, *args):
        expansions.append(step.id)
        return expand(step, *args)

    monkeypatch.setattr(syntax, "parse_formula", counting_parse)
    monkeypatch.setattr(kernel, "expand_derived", counting_expand)
    text = (CORPUS / "msqr" / "thm6_via_mtrans.prf").read_text()
    script = kernel.parse_script(text)
    assert len(parses) == 1 + len(script.steps)
    assert kernel.check(script).accepted
    derived = [s.id for s in script.steps if s.rule in DERIVED]
    assert derived and expansions == derived


# -- per-rule scripts --------------------------------------------------------

def assert_sound_modulo_open(script_text):
    """Check a fragment, where only the final open-assumption diagnostic
    may fire, and run the semantic oracle on each of its steps."""
    script = parse_script(script_text)
    report = check(script)
    assert reasons(report) <= {"undischarged-at-theorem"}, report.diagnostics
    assert_sound_at_every_step(script, script.system, report)


def test_msub2_unit():
    assert_sound_modulo_open(
        "system MSQR\n"
        "theorem t : x : r0\n"
        "1. y : r0 ; hyp\n"
        "2. x M x ; hyp\n"
        "3. x M y ; hyp\n"
        "4. x : r0 ; Msub2 1,2,3\n"
        "qed\n")


def test_msub1_substitutes_relational_operand():
    assert_sound_modulo_open(
        "system MSQR\n"
        "theorem t : z U y\n"
        "1. x U y ; hyp\n"
        "2. x M x ; hyp\n"
        "3. x M z ; hyp\n"
        "4. z U y ; Msub1 1,2,3\n"
        "qed\n")


def test_msub1_rejects_mismatched_pivot():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : y : r0\n"
        "1. x : r0 ; hyp\n"
        "2. z M z ; hyp\n"
        "3. x M y ; hyp\n"
        "4. y : r0 ; Msub1 1,2,3\n"
        "qed\n"))
    assert "schema-mismatch" in reasons(report)


def test_psub_units():
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : y : r0\n"
        "1. x : r0 ; hyp\n"
        "2. x P x ; hyp\n"
        "3. x P y ; hyp\n"
        "4. y : r0 ; Psub1 1,2,3\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : x : r0\n"
        "1. y : r0 ; hyp\n"
        "2. x P x ; hyp\n"
        "3. x P y ; hyp\n"
        "4. x : r0 ; Psub2 1,2,3\n"
        "qed\n")


def test_relation_rule_units():
    assert_sound_modulo_open(
        "system MSQR\n"
        "theorem t : y U x\n"
        "1. x U y ; hyp\n"
        "2. y U x ; Usymm 1\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSQR\n"
        "theorem t : x U z\n"
        "1. x U y ; hyp\n"
        "2. y U z ; hyp\n"
        "3. x U z ; Utrans 1,2\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSQR\n"
        "theorem t : x U y\n"
        "1. x M y ; hyp\n"
        "2. x U y ; UIfromM 1\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : x U y\n"
        "1. x P y ; hyp\n"
        "2. x U y ; PUI 1\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : x P z\n"
        "1. x P y ; hyp\n"
        "2. y P z ; hyp\n"
        "3. x P z ; Ptrans 1,2\n"
        "qed\n")


def test_classical_and_u_rules_under_mspqr():
    # no corpus script uses these four rules under MSpQR
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : x : ~ ~ <P> r0 -> <P> r0\n"
        "1. x : ~ ~ <P> r0 ; hyp\n"
        "2. x : ~ <P> r0 ; hyp\n"
        "3. x : bot ; ImpE 1,2\n"
        "4. x : <P> r0 ; RAA 3 discharge 2\n"
        "5. x : ~ ~ <P> r0 -> <P> r0 ; ImpI 4 discharge 1\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : x : [] [P] r0 -> [P] r0\n"
        "1. x : [] [P] r0 ; hyp\n"
        "2. x U x ; Urefl\n"
        "3. x : [P] r0 ; BoxE 1,2\n"
        "4. x : [] [P] r0 -> [P] r0 ; ImpI 3 discharge 1\n"
        "qed\n")
    assert_sound_modulo_open(
        "system MSPQR\n"
        "theorem t : z U x\n"
        "1. x U y ; hyp\n"
        "2. y U z ; hyp\n"
        "3. x U z ; Utrans 1,2\n"
        "4. z U x ; Usymm 3\n"
        "qed\n")


def test_rule_gating_between_systems():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x U z\n"
        "1. x U y ; hyp\n"
        "2. y U z ; hyp\n"
        "3. x U z ; Ptrans 1,2\n"
        "qed\n"))
    assert "wrong-system" in reasons(report)
    assert "Ptrans" not in rules_of(System.MSQR)
    assert "Mser" not in rules_of(System.MSPQR)
    assert "Mtrans" not in rules_of(System.MSPQR)


# Each rule's facts, (premise count, discharges, takes a fresh label,
# derived), as the kernel docstring states them; a derived rule's premise
# count is the number its expansion in derived.py cites
SHARED_RULE_FACTS = {
    "hyp": (0, False, False, False), "ImpI": (1, True, False, False),
    "ImpE": (2, False, False, False), "RAA": (1, True, False, False),
    "BotE": (1, False, False, False), "BoxI": (1, True, True, False),
    "BoxE": (2, False, False, False), "Urefl": (0, False, False, False),
    "Usymm": (1, False, False, False), "Utrans": (2, False, False, False),
    "NegI": (1, True, False, True), "NegE": (2, False, False, True),
    "IffI": (2, False, False, True), "IffE1": (1, False, False, True),
    "IffE2": (1, False, False, True), "AndI": (2, False, False, True),
    "AndE1": (1, False, False, True), "AndE2": (1, False, False, True),
}
RULE_FACTS = {
    System.MSQR: {
        **SHARED_RULE_FACTS, "UIfromM": (1, False, False, False),
        "Mser": (1, True, True, False), "Msrefl": (1, False, False, False),
        "Msub1": (3, False, False, False), "Msub2": (3, False, False, False),
        "Mtrans": (2, False, False, True)},
    System.MSPQR: {
        **SHARED_RULE_FACTS, "PUI": (1, False, False, False),
        "Ptrans": (2, False, False, False), "Class": (1, True, True, False),
        "Psub1": (3, False, False, False), "Psub2": (3, False, False, False)},
}
DISCHARGING = {rule for facts in RULE_FACTS.values()
               for rule, fact in facts.items() if fact[1]}


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
def test_the_rule_table_states_each_rules_facts(system):
    facts = RULE_FACTS[system]
    assert rules_of(system) == set(facts)
    assert {rule: (n, discharges, fresh, check is None)
            for rule, (n, discharges, fresh, check)
            in kernel._RULES[system].items()} == \
        {rule: fact for rule, fact in facts.items() if rule != "hyp"}
    assert DERIVED == {rule for table in RULE_FACTS.values()
                       for rule, fact in table.items() if fact[3]}


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
def test_check_admits_each_rule_by_its_facts(system):
    # every rule but hyp, cited with too many premises, with a discharge
    # and with a fresh label: the refusals name its facts
    r0 = parse_formula("x : r0")
    for rule, (n, discharges, fresh, _) in RULE_FACTS[system].items():
        if rule == "hyp":
            continue
        messages = set()
        for step in (ProofStep(2, r0, rule, (1,) * 4),
                     ProofStep(2, r0, rule, (1,) * n, (1,), "y")):
            script = ProofScript(system, "t", None, (
                ProofStep(1, r0, "hyp"), step))
            messages |= {d.message for d in check(script).diagnostics}
        assert "%s takes %d premises, got 4" % (rule, n) in messages
        assert ("rule %s discharges nothing" % rule in messages) \
            == (not discharges), rule
        assert ("rule %s takes no fresh label" % rule in messages) \
            == (not fresh), rule


def test_the_reader_accepts_the_names_of_the_kernel_rules():
    # the kernel states which rules each system has; the script reader
    # accepts their names and no others
    shared = {"hyp", "ImpI", "ImpE", "RAA", "BotE", "BoxI", "BoxE", "Urefl",
              "Usymm", "Utrans", "NegI", "NegE", "IffI", "IffE1", "IffE2",
              "AndI", "AndE1", "AndE2"}
    assert rules_of(System.MSQR) == shared | {
        "UIfromM", "Mser", "Msrefl", "Msub1", "Msub2", "Mtrans"}
    assert rules_of(System.MSPQR) == shared | {
        "PUI", "Ptrans", "Class", "Psub1", "Psub2"}
    assert (len(rules_of(System.MSQR)), len(rules_of(System.MSPQR))) == \
        (24, 23)
    assert ALL_RULES == rules_of(System.MSQR) | rules_of(System.MSPQR)


def test_system_override_flag_behaviour():
    script = load("msqr/thm5.prf")
    assert check(script, system=System.MSQR).accepted
    report = check(script, system=System.MSPQR)
    assert "wrong-system" in reasons(report)
    assert any("Msrefl" in d.message for d in report.diagnostics)


# -- discharge discipline ----------------------------------------------------

def test_vacuous_discharge_is_allowed():
    report = check(parse_script(
        "system MSQR\n"
        "theorem weakening : x : r0 -> r1 -> r0\n"
        "1. x : r0 ; hyp\n"
        "2. x : r1 ; hyp\n"
        "3. x : r1 -> r0 ; ImpI 1 discharge 2\n"
        "4. x : r0 -> r1 -> r0 ; ImpI 3 discharge 1\n"
        "qed\n"))
    assert report.accepted


def test_impi_with_no_discharge_list():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r1 -> r0\n"
        "1. x : r0 ; hyp\n"
        "2. x : r1 -> r0 ; ImpI 1\n"
        "qed\n"))
    assert reasons(report) == {"undischarged-at-theorem"}


def test_discharge_must_point_at_earlier_hypothesis():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : [] r0 -> [] r0\n"
        "1. x : [] r0 ; hyp\n"
        "2. x U x ; Urefl\n"
        "3. x : [] r0 -> [] r0 ; ImpI 1 discharge 2\n"
        "qed\n"))
    assert "illegal-discharge" in reasons(report)
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r0 -> r0\n"
        "1. x : r0 ; hyp\n"
        "2. x : r0 -> r0 ; ImpI 1 discharge 3\n"
        "qed\n"))
    assert "illegal-discharge" in reasons(report)


def test_discharge_formula_shape_is_checked():
    # the discharged hypothesis must be the antecedent
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r1 -> r0\n"
        "1. x : r0 ; hyp\n"
        "2. x : r2 ; hyp\n"
        "3. x : r1 -> r0 ; ImpI 1 discharge 2\n"
        "qed\n"))
    assert "illegal-discharge" in reasons(report)


def test_discharge_on_non_discharging_rule():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : y U x\n"
        "1. x U y ; hyp\n"
        "2. y U x ; Usymm 1 discharge 1\n"
        "qed\n"))
    assert "illegal-discharge" in reasons(report)


# Refusals that keep the kernel sound: without any one of them, the
# kernel accepts the script's theorem, which has a countermodel on at
# most 2 worlds.  Each script is refused at one step, for one reason.
SOUNDNESS_REFUSALS = [
    ("MSQR", "x : r0 -> bot",
     ["x : r0 ; hyp", "x : bot ; ImpI 1",
      "x : r0 -> bot ; ImpI 2 discharge 1"],
     2, "schema-mismatch", "ImpI concludes a labelled implication"),
    ("MSQR", "x : [M] r0 -> r0",
     ["x : [M] r0 ; hyp", "x M x ; RAA 1", "x : r0 ; BoxE 1,2",
      "x : [M] r0 -> r0 ; ImpI 3 discharge 1"],
     2, "schema-mismatch", "RAA concludes a labelled formula"),
    ("MSQR", "x : r0 -> bot",
     ["x : r0 ; hyp", "x : bot ; BoxI 1",
      "x : r0 -> bot ; ImpI 2 discharge 1"],
     2, "schema-mismatch", "BoxI concludes a labelled box formula"),
    ("MSQR", "x : r0",
     ["x : r0 ; hyp", "x : r0 ; Mser 1 discharge 1"],
     2, "illegal-discharge", "Mser discharges only M hypotheses"),
    ("MSQR", "x : r0 -> [M] r0",
     ["x : r0 ; hyp", "x M y ; hyp", "x M x ; hyp", "y : r0 ; Msub1 1,3,2",
      "x : [M] r0 ; BoxI 4 discharge 2",
      "x : [M] r0 ; Mser 5 discharge 2,3",
      "x : r0 -> [M] r0 ; ImpI 6 discharge 1"],
     6, "illegal-discharge", "Mser discharges occurrences of one hypothesis"),
    ("MSPQR", "x : r0 -> [P] r0",
     ["x : r0 ; hyp", "x P y ; hyp", "x P x ; hyp", "y : r0 ; Psub1 1,3,2",
      "x : [P] r0 ; BoxI 4 discharge 2", "x : [P] r0 ; Class 5 discharge 3",
      "x : r0 -> [P] r0 ; ImpI 6 discharge 1"],
     6, "illegal-discharge",
     "Class needs a discharged hypothesis x P y with two distinct labels"),
    ("MSPQR", "x : r0 -> [P] r0",
     ["x : r0 ; hyp", "x P y ; hyp", "x P x ; hyp", "y : r0 ; Psub1 1,3,2",
      "x : [P] r0 ; BoxI 4 discharge 2", "x P z ; hyp",
      "x : [P] r0 ; Class 5 discharge 6,3",
      "x : r0 -> [P] r0 ; ImpI 7 discharge 1"],
     7, "illegal-discharge",
     "Class here discharges x P z and z P z, not x P x"),
]


@pytest.mark.parametrize(
    "system, theorem, steps, step, reason, message", SOUNDNESS_REFUSALS,
    ids=["impi-shape", "raa-shape", "boxi-shape", "mser-kind", "mser-one",
         "class-proper", "class-pair"])
def test_refusal_that_keeps_the_kernel_sound(system, theorem, steps, step,
                                             reason, message):
    report = check(parse_script("system %s\ntheorem t : %s\n%s\nqed\n" % (
        system, theorem,
        "\n".join("%d. %s" % (i, s) for i, s in enumerate(steps, 1)))))
    assert not report.accepted
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (step, reason, message)]
    refuted = find_countermodel(System(system), [], parse_formula(theorem),
                                SearchBudget(max_worlds=2))
    assert isinstance(refuted, Found)


# Steps refused by a check that records its diagnostic and stops there:
# each script pins its whole diagnostic list, so a check that ran on
# past its refusal would add a second diagnostic to the step.
ONE_REFUSAL_PER_STEP = [
    ("MSQR", "x : r0 -> [] r0",
     ["x : r0 ; hyp", "x : [] r0 ; BoxI 1",
      "x : r0 -> [] r0 ; ImpI 2 discharge 1"],
     [(2, "freshness-violation", "fresh label x must differ from x")]),
    ("MSQR", "y : r0",
     ["y : r0 ; hyp", "x M y ; hyp", "y : r0 ; Mser 1 discharge 2"],
     [(3, "freshness-violation",
       "fresh label y occurs in the conclusion y : r0"),
      (3, "undischarged-at-theorem", "open assumptions remain: y : r0")]),
    ("MSQR", "x U z",
     ["x U y ; hyp", "z U w ; hyp", "x U z ; Utrans 1,2"],
     [(3, "schema-mismatch", "premises must chain: second must start at y"),
      (3, "undischarged-at-theorem",
       "open assumptions remain: x U y, z U w")]),
    ("MSQR", "x : r1",
     ["x : r0 ; hyp", "x : r1 ; Mser 1"],
     [(2, "schema-mismatch", "conclusion must repeat the premise x : r0"),
      (2, "undischarged-at-theorem", "open assumptions remain: x : r0")]),
    ("MSQR", "x : r0",
     ["x : r0 ; hyp", "x M x ; hyp", "x M y ; hyp",
      "x : r0 ; Mser 1 discharge 2,3"],
     [(4, "illegal-discharge",
       "Mser discharges occurrences of one hypothesis"),
      (4, "undischarged-at-theorem", "open assumptions remain: x : r0")]),
    ("MSPQR", "x : r0",
     ["x : r0 ; hyp", "x P y ; hyp", "z P z ; hyp", "w P w ; hyp",
      "x : r0 ; Class 1 discharge 2,3,4"],
     [(5, "illegal-discharge",
       "Class here discharges x P y and y P y, not z P z"),
      (5, "undischarged-at-theorem", "open assumptions remain: x : r0")]),
    ("MSQR", "x : [] r0",
     ["y : r0 ; hyp", "y : r1 ; hyp", "x : [] r0 ; BoxI 1 discharge 2"],
     [(3, "illegal-discharge", "BoxI here discharges x U y, not y : r1"),
      (3, "undischarged-at-theorem", "open assumptions remain: y : r0")]),
    # the label is named y, and the refusal names no metavariable
    ("MSQR", "y : r0",
     ["y : r0 ; hyp", "y M y ; hyp", "z M y ; hyp", "y : r0 ; Msub1 1,2,3"],
     [(4, "schema-mismatch", "third premise must be a M formula from y"),
      (4, "undischarged-at-theorem",
       "open assumptions remain: y : r0, y M y, z M y")]),
    ("MSPQR", "y : r0",
     ["y : r0 ; hyp", "y P y ; hyp", "z P y ; hyp", "y : r0 ; Psub2 1,2,3"],
     [(4, "schema-mismatch", "third premise must be a P formula from y"),
      (4, "undischarged-at-theorem",
       "open assumptions remain: y : r0, y P y, z P y")]),
    # a wrong annotation ends the check of the eigenvariable
    ("MSQR", "x : [] r0",
     ["y : r0 ; hyp", "x : [] r0 ; BoxI 1 fresh z"],
     [(2, "schema-mismatch", "fresh annotation says z, rule instance uses y"),
      (2, "undischarged-at-theorem", "open assumptions remain: y : r0")]),
    ("MSQR", "x : r0",
     ["x : r1 -> bot ; hyp", "x : r1 ; hyp", "x : bot ; ImpE 1,2",
      "x : r0 ; RAA 3 discharge 1"],
     [(4, "illegal-discharge",
       "RAA here discharges x : r0 -> bot, not x : r1 -> bot"),
      (4, "undischarged-at-theorem", "open assumptions remain: x : r1")]),
]


@pytest.mark.parametrize(
    "system, theorem, steps, diagnostics", ONE_REFUSAL_PER_STEP,
    ids=["fresh-differs", "fresh-in-conclusion", "utrans-chain",
         "mser-repeats", "mser-one", "class-pair", "wrong-discharge",
         "msub-from", "psub-from", "fresh-annotation", "raa-discharge"])
def test_a_refused_step_gets_one_diagnostic(system, theorem, steps,
                                            diagnostics):
    report = check(parse_script("system %s\ntheorem t : %s\n%s\nqed\n" % (
        system, theorem,
        "\n".join("%d. %s" % (i, s) for i, s in enumerate(steps, 1)))))
    assert [(d.step, d.reason, d.message)
            for d in report.diagnostics] == diagnostics


@pytest.mark.parametrize("line", ["hyp 1", "hyp discharge 1", "hyp fresh y"])
def test_hyp_takes_no_premises_or_annotations(line):
    report = check(parse_script(
        "system MSQR\ntheorem t : x : r0 -> r0\n1. x : r0 ; hyp\n"
        "2. x : r0 ; %s\n3. x : r0 -> r0 ; ImpI 2 discharge 2\nqed\n"
        % line))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (2, "wrong-arity", "hyp takes no premises or annotations")]


@pytest.mark.parametrize("system, rule", [("MSQR", "Mser"),
                                          ("MSPQR", "Class")])
def test_mser_and_class_must_discharge(system, rule):
    rel = "M" if rule == "Mser" else "P"
    report = check(parse_script(
        "system %s\ntheorem t : x : r0 -> r0\n1. x : r0 ; hyp\n"
        "2. x : r0 ; %s 1\n3. x : r0 -> r0 ; ImpI 2 discharge 1\nqed\n"
        % (system, rule)))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics] == [
        (2, "illegal-discharge",
         "%s must discharge a hypothesis of the shape x %s y" % (rule, rel))]


def test_raa_discharges_negation():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r0 | ~ r0\n"
        "1. x : ~ (r0 | ~ r0) ; hyp\n"
        "2. x : ~ r0 ; hyp\n"
        "3. x : ~ r0 -> ~ r0 ; ImpI 2 discharge 2\n"
        "4. x : bot ; NegE 1,2\n"
        "5. x : r0 | ~ r0 ; RAA 4 discharge 2\n"
        "qed\n"))
    # discharging the wrong negation leaves assumption 1 open and the
    # conclusion mismatched
    assert not report.accepted


def test_excluded_middle():
    report = check(parse_script(
        "system MSQR\n"
        "theorem excluded_middle : x : r0 | ~ r0\n"
        "1. x : ~ (r0 | ~ r0) ; hyp\n"
        "2. x : r0 ; hyp\n"
        "3. x : r0 | ~ r0 ; ImpI 2 discharge 2\n"
        "4. x : bot ; NegE 1,3\n"
        "5. x : ~ r0 ; NegI 4 discharge 2\n"
        "qed\n"))
    # r0 | ~r0 desugars to ~r0 -> ~r0; prove it directly instead
    assert not report.accepted
    report = check(parse_script(
        "system MSQR\n"
        "theorem excluded_middle : x : r0 | ~ r0\n"
        "1. x : ~ r0 ; hyp\n"
        "2. x : r0 | ~ r0 ; ImpI 1 discharge 1\n"
        "qed\n"))
    assert report.accepted


# -- every diagnostic site is reached ---------------------------------------

def _script(steps, system="MSQR", theorem=None):
    """The numbered steps, stating theorem or else the last step's
    formula."""
    return parse_script("system %s\ntheorem t : %s\n%s\nqed\n" % (
        system, theorem or steps[-1].split(" ; ")[0],
        "\n".join("%d. %s" % (i, s) for i, s in enumerate(steps, 1))))


# One script per diagnostic call in kernel.py, in source order, with
# the (step, reason) that call gives it.  An unknown rule is refused by
# parse_script, so that script is built in code.
DIAGNOSTIC_SITES = [
    ("statement", _script(["x U x ; Urefl"], theorem="x : r1"),
     1, "schema-mismatch"),
    ("open-at-theorem", _script(["x : r0 ; hyp"]),
     1, "undischarged-at-theorem"),
    ("vocabulary", _script(["x : [P] r0 ; hyp"]), 1, "wrong-system"),
    ("hyp-arity", _script(["x : r0 ; hyp", "x : r0 ; hyp 1"]),
     2, "wrong-arity"),
    ("rule-of-other-system",
     _script(["x : r0 ; hyp", "x : r0 ; Mser 1"], "MSPQR"),
     2, "wrong-system"),
    ("unknown-rule", ProofScript(System.MSQR, "t", None, (
        ProofStep(1, parse_formula("x : r0"), "hyp"),
        ProofStep(2, parse_formula("x : r0"), "Frobnicate", (1,)))),
     2, "schema-mismatch"),
    ("unknown-premise", _script(["x : r0 ; hyp", "x : r0 ; BotE 5"]),
     2, "unknown-premise"),
    ("arity", _script(["x : bot ; hyp", "x : r0 ; BotE 1,1"]),
     2, "wrong-arity"),
    ("discharges-nothing",
     _script(["x : bot ; hyp", "x : r0 ; BotE 1 discharge 1"]),
     2, "illegal-discharge"),
    ("discharge-later",
     _script(["x : r0 ; hyp", "x : r0 -> r0 ; ImpI 1 discharge 7"]),
     2, "illegal-discharge"),
    ("discharge-not-hyp",
     _script(["x : r0 ; hyp", "x U x ; Urefl",
              "x : r0 -> r0 ; ImpI 1 discharge 2"]),
     3, "illegal-discharge"),
    ("fresh-on-impi",
     _script(["x : r0 ; hyp", "x : r0 -> r0 ; ImpI 1 discharge 1 fresh y"]),
     2, "schema-mismatch"),
    ("conclusion", _script(["x U y ; hyp", "x U x ; Usymm 1"]),
     2, "schema-mismatch"),
    ("expansion",
     _script(["x M y ; hyp", "x : r0 ; hyp", "x : r0 & r0 ; AndI 1,2"]),
     3, "schema-mismatch"),
    ("wrong-discharge",
     _script(["x : r0 ; hyp", "x : r1 ; hyp",
              "x : r0 -> r0 ; ImpI 1 discharge 2"]),
     3, "illegal-discharge"),
    ("fresh-annotation",
     _script(["y : r0 ; hyp", "x : [] r0 ; BoxI 1 fresh z"]),
     2, "schema-mismatch"),
    ("fresh-differs", _script(["x : r0 ; hyp", "x : [] r0 ; BoxI 1"]),
     2, "freshness-violation"),
    ("fresh-in-conclusion",
     _script(["y : r0 ; hyp", "x M y ; hyp", "y : r0 ; Mser 1 discharge 2"]),
     3, "freshness-violation"),
    ("fresh-in-open", _script(["y : r0 ; hyp", "x : [] r0 ; BoxI 1"]),
     2, "freshness-violation"),
    ("impi-conclusion", _script(["x : bot ; hyp", "x : bot ; ImpI 1"]),
     2, "schema-mismatch"),
    ("impi-premise", _script(["x : r0 ; hyp", "x : r1 -> r1 ; ImpI 1"]),
     2, "schema-mismatch"),
    ("impe-major", _script(["x : r0 ; hyp", "x : r0 ; ImpE 1,1"]),
     2, "schema-mismatch"),
    ("impe-minor",
     _script(["x : r0 -> r1 ; hyp", "x : r1 ; hyp", "x : r1 ; ImpE 1,2"]),
     3, "schema-mismatch"),
    ("raa-conclusion", _script(["x : bot ; hyp", "x M x ; RAA 1"]),
     2, "schema-mismatch"),
    ("raa-premise", _script(["x : r0 ; hyp", "x : r1 ; RAA 1"]),
     2, "schema-mismatch"),
    ("bote-premise", _script(["x : r0 ; hyp", "x : r1 ; BotE 1"]),
     2, "schema-mismatch"),
    ("boxi-conclusion", _script(["y : r0 ; hyp", "x : r0 ; BoxI 1"]),
     2, "schema-mismatch"),
    ("boxi-premise", _script(["y : r1 ; hyp", "x : [] r0 ; BoxI 1"]),
     2, "schema-mismatch"),
    ("boxe-major",
     _script(["x : r0 ; hyp", "x U y ; hyp", "y : r0 ; BoxE 1,2"]),
     3, "schema-mismatch"),
    ("boxe-relational",
     _script(["x : [] r0 ; hyp", "y U x ; hyp", "y : r0 ; BoxE 1,2"]),
     3, "schema-mismatch"),
    ("urefl", _script(["x U y ; Urefl"]), 1, "schema-mismatch"),
    ("usymm-premise", _script(["x M y ; hyp", "y U x ; Usymm 1"]),
     2, "schema-mismatch"),
    ("utrans-premises",
     _script(["x M y ; hyp", "y U z ; hyp", "x U z ; Utrans 1,2"]),
     3, "schema-mismatch"),
    ("utrans-chain",
     _script(["x U y ; hyp", "z U w ; hyp", "x U z ; Utrans 1,2"]),
     3, "schema-mismatch"),
    ("uifromm-premise", _script(["x U y ; hyp", "x U y ; UIfromM 1"]),
     2, "schema-mismatch"),
    ("msrefl-premise", _script(["x U y ; hyp", "y M y ; Msrefl 1"]),
     2, "schema-mismatch"),
    ("msub-second",
     _script(["x : r0 ; hyp", "x M y ; hyp", "x M y ; hyp",
              "y : r0 ; Msub1 1,2,3"]),
     4, "schema-mismatch"),
    ("msub-third",
     _script(["x : r0 ; hyp", "x M x ; hyp", "y M x ; hyp",
              "y : r0 ; Msub1 1,2,3"]),
     4, "schema-mismatch"),
    ("mser-repeats", _script(["x : r0 ; hyp", "x : r1 ; Mser 1"]),
     2, "schema-mismatch"),
    ("mser-discharges", _script(["x : r0 ; hyp", "x : r0 ; Mser 1"]),
     2, "illegal-discharge"),
    ("mser-kind", _script(["x : r0 ; hyp", "x : r0 ; Mser 1 discharge 1"]),
     2, "illegal-discharge"),
    ("mser-one",
     _script(["x : r0 ; hyp", "x M x ; hyp", "x M y ; hyp",
              "x : r0 ; Mser 1 discharge 2,3"]),
     4, "illegal-discharge"),
    ("class-proper",
     _script(["x : r0 ; hyp", "x P x ; hyp", "x : r0 ; Class 1 discharge 2"],
             "MSPQR"),
     3, "illegal-discharge"),
    ("class-pair",
     _script(["x : r0 ; hyp", "x P y ; hyp", "z P z ; hyp",
              "x : r0 ; Class 1 discharge 2,3"], "MSPQR"),
     4, "illegal-discharge"),
]


def _diagnostic_sites():
    """The first and last line of each diag call in kernel.py, in source
    order."""
    tree = ast.parse(Path(kernel.__file__).read_text())
    return sorted(
        (node.lineno, node.end_lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "diag")


def test_one_script_per_diagnostic_site():
    assert len(_diagnostic_sites()) == len(DIAGNOSTIC_SITES) == 44


@pytest.mark.parametrize("index", range(len(DIAGNOSTIC_SITES)),
                         ids=[case[0] for case in DIAGNOSTIC_SITES])
def test_diagnostic_site_is_reached(monkeypatch, index):
    # each diagnostic is recorded with the kernel line that raised it
    raised = []
    diag = kernel._State.diag

    def recording_diag(state, step, reason, message):
        frame = sys._getframe(1)
        assert frame.f_code.co_filename == kernel.__file__
        raised.append((frame.f_lineno, step, reason))
        diag(state, step, reason, message)

    monkeypatch.setattr(kernel._State, "diag", recording_diag)
    _, script, step, reason = DIAGNOSTIC_SITES[index]
    first, last = _diagnostic_sites()[index]
    check(script)
    assert [(s, r) for line, s, r in raised if first <= line <= last] == [
        (step, reason)]


# -- freshness ---------------------------------------------------------------

def test_boxi_fresh_label_equal_to_subject():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r0 -> [] r0\n"
        "1. x : r0 ; hyp\n"
        "2. x U x ; hyp\n"
        "3. x : [] r0 ; BoxI 1 discharge 2 fresh x\n"
        "4. x : r0 -> [] r0 ; ImpI 3 discharge 1\n"
        "qed\n"))
    assert reasons(report) == {"freshness-violation"}


def test_mser_fresh_in_conclusion():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : y : r0 -> r0\n"
        "1. y : r0 ; hyp\n"
        "2. y : r0 -> r0 ; ImpI 1 discharge 1\n"
        "3. x M y ; hyp\n"
        "4. y : r0 -> r0 ; Mser 2 discharge 3 fresh y\n"
        "qed\n"))
    assert reasons(report) == {"freshness-violation"}


def test_fresh_annotation_must_match_instance():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : [M] r0 -> [M] r0\n"
        "1. x : [M] r0 ; hyp\n"
        "2. x M y ; hyp\n"
        "3. y : r0 ; BoxE 1,2\n"
        "4. x : [M] r0 ; BoxI 3 discharge 2 fresh z\n"
        "5. x : [M] r0 -> [M] r0 ; ImpI 4 discharge 1\n"
        "qed\n"))
    assert "schema-mismatch" in reasons(report)


def test_fresh_annotation_is_optional():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : [M] r0 -> [M] r0\n"
        "1. x : [M] r0 ; hyp\n"
        "2. x M y ; hyp\n"
        "3. y : r0 ; BoxE 1,2\n"
        "4. x : [M] r0 ; BoxI 3 discharge 2\n"
        "5. x : [M] r0 -> [M] r0 ; ImpI 4 discharge 1\n"
        "qed\n"))
    assert report.accepted


def test_mutated_fresh_labels_rejected_across_corpus():
    """Forcing the witness label to collide breaks every fresh-rule proof."""
    mutated = 0
    for entry in corpus_entries():
        if entry["expected"] != "accepted":
            continue
        script = load(entry["path"])
        for step in script.steps:
            if step.fresh is None:
                continue
            target = script.steps[-1].formula
            subject = getattr(target, "label", None) or "x"
            if step.fresh == subject:
                continue
            bad_steps = tuple(
                ProofStep(s.id, s.formula, s.rule, s.premises, s.discharges,
                          subject if s.id == step.id else s.fresh)
                for s in script.steps)
            bad = ProofScript(script.system, script.name, script.statement,
                              bad_steps)
            report = check(bad)
            assert not report.accepted, entry["name"]
            assert "schema-mismatch" in reasons(report) or \
                "freshness-violation" in reasons(report)
            mutated += 1
    assert mutated >= 10


# -- structural invariants ---------------------------------------------------

def test_id_relabelling_preserves_verdict():
    for rel_path in ("msqr/thm5.prf", "mspqr/thm3.prf", "msqr/thm4.prf"):
        script = load(rel_path)
        mapping = {s.id: 10 * s.id + 3 for s in script.steps}
        steps = tuple(
            ProofStep(mapping[s.id], s.formula, s.rule,
                      tuple(mapping[p] for p in s.premises),
                      tuple(mapping[d] for d in s.discharges), s.fresh)
            for s in script.steps)
        relabelled = ProofScript(script.system, script.name,
                                 script.statement, steps)
        assert check(relabelled).accepted == check(script).accepted


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        check(ProofScript(System.MSQR, "t", None, (
            ProofStep(1, parse_formula("x U x"), "Urefl"),
            ProofStep(1, parse_formula("x U x"), "Urefl"),
        )))


@pytest.mark.parametrize("steps, message", [
    ((), "a script needs at least one step"),
    ((ProofStep(0, parse_formula("x U x"), "Urefl"),),
     "step ids must be positive, got 0"),
], ids=["no-steps", "id-zero"])
def test_check_refuses_a_script_the_reader_cannot_make(steps, message):
    # parse_script never builds these; a library caller can
    with pytest.raises(ValueError) as exc:
        check(ProofScript(System.MSQR, "t", None, steps))
    assert str(exc.value) == message


def test_forward_premise_is_unknown():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : y U x\n"
        "1. y U x ; Usymm 2\n"
        "2. x U y ; hyp\n"
        "qed\n"))
    assert "unknown-premise" in reasons(report)


def test_statement_mismatch_is_schema_mismatch():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r1\n"
        "1. x U x ; Urefl\n"
        "qed\n"))
    assert "schema-mismatch" in reasons(report)


def test_bote_concludes_relational():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : y M z\n"
        "1. x : bot ; hyp\n"
        "2. y M z ; BotE 1\n"
        "qed\n"))
    assert reasons(report) == {"undischarged-at-theorem"}


# -- script parsing and printing ---------------------------------------------

def test_parse_script_errors():
    with pytest.raises(ParseError):
        parse_script("theorem t : x : r0\n1. x : r0 ; hyp\nqed\n")
    with pytest.raises(ParseError):
        parse_script("system MSQR\n1. x : r0 ; hyp\nqed\n")
    with pytest.raises(ParseError):
        parse_script("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n")
    with pytest.raises(ParseError):
        parse_script("system QRST\ntheorem t : x : r0\n1. x : r0 ; hyp\nqed\n")
    with pytest.raises(ParseError) as exc:
        parse_script("system MSQR\ntheorem t : x : r0\n"
                     "1. x : r0 ; hyp\n1. x : r0 ; hyp\nqed\n")
    assert "id" in str(exc.value)
    with pytest.raises(ParseError):
        parse_script("system MSQR\ntheorem t : x : r0\n"
                     "1. x : r0 ; hyp trailing\nqed\n")
    with pytest.raises(ParseError):
        parse_script("system MSQR\ntheorem t : x : r0\n"
                     "1. x : r0 ; NotARule 1\nqed\n")


@pytest.mark.parametrize("line, message", [
    ("\u00b2. x : r0 ; hyp", "expected '<id>. <formula> ; <justification>'"),
    ("\u0661. x : r0 ; hyp", "expected '<id>. <formula> ; <justification>'"),
    ("2. x : r0 ; ImpI 1 discharge \u00b2", "bad discharge id '\u00b2'"),
    ("2. x : r0 ; BoxE 1,\u0661", "bad premise id '\u0661'"),
    ("2. x : r0 ; BoxE 1,1\u0662", "bad premise id '1\u0662'"),
    ("2. x : r0 ; ImpE 1 2", "premise ids must be separated by commas"),
    ("2. x : r0 ; Msub1 1,1 1", "premise ids must be separated by commas"),
    ("2. x : r0 -> r0 ; ImpI 1 discharge 1 2",
     "discharge ids must be separated by commas"),
])
def test_step_ids_are_ascii_digits(line, message):
    # str.isdigit() accepts the first five, and int() reads some of them;
    # the last three were once read as the single id 12 or 11
    with pytest.raises(ParseError) as exc:
        parse_script("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
                     "%s\nqed\n" % line)
    if message.startswith("expected"):
        col = 1  # the step id
    elif message.startswith("bad"):  # the bad piece of the id list
        col = line.rindex(message.split("'")[1]) + 1
    else:  # the id list, after the rule or "discharge"
        word = ("discharge" if "discharge" in message
                else line.partition(";")[2].split()[0])
        col = line.index(word) + len(word) + 2
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (message, 4, col)


def test_step_id_zero_is_refused_at_the_id():
    with pytest.raises(ParseError) as exc:
        parse_script("system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
                     "  0. x : r0 ; hyp\nqed\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        ("step ids are positive", 4, 3)


def test_blanks_beside_commas_are_accepted():
    script = parse_script(
        "system MSQR\ntheorem t : x : r0\n1. x : r0 -> r0 ; hyp\n"
        "2. x : r0 ; hyp\n3. x : r0 ; ImpE 1 , 2\n"
        "4. x : r0 -> r0 ; ImpI 3 discharge 2, 2\nqed\n")
    assert [(s.premises, s.discharges) for s in script.steps[2:]] == \
        [((1, 2), ()), ((3,), (2, 2))]


@pytest.mark.parametrize("text, formula, where, line, col", [
    ("theorem t : x : p & &\n1. x : p ; hyp\n", " x : p & &",
     "in theorem statement", 2, 21),
    ("theorem t : x : p\n\n12. x : p & & ; hyp\n", " x : p & & ",
     "in step 12", 4, 13),
    ("theorem t : x : p\n   12. x : p & & ; hyp # note\n", " x : p & & ",
     "in step 12", 3, 16),
    ("\ttheorem t:x : p & &\n1. x : p ; hyp\n", "x : p & &",
     "in theorem statement", 2, 20),
])
def test_formula_errors_report_the_column_on_the_line(text, formula, where,
                                                      line, col):
    with pytest.raises(ParseError) as exc:
        parse_script("system MSQR\n" + text + "qed\n")
    with pytest.raises(ParseError) as inner:
        parse_formula(formula)
    e, f = exc.value, inner.value
    assert (e.line, e.col) == (line, col)
    assert (e.message, e.expected, e.reason) == \
        ("%s: %s" % (where, f.message), f.expected, f.reason)


def test_parse_script_reports_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_script("system MSQR\ntheorem t : x : r0\n"
                     "1. x : r0 ; hyp\n2. x r0 ; hyp\nqed\n")
    assert exc.value.line == 4


def test_print_script_fixpoint_over_corpus():
    for entry in corpus_entries():
        script = load(entry["path"])
        once = print_script(script)
        assert print_script(parse_script(once)) == once


def test_mixed_system_vocabulary_flagged_not_crashed():
    report = check(parse_script(
        "system MSQR\n"
        "theorem t : x : r0\n"
        "1. x P y ; hyp\n"
        "2. x : r0 ; hyp\n"
        "qed\n"))
    assert "wrong-system" in reasons(report)


def test_relational_statement_scripts():
    script = parse_script(
        "system MSQR\n"
        "theorem refl : x U x\n"
        "1. x U x ; Urefl\n"
        "qed\n")
    report = check(script)
    assert report.accepted
    assert script.statement == Relational("x", Rel.U, "x")


# -- soundness fuzzer --------------------------------------------------------

REASON_CODES = frozenset((
    "wrong-arity", "schema-mismatch", "illegal-discharge",
    "freshness-violation", "undischarged-at-theorem", "wrong-system",
    "unknown-premise",
))
MUTATIONS = ("swap-premises", "retarget-premise", "drop-discharge",
             "add-discharge", "rename-label", "swap-rule")


@st.composite
def corpus_mutants(draw):
    """A corpus script with one to three steps mutated, and the system
    to check it under (None keeps the header)."""
    entry = draw(st.sampled_from(corpus_entries()))
    script = load(entry["path"])
    steps = list(script.steps)
    ids = [s.id for s in steps] + [max(s.id for s in steps) + 1]
    labels = sorted(set().union(*(labels_in(s.formula) for s in steps))
                    | {"v9"})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(steps) - 1))
        s = steps[i]
        premises, discharges = s.premises, s.discharges
        formula, rule = s.formula, s.rule
        kind = draw(st.sampled_from([
            m for m in MUTATIONS
            if not (m == "swap-premises" and len(set(premises)) < 2
                    or m == "retarget-premise" and not premises
                    or m == "drop-discharge" and not discharges)]))
        if kind == "swap-premises":
            premises = tuple(draw(st.permutations(premises)))
        elif kind == "retarget-premise":
            j = draw(st.integers(0, len(premises) - 1))
            premises = (premises[:j] + (draw(st.sampled_from(ids)),)
                        + premises[j + 1:])
        elif kind == "drop-discharge":
            j = draw(st.integers(0, len(discharges) - 1))
            discharges = discharges[:j] + discharges[j + 1:]
        elif kind == "add-discharge":
            discharges = discharges + (draw(st.sampled_from(ids)),)
        elif kind == "rename-label":
            frm = draw(st.sampled_from(sorted(labels_in(formula))))
            formula = substitute(formula, frm, draw(st.sampled_from(labels)))
        else:
            rule = draw(st.sampled_from(sorted(ALL_RULES)))
        steps[i] = ProofStep(s.id, formula, rule, premises, discharges,
                             s.fresh)
    system = draw(st.sampled_from([None, System.MSQR, System.MSPQR]))
    return ProofScript(script.system, script.name, script.statement,
                       tuple(steps)), system


@given(corpus_mutants())
@settings(max_examples=200, deadline=None)
def test_mutants_are_reported_or_sound(case):
    script, system = case
    report = check(script, system)
    assert reasons(report) <= REASON_CODES
    # without its statement a script is accepted when every step is;
    # each step's formula must then hold wherever its open assumptions
    # do.  An accepted mutant is the case whose final step has none.
    bare = ProofScript(script.system, script.name, None, script.steps)
    steps_ok = check(bare, system)
    assert steps_ok.accepted or not report.accepted
    if steps_ok.accepted:
        assert_sound_at_every_step(script, system or script.system,
                                   steps_ok)
