import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from qrmodal import kernel, syntax
from qrmodal.derived import expand_derived
from qrmodal.kernel import (
    ALL_RULES,
    DERIVED,
    KernelError,
    ProofScript,
    ProofStep,
    check,
    open_assumptions,
    parse_script,
    print_script,
    rules_of,
)
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
    assert open_assumptions(script, final) == frozenset()


def test_open_assumptions_lone_hypothesis():
    script = parse_script(
        "system MSQR\n"
        "theorem t : x M y\n"
        "1. x M y ; hyp\n"
        "qed\n")
    assert open_assumptions(script, 1) == {parse_formula("x M y")}


def test_open_assumptions_boxe_over_urefl():
    script = parse_script(
        "system MSQR\n"
        "theorem t : x : r0\n"
        "1. x : [] r0 ; hyp\n"
        "2. x U x ; Urefl\n"
        "3. x : r0 ; BoxE 1,2\n"
        "qed\n")
    assert open_assumptions(script, 3) == {parse_formula("x : [] r0")}
    assert open_assumptions(script, 2) == frozenset()
    with pytest.raises(KernelError):
        open_assumptions(script, 9)


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
            assert open_assumptions(script, step.id) == \
                {formulas[h] for h in want[step.id]}, (entry["name"], step.id)
    # open_assumptions checks the whole script on each call, so the
    # chain's 1,002 steps are read from the report of a single check
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
            elif s.rule not in kernel._DISCHARGING and hyps:
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
        open_assumptions(script, 6)
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
    ("x U x ; NegI 1", "NegI conclusion must be a labelled formula, "
     "got x U x"),
])
def test_expansion_failure_is_a_schema_mismatch(line, message):
    report = check(parse_script(
        "system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\n"
        "3. x U x ; hyp\n4. %s\n5. x : r0 ; hyp\nqed\n" % line))
    assert [(d.step, d.reason, d.message) for d in report.diagnostics
            if d.step == 4] == [(4, "schema-mismatch", message)]


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


# -- derived rule expansion --------------------------------------------------

def test_expand_mtrans_three_steps():
    step = ProofStep(5, parse_formula("x M z"), "Mtrans", premises=(1, 2))
    out = expand_derived(step, {1: parse_formula("x M y"),
                                2: parse_formula("y M z")}, 6)
    assert len(out) == 3
    assert out[-1].id == 5
    assert out[-1].rule == "Msub1"
    assert out[-1].formula == parse_formula("x M z")
    rules = [s.rule for s in out]
    assert rules.count("Msrefl") == 2


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
    out = expand_derived(step, {1: parse_formula("x : r0 -> r1"),
                                2: parse_formula("x : r1 -> r0")}, 10)
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

def _accepted_modulo_open(script_text):
    """Check a fragment; only the final open-assumption diagnostic may fire."""
    report = check(parse_script(script_text))
    return reasons(report) <= {"undischarged-at-theorem"}


def test_msub2_unit():
    assert _accepted_modulo_open(
        "system MSQR\n"
        "theorem t : x : r0\n"
        "1. y : r0 ; hyp\n"
        "2. x M x ; hyp\n"
        "3. x M y ; hyp\n"
        "4. x : r0 ; Msub2 1,2,3\n"
        "qed\n")


def test_msub1_substitutes_relational_operand():
    assert _accepted_modulo_open(
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
    assert _accepted_modulo_open(
        "system MSPQR\n"
        "theorem t : y : r0\n"
        "1. x : r0 ; hyp\n"
        "2. x P x ; hyp\n"
        "3. x P y ; hyp\n"
        "4. y : r0 ; Psub1 1,2,3\n"
        "qed\n")
    assert _accepted_modulo_open(
        "system MSPQR\n"
        "theorem t : x : r0\n"
        "1. y : r0 ; hyp\n"
        "2. x P x ; hyp\n"
        "3. x P y ; hyp\n"
        "4. x : r0 ; Psub2 1,2,3\n"
        "qed\n")


def test_relation_rule_units():
    assert _accepted_modulo_open(
        "system MSQR\n"
        "theorem t : y U x\n"
        "1. x U y ; hyp\n"
        "2. y U x ; Usymm 1\n"
        "qed\n")
    assert _accepted_modulo_open(
        "system MSQR\n"
        "theorem t : x U z\n"
        "1. x U y ; hyp\n"
        "2. y U z ; hyp\n"
        "3. x U z ; Utrans 1,2\n"
        "qed\n")
    assert _accepted_modulo_open(
        "system MSQR\n"
        "theorem t : x U y\n"
        "1. x M y ; hyp\n"
        "2. x U y ; UIfromM 1\n"
        "qed\n")
    assert _accepted_modulo_open(
        "system MSPQR\n"
        "theorem t : x U y\n"
        "1. x P y ; hyp\n"
        "2. x U y ; PUI 1\n"
        "qed\n")
    assert _accepted_modulo_open(
        "system MSPQR\n"
        "theorem t : x P z\n"
        "1. x P y ; hyp\n"
        "2. y P z ; hyp\n"
        "3. x P z ; Ptrans 1,2\n"
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
    # without its statement a script is accepted when every step is; the
    # final formula must then hold wherever its open assumptions do.  An
    # accepted mutant is the case with no open assumptions.
    bare = ProofScript(script.system, script.name, None, script.steps)
    steps_ok = check(bare, system)
    assert steps_ok.accepted or not report.accepted
    if steps_ok.accepted:
        gamma = sorted(steps_ok.open_assumptions, key=print_formula)
        result = find_countermodel(system or script.system, gamma,
                                   script.steps[-1].formula,
                                   SearchBudget(max_worlds=3))
        assert not isinstance(result, Found), print_script(script)
