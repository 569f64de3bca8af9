"""End-to-end acceptance checks.

Each test prints one verdict line of the form

    criterion N: PASS - <what was established>

with output capture suspended so the verdicts appear in the test log,
then asserts the same condition.
"""

import itertools
import json
import random
import time
from importlib import resources

import pytest

from qrmodal.kernel import check, parse_script
from qrmodal.script import print_script
from qrmodal.search import (
    Found, NotFoundWithin, SearchBudget, enumerate_frames,
    find_countermodel, random_valid_frame,
)
from qrmodal.semantics import (
    Frame, Model, Structure, evaluate, holds, parse_structure,
    print_structure, validate_frame,
)
from qrmodal.syntax import (
    Bottom, Box, Implies, Labelled, Prop, Rel, Relational, System,
    conj, diamond, disj, iff, labels_in, neg, parse_formula,
    print_formula,
)
from test_search import nested_loop, props_walk

CORPUS = resources.files("qrmodal") / "corpus"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text())["entries"]
SYSTEMS = {"msqr": System.MSQR, "mspqr": System.MSPQR}


@pytest.fixture
def verdict(capsys):
    def emit(n, ok, desc):
        line = "criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", desc)
        with capsys.disabled():
            print(line)
        assert ok, line
    return emit


def _load(rel_path):
    return parse_script((CORPUS / rel_path).read_text())


def _entry(name):
    return next(e for e in MANIFEST if e["name"] == name)


def _subsets(props):
    out = []
    for k in range(len(props) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(props, k))
    return tuple(out)


def _structures(system, formulas, max_worlds=3):
    """Every valid structure over the formulas' propositions and labels."""
    props = sorted(set().union(*map(props_walk, formulas)))
    labels = sorted(set().union(*(labels_in(f) for f in formulas)))
    choices = _subsets(props)
    for size in range(1, max_worlds + 1):
        for frame in enumerate_frames(system, size):
            for val in itertools.product(choices, repeat=size):
                model = Model(frame, dict(enumerate(val)))
                for combo in itertools.product(range(size), repeat=len(labels)):
                    yield Structure(model, dict(zip(labels, combo)))


# -- criterion 1: corpus completeness ----------------------------------------

SCHEMATA = tuple("msqr/thm%d.prf" % i for i in range(1, 7)) \
    + tuple("mspqr/thm%d.prf" % i for i in range(1, 4))


def test_criterion_1_corpus_completeness(verdict):
    start = time.perf_counter()
    ok = True
    for rel_path in SCHEMATA:
        script = _load(rel_path)
        report = check(script)
        ok = ok and report.accepted and not report.open_assumptions
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(1, ok, "all 9 schema proofs accepted with no open "
                    "assumptions in %.3fs" % elapsed)


# -- criterion 2: desk-scale soundness ---------------------------------------

def test_criterion_2_desk_soundness(verdict):
    start = time.perf_counter()
    failures = []
    structures = 0
    for entry in MANIFEST:
        if entry["expected"] != "accepted":
            continue
        system = SYSTEMS[entry["system"]]
        statement = parse_formula(entry["statement"], system)
        assert check(_load(entry["path"]), system).accepted
        for structure in _structures(system, [statement]):
            structures += 1
            if not holds(structure, statement):
                failures.append((entry["name"], structure))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0 and structures > 0
    verdict(2, ok, "22 accepted theorems hold in all %d structures on "
                    "valid frames with <= 3 worlds in %.1fs"
                    % (structures, elapsed))


# -- criterion 3: per-rule soundness -----------------------------------------

def _msqr_instances():
    f = parse_formula
    pool = ("r0", "r1", "~ r0", "[M] r0")
    out = []
    for a in pool:
        out.append(("hyp", [f("x : %s" % a)], f("x : %s" % a)))
        out.append(("BotE", [f("x : bot")], f("y : %s" % a)))
        for b in pool:
            out.append(("ImpE", [f("x : (%s) -> (%s)" % (a, b)),
                                 f("x : %s" % a)], f("x : %s" % b)))
        out.append(("BoxE", [f("x : [] %s" % a), f("x U y")], f("y : %s" % a)))
        out.append(("BoxE", [f("x : [M] %s" % a), f("x M y")], f("y : %s" % a)))
    out.append(("BotE", [f("x : bot")], f("y U z")))
    out.append(("BotE", [f("x : bot")], f("y M z")))
    out.append(("Urefl", [], f("x U x")))
    out.append(("Usymm", [f("x U y")], f("y U x")))
    out.append(("Utrans", [f("x U y"), f("y U z")], f("x U z")))
    out.append(("UIfromM", [f("x M y")], f("x U y")))
    out.append(("Msrefl", [f("x M y")], f("y M y")))
    for alpha, image in (("x : r0", "y : r0"), ("x : [M] r1", "y : [M] r1"),
                         ("x U z", "y U z"), ("z U x", "z U y"),
                         ("x M z", "y M z"), ("z M x", "z M y"),
                         ("x U x", "y U y"), ("x M x", "y M y")):
        side = [f("x M x"), f("x M y")]
        out.append(("Msub1", [f(alpha)] + side, f(image)))
        out.append(("Msub2", [f(image)] + side, f(alpha)))
    return out


def _mspqr_instances():
    f = parse_formula
    pool = ("r0", "r1", "~ r0", "[P] r0")
    out = []
    for a in pool:
        out.append(("BoxE", [f("x : [P] %s" % a), f("x P y")], f("y : %s" % a)))
    out.append(("PUI", [f("x P y")], f("x U y")))
    out.append(("Ptrans", [f("x P y"), f("y P z")], f("x P z")))
    for alpha, image in (("x : r0", "y : r0"), ("x P z", "y P z"),
                         ("z P x", "z P y"), ("x U z", "y U z")):
        side = [f("x P x"), f("x P y")]
        out.append(("Psub1", [f(alpha)] + side, f(image)))
        out.append(("Psub2", [f(image)] + side, f(alpha)))
    return out


def test_criterion_3_per_rule_soundness(verdict):
    failures = []
    checked = 0
    for system, instances in ((System.MSQR, _msqr_instances()),
                              (System.MSPQR, _mspqr_instances())):
        for rule, premises, conclusion in instances:
            for s in _structures(system, premises + [conclusion]):
                checked += 1
                if all(holds(s, p) for p in premises) \
                        and not holds(s, conclusion):
                    failures.append((system, rule, s))
    # discharge rules, stated as entailment implications
    f = parse_formula
    for a, b in itertools.product(("r0", "r1", "~ r0", "[M] r0"), repeat=2):
        xa, xb = f("x : %s" % a), f("x : %s" % b)
        xab = f("x : (%s) -> (%s)" % (a, b))
        for s in _structures(System.MSQR, [xa, xb, xab]):
            checked += 1
            if (not holds(s, xa) or holds(s, xb)) and not holds(s, xab):
                failures.append((System.MSQR, "ImpI", s))
    for a in ("r0", "r1", "~ r0", "[M] r0"):
        na, xa, ybot = f("x : ~ (%s)" % a), f("x : %s" % a), f("y : bot")
        for s in _structures(System.MSQR, [na, xa, ybot]):
            checked += 1
            if (not holds(s, na) or holds(s, ybot)) and not holds(s, xa):
                failures.append((System.MSQR, "RAA", s))
    ok = not failures and checked > 0
    verdict(3, ok, "every freshness-free rule is locally sound across "
                    "%d structure checks" % checked)


# -- criterion 4: refutation -------------------------------------------------

def test_criterion_4_refutation(verdict):
    ok = True
    notes = []
    for text in ("x : r0 -> [] r0", "x : r0 -> [M] r0"):
        alpha = parse_formula(text, System.MSQR)
        at_one = find_countermodel(System.MSQR, [], alpha,
                                   SearchBudget(max_worlds=1))
        ok = ok and isinstance(at_one, NotFoundWithin)
        # independent one-world oracle: the only valid frame is forced
        solo = Frame(System.MSQR, 1, (0b1,), (0b1,))
        for val in ({0: set()}, {0: {"r0"}}):
            structure = Structure(Model(solo, val), {"x": 0})
            ok = ok and holds(structure, alpha)
        at_two = find_countermodel(System.MSQR, [], alpha,
                                   SearchBudget(max_worlds=2))
        ok = ok and isinstance(at_two, Found)
        if isinstance(at_two, Found):
            emitted = print_structure(at_two.structure)
            reread = parse_structure(emitted)  # re-validates the frame
            ok = ok and reread.model.frame.size == 2
            ok = ok and not validate_frame(reread.model.frame)
            ok = ok and not holds(reread, alpha)
            notes.append("%s at 2 worlds" % text)
    verdict(4, ok, "countermodels found, none at 1 world, emitted "
                    "structures re-validate and refute (%s)"
                    % "; ".join(notes))


# -- criterion 5: frame-property correspondence ------------------------------

def test_criterion_5_correspondence(verdict):
    cases = (
        (System.MSQR, "not-shift-reflexive", "x : [M](r0 <-> [M] r0)"),
        (System.MSQR, "not-serial", "x : [M] r0 -> <M> r0"),
        (System.MSPQR, "no-classical-reachable", "x : <P>(r0 -> [P] r0)"),
    )
    ok = True
    for system, dropped, text in cases:
        alpha = parse_formula(text, system)
        full = find_countermodel(system, [], alpha, SearchBudget(max_worlds=3))
        ok = ok and isinstance(full, NotFoundWithin)
        relaxed = nested_loop(system, [], alpha, 3, (dropped,))
        ok = ok and isinstance(relaxed, Found)
        if isinstance(relaxed, Found):
            frame = relaxed.structure.model.frame
            ok = ok and frame.size <= 3
            ok = ok and not holds(relaxed.structure, alpha)
            ok = ok and {v.prop for v in validate_frame(frame)} == {dropped}
    verdict(5, ok, "each frame condition is exactly what blocks its "
                    "characteristic schema (3 refutations in relaxed frame "
                    "classes, found by the test sweep)")


# -- criterion 6: negative-proof suite ---------------------------------------

REQUIRED_NEGATIVES = (
    "neg-unknown-premise", "neg-impe-minor", "neg-boxi-fresh",
    "neg-mser-fresh", "neg-class-fresh", "neg-undischarged",
    "neg-wrong-system",
)


def test_criterion_6_negative_suite(verdict):
    ok = True
    count = 0
    for entry in MANIFEST:
        if entry["expected"] != "rejected":
            continue
        count += 1
        report = check(_load(entry["path"]))
        reasons = {d.reason for d in report.diagnostics}
        ok = ok and not report.accepted and entry["reason"] in reasons
    ok = ok and count >= 6
    ok = ok and all(any(e["name"] == n for e in MANIFEST)
                    for n in REQUIRED_NEGATIVES)
    verdict(6, ok, "%d broken scripts each rejected with the expected "
                    "reason code" % count)


# -- criterion 7: generator validity -----------------------------------------

def test_criterion_7_generator_validity(verdict):
    ok = True
    for system in (System.MSQR, System.MSPQR):
        frames = []
        for seed in range(10_000):
            frame = random_valid_frame(system, 3, seed)
            if validate_frame(frame):
                ok = False
            frames.append(frame)
        again = [random_valid_frame(system, 3, seed)
                 for seed in range(10_000)]
        ok = ok and frames == again
    verdict(7, ok, "10^4 seeded random frames per system all valid and "
                    "reproducible")


# -- criterion 8: round-trip -------------------------------------------------

def _random_mformula(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice((Bottom(), Prop("r0"), Prop("r1"), Prop("r2")))
    pick = rng.randrange(8)
    a = _random_mformula(rng, depth - 1)
    if pick == 0:
        return Box(rng.choice(tuple(Rel)), a)
    if pick == 1:
        return diamond(rng.choice(tuple(Rel)), a)
    if pick == 2:
        return neg(a)
    b = _random_mformula(rng, depth - 1)
    if pick == 3:
        return conj(a, b)
    if pick == 4:
        return disj(a, b)
    if pick == 5:
        return iff(a, b)
    return Implies(a, b)


def _random_formula(rng):
    if rng.random() < 0.15:
        return Relational(rng.choice("xyz"), rng.choice(tuple(Rel)),
                          rng.choice("xyz"))
    return Labelled(rng.choice("xyz"), _random_mformula(rng, rng.randrange(1, 6)))


def test_criterion_8_round_trip(verdict):
    rng = random.Random(2026)
    ok = True
    for _ in range(1_000):
        f = _random_formula(rng)
        once = print_formula(f)
        ok = ok and parse_formula(once) == f
        ok = ok and print_formula(parse_formula(once)) == once
    scripts = 0
    for entry in MANIFEST:
        script = _load(entry["path"])
        once = print_script(script)
        ok = ok and print_script(parse_script(once)) == once
        scripts += 1
    ok = ok and scripts >= 20
    verdict(8, ok, "10^3 generated formulas and %d corpus scripts "
                    "survive print->parse->print byte-identically" % scripts)
