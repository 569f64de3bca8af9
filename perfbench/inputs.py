"""Seeded input generation for the three workloads.

Nothing here imports qrmodal.  Every generated proof is correct by
construction or broken in one known way, every search query is a
corpus theorem (or a uniform substitution instance of one) or a
hand-written non-theorem, and every model or frame answer comes from
oracle.py.  The seed changes names, instances and order, not the cost
structure of a workload, so runs with different seeds stay comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

# frames per size 1..4, pinned by qrmodal's tests
FRAME_SENTINELS = {"MSQR": (1, 4, 23, 185), "MSPQR": (1, 4, 29, 341)}
MEAS = {"MSQR": "M", "MSPQR": "P"}
SYSTEMS = ("MSQR", "MSPQR")

# nesting depths for the deep-statement tail; in qrmodal 0.1.0
# parentheses from 250 and "~" from 500 end in RecursionError
NEST_DEPTHS = (125, 250, 500, 1000, 2000)
# hypotheses per Utrans chain; a chain of n has 5n + 2 steps
CHAIN_SIZES = (100, 200, 400, 800, 1600)

MUTATION_REASONS = (
    "undischarged-at-theorem", "unknown-premise", "wrong-arity",
    "schema-mismatch", "freshness-violation", "wrong-system",
    "illegal-discharge",
)

# non-theorems with a countermodel of at most 3 worlds
REFUTABLE = (
    ("MSQR", (), "x : p -> [] p"),
    ("MSQR", (), "x : p -> [M] p"),
    ("MSQR", (), "x : [M] p -> [] p"),
    ("MSQR", (), "x : <> p -> p"),
    ("MSQR", (), "x : [M] p -> p"),
    ("MSQR", (), "x : p -> <M> p"),
    ("MSQR", (), "x : <M> p -> [M] p"),
    ("MSQR", (), "x : [M](p | q) -> [M] p | [M] q"),
    ("MSQR", ("x M y",), "x M x"),
    ("MSQR", ("x U y",), "x M y"),
    ("MSQR", ("x : p",), "y : p"),
    ("MSQR", ("x : [] p",), "x : [M] q"),
    ("MSPQR", (), "x : [P] p -> p"),
    ("MSPQR", (), "x : p -> [P] p"),
    ("MSPQR", (), "x : <P> p -> [P] p"),
    ("MSPQR", (), "x : [P] p -> [] p"),
    ("MSPQR", ("x P y",), "y P x"),
    ("MSPQR", (), "x : <> p -> <P> p"),
    ("MSPQR", ("x U y", "y : p"), "x : <P> p"),
    ("MSPQR", ("x : <P> p",), "x : p"),
)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random("%d:%s" % (seed, name))


def _label(rng: random.Random, taken: set) -> str:
    while True:
        name = "%s%03d" % (rng.choice("abcdefghkmnvwxyz"), rng.randrange(1000))
        if name not in taken:
            taken.add(name)
            return name


def _props(rng: random.Random, k: int) -> list[str]:
    taken: set = set()
    return [_prop(rng, taken) for _ in range(k)]


def _prop(rng: random.Random, taken: set) -> str:
    while True:
        name = "%s%03d" % (rng.choice("pqrst"), rng.randrange(1000))
        if name not in taken:
            taken.add(name)
            return name


def fingerprint(data) -> bytes:
    """Canonical bytes of generated inputs, for the determinism check."""
    return json.dumps(data, sort_keys=True).encode()


def load_corpus(root: Path) -> list[dict]:
    base = root / "src" / "qrmodal" / "corpus"
    entries = json.loads((base / "manifest.json").read_text())["entries"]
    for e in entries:
        e["text"] = (base / e["path"]).read_text()
    return entries


# ---------------------------------------------------------------------------
# proof scripts

class _Proof:
    def __init__(self, system: str):
        self.system = system
        self.steps: list[list] = []

    def add(self, stmt: str, rule: str, prem=(), dis=(), fresh=None) -> int:
        sid = len(self.steps) + 1
        self.steps.append([sid, stmt, rule, list(prem), list(dis), fresh])
        return sid

    def script(self, kind: str, expect="accepted", reason=None) -> dict:
        return {"kind": kind, "system": self.system, "steps": self.steps,
                "statement": self.steps[-1][1], "expect": expect,
                "reason": reason}


def script_text(p: dict) -> str:
    lines = ["system " + p["system"],
             "theorem t%d : %s" % (len(p["steps"]), p["statement"])]
    for sid, stmt, rule, prem, dis, fresh in p["steps"]:
        just = rule
        if prem:
            just += " " + ",".join(map(str, prem))
        if dis:
            just += " discharge " + ",".join(map(str, dis))
        if fresh:
            just += " fresh " + fresh
        lines.append("%d. %s ; %s" % (sid, stmt, just))
    lines.append("qed")
    return "\n".join(lines) + "\n"


def _lab(x: str, a) -> str:
    return oracle.render_statement(("lab", x, a))


def _conj(parts):
    acc = parts[0]
    for a in parts[1:]:
        acc = ("and", acc, a)
    return acc


def _atom(rng, props, system, j):
    """The j-th small formula of a proof; its shape cycles with j, so the
    size of a generated proof does not depend on the seed."""
    p, q = rng.sample(props, 2)
    return [
        ("prop", p), ("not", ("prop", p)), ("box", "U", ("prop", p)),
        ("box", MEAS[system], ("prop", p)), ("imp", ("prop", p), ("prop", q)),
    ][j % 5]


def _and_intro(pr: _Proof, x: str, parts, ids) -> int:
    """Conjoin proved x : parts[i] (step ids[i]) left to right."""
    acc_id = ids[0]
    for i in range(1, len(parts)):
        acc_id = pr.add(_lab(x, _conj(parts[:i + 1])), "AndI",
                        (acc_id, ids[i]))
    return acc_id


def derived_proof(rng, system: str, k: int) -> dict:
    """x : (A1<->B1) & ... & (Ak<->Bk) -> (Bs1<->As1) & ... permuted."""
    props = _props(rng, 6)
    x = _label(rng, set())
    pairs = [(_atom(rng, props, system, 2 * j),
              _atom(rng, props, system, 2 * j + 1)) for j in range(k)]
    iffs = [("iff", a, b) for a, b in pairs]
    swapped = [("iff", b, a) for a, b in pairs]
    order = list(range(k))
    rng.shuffle(order)
    pr = _Proof(system)
    cur = pr.add(_lab(x, _conj(iffs)), "hyp")
    have = {}
    for j in range(k - 1, 0, -1):
        have[j] = pr.add(_lab(x, iffs[j]), "AndE2", (cur,))
        cur = pr.add(_lab(x, _conj(iffs[:j])), "AndE1", (cur,))
    have[0] = cur
    done = {}
    for j, (a, b) in enumerate(pairs):
        fwd = pr.add(_lab(x, ("imp", a, b)), "IffE1", (have[j],))
        back = pr.add(_lab(x, ("imp", b, a)), "IffE2", (have[j],))
        done[j] = pr.add(_lab(x, swapped[j]), "IffI", (back, fwd))
    goal = [swapped[j] for j in order]
    last = _and_intro(pr, x, goal, [done[j] for j in order])
    pr.add(_lab(x, ("imp", _conj(iffs), _conj(goal))), "ImpI", (last,), (1,))
    return pr.script("derived")


def boxi_proof(rng, system: str, k: int) -> dict:
    """x : []A1 -> ... -> []Ak -> [](A1 & ... & Ak), BoxI under k hyps."""
    props = _props(rng, 6)
    taken: set = set()
    x, y = _label(rng, taken), _label(rng, taken)
    parts = [_atom(rng, props, system, j) for j in range(k)]
    pr = _Proof(system)
    hyps = [pr.add(_lab(x, ("box", "U", a)), "hyp") for a in parts]
    rel = pr.add("%s U %s" % (x, y), "hyp")
    got = [pr.add(_lab(y, a), "BoxE", (h, rel)) for h, a in zip(hyps, parts)]
    body = _and_intro(pr, y, parts, got)
    goal = ("box", "U", _conj(parts))
    cur = pr.add(_lab(x, goal), "BoxI", (body,), (rel,), y)
    for i in range(k - 1, -1, -1):
        goal = ("imp", ("box", "U", parts[i]), goal)
        cur = pr.add(_lab(x, goal), "ImpI", (cur,), (hyps[i],))
    return pr.script("boxi")


def seriality_proof(rng, system: str, k: int) -> dict:
    """x : [R]A1 -> ... -> [R]Ak -> <R>(A1 & ... & Ak), closed by Mser
    (MSQR) or Class (MSpQR) under k open hypotheses."""
    r = MEAS[system]
    props = _props(rng, 6)
    taken: set = set()
    x, y = _label(rng, taken), _label(rng, taken)
    parts = [_atom(rng, props, system, j) for j in range(k)]
    c = _conj(parts)
    pr = _Proof(system)
    hyps = [pr.add(_lab(x, ("box", r, a)), "hyp") for a in parts]
    neg = pr.add(_lab(x, ("box", r, ("not", c))), "hyp")
    rel = [pr.add("%s %s %s" % (x, r, y), "hyp")]
    if system == "MSPQR":
        rel.append(pr.add("%s P %s" % (y, y), "hyp"))
    got = [pr.add(_lab(y, a), "BoxE", (h, rel[0]))
           for h, a in zip(hyps, parts)]
    conj = _and_intro(pr, y, parts, got)
    notc = pr.add(_lab(y, ("not", c)), "BoxE", (neg, rel[0]))
    bot = pr.add(_lab(y, ("bot",)), "ImpE", (notc, conj))
    bot = pr.add(_lab(x, ("bot",)), "BotE", (bot,))
    bot = pr.add(_lab(x, ("bot",)), "Mser" if r == "M" else "Class",
                 (bot,), rel, y)
    goal = ("dia", r, c)
    cur = pr.add(_lab(x, goal), "ImpI", (bot,), (neg,))
    for i in range(k - 1, -1, -1):
        goal = ("imp", ("box", r, parts[i]), goal)
        cur = pr.add(_lab(x, goal), "ImpI", (cur,), (hyps[i],))
    return pr.script("seriality")


def chain_proof(rng, n: int) -> dict:
    """x0 : [] bot -> bot through a Utrans chain of n open hypotheses,
    closed again by n BoxI steps; 5n + 2 steps in all."""
    system = rng.choice(SYSTEMS)
    stem = rng.choice("abcdefghk")
    w = ["%s%d" % (stem, i) for i in range(n + 1)]
    pr = _Proof(system)
    top = pr.add("%s : [] bot" % w[0], "hyp")
    hyp = [pr.add("%s U %s" % (w[i], w[i + 1]), "hyp") for i in range(n)]
    cur = hyp[0]
    for i in range(1, n):
        cur = pr.add("%s U %s" % (w[0], w[i + 1]), "Utrans", (cur, hyp[i]))
    cur = pr.add("%s : bot" % w[n], "BoxE", (top, cur))
    for i in range(n - 1, -1, -1):
        box = pr.add("%s : [] bot" % w[i], "BoxI", (cur,), (hyp[i],), w[i + 1])
        refl = pr.add("%s U %s" % (w[i], w[i]), "Urefl")
        cur = pr.add("%s : bot" % w[i], "BoxE", (box, refl))
    pr.add("%s : [] bot -> bot" % w[0], "ImpI", (cur,), (top,))
    return pr.script("chain")


def nested_proof(rng, depth: int, parens: bool) -> dict:
    """x : A -> A for A nested depth deep in "~" or in parentheses."""
    p = _props(rng, 1)[0]
    a = "(" * depth + p + ")" * depth if parens else "~" * depth + p
    x = _label(rng, set())
    pr = _Proof(rng.choice(SYSTEMS))
    h = pr.add("%s : %s" % (x, a), "hyp")
    pr.add("%s : %s -> %s" % (x, a, a), "ImpI", (h,), (h,))
    script = pr.script("nested_parens" if parens else "nested_neg")
    script["stress"] = True
    return script


def mutant(rng, i: int) -> dict:
    """Mutant number i: a generated proof broken in one way that must be
    reported with its reason code (other diagnostics may come with it).
    The index picks the reason, the base proof and its size; the seed
    picks the rest."""
    reason = MUTATION_REASONS[i % len(MUTATION_REASONS)]
    j = i // len(MUTATION_REASONS)
    system, k = SYSTEMS[j % 2], 3 + j % 6
    if reason == "wrong-system":
        base = seriality_proof(rng, system, k)
        base["system"] = SYSTEMS[1 - j % 2]
    else:
        modal = reason in ("schema-mismatch", "freshness-violation")
        gens = [boxi_proof, seriality_proof] + ([] if modal else
                                                 [derived_proof])
        base = gens[j % len(gens)](rng, system, k)
        steps = base["steps"]
        boxe = [s for s in steps if s[2] == "BoxE"]
        if reason == "undischarged-at-theorem":
            steps[-1][4] = []
        elif reason == "unknown-premise":
            s = rng.choice([s for s in steps if s[3]])
            s[3][0] = 999999
        elif reason == "wrong-arity":
            s = rng.choice([s for s in steps
                            if s[2] in ("BoxE", "AndI", "IffI", "ImpE")])
            s[3].pop()
        elif reason == "schema-mismatch":
            s = rng.choice(boxe)
            s[1] = s[1].replace(s[1].split(" :")[0], "zz9", 1)
        elif reason == "freshness-violation":
            s = rng.choice(boxe)
            s[2], s[3] = "hyp", []
        elif reason == "illegal-discharge":
            s = rng.choice([s for s in steps
                            if s[2] in ("BoxE", "AndI", "AndE1", "AndE2")])
            s[4] = [1]
    base.update(kind="mutant", expect="rejected", reason=reason)
    return base


def proofs_inputs(root: Path, seed: int) -> list[dict]:
    """One pass of the proofs workload: corpus-sized scripts, mutants and
    the geometric tails, each with the verdict known in advance."""
    rng = _rng(seed, "proofs")
    ops = []
    for e in load_corpus(root):
        ops.append({"kind": "corpus", "text": e["text"],
                    "expect": e["expected"], "reason": e.get("reason")})
    made = []
    for i in range(40):
        made.append(derived_proof(rng, SYSTEMS[i % 2], 4 + i % 5))
    for i in range(20):
        made.append(boxi_proof(rng, SYSTEMS[i % 2], 3 + i % 8))
        made.append(seriality_proof(rng, SYSTEMS[i % 2], 3 + i % 8))
    for i in range(70):
        made.append(mutant(rng, i))
    for n in CHAIN_SIZES:
        made.append(chain_proof(rng, n))
    for depth in NEST_DEPTHS:
        made.append(nested_proof(rng, depth, parens=False))
        made.append(nested_proof(rng, depth, parens=True))
    for p in made:
        ops.append({"kind": p["kind"], "text": script_text(p),
                    "expect": p["expect"], "reason": p["reason"],
                    "steps": len(p["steps"]),
                    "stress": p.get("stress", False)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# countermodel queries

def _rename(rng, stmts, shapes=("id",)) -> list[str]:
    """Statements with fresh labels and propositions, shared between
    them.  The j-th proposition becomes shapes[j % len(shapes)] of a
    fresh one: a uniform substitution, so theorems stay theorems and the
    search space keeps its size whatever the seed."""
    taken: set = set()
    ptaken: set = set()
    labels: dict = {}
    pmap: dict = {}
    for st in stmts:
        for lab in sorted(oracle.statement_labels(st)):
            labels.setdefault(lab, _label(rng, taken))
        for p in sorted(oracle.statement_props(st)):
            if p not in pmap:
                q = ("prop", _prop(rng, ptaken))
                shape = shapes[len(pmap) % len(shapes)]
                pmap[p] = q if shape == "id" else (
                    ("not", q) if shape == "not" else (shape, "U", q))
    return [oracle.render_statement(oracle.rename_statement(st, labels, pmap))
            for st in stmts]


def _refutable(rng, assumptions, goal) -> tuple[list[str], str]:
    *gamma, alpha = _rename(rng, [oracle.parse_statement(t)
                                  for t in assumptions + (goal,)])
    return gamma, alpha


def _query(kind, system, bound, assumptions, goal):
    stmts = [oracle.parse_statement(t) for t in assumptions + [goal]]
    props = set().union(*(oracle.statement_props(s) for s in stmts))
    labels = set().union(*(oracle.statement_labels(s) for s in stmts))
    return {"kind": kind, "system": system, "bound": bound,
            "assumptions": assumptions, "goal": goal,
            "props": len(props), "labels": len(labels)}


def theorem_statements(root: Path) -> list[tuple[str, tuple]]:
    return [(e["system"].upper(), oracle.parse_statement(e["statement"]))
            for e in load_corpus(root) if e["expected"] == "accepted"]


def search_inputs(root: Path, seed: int) -> list[dict]:
    """One pass of the search workload: every accepted corpus statement
    as a renamed instance at bound 3, a substitution instance at 3 and
    one at 4, and every refutable schema at bounds 3 and 4.

    The order is fixed: the first bound-4 theorem of each system pays
    for cold enumeration, and it is the same query for every seed.  The
    list runs twice, cold and then warm, which also doubles the samples
    behind each percentile."""
    rng = _rng(seed, "search")
    ops = []
    shapes = ("id", "not", "box", "dia")
    for i, (system, stmt) in enumerate(theorem_statements(root)):
        rotated = shapes[i % 4:] + shapes[:i % 4]
        for bound, shape in ((3, ("id",)), (3, rotated), (4, ("not",))):
            goal = _rename(rng, [stmt], shape)[0]
            ops.append(_query("theorem", system, bound, [], goal))
    for system, assumptions, goal in REFUTABLE:
        for bound in (3, 4):
            gamma, alpha = _refutable(rng, assumptions, goal)
            ops.append(_query("refutable", system, bound, gamma, alpha))
    return ops * 2


# ---------------------------------------------------------------------------
# models and frames

def valid_frame(rng, system: str, n: int, blocks: int):
    """A random frame satisfying the README's conditions: a U-partition,
    a nonempty classical set per block, and measurement edges from every
    other world to classical worlds of its block (plus, under MSpQR,
    transitively closed edges between non-classical worlds)."""
    cut = sorted(rng.sample(range(1, n), blocks - 1)) if blocks > 1 else []
    bounds = [0] + cut + [n]
    perm = list(range(n))
    rng.shuffle(perm)
    u, meas = set(), set()
    for lo, hi in zip(bounds, bounds[1:]):
        members = perm[lo:hi]
        u |= {(v, w) for v in members for w in members}
        classical = rng.sample(members,
                               rng.randint(1, max(1, len(members) // 3)))
        others = [v for v in members if v not in classical]
        for c in classical:
            meas.add((c, c))
        for v in others:
            for c in rng.sample(classical, rng.randint(1, len(classical))):
                meas.add((v, c))
        if system == "MSPQR" and len(others) > 1:
            extra = set()
            for v in others:
                w = rng.choice(others)
                if w != v and rng.random() < 0.4:
                    extra.add((v, w))
            closed = meas | extra
            while True:
                more = {(a, d) for (a, b) in closed for (c, d) in closed
                        if b == c} - closed
                if not more:
                    break
                closed |= more
            if not oracle.violations(system, n, u, closed):
                meas = closed
    return u, meas


def _model(rng, system, n, props):
    """A one-block model, so every box quantifies over all worlds."""
    u, meas = valid_frame(rng, system, n, 1)
    val = [set(p for p in props if rng.random() < 0.5) for _ in range(n)]
    return {"system": system, "n": n, "u": u, "meas": meas, "val": val,
            "interp": {}, "names": ["w%d" % i for i in range(n)]}


def _heavy(rng, props, inner, depth, want):
    """A formula of the given modal depth that is `want` at every world
    and that pointwise evaluation cannot cut short: boxes range over
    bodies true everywhere, diamonds over bodies false everywhere.  All
    modalities but the innermost (over `inner`) range over U, the whole
    one-block frame."""
    p = ("prop", rng.choice(props))
    if depth == 0:
        return ("or", p, ("not", p)) if want else ("and", p, ("not", p))
    rel = "U" if depth > 1 else inner
    if rng.random() < 0.5:
        f = ("box", rel, _heavy(rng, props, inner, depth - 1, True))
        return f if want else ("not", f)
    f = ("dia", rel, _heavy(rng, props, inner, depth - 1, False))
    return ("not", f) if want else f


def _eval_formula(rng, props, inner):
    """Box depth 3 at the front, then a proposition deciding the value."""
    atom = ("prop", rng.choice(props))
    return (rng.choice(("and", "or", "imp", "iff")),
            _heavy(rng, props, inner, 3, rng.random() < 0.5), atom)


def _broken_frame(rng, system, n):
    """A valid frame with one condition broken on purpose."""
    u, meas = valid_frame(rng, system, n, rng.randint(2, 3))
    how = rng.choice(("drop-u", "meas-outside-u", "drop-meas",
                      "classical-out"))
    if how == "drop-u":
        u.discard(rng.choice(sorted((v, w) for v, w in u if v != w)))
    elif how == "meas-outside-u":
        meas.add(rng.choice(sorted((v, w) for v in range(n)
                                   for w in range(n) if (v, w) not in u)))
    elif how == "drop-meas":
        v = rng.randrange(n)
        meas = {(a, b) for a, b in meas if a != v}
    else:
        c = rng.choice(sorted(v for v in range(n) if (v, v) in meas))
        meas.add((c, rng.choice([w for w in range(n) if w != c])))
    return u, meas


# ---------------------------------------------------------------------------
# command line invocations

def _cli_op(group, args, expect, defect=False):
    return {"group": group, "args": args, "expect": expect, "defect": defect}


def cli_inputs(root: Path, seed: int) -> tuple[list[dict], dict]:
    """One pass of the cli workload: (invocations, files to write).

    Arguments may hold {work} (the generated files' directory) and
    {root} (the checkout); the runner substitutes both.
    """
    rng = _rng(seed, "cli")
    files: dict[str, str] = {}
    ops: list[dict] = []
    corpus = load_corpus(root)
    bundled = "{root}/src/qrmodal/corpus/"

    for e in corpus:
        args = ["check", bundled + e["path"], "--system", e["system"]]
        if e["expected"] == "accepted":
            ops.append(_cli_op("check", args, ["stdout", 0, "accepted"]))
        else:
            ops.append(_cli_op("check", args + ["--reasons"],
                               ["rejected", e["reason"]]))
    for i in range(8):
        gen = (derived_proof, boxi_proof, seriality_proof)[i % 3]
        name = "proof%d.prf" % i
        files[name] = script_text(gen(rng, SYSTEMS[i % 2], 4 + i % 4))
        ops.append(_cli_op("check", ["check", "{work}/" + name],
                           ["stdout", 0, "accepted"]))
    for i in range(10):
        p = mutant(rng, i)
        name = "mutant%d.prf" % i
        files[name] = script_text(p)
        ops.append(_cli_op("check", ["check", "--reasons", "{work}/" + name],
                           ["rejected", p["reason"]]))

    for i, k in enumerate(sorted(rng.sample(range(len(REFUTABLE)), 10))):
        system, assumptions, goal = REFUTABLE[k]
        gamma, alpha = _refutable(rng, assumptions, goal)
        args = ["countermodel", alpha, "--system", system.lower(),
                "--max-worlds", "3"]
        if gamma:
            files["gamma%d.txt" % i] = "\n".join(gamma) + "\n"
            args += ["--assumptions", "{work}/gamma%d.txt" % i]
        ops.append(_cli_op("countermodel", args, ["found", gamma, alpha]))
        ops[-1]["query"] = _query("refutable", system, 3, gamma, alpha)
    theorems = theorem_statements(root)
    for k in sorted(rng.sample(range(len(theorems)), 8)):
        system, stmt = theorems[k]
        goal = _rename(rng, [stmt])[0]
        frames = sum(FRAME_SENTINELS[system][:3])
        ops.append(_cli_op(
            "countermodel",
            ["countermodel", goal, "--system", system.lower(),
             "--max-worlds", "3"],
            ["stdout", 1, "no countermodel within 3 worlds "
             "(%d frames checked)" % frames]))
        ops[-1]["query"] = _query("theorem", system, 3, [], goal)

    props = _props(rng, 3)
    for i, n in enumerate((16, 32, 48, 64) * 3):
        system = SYSTEMS[i % 2]
        model = _model(rng, system, n, props)
        phi = _eval_formula(rng, props, "U" if i % 3 == 0 else MEAS[system])
        world = rng.randrange(n)
        truth = world in oracle.sat(model, phi)
        if i % 2:
            model["interp"] = {"x": world}
            args = ["eval", "{work}/model%d.txt" % i,
                    "x : " + oracle.render(phi)]
        else:
            args = ["eval", "{work}/model%d.txt" % i, oracle.render(phi),
                    "--world", model["names"][world]]
        files["model%d.txt" % i] = oracle.write_model(model)
        ops.append(_cli_op("eval", args,
                           ["stdout", 0 if truth else 1,
                            "true" if truth else "false"]))

    for i in range(12):
        system = SYSTEMS[i % 2]
        n = rng.randint(8, 12)
        if i < 6:
            u, meas = valid_frame(rng, system, n, rng.randint(1, 3))
        else:
            u, meas = _broken_frame(rng, system, n)
        model = {"system": system, "n": n, "u": u, "meas": meas,
                 "val": [set()] * n, "interp": {},
                 "names": ["v%d" % j for j in range(n)]}
        files["frame%d.txt" % i] = oracle.write_model(model)
        found = oracle.violations(system, n, u, meas)
        lines = sorted("%s at (%s)" % (name, ", ".join(model["names"][w]
                                                      for w in witness))
                       for name, witness in found)
        ops.append(_cli_op("frame_validate",
                           ["frame", "validate", "{work}/frame%d.txt" % i],
                           ["frame", sorted({name for name, _ in found}),
                            lines]))

    ops.append(_cli_op("corpus_run", ["corpus", "run", "--max-worlds", "3"],
                       ["corpus", len(corpus), len(corpus)]))
    picked = sorted(rng.sample(range(len(corpus)), 8))
    entries = []
    for k in picked:
        e = {key: corpus[k][key] for key in corpus[k] if key != "text"}
        files["corpus_ok/" + e["path"]] = corpus[k]["text"]
        entries.append(e)
    files["corpus_ok/manifest.json"] = json.dumps({"entries": entries})
    ops.append(_cli_op("corpus_run", ["corpus", "run", "--dir",
                                      "{work}/corpus_ok", "--max-worlds", "3"],
                       ["corpus", len(entries), len(entries)]))

    x = _label(rng, set())
    files["bad_syntax.prf"] = ("system MSQR\ntheorem t : %s : p -> p\n"
                               "1. %s : p -> ; hyp\nqed\n" % (x, x))
    files["bad_model.txt"] = "system MSQR\nworlds a b\nR a b\n"
    files["invalid_frame.txt"] = "system MSQR\nworlds a b\nU a a\nM a b\n"
    files["empty_dir/readme.txt"] = "no manifest here\n"
    good_model = "{work}/model0.txt"
    usage = ["usage"]
    for args in (
            ["check", "{work}/does_not_exist.prf"],
            ["check", "{work}/bad_syntax.prf"],
            ["eval", good_model, "%s : p ->" % x],
            ["eval", good_model, "p", "--world", "nowhere"],
            ["countermodel", "%s : p -> [] p" % x, "--max-worlds", "5"],
            ["countermodel", "%s : [M p" % x],
            ["frame", "validate", "{work}/bad_model.txt"],
            ["eval", "{work}/invalid_frame.txt", "%s : p" % x],
            ["corpus", "run", "--dir", "{work}/empty_dir"],
            ["prove", "{work}/bad_syntax.prf"]):
        ops.append(_cli_op("malformed", args, usage))

    # known defects in qrmodal 0.1.0; each should end in exit 2
    # (or, for the deep proofs, in acceptance) and is counted as failed
    # while it does not
    ops.append(_cli_op("countermodel",
                       ["countermodel", "%s : p" % x, "--max-worlds", "0"],
                       usage, defect=True))
    broken = {key: corpus[0][key] for key in corpus[0] if key != "text"}
    del broken["statement"]
    files["corpus_nokey/" + broken["path"]] = corpus[0]["text"]
    files["corpus_nokey/manifest.json"] = json.dumps({"entries": [broken]})
    ops.append(_cli_op("corpus_run", ["corpus", "run", "--dir",
                                      "{work}/corpus_nokey"],
                       usage, defect=True))
    for depth, parens in ((500, True), (1000, False)):
        name = "deep%d.prf" % depth
        files[name] = script_text(nested_proof(rng, depth, parens))
        ops.append(_cli_op("check", ["check", "{work}/" + name],
                           ["accepted-or-usage"], defect=True))
    rng.shuffle(ops)
    return ops, files
