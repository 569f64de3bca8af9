"""Reference answers for the benchmark, computed without qrmodal.

Formulas are tuples, with the sugar kept as nodes of its own:

    ("bot",) ("prop", name) ("not", a) ("and", a, b) ("or", a, b)
    ("imp", a, b) ("iff", a, b) ("box", rel, a) ("dia", rel, a)

and statements are ("lab", label, formula) or ("rel", left, rel, right),
with rel one of "U", "M", "P".  Truth is computed bottom-up as the set
of worlds where a subformula holds (global model checking), not by
qrmodal's per-world recursion.  Frame conditions follow the README.

A model is a dict: system ("MSQR" or "MSPQR"), n (world count), u and
meas (sets of index pairs), val (one set of propositions per world),
interp (label -> world index) and names (world names).
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(<->|<>|<M>|<P>|\[\]|\[M\]|\[P\]|->|[()~&|:]"
                    r"|[A-Za-z_][A-Za-z0-9_]*)")
_BOX = {"[]": "U", "[M]": "M", "[P]": "P"}
_DIA = {"<>": "U", "<M>": "M", "<P>": "P"}
_RESERVED = ("bot", "U", "M", "P")


def _tokens(text: str) -> list[str]:
    out, i, text = [], 0, text.rstrip()
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise ValueError("cannot tokenize %r at %d" % (text, i))
        out.append(m.group(1))
        i = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        t = self.peek()
        if t is None or (want is not None and t != want):
            raise ValueError("expected %s, found %s" % (want, t))
        self.i += 1
        return t

    def formula(self):
        a = self.imp()
        if self.peek() == "<->":
            self.take()
            return ("iff", a, self.imp())
        return a

    def imp(self):
        a = self.disj()
        if self.peek() == "->":
            self.take()
            return ("imp", a, self.imp())
        return a

    def disj(self):
        a = self.conj()
        while self.peek() == "|":
            self.take()
            a = ("or", a, self.conj())
        return a

    def conj(self):
        a = self.unary()
        while self.peek() == "&":
            self.take()
            a = ("and", a, self.unary())
        return a

    def unary(self):
        t = self.peek()
        if t == "~":
            self.take()
            return ("not", self.unary())
        if t in _BOX:
            self.take()
            return ("box", _BOX[t], self.unary())
        if t in _DIA:
            self.take()
            return ("dia", _DIA[t], self.unary())
        if t == "(":
            self.take()
            a = self.formula()
            self.take(")")
            return a
        t = self.take()
        if t == "bot":
            return ("bot",)
        if not re.fullmatch(r"[A-Za-z_]\w*", t) or t in _RESERVED:
            raise ValueError("unexpected %r" % t)
        return ("prop", t)

    def done(self):
        if self.peek() is not None:
            raise ValueError("trailing %r" % self.peek())


def parse_statement(text: str):
    p = _Parser(text)
    left = p.take()
    if p.peek() == ":":
        p.take()
        body = p.formula()
        p.done()
        return ("lab", left, body)
    rel = p.take()
    right = p.take()
    p.done()
    if rel not in ("U", "M", "P"):
        raise ValueError("bad relation %r" % rel)
    return ("rel", left, rel, right)


_BOX_TEXT = {"U": "[]", "M": "[M]", "P": "[P]"}
_DIA_TEXT = {"U": "<>", "M": "<M>", "P": "<P>"}
_BIN_TEXT = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(a) -> str:
    """Concrete syntax; binary nodes are always parenthesised."""
    op = a[0]
    if op == "bot":
        return "bot"
    if op == "prop":
        return a[1]
    if op == "not":
        return "~" + render(a[1])
    if op == "box":
        return _BOX_TEXT[a[1]] + " " + render(a[2])
    if op == "dia":
        return _DIA_TEXT[a[1]] + " " + render(a[2])
    return "(%s %s %s)" % (render(a[1]), _BIN_TEXT[op], render(a[2]))


def render_statement(s) -> str:
    if s[0] == "lab":
        return "%s : %s" % (s[1], render(s[2]))
    return "%s %s %s" % (s[1], s[2], s[3])


def props(a) -> set[str]:
    if a[0] == "prop":
        return {a[1]}
    out: set[str] = set()
    for child in a[1:]:
        if isinstance(child, tuple):
            out |= props(child)
    return out


def substitute(a, mapping):
    """Replace propositions by formulas, uniformly."""
    if a[0] == "prop":
        return mapping.get(a[1], a)
    return tuple(substitute(c, mapping) if isinstance(c, tuple) else c
                 for c in a)


def statement_props(s) -> set[str]:
    return props(s[2]) if s[0] == "lab" else set()


def statement_labels(s) -> set[str]:
    return {s[1]} if s[0] == "lab" else {s[1], s[3]}


def rename_statement(s, labels, prop_map):
    if s[0] == "lab":
        return ("lab", labels.get(s[1], s[1]), substitute(s[2], prop_map))
    return ("rel", labels.get(s[1], s[1]), s[2], labels.get(s[3], s[3]))


# ---------------------------------------------------------------------------
# truth sets

def _meas_rel(system: str) -> str:
    return "M" if system == "MSQR" else "P"


def successors(model, rel: str) -> list[set[int]]:
    if rel == "U":
        pairs = model["u"]
    elif rel == _meas_rel(model["system"]):
        pairs = model["meas"]
    else:
        raise ValueError("relation %s is not part of %s"
                         % (rel, model["system"]))
    rows: list[set[int]] = [set() for _ in range(model["n"])]
    for v, w in pairs:
        rows[v].add(w)
    return rows


def sat(model, a) -> frozenset[int]:
    """The set of worlds where formula a holds."""
    n = model["n"]
    everything = frozenset(range(n))
    op = a[0]
    if op == "bot":
        return frozenset()
    if op == "prop":
        return frozenset(w for w in range(n) if a[1] in model["val"][w])
    if op == "not":
        return everything - sat(model, a[1])
    if op in ("box", "dia"):
        body = sat(model, a[2])
        rows = successors(model, a[1])
        if op == "box":
            return frozenset(w for w in range(n) if rows[w] <= body)
        return frozenset(w for w in range(n) if rows[w] & body)
    x, y = sat(model, a[1]), sat(model, a[2])
    if op == "and":
        return x & y
    if op == "or":
        return x | y
    if op == "imp":
        return (everything - x) | y
    assert op == "iff"
    return everything - (x ^ y)


def holds(model, s) -> bool:
    interp = model["interp"]
    if s[0] == "lab":
        return interp[s[1]] in sat(model, s[2])
    pairs = model["u"] if s[2] == "U" else model["meas"]
    if s[2] not in ("U", _meas_rel(model["system"])):
        raise ValueError("relation %s is not part of %s"
                         % (s[2], model["system"]))
    return (interp[s[1]], interp[s[3]]) in pairs


# ---------------------------------------------------------------------------
# frame conditions

def violations(system: str, n: int, u, meas) -> set[tuple[str, tuple]]:
    """Every violated frame condition, with the worlds that witness it."""
    out = set()
    worlds = range(n)
    for w in worlds:
        if (w, w) not in u:
            out.add(("not-equivalence", (w,)))
    for v, w in u:
        if (w, v) not in u:
            out.add(("not-equivalence", (v, w)))
        for z in worlds:
            if (w, z) in u and (v, z) not in u:
                out.add(("not-equivalence", (v, w, z)))
    for v, w in meas:
        if (v, w) not in u:
            out.add(("meas-not-sub-U", (v, w)))
    if system == "MSQR":
        for v in worlds:
            if not any((v, w) in meas for w in worlds):
                out.add(("not-serial", (v,)))
        for v, w in meas:
            if (w, w) not in meas:
                out.add(("not-shift-reflexive", (v, w)))
    else:
        for v, w in meas:
            for z in worlds:
                if (w, z) in meas and (v, z) not in meas:
                    out.add(("not-transitive", (v, w, z)))
        for v in worlds:
            if not any((v, w) in meas and (w, w) in meas for w in worlds):
                out.add(("no-classical-reachable", (v,)))
    for v, w in meas:
        if v != w and (v, v) in meas:
            out.add(("classical-not-unique", (v, w)))
    return out


def is_countermodel(model, gamma, alpha) -> bool:
    """A valid frame on which every assumption holds and alpha fails."""
    if violations(model["system"], model["n"], model["u"], model["meas"]):
        return False
    return all(holds(model, g) for g in gamma) and not holds(model, alpha)


# ---------------------------------------------------------------------------
# model files (format documented in the README)

def write_model(model) -> str:
    names = model["names"]
    meas_sym = _meas_rel(model["system"])
    lines = ["system " + model["system"], "worlds " + " ".join(names)]
    lines += ["U %s %s" % (names[v], names[w]) for v, w in sorted(model["u"])]
    lines += ["%s %s %s" % (meas_sym, names[v], names[w])
              for v, w in sorted(model["meas"])]
    for w in range(model["n"]):
        if model["val"][w]:
            lines.append("val %s: %s" % (names[w],
                                         " ".join(sorted(model["val"][w]))))
    for lab in sorted(model["interp"]):
        lines.append("interp %s = %s" % (lab, names[model["interp"][lab]]))
    return "\n".join(lines) + "\n"


def read_model(text: str):
    system, names, index = None, [], {}
    u, meas, val, interp = set(), set(), {}, {}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        head = fields[0]
        if head == "system":
            system = fields[1]
        elif head == "worlds":
            names = fields[1:]
            index = {name: i for i, name in enumerate(names)}
        elif head in ("U", "M", "P"):
            pair = (index[fields[1]], index[fields[2]])
            (u if head == "U" else meas).add(pair)
        elif head == "val":
            val[index[fields[1].rstrip(":")]] = set(fields[2:])
        elif head == "interp":
            interp[fields[1]] = index[fields[3]]
        else:
            raise ValueError("unrecognized model line %r" % raw)
    if system is None or not names:
        raise ValueError("model text lacks a system or worlds line")
    return {"system": system, "n": len(names), "u": u, "meas": meas,
            "val": [val.get(w, set()) for w in range(len(names))],
            "interp": interp, "names": names}
