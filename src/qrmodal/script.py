"""Proof script text: the rule names, reading and printing.

A script file::

    system MSQR                      # or MSPQR
    theorem name : x : [M] r0 -> r0
    1. x : [M] r0 ; hyp
    2. x M y ; hyp
    ...
    9. x : [M] r0 -> r0 ; ImpI 8 discharge 1
    qed

Justifications are ``hyp`` or ``Rule p1,p2 [discharge h1,h2] [fresh y]``;
the optional ``fresh`` names the fresh label of BoxI/Mser/Class and is
checked against the inferred one.  Ids are ASCII decimal numbers, and
the ids of a list are separated by commas, with or without blanks
beside them.  ``#`` comments and blank lines are ignored.  The final
step must restate the theorem.

The reader only has to be faithful to the text: what the steps mean is
decided by the kernel.  Formulas are read through the syntax module's
attribute at call time, so a wrapper installed there (perfbench counts
parses that way) sees every one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import syntax
from .syntax import Formula, ParseError, System, print_formula

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
        stripped = raw.lstrip()
        line = stripped.split("#", 1)[0].rstrip()
        if not line:
            continue
        # where line starts on the raw line, for formula error columns
        indent = len(raw) - len(stripped)
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
                statement = syntax.parse_formula(rest)
            except ParseError as e:
                raise _shifted(e, "in theorem statement", lineno,
                               indent + len(head) + 1) from None
            continue
        if line == "qed":
            done = True
            continue
        steps.append(_parse_step(line, lineno, indent, seen))

    if system is None or name is None:
        raise ParseError("missing system or theorem line", 1, 1)
    if not steps:
        raise ParseError("a proof needs at least one step", 1, 1)
    if not done:
        raise ParseError("missing qed line", 1, 1)
    return ProofScript(system, name, statement, tuple(steps))


def _shifted(e: ParseError, where: str, lineno: int,
             start: int) -> ParseError:
    # e is the error of a formula that begins at 0-based column start
    # of line lineno
    return ParseError("%s: %s" % (where, e.message), lineno, start + e.col,
                      e.expected, e.reason)


# An id list runs over the fields up to the next keyword field.
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
_BLANK_BETWEEN_DIGITS = re.compile(r"[0-9]\s+[0-9]")


def _parse_step(line: str, lineno: int, indent: int,
                seen: set[int]) -> ProofStep:
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
        formula = syntax.parse_formula(ftext)
    except ParseError as e:
        raise _shifted(e, "in step %d" % sid, lineno,
                       indent + m.start(2)) from None
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
    # a comma list of ASCII decimal ids; blanks may stand beside a comma
    # but not between two ids, so "1 2" is not read as 12
    if not fields:
        return ()
    if _BLANK_BETWEEN_DIGITS.search(fields):
        raise err("%s ids must be separated by commas" % what)
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
