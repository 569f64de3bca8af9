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
beside them.  The final step must restate the theorem.  Lines are read
by ``syntax.read_lines``, as model and assumption files are.  A
step-line error points at the field it is about, a formula error at
its token, another line's error at the line's first nonblank
character, and a missing part of the script at 1:1.

The reader only has to be faithful to the text: what the steps mean is
decided by the kernel.  Formulas are read through the syntax module's
attribute at call time, so a wrapper installed there (perfbench counts
parses that way) sees every one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

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

    for line in syntax.read_lines(text):
        if done:
            raise line.error("content after qed")
        if system is None:
            system = line.system()
            continue
        if name is None:
            head, sep, _ = line.text.partition(":")
            fields = syntax.split_fields(head)
            if len(fields) != 2 or fields[0] != "theorem" or not sep:
                raise line.error("expected 'theorem <name> : <formula>'")
            name = fields[1]
            statement = line.formula("in theorem statement: ", len(head) + 1)
            continue
        if line.text == "qed":
            done = True
            continue
        steps.append(_parse_step(line, seen))

    if system is None or name is None:
        raise ParseError("missing system or theorem line", 1, 1)
    if not steps:
        raise ParseError("a proof needs at least one step", 1, 1)
    if not done:
        raise ParseError("missing qed line", 1, 1)
    return ProofScript(system, name, statement, tuple(steps))


# Blanks (B) and the fields they separate (F+) are the tokenizer's.  An
# id list runs over the fields up to the next keyword field.
_B, _F = syntax.BLANK, syntax.NOT_BLANK
_ID_FIELDS = rf"( (?: {_B}+ (?! (?:discharge|fresh) (?!{_F}) ) {_F}+ )* )"
_STEP = re.compile(rf"""
    ([0-9]+) {_B}* \.                    # step id
    ([^;]*)                              # formula
    (?: ; {_B}* ({_F}*)                   # rule
        {_ID_FIELDS}                     # premise ids
        (?: {_B}+ (discharge) {_ID_FIELDS} )?
        (?: {_B}+ (fresh) (?: {_B}+ ({_F}+) )? )?
        {_B}* ({_F}*)                     # the first field left over
    )?""", re.VERBOSE)
_ID_LIST = re.compile(r"[0-9]+(?:,[0-9]+)*")
_FIELD = re.compile(rf"{_F}+")
_BLANK_BETWEEN_DIGITS = re.compile(rf"[0-9]{_B}+[0-9]")


def _parse_step(line: syntax.Line, seen: set[int]) -> ProofStep:
    m = _STEP.match(line.text)

    def err(msg: str, group: int = 1, at: Optional[int] = None) -> ParseError:
        # at offset at of the line's text, else at the first nonblank of
        # the field (a group of _STEP) that msg is about; the line's start
        # when the line does not match
        if at is None:
            at = 0
            if m is not None:
                field = m.group(group)
                at = m.start(group) + len(field) \
                    - len(field.lstrip(syntax.BLANKS))
        return ParseError(msg, line.number, line.start + at + 1)

    if m is None:
        raise err("expected '<id>. <formula> ; <justification>'")
    head, _, rule, premises, discharge, discharges, fresh_kw, fresh, \
        junk = m.groups()
    sid = int(head)
    if sid <= 0:
        raise err("step ids are positive")
    if sid in seen:
        raise err("duplicate step id %d" % sid)
    seen.add(sid)
    if rule is None:
        raise err("missing ';' before the justification")
    formula = line.formula("in step %d: ", m.start(2), m.end(2), sid)
    if not rule:
        raise err("empty justification", 3)
    if rule not in ALL_RULES:
        raise err("unknown rule %r" % rule, 3)
    premise_ids = _ids(m, 4, "premise", err)
    discharge_ids: tuple[int, ...] = ()
    if discharge:
        discharge_ids = _ids(m, 6, "discharge", err)
        if not discharge_ids:
            raise err("discharge needs at least one id", 5)
    if fresh_kw and fresh is None:
        raise err("fresh needs a label", 7)
    if junk:
        raise err("trailing junk in justification: %r" % junk, 9)
    return ProofStep(sid, formula, rule, premise_ids, discharge_ids, fresh)


def _ids(m: re.Match, group: int, what: str, err) -> tuple[int, ...]:
    # the id list in a group of _STEP: a comma list of ASCII decimal ids;
    # blanks may stand beside a comma but not between two ids, so "1 2"
    # is not read as 12
    fields = m.group(group)
    if not fields:
        return ()
    if _BLANK_BETWEEN_DIGITS.search(fields):
        raise err("%s ids must be separated by commas" % what, group)
    blob = "".join(syntax.split_fields(fields))
    if _ID_LIST.fullmatch(blob) is None:
        bad, at = next((piece, at) for piece, at in _pieces(fields)
                       if not (piece.isascii() and piece.isdigit()))
        raise err("bad %s id %r" % (what, bad), at=m.start(group) + at)
    return tuple(map(int, blob.split(",")))


def _pieces(text: str) -> Iterator[tuple[str, int]]:
    # text split at commas, then at blanks, with the offset of each
    # piece; a part holding only blanks is an empty piece at the comma,
    # or the end, that closes it
    start = 0
    for part in text.split(","):
        pieces = [(f.group(), start + f.start())
                  for f in _FIELD.finditer(part)]
        yield from pieces or [("", start + len(part))]
        start += len(part) + 1


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
