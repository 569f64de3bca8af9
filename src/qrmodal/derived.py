"""Derived rules, expanded into primitive steps.

NegE, NegI, AndI, IffI, AndE1, AndE2, IffE1, IffE2 and Mtrans are
macros over the primitive rules.  The expansion is untrusted: the
kernel admits a derived step first (rule, system, premises, arity,
discharges) and then checks every step of its expansion like a
hand-written one, so a wrong expansion can only make the kernel reject.
"""

from __future__ import annotations

from typing import Mapping

from .script import HYP, ProofStep
from .syntax import (
    BOT, Formula, Implies, Labelled, Rel, Relational, print_formula,
)


class ExpansionError(Exception):
    """The premises or conclusion do not fit the derived rule's schema."""


def _labelled(f: Formula, what: str) -> Labelled:
    if not isinstance(f, Labelled):
        raise ExpansionError("%s must be a labelled formula, got %s"
                             % (what, print_formula(f)))
    return f


def expand_derived(step: ProofStep, formulas: Mapping[int, Formula],
                   first_id: int) -> list[ProofStep]:
    """Primitive steps replacing an admitted derived step.

    formulas holds the conclusion of every premise of step.  The final
    step keeps the derived step's id, conclusion and discharges; helper
    steps take ids first_id, first_id+1, ...  The final conclusion
    depends exactly on the derived step's premises and undischarged
    hypotheses.
    """
    rule = step.rule
    pids = step.premises
    nid = first_id

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
        p1 = _labelled(formulas[pids[0]], "%s premise" % rule)
        p2 = _labelled(formulas[pids[1]], "%s premise" % rule)
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
        p = _labelled(formulas[pids[0]], "%s premise" % rule)
        shape = p.body
        ok = (isinstance(shape, Implies) and shape.right == BOT
              and isinstance(shape.left, Implies)
              and isinstance(shape.left.right, Implies)
              and shape.left.right.right == BOT)
        if not ok:
            raise ExpansionError("%s premise is not a conjunction: %s"
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
        p1, p2 = formulas[pids[0]], formulas[pids[1]]
        for p in (p1, p2):
            if not (isinstance(p, Relational) and p.rel is Rel.M):
                raise ExpansionError(
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
