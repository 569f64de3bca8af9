"""Derived rules, expanded into primitive steps.

NegE, NegI, AndI, IffI, AndE1, AndE2, IffE1, IffE2 and Mtrans are
macros over the primitive rules.  The expansion is untrusted: the
kernel admits a derived step (rule, system, premises, arity, discharges),
hands over that step and its premises' conclusions only, and checks its
expansion step by step, so a wrong expansion can only make it reject.
"""

from __future__ import annotations

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


def expand_derived(step: ProofStep, prems: tuple[Formula, ...],
                   first_id: int) -> list[ProofStep]:
    """Primitive steps replacing an admitted derived step.

    prems holds the conclusion of each premise of step, in the order
    step.premises cites them; nothing else of the script is visible.
    The final step keeps the derived step's id, conclusion and
    discharges; helper steps take ids first_id, first_id+1, ...  The
    final conclusion depends exactly on the derived step's premises
    and undischarged hypotheses.
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
        p1 = _labelled(prems[0], "%s premise" % rule)
        p2 = _labelled(prems[1], "%s premise" % rule)
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
        p = _labelled(prems[0], "%s premise" % rule)
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
        # refute x:B->bot: A->(B->bot) follows by one vacuous ImpI
        return [
            ProofStep(nid, Labelled(x, Implies(b, BOT)), HYP),
            ProofStep(nid + 1, Labelled(x, shape.left), "ImpI", (nid,)),
            ProofStep(nid + 2, Labelled(x, BOT), "ImpE", (pids[0], nid + 1)),
            ProofStep(step.id, step.formula, "RAA", (nid + 2,), (nid,)),
        ]

    if rule == "Mtrans":
        # a M b, b M c => a M c: Msrefl gives b M b from a M b, and
        # Msub1 rewrites b to c in a M b
        for p in prems:
            if not (isinstance(p, Relational) and p.rel is Rel.M):
                raise ExpansionError(
                    "Mtrans premise must be an M formula, got %s"
                    % print_formula(p))
        b = prems[0].right
        if prems[1].left != b:
            raise ExpansionError(
                "Mtrans premises must chain: second must start at %s" % b)
        return [
            ProofStep(nid, Relational(b, Rel.M, b), "Msrefl", (pids[0],)),
            ProofStep(step.id, step.formula, "Msub1", (pids[0], nid, pids[1])),
        ]

    raise AssertionError("unhandled derived rule %r" % rule)
