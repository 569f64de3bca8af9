"""Labelled natural deduction for quantum register modalities.

Seven parts: syntax (formulas, parsing, printing), script (reading and
printing proof scripts), derived (derived-rule expansion, re-checked by
the kernel), kernel (the trusted proof checker), semantics (finite
frames, models, truth), search (frame enumeration and countermodel
search), cli.
"""

from .syntax import (
    BOT, Bottom, Box, Formula, Implies, Labelled, MFormula, ParseError,
    Prop, Rel, Relational, System, conj, diamond, disj, iff, labels_in,
    legal_rels, neg, parse_formula, parse_mformula, print_formula,
    print_mformula, props_in, substitute,
)
from .script import ProofScript, ProofStep, parse_script, print_script
from .kernel import (
    CheckReport, Diagnostic, KernelError, check, open_assumptions,
)
from .semantics import (
    Frame, FrameViolation, InvalidFrame, Model, SemanticsError, Structure,
    UnboundLabel, UnknownWorld, WrongSystem, entails_in, evaluate, holds,
    parse_structure, print_structure, validate_frame,
)
from .search import (
    BoundTooLarge, CountermodelResult, Found, NotFoundWithin, SearchBudget,
    enumerate_frames, find_countermodel, random_valid_frame,
)

__version__ = "0.1.0"
