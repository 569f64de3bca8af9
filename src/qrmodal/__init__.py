"""Labelled natural deduction for quantum register modalities.

Seven parts: syntax (formulas, parsing, printing), script (reading and
printing proof scripts), derived (derived-rule expansion, re-checked by
the kernel), kernel (the trusted proof checker), semantics (finite
frames, models, truth), search (frame enumeration and countermodel
search), cli.  The package root exports only __version__; import the
API from those modules.
"""

__version__ = "0.1.0"
