"""A ledger of the work the reading layer does, pinned as counts.

A count does not depend on the host's load, and it says why a
wall-clock figure moved.  The inputs are perfbench's seed-1 ``proofs``
scripts: the bundled corpus, derived-rule, BoxI, seriality, mutant,
Utrans-chain and deep scripts.  A change that moves a count updates
READING in the same diff and gives the count before and after in
CHANGES.md; a count that rises needs a reason there.

The counts are taken in a fresh interpreter under two values of
PYTHONHASHSEED, so none of them may depend on hash order.  They miss
the work done in C: the regexes, above all the tokenizer's.

    python tests/test_work.py    # prints the counts as JSON
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Per pass over the seed-1 proofs inputs.
READING = {
    "scripts": 197,
    # scripts that parse_script refuses, all of them from the nesting tail
    "refused": 10,
    # syntax.parse_formula calls, one per formula read
    "parse_formula": 20_235,
    # syntax.tokenize calls, and the tokens they return, end tokens
    # included; relational formulas and restated bodies skip tokenize
    "tokenize": 4_384,
    "tokens": 60_554,
    # texts whose parentheses syntax._cut_groups scans
    "scans": 795,
    # step lines read field by field, not by the one-match reader
    "fields": 0,
}


def reading_counts() -> dict:
    """READING's counts, taken by wrapping the functions that do the
    work, in this interpreter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from qrmodal import script, syntax
    from qrmodal.syntax import ParseError
    inputs = importlib.import_module("inputs")
    texts = [op["text"] for op in inputs.proofs_inputs(ROOT, 1)]
    counts = dict.fromkeys(READING, 0)
    parse_formula, tokenize = syntax.parse_formula, syntax.tokenize
    parse_step, parens = script._parse_step, syntax._PARENS

    def counted_parse_formula(*args):
        counts["parse_formula"] += 1
        return parse_formula(*args)

    def counted_tokenize(text):
        toks = tokenize(text)
        counts["tokenize"] += 1
        counts["tokens"] += len(toks)
        return toks

    def counted_parse_step(*args):
        counts["fields"] += 1
        return parse_step(*args)

    class CountedParens:
        def finditer(self, text):
            counts["scans"] += 1
            return parens.finditer(text)

    syntax.parse_formula = counted_parse_formula
    syntax.tokenize = counted_tokenize
    syntax._PARENS = CountedParens()
    script._parse_step = counted_parse_step
    for text in texts:
        counts["scripts"] += 1
        try:
            script.parse_script(text)
        except ParseError:
            counts["refused"] += 1
    return counts


def counts_under(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return json.loads(out)


def test_reading_counts_are_pinned_under_two_hash_seeds():
    first, second = counts_under("0"), counts_under("1")
    assert first == second
    assert first == READING


if __name__ == "__main__":
    print(json.dumps(reading_counts()))
