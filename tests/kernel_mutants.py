"""Mutation harness for the proof kernel: which one-line faults in
kernel.py's checking functions does the tier-1 suite miss?

    python3 tests/kernel_mutants.py [ID ...]

Each mutant makes one change in a function under the "checking" banner
of src/qrmodal/kernel.py:

  compare   flip one comparison (== and !=, < and >=, <= and >, in and
            not in, is and is not)
  boolop    swap one and/or
  not       drop one not
  return    drop one bare return
  call      drop one call statement

The change is spliced into the source in place, padded with blank lines
where it is shorter, so every other line keeps its number.  Each mutant
runs the tier-1 command (with -x, since one failure kills it) in a
temporary copy of the repository, JOBS at a time.  The output lists
every surviving mutant, that is one the suite passes, by its id, line
and changed text: each is a fault no test catches, or an equivalent
change to argue away.  The exit status is 1 when a mutant survives and
0 otherwise.  IDs run only those mutants.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = Path("src") / "qrmodal" / "kernel.py"
BANNER = "# checking\n"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 900
JOBS = 2

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
        ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
        ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is}


def _expr_mutants(node: ast.AST):
    # (kind, replacement node) for one expression node
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = FLIP[type(op)]()
            yield "compare", ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp):
        other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield "boolop", ast.BoolOp(other, node.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not", node.operand


def mutants(source: str) -> list[tuple[int, str, str]]:
    """Every mutant of source's checking functions, as (line, kind,
    mutated source)."""
    start = source.index(BANNER)
    first_line = source[:start].count("\n") + 1
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))

    def splice(node: ast.AST, text: str) -> str:
        # text replaces node; its %s takes the padding newlines
        begin = offsets[node.lineno - 1] + node.col_offset
        end = offsets[node.end_lineno - 1] + node.end_col_offset
        text %= "\n" * (node.end_lineno - node.lineno)
        return source[:begin] + text + source[end:]

    out = []
    for node in ast.walk(ast.parse(source)):
        if getattr(node, "lineno", 0) < first_line:
            continue
        for kind, new in _expr_mutants(node):
            # inside the parentheses the padding cannot end the statement
            text = "(%s%%s)" % ast.unparse(new).replace("%", "%%")
            out.append((node.lineno, kind, splice(node, text)))
        if isinstance(node, ast.Return) and node.value is None:
            out.append((node.lineno, "return", splice(node, "pass%s")))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            out.append((node.lineno, "call", splice(node, "pass%s")))
    out.sort(key=lambda m: (m[0], m[1]))
    return out


def _changed_line(source: str, mutated: str, line: int) -> str:
    return "%s  ->  %s" % (source.splitlines()[line - 1].strip(),
                           mutated.splitlines()[line - 1].strip())


def _run(copy: Path, mutated: str) -> str:
    (copy / KERNEL).write_text(mutated)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(TIER1, cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", type=int, help="mutants to run")
    args = ap.parse_args(argv)
    source = (ROOT / KERNEL).read_text()
    every = mutants(source)
    for i, (line, _, mutated) in enumerate(every):
        if mutated.count("\n") != source.count("\n"):
            raise AssertionError("mutant %d changes the line count" % i)
    picked = args.ids or range(len(every))
    if not all(0 <= i < len(every) for i in picked):
        ap.error("mutant ids run from 0 to %d" % (len(every) - 1))

    with tempfile.TemporaryDirectory() as tmp:
        copies = []
        for j in range(min(JOBS, len(picked))):
            copy = Path(tmp) / str(j)
            for part in ("src", "tests", "perfbench"):
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", copy)
            shutil.copy(ROOT / "README.md", copy)
            copies.append(copy)

        def work(job: tuple[int, list[int]]) -> list[tuple[int, str]]:
            copy, ids = copies[job[0]], job[1]
            return [(i, _run(copy, every[i][2])) for i in ids]

        jobs = [(j, list(picked)[j::len(copies)]) for j in range(len(copies))]
        with ThreadPoolExecutor(len(copies)) as pool:
            outcomes = dict(o for done in pool.map(work, jobs) for o in done)

    survivors = [i for i in picked if outcomes[i] == "survived"]
    print("%d mutants, %d killed, %d survived"
          % (len(picked), len(picked) - len(survivors), len(survivors)))
    for i in survivors:
        line, kind, mutated = every[i]
        print("%3d  :%d  %-7s %s" % (i, line, kind,
                                     _changed_line(source, mutated, line)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
