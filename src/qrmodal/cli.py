"""Command line interface.

Subcommands: check, eval, countermodel, frame validate, corpus run.
Exit codes: 0 success / true / accepted, 1 semantic negative (rejected
proof, false formula, no countermodel within the bound, invalid frame,
corpus failures), 2 usage, parse, or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .syntax import (
    InputError, ParseError, System, parse_formula, parse_mformula,
)
from . import syntax

if TYPE_CHECKING:
    from .search import SearchBudget

# Each command imports the modules it runs when it runs, so a process
# loads only those: check never loads semantics or search.  The library
# functions are looked up in their modules at call time, where
# perfbench wraps them to trace calls.

_SYSTEMS = {"msqr": System.MSQR, "mspqr": System.MSPQR}


def _read(path: str | Path) -> str:
    # untranslated: lines end at "\n" only, and a lone "\r" is a blank
    try:
        with open(path, newline="") as f:
            return f.read()
    except OSError as e:
        raise _Usage("cannot read %s: %s" % (path, e.strerror or e))
    except UnicodeDecodeError as e:
        raise _Usage("cannot read %s: %s" % (path, e))


class _Usage(InputError):
    pass


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrmodal",
        description="Check labelled MSQR/MSpQR proofs, evaluate formulas "
                    "on finite models, and search for countermodels.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="check a proof script")
    p.add_argument("script")
    p.add_argument("--system", choices=sorted(_SYSTEMS),
                   help="override the script's system header")
    p.add_argument("--reasons", action="store_true",
                   help="prefix diagnostics with machine reason codes")

    p = sub.add_parser("eval", help="evaluate a formula on a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world", help="evaluate a bare m-formula at this world")
    p.add_argument("--allow-invalid", action="store_true",
                   help="accept a model whose frame fails validation")

    p = sub.add_parser("countermodel", help="search for a countermodel")
    p.add_argument("formula")
    p.add_argument("--assumptions", metavar="PATH",
                   help="file with one assumption formula per line")
    p.add_argument("--system", choices=sorted(_SYSTEMS), default="msqr")
    p.add_argument("--max-worlds", type=int, default=3)

    p = sub.add_parser("frame", help="frame utilities")
    fsub = p.add_subparsers(dest="frame_cmd", required=True)
    p = fsub.add_parser("validate", help="list frame condition violations")
    p.add_argument("model")

    p = sub.add_parser("corpus", help="proof corpus utilities")
    csub = p.add_subparsers(dest="corpus_cmd", required=True)
    p = csub.add_parser("run", help="check every corpus entry")
    p.add_argument("--dir", help="corpus directory (default: bundled)")
    p.add_argument("--max-worlds", type=int, default=3,
                   help="soundness search bound for accepted entries")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "eval":
            return _cmd_eval(args)
        if args.cmd == "countermodel":
            return _cmd_countermodel(args)
        if args.cmd == "frame":
            return _cmd_frame_validate(args)
        return _cmd_corpus_run(args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def _cmd_check(args) -> int:
    from . import kernel
    script = kernel.parse_script(_read(args.script))
    system = _SYSTEMS[args.system] if args.system else None
    report = kernel.check(script, system)
    if report.accepted:
        print("accepted")
        return 0
    print("rejected")
    for d in report.diagnostics:
        print(d if args.reasons else "step %d: %s" % (d.step, d.message))
    return 1


def _cmd_eval(args) -> int:
    from .semantics import evaluate, holds, parse_structure
    structure = parse_structure(_read(args.model),
                                allow_invalid=args.allow_invalid)
    frame = structure.model.frame
    if args.world is not None:
        phi = parse_mformula(args.formula, frame.system)
        if args.world not in frame.names:
            raise _Usage("unknown world %r" % args.world)
        value = evaluate(structure.model, frame.names.index(args.world), phi)
    else:
        f = parse_formula(args.formula, frame.system)
        value = holds(structure, f)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_countermodel(args) -> int:
    from .search import Found, SearchBudget, find_countermodel
    from .semantics import print_structure
    system = _SYSTEMS[args.system]
    alpha = parse_formula(args.formula, system)
    text = _read(args.assumptions) if args.assumptions else ""
    gamma = [line.formula(system=system) for line in syntax.read_lines(text)]
    result = find_countermodel(system, gamma, alpha,
                               SearchBudget(max_worlds=args.max_worlds))
    if isinstance(result, Found):
        sys.stdout.write(print_structure(result.structure))
        return 0
    print("no countermodel within %d worlds (%d frames checked)"
          % (result.bound, result.frames_checked))
    if result.labels_exceed_bound:
        print("note: the query names more labels than the world bound; "
              "interpretations could not separate them all")
    return 1


def _cmd_frame_validate(args) -> int:
    from .semantics import describe_violation, parse_structure, validate_frame
    structure = parse_structure(_read(args.model), allow_invalid=True)
    frame = structure.model.frame
    violations = validate_frame(frame)
    if not violations:
        print("valid")
        return 0
    for v in violations:
        print(describe_violation(frame, v))
    return 1


def _corpus_dir(args) -> Path:
    if args.dir:
        return Path(args.dir)
    return Path(__file__).parent / "corpus"


def _run_entry(base: Path, entry: dict,
               budget: SearchBudget) -> tuple[bool, str]:
    from . import kernel
    from .search import Found, find_countermodel
    from .semantics import print_structure
    name = entry["name"]
    system = _SYSTEMS[entry["system"]]
    path = base / entry["path"]
    if not path.is_file():
        raise _Usage("corpus entry %s: missing file %s" % (name, path))
    try:
        script = kernel.parse_script(_read(path))
        statement = parse_formula(entry["statement"])
    except ParseError as e:
        raise _Usage("corpus entry %s: %s" % (name, e))
    if script.statement != statement:
        return False, "%s: script states %s, manifest states %s" % (
            name, script.statement, statement)
    report = kernel.check(script, system)
    if entry["expected"] == "accepted":
        if not report.accepted:
            return False, "%s: rejected: %s" % (
                name, "; ".join(str(d) for d in report.diagnostics))
        result = find_countermodel(system, [], statement, budget)
        if isinstance(result, Found):
            return False, "%s: accepted but refuted by\n%s" % (
                name, print_structure(result.structure))
        return True, "%s: accepted, no countermodel within %d worlds" % (
            name, budget.max_worlds)
    reasons = {d.reason for d in report.diagnostics}
    if report.accepted:
        return False, "%s: accepted, expected rejection (%s)" % (
            name, entry["reason"])
    if entry["reason"] not in reasons:
        return False, "%s: rejected with %s, expected %s" % (
            name, sorted(reasons), entry["reason"])
    return True, "%s: rejected with %s as expected" % (name, entry["reason"])


def _manifest_entries(path: Path) -> list[dict]:
    import json
    try:
        manifest = json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise _Usage("%s is not valid JSON: %s" % (path, e))
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) for e in entries)):
        raise _Usage("%s needs an 'entries' list of objects" % path)
    for i, entry in enumerate(entries, start=1):
        keys = ["name", "system", "path", "statement", "expected"]
        if entry.get("expected") != "accepted":
            keys.append("reason")
        absent = [k for k in keys if not isinstance(entry.get(k), str)]
        if absent:
            raise _Usage("manifest entry %d lacks %s" % (i, ", ".join(absent)))
        if entry["system"] not in _SYSTEMS:
            raise _Usage("manifest entry %d: unknown system %r"
                         % (i, entry["system"]))
    return entries


def _cmd_corpus_run(args) -> int:
    from .search import SearchBudget
    budget = SearchBudget(max_worlds=args.max_worlds)
    base = _corpus_dir(args)
    manifest_path = base / "manifest.json"
    if not manifest_path.is_file():
        raise _Usage("no manifest at %s" % manifest_path)
    entries = _manifest_entries(manifest_path)
    # run every entry before printing, so an error leaves no partial report
    results = [_run_entry(base, e, budget) for e in entries]
    ok = 0
    for passed, message in results:
        print(("ok   " if passed else "FAIL ") + message)
        ok += passed
    print("%d/%d entries behaved as expected" % (ok, len(entries)))
    return 0 if ok == len(entries) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
