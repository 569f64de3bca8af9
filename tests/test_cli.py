import contextlib
import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qrmodal import kernel, search, semantics, syntax
from qrmodal.cli import main
from qrmodal.script import MAX_ID_DIGITS
from qrmodal.search import Found
from qrmodal.semantics import parse_structure
from qrmodal.syntax import System, parse_formula

CORPUS = Path(str(resources.files("qrmodal") / "corpus"))

MODEL = """\
system MSQR
worlds v w
U v v
U v w
U w v
U w w
M v w
M w w
val w: r0
interp x = v
"""

BAD_MODEL = """\
system MSQR
worlds v w
U v v
U w w
M v w
interp x = v
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL)
    return str(path)


@pytest.fixture
def bad_model_file(tmp_path):
    path = tmp_path / "bad_model.txt"
    path.write_text(BAD_MODEL)
    return str(path)


# -- check -------------------------------------------------------------------

def test_check_accepted(capsys):
    code = main(["check", str(CORPUS / "msqr" / "thm5.prf")])
    assert code == 0
    assert capsys.readouterr().out == "accepted\n"


def test_check_rejected_with_diagnostics(capsys):
    code = main(["check", str(CORPUS / "negative" / "bad_boxi_fresh.prf")])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("rejected\n")
    assert "step 4" in out


def test_check_reasons_flag(capsys):
    code = main(["check", "--reasons",
                 str(CORPUS / "negative" / "bad_boxi_fresh.prf")])
    assert code == 1
    assert "freshness-violation" in capsys.readouterr().out


def test_check_system_override(capsys):
    code = main(["check", "--system", "mspqr",
                 str(CORPUS / "msqr" / "thm5.prf")])
    assert code == 1
    out = capsys.readouterr().out
    assert "Msrefl" in out


def test_check_missing_file(capsys):
    code = main(["check", "/nonexistent/proof.prf"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.prf"
    path.write_text("system MSQR\ntheorem t : x : r0\n1. x r0 ; hyp\nqed\n")
    code = main(["check", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["check"]) == 2


# -- what a process loads ----------------------------------------------------
#
# Each probe runs in a fresh interpreter, so that the modules pytest has
# already imported hide nothing.

WATCHED = ("dataclasses", "inspect", "json", "qrmodal.kernel",
           "qrmodal.semantics", "qrmodal.search")


def _loaded_after(code: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """The WATCHED modules a fresh interpreter holds after running code,
    and the process, whose stdout holds what code printed."""
    probe = ("import sys\n%s\nprint('loaded:', *[m for m in %r "
             "if m in sys.modules])" % (code, WATCHED))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:"
    return set(last[1:]), proc


def test_import_loads_no_command_module():
    loaded, _ = _loaded_after("import qrmodal.cli")
    assert loaded == set()


def test_check_loads_neither_semantics_nor_search(tmp_path):
    bad = tmp_path / "bad.prf"
    bad.write_text("system MSQR\ntheorem t : x : r0\n1. x r0 ; hyp\nqed\n")
    for path, code, out, err in [
            (CORPUS / "msqr" / "thm1.prf", 0, "accepted\n", ""),
            (bad, 2, "", "error: 3:6: in step 1: expected : or U or M "
                         "or P, found 'r0'\n")]:
        loaded, proc = _loaded_after(
            "from qrmodal.cli import main\n"
            "print('exit', main(['check', %r]))" % str(path))
        assert proc.stdout.startswith("%sexit %d\n" % (out, code))
        assert proc.stderr == err
        assert loaded == {"qrmodal.kernel"}


# -- eval --------------------------------------------------------------------

def test_eval_true(model_file, capsys):
    code = main(["eval", model_file, "x : [M] r0"])
    assert code == 0
    assert capsys.readouterr().out == "true\n"


def test_eval_false(model_file, capsys):
    code = main(["eval", model_file, "x : [] r0"])
    assert code == 1
    assert capsys.readouterr().out == "false\n"


def test_eval_at_world(model_file, capsys):
    assert main(["eval", model_file, "--world", "w", "[M] r0"]) == 0
    assert main(["eval", model_file, "--world", "v", "r0"]) == 1
    out = capsys.readouterr().out
    assert out == "true\nfalse\n"


def test_eval_unknown_world(model_file, capsys):
    code = main(["eval", model_file, "--world", "zz", "r0"])
    assert code == 2
    assert "unknown world" in capsys.readouterr().err


def test_eval_invalid_frame_refused(bad_model_file, capsys):
    code = main(["eval", bad_model_file, "x : r0"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: meas-not-sub-U at (v, w); not-serial at (w); "
        "not-shift-reflexive at (v, w)\n")


def test_eval_allow_invalid(bad_model_file, capsys):
    code = main(["eval", "--allow-invalid", bad_model_file, "x : r0 -> r0"])
    assert code == 0
    assert capsys.readouterr().out == "true\n"


def test_eval_wrong_system_vocabulary(model_file, capsys):
    code = main(["eval", model_file, "x : [P] r0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- countermodel ------------------------------------------------------------

def test_countermodel_found_prints_model(capsys):
    code = main(["countermodel", "x : r0 -> [] r0", "--max-worlds", "2"])
    assert code == 0
    out = capsys.readouterr().out
    structure = parse_structure(out)
    assert structure.model.frame.size == 2


def test_countermodel_not_found(capsys):
    code = main(["countermodel", "x : [] r0 -> r0", "--max-worlds", "3"])
    assert code == 1
    out = capsys.readouterr().out
    assert "no countermodel within 3 worlds" in out
    assert "frames checked" in out


def test_countermodel_with_assumptions(tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("x M y   # measurement edge\n\nx : [M] r0\n")
    code = main(["countermodel", "--assumptions", str(gamma), "y : r0"])
    assert code == 1
    assert "no countermodel" in capsys.readouterr().out


def test_countermodel_mspqr(capsys):
    code = main(["countermodel", "--system", "mspqr",
                 "x : <P>(r0 -> [P] r0)", "--max-worlds", "3"])
    assert code == 1
    capsys.readouterr()


def test_countermodel_bound_too_large(capsys):
    code = main(["countermodel", "x : r0", "--max-worlds", "9"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_countermodel_bound_below_one(capsys, bound):
    code = main(["countermodel", "x : r0", "--max-worlds", bound])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_countermodel_labels_note(capsys):
    code = main(["countermodel", "x U y", "--max-worlds", "1"])
    assert code == 1
    assert capsys.readouterr().out == (
        "no countermodel within 1 worlds (1 frames checked)\n"
        "note: the query names more labels than the world bound; "
        "interpretations could not separate them all\n")


@pytest.mark.parametrize("query, error", [
    ("x U bot", "1:5: expected identifier, found 'bot'"),
    ("x M (", "1:5: expected identifier, found '('"),
    ("x U", "1:4: expected identifier, found end of input"),
])
def test_relational_right_side_must_be_an_identifier(capsys, query, error):
    # the same wording as every other identifier refusal
    assert main(["countermodel", query]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % error)


def test_countermodel_seed_reproducible(capsys):
    main(["countermodel", "x : r0 -> [] r0"])
    first = capsys.readouterr().out
    main(["countermodel", "x : r0 -> [] r0"])
    assert capsys.readouterr().out == first


# -- frame validate ----------------------------------------------------------

def test_frame_validate_valid(model_file, capsys):
    code = main(["frame", "validate", model_file])
    assert code == 0
    assert capsys.readouterr().out == "valid\n"


def test_frame_validate_invalid(bad_model_file, capsys):
    code = main(["frame", "validate", bad_model_file])
    assert code == 1
    out = capsys.readouterr().out
    assert "not-serial" in out
    assert "meas-not-sub-U" in out
    assert "not-shift-reflexive" in out


@pytest.mark.parametrize("argv, calls", [
    (["frame", "validate", "bad"], 1),
    (["frame", "validate", "good"], 1),
    (["eval", "good", "x : r0"], 1),
    (["eval", "--allow-invalid", "bad", "x : r0"], 0),
], ids=["validate-invalid", "validate-valid", "eval", "eval-allow-invalid"])
def test_a_loaded_frame_is_validated_at_most_once(
        monkeypatch, model_file, bad_model_file, capsys, argv, calls):
    # frame validate lists the violations parse_structure did not look
    # for, and eval --allow-invalid has no use for them
    frames, validate = [], semantics.validate_frame

    def counting(frame):
        frames.append(frame)
        return validate(frame)

    monkeypatch.setattr(semantics, "validate_frame", counting)
    files = {"good": model_file, "bad": bad_model_file}
    main([files.get(a, a) for a in argv])
    assert len(frames) == calls


# -- corpus run --------------------------------------------------------------

def test_corpus_run_bundled(capsys):
    code = main(["corpus", "run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "32/32 entries behaved as expected" in out
    assert "FAIL" not in out


def _copy_corpus(tmp_path):
    dest = tmp_path / "corpus"
    shutil.copytree(CORPUS, dest)
    return dest


def test_corpus_run_detects_broken_proof(tmp_path, capsys):
    dest = _copy_corpus(tmp_path)
    target = dest / "msqr" / "thm4.prf"
    # reuse the hypothesis label as the Mser witness: freshness violation
    target.write_text(target.read_text().replace("fresh y", "fresh x")
                      .replace("x M y", "x M x").replace("y : r0", "x : r0")
                      .replace("y U y", "x U x"))
    code = main(["corpus", "run", "--dir", str(dest)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "32/32" not in out


def test_corpus_run_missing_manifest(tmp_path, capsys):
    code = main(["corpus", "run", "--dir", str(tmp_path)])
    assert code == 2
    assert "no manifest" in capsys.readouterr().err


def test_corpus_run_missing_entry_file(tmp_path, capsys):
    dest = _copy_corpus(tmp_path)
    manifest = json.loads((dest / "manifest.json").read_text())
    manifest["entries"][0]["path"] = "msqr/ghost.prf"
    (dest / "manifest.json").write_text(json.dumps(manifest))
    code = main(["corpus", "run", "--dir", str(dest)])
    assert code == 2
    assert "missing file" in capsys.readouterr().err


def test_corpus_run_overlong_entry_path_is_a_missing_file(tmp_path, capsys):
    # a file name longer than the system allows makes Path.is_file raise
    # (ENAMETOOLONG) instead of returning False
    path = tmp_path / ("a" * 300 + ".prf")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"entries": [dict(THM1, path=path.name)]}))
    code = main(["corpus", "run", "--dir", str(tmp_path)])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: corpus entry thm1: missing file %s\n" % path))


THM1 = {"name": "thm1", "system": "msqr", "path": "thm1.prf",
        "statement": "x : [] r0 -> r0", "expected": "accepted"}


@pytest.mark.parametrize("manifest", [
    "{\"entries\": [",
    json.dumps({"items": [THM1]}),
    json.dumps({"entries": [{k: v for k, v in THM1.items()
                             if k != "statement"}]}),
    json.dumps({"entries": [dict(THM1, expected="rejected")]}),
    json.dumps({"entries": [dict(THM1, system="qrst")]}),
], ids=["invalid-json", "no-entries", "missing-key", "missing-reason",
        "unknown-system"])
def test_corpus_run_malformed_manifest(tmp_path, capsys, manifest):
    shutil.copy(CORPUS / "msqr" / "thm1.prf", tmp_path / "thm1.prf")
    (tmp_path / "manifest.json").write_text(manifest)
    code = main(["corpus", "run", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("manifest", [
    "[" * 100_000 + "]" * 100_000,
    '{"entries": [], "x": %s}' % ("9" * 5_000),
], ids=["deep", "long-number"])
def test_corpus_run_unreadable_json_is_a_usage_error(tmp_path, capsys,
                                                      manifest):
    # json.loads raises RecursionError and ValueError for these, not
    # JSONDecodeError
    (tmp_path / "manifest.json").write_text(manifest)
    code = main(["corpus", "run", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: %s is not valid JSON: "
                                   % (tmp_path / "manifest.json"))
    assert captured.out == ""


@pytest.mark.parametrize("entry", [
    dict(THM1, expected="acepted", reason="wrong-system"),
    dict(THM1, expected="acepted"),
], ids=["with-reason", "without-reason"])
def test_corpus_run_refuses_an_unknown_verdict(tmp_path, capsys, entry):
    # a misspelt verdict is neither run as an expected rejection nor
    # reported as a missing reason
    shutil.copy(CORPUS / "msqr" / "thm1.prf", tmp_path / "thm1.prf")
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": [entry]}))
    code = main(["corpus", "run", "--dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: manifest entry 1: unknown expected verdict 'acepted'\n")


@pytest.mark.parametrize("junk, statement, error", [
    ("junk", "x : [] r0 -> r0", "6:39: bad discharge id '1junk'"),
    ("", "x : [] r0 ->",
     "1:13: expected identifier or bot or (, found end of input"),
], ids=["script", "statement"])
def test_corpus_run_parse_errors_name_the_entry(tmp_path, capsys, junk,
                                                statement, error):
    text = (CORPUS / "msqr" / "thm1.prf").read_text()
    (tmp_path / "thm1.prf").write_text(
        text.replace("discharge 1", "discharge 1" + junk))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"entries": [dict(THM1, statement=statement)]}))
    assert main(["corpus", "run", "--dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: corpus entry thm1: %s\n" % error
    assert captured.out == ""


def test_corpus_run_statement_mismatch(tmp_path, capsys):
    dest = _copy_corpus(tmp_path)
    manifest = json.loads((dest / "manifest.json").read_text())
    entry = next(e for e in manifest["entries"]
                 if e["expected"] == "accepted")
    entry["statement"] = "x : r7"
    (dest / "manifest.json").write_text(json.dumps(manifest))
    code = main(["corpus", "run", "--dir", str(dest)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def _one_entry_corpus(tmp_path, script, **entry):
    # a corpus of one entry, t, whose script is the text script
    (tmp_path / "t.prf").write_text(script)
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": [dict(
        name="t", system="msqr", path="t.prf", **entry)]}))
    return str(tmp_path)


LONE_HYPOTHESIS = "system MSQR\ntheorem t : x : r0\n1. x : r0 ; hyp\nqed\n"


@pytest.mark.parametrize("script, statement, reason, fail", [
    ((CORPUS / "msqr" / "thm1.prf").read_text(), "x : [] r0 -> r0",
     "freshness-violation",
     "accepted, expected rejection (freshness-violation)"),
    (LONE_HYPOTHESIS, "x : r0", "wrong-arity",
     "rejected with ['undischarged-at-theorem'], expected wrong-arity"),
], ids=["accepted", "other-reason"])
def test_corpus_run_fails_an_unexpected_verdict(tmp_path, capsys, script,
                                                statement, reason, fail):
    corpus = _one_entry_corpus(tmp_path, script, statement=statement,
                               expected="rejected", reason=reason)
    code = main(["corpus", "run", "--dir", corpus])
    assert (code, capsys.readouterr().out) == (
        1, "FAIL t: %s\n0/1 entries behaved as expected\n" % fail)


def test_corpus_run_fails_an_accepted_entry_with_a_countermodel(
        tmp_path, capsys, monkeypatch):
    # the soundness cross-check, against a kernel that accepts anything;
    # the countermodel is the README's
    monkeypatch.setattr(kernel, "check", lambda script, system: (
        kernel.CheckReport(frozenset(), (), (), (), ())))
    corpus = _one_entry_corpus(
        tmp_path, LONE_HYPOTHESIS.replace("x : r0", "x : r0 -> [M] r0"),
        statement="x : r0 -> [M] r0", expected="accepted")
    code = main(["corpus", "run", "--dir", corpus, "--max-worlds", "2"])
    assert (code, capsys.readouterr().out) == (1, (
        "FAIL t: accepted but refuted by\n"
        "system MSQR\nworlds w0 w1\nU w0 w0\nU w0 w1\nU w1 w0\nU w1 w1\n"
        "M w0 w0\nM w1 w0\nval w1: r0\ninterp x = w1\n\n"
        "0/1 entries behaved as expected\n"))


@pytest.mark.parametrize("bound, error", [
    ("0", "the world bound must be at least 1"),
    ("99", "search is capped at 4 worlds"),
])
def test_corpus_run_refuses_a_bad_bound_before_any_entry(tmp_path, capsys,
                                                         bound, error):
    # a corpus of expected rejections never searches, and its bound is
    # refused all the same
    dest = _copy_corpus(tmp_path)
    manifest = json.loads((dest / "manifest.json").read_text())
    manifest["entries"] = [e for e in manifest["entries"]
                           if e["expected"] != "accepted"]
    (dest / "manifest.json").write_text(json.dumps(manifest))
    assert main(["corpus", "run", "--dir", str(dest)]) == 0
    capsys.readouterr()
    code = main(["corpus", "run", "--dir", str(dest), "--max-worlds", bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: %s\n" % error
    assert captured.out == ""


NOT_UTF8 = b"system MSQR\n\xff\n"


@pytest.mark.parametrize("command", [
    ["check", "{f}"],
    ["eval", "{f}", "x : r0"],
    ["countermodel", "x : r0", "--assumptions", "{f}"],
], ids=["check", "eval-model", "countermodel-assumptions"])
def test_non_utf8_input_is_a_read_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    code = main([arg.format(f=path) for arg in command])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read %s" % path)
    assert captured.out == ""


def test_corpus_run_non_utf8_entry_file(tmp_path, capsys):
    dest = _copy_corpus(tmp_path)
    (dest / "msqr" / "thm1.prf").write_bytes(NOT_UTF8)
    code = main(["corpus", "run", "--dir", str(dest)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read ")
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["check", "a\0b"],
    ["eval", "a\0b", "x : r0"],
    ["frame", "validate", "a\0b"],
    ["countermodel", "x : r0", "--assumptions", "a\0b"],
], ids=["check", "eval-model", "frame-validate", "countermodel-assumptions"])
def test_path_with_a_nul_is_a_read_error(capsys, command):
    # only a library caller can pass one: argv cannot hold a NUL
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot read a\0b: embedded null byte\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["check", ""],
    ["eval", "", "x : r0"],
    ["frame", "validate", ""],
    ["countermodel", "x : r0 -> [M] r0", "--assumptions", ""],
], ids=["check", "eval-model", "frame-validate", "countermodel-assumptions"])
def test_empty_path_is_a_read_error(capsys, command):
    # an empty --assumptions names no file; it is not "no assumptions"
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot read : No such file or directory\n"
    assert captured.out == ""


DEEP = {
    "~": "~" * 10_000 + " p",
    "(": "(" * 10_000 + "p" + ")" * 10_000,
    "[]": "[]" * 10_000 + " p",
    "->": " -> ".join(["p"] * 10_001),
    "&": " & ".join(["p"] * 10_001),
    "<->": "p <-> (" * 10_000 + "p" + ")" * 10_000,
}


@pytest.mark.parametrize("op", sorted(DEEP))
def test_check_too_deep_script_exits_2(tmp_path, capsys, op):
    path = tmp_path / "deep.prf"
    path.write_text("system MSQR\ntheorem t : x : p\n1. x : %s ; hyp\nqed\n"
                    % DEEP[op])
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: 3:")
    assert "formula nested deeper than" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_too_deep_script_prints_no_traceback(tmp_path):
    path = tmp_path / "deep.prf"
    path.write_text("system MSQR\ntheorem t : x : %s\n1. x : p ; hyp\nqed\n"
                    % DEEP["~"])
    proc = subprocess.run(
        [sys.executable, "-m", "qrmodal.cli", "check", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: 2:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line", ["\u00b2. x : p ; hyp",
                                  "2. x : p -> p ; ImpI 1 discharge \u00b2"])
def test_non_ascii_step_id_is_a_parse_error(tmp_path, line):
    path = tmp_path / "ids.prf"
    path.write_text("system MSQR\ntheorem t : x : p -> p\n1. x : p ; hyp\n"
                    "%s\nqed\n" % line, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "qrmodal.cli", "check", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: 4:1:" if line[0] == "\u00b2"
                                  else "error: 4:34:")
    assert "Traceback" not in proc.stderr


def _overlong_ids(digits: int, cap: int) -> list[tuple[str, str]]:
    """A fourth script line with a step, discharge or premise id of this
    many digits, and the error that a cap of cap digits gives."""
    long_id = "1" * digits
    return [
        (long_id + ". x : p -> p ; ImpI 1 discharge 1",
         "4:1: step id has more than %d digits" % cap),
        ("2. x : p -> p ; ImpI 1 discharge " + long_id,
         "4:34: discharge id has more than %d digits" % cap),
        ("2. x : p -> p ; ImpI 1 , " + long_id + " discharge 1",
         "4:26: premise id has more than %d digits" % cap),
    ]


def _ids_script(tmp_path, line: str) -> Path:
    path = tmp_path / "ids.prf"
    path.write_text("system MSQR\ntheorem t : x : p -> p\n1. x : p ; hyp\n"
                    "%s\nqed\n" % line)
    return path


@pytest.mark.parametrize("line, error", _overlong_ids(4_301, 4300),
                         ids=["step", "discharge", "premise"])
def test_overlong_id_is_a_parse_error(tmp_path, capsys, line, error):
    assert main(["check", str(_ids_script(tmp_path, line))]) == 2
    assert capsys.readouterr().err == "error: %s\n" % error


@pytest.mark.parametrize(
    "limit, line, error",
    [("640", *case) for case in _overlong_ids(1_000, 640)]
    + [("0", *case) for case in _overlong_ids(4_301, MAX_ID_DIGITS)],
    ids=["step", "discharge", "premise",
         "step-no-limit", "discharge-no-limit", "premise-no-limit"])
def test_ids_past_a_lowered_int_limit_are_a_parse_error(tmp_path, limit,
                                                        line, error):
    # 640 is the lowest limit an interpreter accepts, where int() would
    # refuse the id with a ValueError; 0 lifts the limit, and the ids
    # are capped at MAX_ID_DIGITS as on a default interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "qrmodal.cli", "check",
         str(_ids_script(tmp_path, line))],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": limit})
    assert proc.returncode == 2
    assert proc.stderr == "error: %s\n" % error


def test_the_longest_ids_are_read(tmp_path, capsys):
    # 4,300 digits, leading zeros included, convert on every Python
    path = tmp_path / "ids.prf"
    path.write_text("system MSQR\ntheorem t : x : p -> p\n1. x : p ; hyp\n"
                    "%s. x : p -> p ; ImpI %s discharge 1\nqed\n"
                    % ("7" * 4_300, "0" * 4_299 + "1"))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_blank_separated_ids_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "ids.prf"
    path.write_text("system MSQR\ntheorem t : x : p\n1. x : p -> p ; hyp\n"
                    "2. x : p ; hyp\n3. x : p ; ImpE 1 2\nqed\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 5:17: premise ids must be separated by commas")


@pytest.mark.parametrize("line, error", [
    ("  1. x : p ; hyp", "4:3: duplicate step id 1"),
    ("  2. x : p ; Foo 1", "4:14: unknown rule 'Foo'"),
    ("  2. x : p ;  ", "4:13: empty justification"),
    ("  2. x : p ; ImpE 1 2", "4:19: premise ids must be separated by commas"),
    ("  2. x : p ; ImpI 1 discharge 1,a", "4:33: bad discharge id 'a'"),
    ("  2. x : p ; ImpE 1 x", "4:21: bad premise id 'x'"),
    ("  2. x : p ; ImpI 1 discharge", "4:21: discharge needs at least one id"),
    ("  2. x : p ; BoxI 1 fresh", "4:21: fresh needs a label"),
    ("  2. x : p ; BoxI 1 fresh y z", "4:29: trailing junk in justification: 'z'"),
])
def test_step_line_errors_give_the_field_column(tmp_path, capsys, line, error):
    path = tmp_path / "cols.prf"
    path.write_text("system MSQR\ntheorem t : x : p\n1. x : p ; hyp\n"
                    "%s\nqed\n" % line)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % error


# -- error positions in line-oriented input ----------------------------------

MODEL_ERRORS = [
    (MODEL + "  system MSQR\n", "11:3: duplicate system line"),
    ("  system MSQ\n", "1:3: expected 'system MSQR' or 'system MSPQR'"),
    ("\n worlds v\n", "2:2: system must be declared first"),
    ("\tU v v\nsystem MSQR\n", "1:2: system must be declared first"),
    (MODEL + "  worlds a\n", "11:3: duplicate worlds line"),
    ("system MSQR\n   worlds\n", "2:4: at least one world is required"),
    ("system MSQR\nworlds v  w v\n", "2:13: duplicate world name"),
    (MODEL + "  P v v\n", "11:3: relation P is not part of MSQR"),
    (MODEL + "  U v\n", "11:3: expected 'U <world> <world>'"),
    ("system MSQR\n  M v v\n", "2:3: worlds must be declared first"),
    ("system MSQR\n val v:\n", "2:2: worlds must be declared first"),
    (MODEL.replace("M v w", "   M v q"), "7:8: unknown world 'q'"),
    (MODEL.replace("M v w", "   M q v"), "7:6: unknown world 'q'"),
    (MODEL + "  val q: r1\n", "11:7: unknown world 'q'"),
    (MODEL + "  val w r1\n", "11:3: expected 'val <world>: <props>'"),
    (MODEL + "  val  w: r1\n", "11:8: duplicate val line for 'w'"),
    (MODEL + " interp x v\n", "11:2: expected 'interp <label> = <world>'"),
    (MODEL + " interp  x = w\n", "11:10: duplicate interp for label 'x'"),
    (MODEL + " interp y = q\n", "11:13: unknown world 'q'"),
    (MODEL + "  val v: -> bot [M]\n",
     "11:10: expected a proposition, found '->'"),
    (MODEL + " interp U = v\n", "11:9: expected a label, found 'U'"),
    (MODEL + "  frob v\n", "11:3: unrecognized line 'frob'"),
    ("# no system\n", "1:1: missing system line"),
    ("  system MSQR\n", "1:1: missing worlds line"),
]
SCRIPT_ERRORS = [
    ("  system MSQ\n", "1:3: expected 'system MSQR' or 'system MSPQR'"),
    ("system MSQR\n  theorem t x : p\n",
     "2:3: expected 'theorem <name> : <formula>'"),
    ("system MSQR\ntheorem t : x : p\n1. x : p ; hyp\nqed\n   qed\n",
     "5:4: content after qed"),
    ("system MSQR\ntheorem t : x : p\n1. x : p ; hyp\n",
     "1:1: missing qed line"),
    ("system MSQR\ntheorem t : x : p\nqed\n",
     "1:1: a proof needs at least one step"),
    ("  system MSQR\n", "1:1: missing system or theorem line"),
]


@pytest.mark.parametrize("text, error", MODEL_ERRORS,
                         ids=[e for _, e in MODEL_ERRORS])
def test_model_file_errors_give_the_field_column(tmp_path, capsys, text,
                                                 error):
    path = tmp_path / "model.txt"
    path.write_text(text)
    assert main(["frame", "validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % error


@pytest.mark.parametrize("text, error", SCRIPT_ERRORS,
                         ids=[e for _, e in SCRIPT_ERRORS])
def test_script_line_errors_give_the_line_column(tmp_path, capsys, text,
                                                 error):
    path = tmp_path / "lines.prf"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % error


def test_assumption_errors_give_the_line_column(tmp_path, capsys):
    path = tmp_path / "gamma.txt"
    path.write_text("x M y  # edge\n\n  x : p & &\n")
    assert main(["countermodel", "x : p", "--assumptions", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 3:11: expected identifier or bot or (, found '&'\n")


BLANK_ERRORS = [
    (["frame", "validate"], "system MSQR\n  worlds{c}v w\n",
     "2:3: unrecognized line 'worlds{r}v'"),
    (["check"], "system MSQR\n  theorem{c}t : x : p\n",
     "2:3: expected 'theorem <name> : <formula>'"),
    (["check"], "system MSQR\ntheorem t : x : p -> p\n1. x : p ; hyp\n"
     "2. x : p -> p ; ImpI 1{c}discharge 1\nqed\n",
     "4:22: bad premise id '1{r}discharge'"),
]


@pytest.mark.parametrize("char, shown", [("\xa0", "\\xa0"),
                                         ("\x0c", "\\x0c")],
                         ids=["U+00A0", "form-feed"])
@pytest.mark.parametrize("argv, text, error", BLANK_ERRORS,
                         ids=["model-worlds", "theorem-header", "id-list"])
def test_fields_are_separated_by_the_tokenizer_blanks_only(
        tmp_path, capsys, char, shown, argv, text, error):
    # a blank that str.split takes but the tokenizer does not is an
    # ordinary character in a field, as it is inside a formula
    path = tmp_path / "input.txt"
    path.write_text(text.replace("{c}", char))
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: %s\n" % error.replace("{r}", shown)


@pytest.mark.parametrize("argv, text", [
    (["check"], (CORPUS / "msqr" / "thm1.prf").read_text()),
    (["frame", "validate"], MODEL),
], ids=["script", "model"])
def test_crlf_line_ends_read_as_newlines(tmp_path, capsys, argv, text):
    outputs = []
    for body in (text, text.replace("\n", "\r\n")):
        path = tmp_path / "input.txt"
        path.write_bytes(body.encode())
        outputs.append((main(argv + [str(path)]), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].err == ""


@pytest.mark.parametrize("char", ["\r", "\x0c", "\x85", "\u2028"],
                         ids=["CR", "form-feed", "U+0085", "U+2028"])
@pytest.mark.parametrize("argv, text", [
    (["check"], (CORPUS / "msqr" / "thm1.prf").read_text()),
    (["frame", "validate"], MODEL),
], ids=["script", "model"])
def test_comments_end_at_the_newline_only(tmp_path, capsys, char, argv,
                                          text):
    # a comment holding a character that str.splitlines would break at
    # is cut off whole, so the file reads as it does without it
    lines = text.split("\n")
    lines[1] += "  # a%sb" % char
    outputs = []
    for body in (text, "\n".join(lines)):
        path = tmp_path / "input.txt"
        path.write_text(body)
        outputs.append((main(argv + [str(path)]), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].err == ""


# -- fuzz --------------------------------------------------------------------
#
# Mutated inputs of every kind, run in process: whatever the input, the
# command line answers with an exit code and, for exit 2, an error line;
# no exception escapes.  Long digit runs and deep nesting are drawn on
# purpose, because a uniform mutation almost never makes either.

LONG_DIGITS = "9" * 5_000
NESTINGS = [("(" * 90, ")" * 90), ("(" * 150, ")" * 150), ("~" * 150, ""),
            ("<>" * 40 + " ", ""), ("p <-> (" * 14, ")" * 14)]
JSON_NESTINGS = [("[" * 1_200, "]" * 1_200), ('{"a": ' * 1_200, "}" * 1_200),
                 ("[" * 50, "]" * 50)]
FUZZ_PIECES = [" ", "\n", "\t", "\r", "\xa0", ",", ".", ";", ":", "#", "(",
               ")", "[", "]", "{", "}", '"', "~", "->", "<->", "&", "|",
               "[M]", "<P>", "U", "M", "P", "bot", "p", "x", "0", "-1", "1.",
               "hyp", "ImpI", "BoxI", "discharge", "fresh", "qed",
               "system MSPQR", "worlds", "val", "interp", "\xff", "\u0661",
               LONG_DIGITS]


@st.composite
def _fuzzed(draw, text, nestings=NESTINGS):
    # text with, each maybe, one number made very long, the text or one
    # word nested deep, pieces inserted and a slice deleted
    runs = [m.span() for m in re.finditer(r"\b[0-9]+\b", text)]
    if runs and draw(st.booleans()):
        i, j = draw(st.sampled_from(runs))
        text = text[:i] + LONG_DIGITS + text[j:]
    if draw(st.booleans()):
        i, j = draw(st.one_of(st.just((0, len(text))), st.sampled_from(
            [m.span() for m in re.finditer(r"\w+", text)])))
        before, after = draw(st.sampled_from(nestings))
        text = text[:i] + before + text[i:j] + after + text[j:]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(FUZZ_PIECES)) + text[i:]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + text[draw(st.integers(i, min(len(text), i + 3))):]
    return text


FUZZ_SCRIPTS = [(CORPUS / path).read_text() for path in (
    "msqr/thm1.prf", "msqr/thm4.prf", "msqr/conj_intro.prf",
    "mspqr/thm3.prf")]
FUZZ_FORMULAS = ["x : [M] r0 -> r0", "x : r0 <-> ~(r1 & [] r0)", "x U y"]
FUZZ_BOUNDS = ["1", "2", "0", "99", LONG_DIGITS, "x"]


@st.composite
def _invocations(draw):
    # (argv, the text of its one input file); in argv, {f} stands for
    # that file and {d} for its directory
    kind = draw(st.sampled_from(["check", "eval", "countermodel", "frame",
                                 "corpus"]))
    if kind == "check":
        argv = ["check", "{f}"] + draw(st.sampled_from(
            [[], ["--reasons"], ["--system", "mspqr"]]))
        return argv, draw(_fuzzed(draw(st.sampled_from(FUZZ_SCRIPTS))))
    if kind in ("eval", "frame"):
        text = draw(_fuzzed(MODEL))
        if kind == "frame":
            return ["frame", "validate", "{f}"], text
        formula = draw(_fuzzed(draw(st.sampled_from(FUZZ_FORMULAS))))
        world = draw(st.sampled_from([[], ["--world", "v"]]))
        return ["eval", "{f}", formula] + world, text
    if kind == "countermodel":
        formula = draw(_fuzzed(draw(st.sampled_from(FUZZ_FORMULAS))))
        return (["countermodel", formula, "--assumptions", "{f}",
                 "--max-worlds", draw(st.sampled_from(FUZZ_BOUNDS))],
                draw(_fuzzed("x : r0 -> r1\nx M y\n")))
    manifest = json.dumps({"entries": [THM1], "version": 1})
    return (["corpus", "run", "--dir", "{d}", "--max-worlds", "1"],
            draw(_fuzzed(manifest, JSON_NESTINGS)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    shutil.copy(CORPUS / "msqr" / "thm1.prf", path / "thm1.prf")
    return path


@given(_invocations())
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_no_input_escapes_the_exit_codes(fuzz_dir, invocation):
    argv, text = invocation
    name = "manifest.json" if argv[0] == "corpus" else "input.txt"
    (fuzz_dir / name).write_text(text)
    argv = [a.replace("{f}", str(fuzz_dir / name))
            .replace("{d}", str(fuzz_dir)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert any(line.startswith("error:") or ": error:" in line
                   for line in err.getvalue().splitlines())


# -- the README's examples ---------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def readme_blocks():
    """The README's fenced blocks as (language, body)."""
    return re.findall(r"^```(\w*)\n(.*?)^```", (REPO / "README.md")
                      .read_text(), re.MULTILINE | re.DOTALL)


def readme_examples():
    """The README's model block, and each `$ qrmodal ...` line of its sh
    blocks as (argv, the output lines shown under it)."""
    blocks = readme_blocks()
    model = next(body for lang, body in blocks
                 if body.startswith("system MSQR\nworlds "))
    commands = []
    for lang, body in blocks:
        shown = None  # the output lines of the block's last command
        for line in body.splitlines() if lang == "sh" else ():
            if line.startswith("$ qrmodal "):
                shown = []
                commands.append((shlex.split(line[len("$ qrmodal "):]),
                                 shown))
            elif line.startswith("$"):
                raise AssertionError("not a qrmodal command: " + line)
            elif shown is not None:
                shown.append(line)
    return model, commands


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # `model.txt` is the README's model block; a "..." line stands for
    # any lines, and the lines after it must end the output
    model, commands = readme_examples()
    assert len(commands) >= 5
    (tmp_path / "model.txt").write_text(model)
    monkeypatch.chdir(REPO)
    for argv, shown in commands:
        main([str(tmp_path / a) if a == "model.txt" else a for a in argv])
        out = capsys.readouterr().out.splitlines()
        if "..." in shown:
            k = shown.index("...")
            head, tail = shown[:k], shown[k + 1:]
            assert out[:len(head)] == head, argv
            assert out[len(out) - len(tail):] == tail, argv
        else:
            assert out == shown, argv


def test_readme_library_use(tmp_path, monkeypatch, capsys):
    # the "Library use" block runs as written, with the README's own
    # box_u_reflects script as proof.prf and model block as model.txt
    blocks = readme_blocks()
    proof = next(body for lang, body in blocks
                 if body.startswith("system MSQR\ntheorem box_u_reflects "))
    (tmp_path / "proof.prf").write_text(proof)
    (tmp_path / "model.txt").write_text(readme_examples()[0])
    monkeypatch.chdir(tmp_path)
    (code,) = [body for lang, body in blocks if lang == "python"]
    scope = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(code, scope)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    hyp = frozenset({parse_formula("x : [] r0")})
    assert capsys.readouterr().out == "True ()\n%r\n" % (hyp,)
    assert isinstance(scope["result"], Found)


def test_readme_states_the_numbers_of_the_code():
    # how much the trusted kernel holds, which an auditor reads, and the
    # caps and counts the README states, each where it states them
    readme = (REPO / "README.md").read_text()

    def stated(pattern):
        # the numbers each match of pattern groups, a blank in pattern
        # matching any run of blanks and line ends
        return [tuple(int(n.replace(",", "")) for n in m.groups())
                for m in re.finditer(pattern.replace(" ", r"\s+"), readme)]

    kernel_py = REPO / "src" / "qrmodal" / "kernel.py"
    assert stated(r"`kernel\.py`, ([\d,]+) lines") == [
        (len(kernel_py.read_text().splitlines()),)]
    assert stated(r"MAX_DEPTH` \(([\d,]+)") == [(syntax.MAX_DEPTH,)] * 2
    assert stated(r"MAX_SIZE` (?:nodes )?\(([\d,]+)") == \
        [(syntax.MAX_SIZE,)] * 2
    assert stated(r"capped at ([\d,]+)") == [(search.MAX_ENUM_SIZE,)] * 2
    assert stated(r"more than ([\d,]+) of them") == [(MAX_ID_DIGITS,)]
    counts = ()
    for system in (System.MSQR, System.MSPQR):
        counts += (len(search._classes(system, 4)),
                   len(list(search.enumerate_frames(system, 4))))
    assert stated(r"At 4 worlds that is ([\d,]+) of ([\d,]+) MSQR frames "
                  r"and ([\d,]+) of ([\d,]+) MSpQR frames") == [counts]
    counts = ()
    for system in (System.MSQR, System.MSPQR):
        counts += (len(search._classes_within(system, 4, 1)),
                   len(search._classes(system, 4)))
    assert stated(r"At 4 worlds that is ([\d,]+) of ([\d,]+) MSQR classes "
                  r"and ([\d,]+) of ([\d,]+) MSpQR classes") == [counts]


# -- names the benchmark calls -----------------------------------------------
#
# perfbench/worker.py and perfbench/launch.py call these qrmodal names
# and read these fields of what they return; a trim or a change of
# layout that lost one would make every run of a workload fail.

PERFBENCH_NAMES = (
    "cli.main", "kernel.check", "kernel.parse_script",
    "kernel.expand_derived", "syntax.ParseError", "syntax.System",
    "syntax.parse_formula", "syntax.tokenize", "search.Found",
    "search.SearchBudget", "search.enumerate_frames",
    "search.find_countermodel", "semantics.print_structure",
    "semantics.validate_frame",
)


def test_names_the_benchmark_calls_resolve(capsys):
    api = {}
    for name in PERFBENCH_NAMES:
        module, attr = name.split(".")
        api[name] = getattr(importlib.import_module("qrmodal." + module), attr)

    system = api["syntax.System"]("MSQR")
    text = (CORPUS / "msqr" / "thm6_via_mtrans.prf").read_text()
    script = api["kernel.parse_script"](text)
    assert api["kernel.check"](script, system).accepted
    report = api["kernel.check"](api["kernel.parse_script"](
        "system MSQR\ntheorem t : x : r0\n1. x : r1 ; hyp\nqed\n"))
    assert not report.accepted
    assert {d.reason for d in report.diagnostics} == {
        "schema-mismatch", "undischarged-at-theorem"}
    (mtrans,) = [s for s in script.steps if s.rule == "Mtrans"]
    formulas = {s.id: s.formula for s in script.steps}
    prems = tuple(formulas[pid] for pid in mtrans.premises)
    steps = api["kernel.expand_derived"](mtrans, prems, 100)
    assert [s.rule for s in steps] == ["Msrefl", "Msub1"]
    assert api["syntax.tokenize"]("x : r0")[-1] == ""
    with pytest.raises(api["syntax.ParseError"]):
        api["syntax.parse_formula"]("x : r0 ->", system)
    frames = list(api["search.enumerate_frames"](system, 2))
    assert len(frames) == 4
    assert not any(api["semantics.validate_frame"](f) for f in frames)
    result = api["search.find_countermodel"](
        system, [], api["syntax.parse_formula"]("x : r0 -> [M] r0", system),
        api["search.SearchBudget"](max_worlds=2))
    assert isinstance(result, api["search.Found"])
    assert api["semantics.print_structure"](result.structure).startswith(
        "system MSQR\n")
    result = api["search.find_countermodel"](
        system, [], api["syntax.parse_formula"]("x : r0 -> r0", system),
        api["search.SearchBudget"](max_worlds=2))
    assert not isinstance(result, api["search.Found"])
    assert result.frames_checked == 1 + len(frames)
    assert api["cli.main"](["check", str(CORPUS / "msqr" / "thm1.prf")]) == 0
    assert capsys.readouterr().out == "accepted\n"


# -- installed entry point ---------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qrmodal.cli", "check",
         str(CORPUS / "mspqr" / "thm3.prf")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "accepted\n"


def test_console_script_on_path():
    exe = shutil.which("qrmodal")
    if exe is None:
        pytest.skip("qrmodal not on PATH")
    proc = subprocess.run([exe, "check", str(CORPUS / "msqr" / "thm1.prf")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
