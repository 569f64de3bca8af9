import importlib
import json
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

from qrmodal import semantics
from qrmodal.cli import main
from qrmodal.search import Found
from qrmodal.semantics import parse_structure
from qrmodal.syntax import parse_formula

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
    # box_u_reflects script as proof.prf
    blocks = readme_blocks()
    proof = next(body for lang, body in blocks
                 if body.startswith("system MSQR\ntheorem box_u_reflects "))
    (tmp_path / "proof.prf").write_text(proof)
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


def test_readme_states_the_kernel_line_count():
    # the README tells an auditor how much the trusted kernel holds
    (stated,) = re.findall(r"`kernel\.py`, ([\d,]+) lines",
                           (REPO / "README.md").read_text())
    kernel_py = REPO / "src" / "qrmodal" / "kernel.py"
    assert int(stated.replace(",", "")) == len(
        kernel_py.read_text().splitlines())


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
    steps = api["kernel.expand_derived"](mtrans, formulas, 100)
    assert [s.rule for s in steps] == ["Msrefl", "Msub1"]
    assert api["syntax.tokenize"]("x : r0")[-1][0] == "end"
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
