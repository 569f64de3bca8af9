import json
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from qrmodal.cli import main
from qrmodal.semantics import parse_structure

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
    err = capsys.readouterr().err
    assert "not-serial" in err or "serial" in err


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
    gamma_dir = Path(str(CORPUS))
    del gamma_dir
    code = main(["countermodel", "x : r0 -> [M] r0", "--max-worlds", "2",
                 "--props", "r0"])
    assert code == 0
    capsys.readouterr()


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
    assert proc.stderr.startswith("error: 4:1:")
    assert "Traceback" not in proc.stderr


def test_blank_separated_ids_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "ids.prf"
    path.write_text("system MSQR\ntheorem t : x : p\n1. x : p -> p ; hyp\n"
                    "2. x : p ; hyp\n3. x : p ; ImpE 1 2\nqed\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 5:1: premise ids must be separated by commas")


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
