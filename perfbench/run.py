"""Benchmark of qrmodal's proof checker, countermodel search and CLI.

    python3 perfbench/run.py --workload proofs|search|cli --seed N \\
        --seconds S --trace 0|1

Run from any directory of a checkout; qrmodal is imported from the
checkout's src/.  Each workload is one closed-loop caller: operations
run one after another, in fresh interpreters ("passes"), each pass
over the whole seeded input set, until the operations have taken at
least S seconds.  Every answer is checked against one known without
qrmodal (see oracle.py and inputs.py); a wrong answer makes the run
print "correct": false and exit 1.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced
pass and then traced passes, and reports the per-layer metrics.  The
last line of output is one JSON object; the lines before it record the
machine, the seed and a readable copy of the numbers, which are also
written to perfbench/out/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from worker import calibration_slice  # noqa: E402

WORKLOADS = ("proofs", "search", "cli")
SETUP_RUNS = 7
STARTUP_RUNS = 5
TIME_LIMIT_S = 170
CLI_GROUPS = ("check", "eval", "countermodel", "frame_validate",
              "corpus_run")
# The speed of a shared machine drifts by 15-25% within seconds, which
# would swamp the differences the benchmark is for.  Every end-to-end
# time is therefore scaled to a machine on which the calibration loop
# (worker.calibration_slice) takes this long, using the loop's own
# times sampled just before and just after each operation.
CAL_REF_S = 0.006


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, cmd: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time after %d s" % TIME_LIMIT_S)
        # own process group, so a timeout also ends the processes the
        # worker started
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=left)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError("out of time after %d s" % TIME_LIMIT_S)
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def timed(self, cmd: list[str]) -> float:
        t0 = time.perf_counter()
        proc = self.spawn(cmd)
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("%s failed:\n%s"
                             % (cmd[1:2], proc.stderr[-3000:]))
        return took

    def worker(self, mode: str, trace: bool = False) -> dict:
        cfg = {"mode": mode, "workload": self.workload, "seed": self.seed,
               "trace": trace}
        proc = self.spawn([sys.executable, str(HERE / "worker.py"),
                           json.dumps(cfg)])
        if proc.returncode != 0:
            raise BenchError("worker failed:\n" + proc.stderr[-3000:])
        return json.loads(proc.stdout.splitlines()[-1])

    def setup(self) -> float:
        """Seconds for a fresh interpreter to import qrmodal and build
        the inputs, scaled by calibration slices taken around it."""
        before = calibration_slice()
        took = self.timed([sys.executable, str(HERE / "worker.py"),
                           json.dumps({"mode": "setup",
                                       "workload": self.workload,
                                       "seed": self.seed})])
        after = calibration_slice()
        return took * 2 * CAL_REF_S / (before + after)

    def passes(self, seconds: float, trace: bool) -> list[dict]:
        # whole passes only, so every run weighs the inputs alike
        done, measured = [], 0.0
        while not done or measured < seconds:
            res = self.worker("pass", trace)
            done.append(res)
            measured += sum(op[1] for op in res["ops"]) + res["extra_s"]
        return done


def self_check(workload: str, seed: int) -> bool:
    """One seed must give byte-identical inputs twice."""
    gen = {"proofs": inputs.proofs_inputs, "search": inputs.search_inputs,
           "cli": inputs.cli_inputs}[workload]
    return inputs.fingerprint(gen(ROOT, seed)) == \
        inputs.fingerprint(gen(ROOT, seed))


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qrmodal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def quantiles(values: list[float]) -> tuple[float, float]:
    ordered = sorted(values)
    return statistics.median(ordered), statistics.quantiles(ordered, n=10)[-1]


def scaled_s(op: list) -> float:
    """An operation's seconds on the reference machine."""
    return op[1] * CAL_REF_S / op[4]


def ops_per_s(passes: list[dict]) -> float:
    took = sum(sum(map(scaled_s, p["ops"])) + p["extra_s"] * CAL_REF_S /
               p["cal_s"] for p in passes)
    return sum(len(p["ops"]) for p in passes) / took


def latencies_ms(p: dict, group: str | None = None) -> list[float]:
    return [scaled_s(op) * 1000.0 for op in p["ops"]
            if group is None or op[0] == group]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Each figure per pass, then the median over the run's passes."""
    def median(f) -> float:
        return statistics.median(f(p) for p in passes)

    def latency(p: dict) -> tuple[float, float]:
        return quantiles(latencies_ms(p))

    ops = [op for p in passes for op in p["ops"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_p50_ms": (median(lambda p: latency(p)[0]), "ms"),
        "verdict_p90_ms": (median(lambda p: latency(p)[1]), "ms"),
        "ops_per_s": (median(lambda p: ops_per_s([p])), "1/s"),
        "ok_ratio": (sum(op[2] == "ok" for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (median(lambda p: p["rss_mb"]), "MB"),
    }


def scaling_exponent(traced: list[dict]) -> float:
    """Least-squares slope of log(check seconds) on log(steps) over the
    Utrans chains; 1.0 is linear."""
    by_size: dict = {}
    for p in traced:
        for steps, took in p["trace"].get("chain", ()):
            by_size.setdefault(steps, []).append(took)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def per_layer(untraced: list[dict], traced: list[dict],
              startup: float) -> dict:
    """Per-pass averages over the traced passes; 0 where the workload
    never reaches the layer."""
    digests = [p["trace"] for p in traced]
    n = len(digests)

    def layer(name: str, k: int) -> float:
        return sum(d["layers"].get(name, (0, 0.0, 0.0))[k]
                   for d in digests) / n

    def count(key: str) -> float:
        return sum(d.get(key, 0) for d in digests) / n

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "syntax.parse_formula.calls": (layer("syntax.parse_formula", 0),
                                       "count"),
        "syntax.parse_formula.self_s": (layer("syntax.parse_formula", 2),
                                        "s"),
        "syntax.tokenize.tokens_per_s": (
            rate(count("tokens"), layer("syntax.tokenize", 2)), "1/s"),
        "syntax.recursion_failures": (sum(
            op[3] == "recursion" for p in traced for op in p["ops"]) / n,
            "count"),
        "kernel.parse_script.self_s": (layer("kernel.parse_script", 2), "s"),
        "kernel.check.self_s": (layer("kernel.check", 2), "s"),
        "kernel.check.steps_per_s": (
            rate(count("steps"), layer("kernel.check", 1)), "1/s"),
        "kernel.check.scaling_exponent": (scaling_exponent(traced), "slope"),
        "kernel.expand_derived.calls": (layer("kernel.expand_derived", 0),
                                        "count"),
        "kernel.expand_derived.self_s": (layer("kernel.expand_derived", 2),
                                         "s"),
        "kernel.rejections": (count("rejections"), "count"),
        "semantics.validate_frame.calls": (
            layer("semantics.validate_frame", 0), "count"),
        "semantics.validate_frame.self_s": (
            layer("semantics.validate_frame", 2), "s"),
        "semantics.parse_structure.self_s": (
            layer("semantics.parse_structure", 2), "s"),
        "semantics.evaluate.self_s": (layer("semantics.evaluate", 2), "s"),
        "semantics.holds.self_s": (layer("semantics.holds", 2), "s"),
    }
    for system in ("msqr", "mspqr"):
        for size in (3, 4):
            key = "%s.%d" % (system, size)
            cold = [d["cold"][key] for d in digests if key in d["cold"]]
            m["search.enumerate_frames.cold_s." + key] = (
                statistics.fmean(c[0] for c in cold) if cold else 0.0, "s")
            m["search.enumerate_frames.frames." + key] = (
                cold[0][1] if cold else 0, "count")
    m.update({
        "search.enumerate.accept_ratio": (rate(
            count("enum_frames"), count("enum_validate_calls")), "ratio"),
        "search.find_countermodel.self_s": (
            layer("search.find_countermodel", 2), "s"),
        "search.structures_per_s": (rate(
            sum(d.get("structures", (0, 0))[0] for d in digests),
            sum(d.get("structures", (0, 0))[1] for d in digests)), "1/s"),
        "search.frames_checked": (count("frames_checked"), "count"),
        "search.theorem_s": (count("theorem_s"), "s"),
        "search.refutable_s": (count("refutable_s"), "s"),
        "cli.python_startup_s": (startup, "s"),
        "cli.import_s": (statistics.median(
            x for d in digests for x in d["import_s"]), "s"),
    })
    for group in CLI_GROUPS:
        lat = [x for p in untraced for x in latencies_ms(p, group)]
        m["cli.%s.p50_ms" % group] = (
            statistics.median(lat) if lat else 0.0, "ms")
    m["trace.overhead_ratio"] = (ops_per_s(traced) / ops_per_s(untraced),
                                 "ratio")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qrmodal" / "__init__.py").is_file():
        print("error: no qrmodal package at %s" % (ROOT / "src" / "qrmodal"),
              file=sys.stderr)
        return 2

    run = Runner(args.workload, args.seed)
    try:
        deterministic = self_check(args.workload, args.seed)
        startup = statistics.median(
            run.timed([sys.executable, "-c", "pass"])
            for _ in range(STARTUP_RUNS))
        if args.trace:
            untraced = run.passes(0, trace=False)
            passes = run.passes(args.seconds, trace=True)
            metrics = per_layer(untraced, passes, startup)
            passes = untraced + passes
        else:
            setup = [run.setup() for _ in range(SETUP_RUNS)]
            passes = run.passes(args.seconds, trace=False)
            metrics = end_to_end(passes, setup)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op[2] != "ok"]
    errors = [e for p in passes for e in p["errors"]]
    if not deterministic:
        errors.append("inputs differ between two generations of one seed")
    correct = not errors and all(op[2] != "wrong" for op in ops)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": sys.version.split()[0], "nproc": os.cpu_count(),
           "commit": commit(), "source_sha256": source_digest(),
           "cli.python_startup_s": startup, "passes": len(passes),
           "calibration_s": statistics.median(p["cal_s"] for p in passes),
           "reference_calibration_s": CAL_REF_S,
           "operations": len(ops),
           "failure_classes": dict(Counter(op[3] for op in failed))}
    report = {"correct": correct, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {name: {"value": v, "unit": u}
                          for name, (v, u) in metrics.items()}}
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                            args.trace))).write_text(
        json.dumps({"env": env, "errors": errors, **report}, indent=1))

    print("# " + json.dumps(env, sort_keys=True))
    for e in errors:
        print("# WRONG " + e)
    for name, (v, u) in metrics.items():
        print("# %-44s %14.6g %s" % (name, v, u))
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
