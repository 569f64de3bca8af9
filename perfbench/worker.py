"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '{"mode": "pass", "workload": "proofs",
                                  "seed": 1, "trace": false}'

Mode "setup" imports qrmodal from the checkout and builds the inputs,
and nothing else; the runner times it from outside.  Mode "pass" also
runs every operation of the workload once, one after another, checks
each answer against the known one, and prints one JSON line: per
operation its group, latency, outcome and failure class, plus peak RSS
and, when traced, the per-layer digest of the spans.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

OK, FAILED, WRONG = "ok", "failed", "wrong"
# seconds of operations between two samples of the machine's speed
CALIBRATION_EVERY_S = 0.2


def calibration_slice() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches
    qrmodal.  Sampled between operations, it tells how fast the machine
    ran at the time; run.py scales every measured time by it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def import_qrmodal() -> float:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import qrmodal.cli  # noqa: F401  (pulls in every module of the package)
    import_s = time.perf_counter() - t0
    import qrmodal
    if Path(qrmodal.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit("error: qrmodal was not imported from %s" % src)
    return import_s


def expected_frames(system: str, bound: int) -> int:
    return sum(inputs.FRAME_SENTINELS[system][:bound])


def structures(q: dict) -> int:
    """Structures a NotFoundWithin search must visit: per frame of n
    worlds, 2^(props*n) valuations times n^labels interpretations."""
    return sum(count * 2 ** (q["props"] * n) * n ** q["labels"]
               for n, count in enumerate(
                   inputs.FRAME_SENTINELS[q["system"]][:q["bound"]], 1))


class Pass:
    def __init__(self, seed: int, trace: bool):
        self.seed, self.trace = seed, trace
        self.records: list = []
        self.errors: list[str] = []
        self.extra_s = 0.0
        self.digest: dict = {}
        # (operations done before the slice, seconds it took)
        self.calibration = [(0, calibration_slice())]
        self.since_calibration = 0.0

    def record(self, group, latency, status, cls, what):
        self.records.append([group, latency, status, cls])
        if status == WRONG and len(self.errors) < 10:
            self.errors.append("%s: %s (%s)" % (group, what, cls))
        self.since_calibration += latency
        if self.since_calibration >= CALIBRATION_EVERY_S:
            self.calibration.append((len(self.records), calibration_slice()))
            self.since_calibration = 0.0

    def finish_calibration(self) -> float:
        """Give every operation the mean of the calibration slices just
        before and just after it; return the mean over the pass."""
        self.calibration.append((len(self.records), calibration_slice()))
        k = 0
        for i, rec in enumerate(self.records):
            while self.calibration[k + 1][0] <= i:
                k += 1
            before, after = self.calibration[k][1], self.calibration[k + 1][1]
            rec.append((before + after) / 2)
        return sum(c for _, c in self.calibration) / len(self.calibration)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append("sentinel: " + message)

    # -- proofs ------------------------------------------------------------

    def proofs(self, ops, tracer) -> None:
        from qrmodal import kernel
        from qrmodal.syntax import ParseError
        rejected = 0
        for i, op in enumerate(ops):
            report = err = None
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                report = kernel.check(kernel.parse_script(op["text"]))
            except Exception as e:  # every failure is classified below
                err = e
            latency = time.perf_counter() - t0
            if err is not None:
                if op["stress"] and isinstance(err, ParseError):
                    status, cls = OK, None  # a clean refusal of a deep input
                else:
                    cls = ("recursion" if isinstance(err, RecursionError)
                           else "exception:" + type(err).__name__)
                    status = FAILED if op["stress"] else WRONG
            else:
                reasons = {d.reason for d in report.diagnostics}
                rejected += not report.accepted
                good = (report.accepted if op["expect"] == "accepted" else
                        not report.accepted and op["reason"] in reasons)
                status, cls = (OK, None) if good else (WRONG, "verdict")
            self.record(op["kind"], latency, status, cls,
                        "expected %s %s" % (op["expect"], op["reason"] or ""))
        expect = sum(op["expect"] == "rejected" for op in ops)
        self.check(rejected == expect, "kernel.rejections %d, expected %d"
                   % (rejected, expect))
        if tracer:
            self.digest = spans.digest(tracer.spans)
            steps = {i: op["steps"] for i, op in enumerate(ops)
                     if op["kind"] == "chain"}
            self.digest["chain"] = [
                [steps[i], t["kernel.check"]]
                for i, t in self.digest["per_op"].items() if i in steps]

    # -- search ------------------------------------------------------------

    def enumeration_sentinels(self, search, syntax) -> None:
        for name in inputs.SYSTEMS:
            counts = tuple(len(list(search.enumerate_frames(
                syntax.System(name), n))) for n in range(1, 5))
            self.check(counts == inputs.FRAME_SENTINELS[name],
                       "%s frames per size %s" % (name, counts))

    def search(self, ops, tracer) -> None:
        from qrmodal import search, semantics, syntax
        if tracer:
            # cold enumeration in spans of its own, before any query
            t0 = time.perf_counter()
            self.enumeration_sentinels(search, syntax)
            self.extra_s = time.perf_counter() - t0
        for i, op in enumerate(ops):
            res = err = None
            system = syntax.System(op["system"])
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                gamma = [syntax.parse_formula(a, system)
                         for a in op["assumptions"]]
                goal = syntax.parse_formula(op["goal"], system)
                res = search.find_countermodel(
                    system, gamma, goal,
                    search.SearchBudget(max_worlds=op["bound"]))
            except Exception as e:  # every failure is classified below
                err = e
            latency = time.perf_counter() - t0
            group = "%s.%d" % (op["kind"], op["bound"])
            if err is not None:
                self.record(group, latency, WRONG,
                            "exception:" + type(err).__name__, op["goal"])
                continue
            if op["kind"] == "theorem":
                good = (not isinstance(res, search.Found) and
                        res.frames_checked == expected_frames(op["system"],
                                                              op["bound"]))
            else:
                good = isinstance(res, search.Found) and self.countermodel(
                    semantics.print_structure(res.structure), op)
            self.record(group, latency, OK if good else WRONG,
                        None if good else "verdict", op["goal"])
        if not tracer:
            self.enumeration_sentinels(search, syntax)
            return
        self.digest = spans.digest(tracer.spans)
        self.query_times(dict(enumerate(ops)), self.digest["per_op"])

    @staticmethod
    def countermodel(text: str, q: dict) -> bool:
        model = oracle.read_model(text)
        gamma = [oracle.parse_statement(a) for a in q["assumptions"]]
        return (model["n"] <= q["bound"] and model["system"] == q["system"]
                and oracle.is_countermodel(model, gamma,
                                           oracle.parse_statement(q["goal"])))

    def query_times(self, queries, per_op) -> None:
        """Search seconds per kind of query, and structures per second
        over the NotFoundWithin ones (structure counts from the inputs)."""
        d = self.digest
        d["theorem_s"] = d["refutable_s"] = 0.0
        d["structures"] = [0, 0.0]
        for i, q in queries.items():
            took = per_op.get(i, {}).get("search.find_countermodel")
            if took is None:
                continue
            d[q["kind"] + "_s"] += took
            if q["kind"] == "theorem":
                d["structures"][0] += structures(q)
                d["structures"][1] += took

    # -- cli ---------------------------------------------------------------

    def cli(self, ops, files) -> None:
        work = OUT / ("work-%d" % os.getpid())
        write_files(work, files)
        trace_dir = OUT / "spans" / ("cli-seed%d-%d"
                                     % (self.seed, os.getpid()))
        if self.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
        try:
            for i, op in enumerate(ops):
                argv = [a.replace("{work}", str(work)).replace("{root}",
                                                               str(ROOT))
                        for a in op["args"]]
                out = str(trace_dir / ("%d.jsonl" % i)) if self.trace else "-"
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "launch.py"), out] + argv,
                    capture_output=True, text=True, timeout=120, cwd=ROOT)
                latency = time.perf_counter() - t0
                status, cls = judge_cli(op, proc)
                self.record(op["group"], latency, status, cls,
                            " ".join(op["args"][:3]))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if self.trace:
            self.merge_children(ops, trace_dir)

    def merge_children(self, ops, trace_dir) -> None:
        merged = spans.digest([])
        merged["import_s"] = []
        cold: dict = {}
        per_op = {}
        queries = {}
        for i, op in enumerate(ops):
            extra, recs = spans.load(trace_dir / ("%d.jsonl" % i))
            d = spans.digest(recs)
            merged["import_s"].append(extra["import_s"])
            for name, row in d["layers"].items():
                acc = merged["layers"].setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += row[k]
            for key in spans.COUNTERS:
                merged[key] += d[key]
            for key, (took, frames) in d["cold"].items():
                cold.setdefault(key, []).append((took, frames))
            if "query" in op:
                queries[i] = op["query"]
                fcm = d["layers"].get("search.find_countermodel")
                if fcm:
                    per_op[i] = {"search.find_countermodel": fcm[1]}
        merged["cold"] = {key: [sum(t for t, _ in v) / len(v), v[0][1]]
                          for key, v in cold.items()}
        self.digest = merged
        self.query_times(queries, per_op)


def write_files(work: Path, files: dict) -> None:
    for rel, text in files.items():
        path = work / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def judge_cli(op, proc) -> tuple[str, str | None]:
    """(outcome, failure class) of one invocation against its expectation."""
    expect, code = op["expect"], proc.returncode
    out = proc.stdout.splitlines()
    first = out[0] if out else ""
    if "Traceback" in proc.stderr:
        cls = "recursion" if "RecursionError" in proc.stderr else "traceback"
        return (FAILED if op["defect"] else WRONG), cls
    usage = code == 2 and "error:" in proc.stderr
    kind = expect[0]
    if kind == "stdout":
        good = code == expect[1] and first == expect[2]
    elif kind == "rejected":
        good = (code == 1 and first == "rejected" and
                any(": %s: " % expect[1] in line for line in out[1:]))
    elif kind == "found":
        good = code == 0 and Pass.countermodel(proc.stdout, {
            "bound": op["query"]["bound"], "system": op["query"]["system"],
            "assumptions": expect[1], "goal": expect[2]})
    elif kind == "frame":
        if not expect[1]:
            good = code == 0 and out == ["valid"]
        else:
            names = {line.split(" at ", 1)[0] for line in out}
            good = (code == 1 and names == set(expect[1])
                    and set(out) <= set(expect[2]))
    elif kind == "corpus":
        good = (code == (0 if expect[1] == expect[2] else 1) and out and
                out[-1] == "%d/%d entries behaved as expected"
                % (expect[1], expect[2]))
    elif kind == "usage":
        good = usage
    else:  # accepted-or-usage
        good = (code == 0 and first == "accepted") or usage
    if good:
        return OK, None
    return (FAILED if op["defect"] else WRONG), "exit-%d" % code


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workload, seed = cfg["workload"], cfg["seed"]
    import_s = import_qrmodal()
    if workload == "proofs":
        ops = inputs.proofs_inputs(ROOT, seed)
    elif workload == "search":
        ops = inputs.search_inputs(ROOT, seed)
    else:
        ops, files = inputs.cli_inputs(ROOT, seed)
    if cfg["mode"] == "setup":
        if workload == "cli":
            work = OUT / ("setup-%d" % os.getpid())
            write_files(work, files)
            shutil.rmtree(work)
        print(json.dumps({"import_s": import_s}))
        return 0

    run = Pass(seed, cfg["trace"])
    tracer = None
    if cfg["trace"] and workload != "cli":
        tracer = spans.Tracer()
        tracer.install()
    if workload == "proofs":
        run.proofs(ops, tracer)
    elif workload == "search":
        run.search(ops, tracer)
    else:
        run.cli(ops, files)
    if tracer:
        path = OUT / "spans" / ("%s-seed%d-%d.jsonl"
                                % (workload, seed, os.getpid()))
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(path, workload=workload, seed=seed)
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    run.digest.pop("per_op", None)
    if run.digest and workload != "cli":
        run.digest["import_s"] = [import_s]
    cal_s = run.finish_calibration()
    print(json.dumps({
        "ops": run.records, "errors": run.errors, "extra_s": run.extra_s,
        "cal_s": cal_s,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "trace": run.digest or None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
