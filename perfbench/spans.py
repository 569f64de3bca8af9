"""Spans around qrmodal's public functions, installed from outside.

Tracer.install replaces the module attributes that callers resolve at
call time (qrmodal.kernel.parse_formula, qrmodal.search.validate_frame,
qrmodal.cli.find_countermodel, ...) with wrappers that record one span
per call: name, start, end, parent span, operation id.  Spans stay in
memory until dump().  Self time is a span's duration minus the time
its child spans cover.  Stacks are per thread, so spans opened in the
worker threads of `corpus run` are roots of their own.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# layer boundary -> the attributes through which callers reach it
BOUNDARIES = (
    ("syntax.tokenize", ("syntax.tokenize",)),
    ("syntax.parse_formula", ("syntax.parse_formula", "kernel.parse_formula",
                              "cli.parse_formula")),
    ("syntax.parse_mformula", ("syntax.parse_mformula",
                               "cli.parse_mformula")),
    ("kernel.parse_script", ("kernel.parse_script",)),
    ("kernel.check", ("kernel.check",)),
    ("kernel.expand_derived", ("kernel.expand_derived",)),
    ("semantics.validate_frame", ("semantics.validate_frame",
                                  "search.validate_frame",
                                  "cli.validate_frame")),
    ("semantics.parse_structure", ("semantics.parse_structure",
                                   "cli.parse_structure")),
    ("semantics.evaluate", ("semantics.evaluate", "cli.evaluate")),
    ("semantics.holds", ("semantics.holds", "cli.holds")),
    ("search.enumerate_frames", ("search.enumerate_frames",)),
    ("search.find_countermodel", ("search.find_countermodel",
                                  "cli.find_countermodel")),
    ("cli.main", ("cli.main",)),
)

# span fields
NAME, START, END, PARENT, OP, CHILD, TAG = range(7)
# per-process counts in a digest, summed over processes
COUNTERS = ("tokens", "steps", "rejections", "frames_checked", "enum_frames",
            "enum_validate_calls")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self) -> None:
        for name, paths in BOUNDARIES:
            for path in paths:
                module_name, attr = path.rsplit(".", 1)
                module = importlib.import_module("qrmodal." + module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   0.0, None]
            with lock:
                index = len(spans)
                spans.append(rec)
            stack.append(index)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "search.enumerate_frames":
                    # the benchmark counts the frames; callers only iterate
                    frames = tuple(result)
                    rec[TAG] = ("%s.%d" % (args[0].value.lower(), args[1]),
                                len(frames))
                    result = iter(frames)
                elif name == "syntax.tokenize":
                    rec[TAG] = len(result)
                elif name == "kernel.check":
                    rec[TAG] = (len(args[0].steps), not result.accepted)
                elif name == "search.find_countermodel":
                    rec[TAG] = getattr(result, "frames_checked", None)
                return result
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - rec[START]
                # a closed span becomes a tuple of atoms, which the garbage
                # collector stops tracking, so long traces do not slow it
                spans[index] = tuple(rec)
        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w") as out:
            json.dump(extra, out)
            out.write("\n")
            for rec in self.spans:
                json.dump(rec, out)
                out.write("\n")


def load(path):
    with open(path) as f:
        extra = json.loads(f.readline())
        return extra, [json.loads(line) for line in f]


def digest(spans) -> dict:
    """Per-layer totals of one process's spans: calls, inclusive and self
    seconds per boundary, counters read off the results, the first
    (cold) enumeration per system and size, and per-operation inclusive
    seconds of check and find_countermodel."""
    layers: dict = defaultdict(lambda: [0, 0.0, 0.0])
    out = {"layers": layers, "cold": {}, "per_op": defaultdict(dict),
           **dict.fromkeys(COUNTERS, 0)}
    for rec in spans:
        name, dur = rec[NAME], rec[END] - rec[START]
        row = layers[name]
        row[0] += 1
        row[1] += dur
        row[2] += dur - rec[CHILD]
        tag = rec[TAG]
        if name == "semantics.validate_frame":
            if rec[PARENT] >= 0 and \
                    spans[rec[PARENT]][NAME] == "search.enumerate_frames":
                out["enum_validate_calls"] += 1
        elif tag is None:  # the call raised, or returned nothing to count
            pass
        elif name == "syntax.tokenize":
            out["tokens"] += tag
        elif name == "kernel.check":
            out["steps"] += tag[0]
            out["rejections"] += tag[1]
        elif name == "search.find_countermodel":
            out["frames_checked"] += tag
        elif name == "search.enumerate_frames" and tag[0] not in out["cold"]:
            out["cold"][tag[0]] = [dur, tag[1]]
            out["enum_frames"] += tag[1]
        if name in ("kernel.check", "search.find_countermodel") \
                and rec[OP] is not None:
            out["per_op"][rec[OP]][name] = dur
    out["layers"] = dict(layers)
    out["per_op"] = dict(out["per_op"])
    return out
