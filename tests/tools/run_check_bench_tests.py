#!/usr/bin/env python3
"""Self-tests for tools/check_bench.py (ctest: check_bench.negative).

Each bench gets a minimal well-formed report that the checker must
accept. Doctored copies of it must then be rejected: a missing
RunMeta key (every key, every bench), the wrong bench name, a kernel
gate speedup that disagrees with its cells, a full-run gate miss,
a cross-kernel deviation or a steady-state error above its stated
tolerance, and fabric hops < transactions. A gate miss in smoke
output must still be accepted, since the smoke run only reports it.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CHECKER = os.path.join(REPO, "tools", "check_bench.py")
sys.path.insert(0, os.path.join(REPO, "tools"))

import check_bench  # noqa: E402

RUN_META_KEYS = ("bench", "threads", "total_wall_ms",
                 "shard_total_ms", "tasks_run", "steals", "shards")

failures = []


def report(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}" + (f": {detail}" if not ok else ""))
    if not ok:
        failures.append(name)


def run_meta(bench, shards):
    return {
        "bench": bench, "threads": 4, "total_wall_ms": 120.0,
        "shard_total_ms": sum(ms for _, ms in shards),
        "tasks_run": 10, "steals": 2,
        "shards": [{"label": label, "wall_ms": ms}
                   for label, ms in shards],
    }


def pipeline_doc():
    doc = run_meta("pipeline", [("scalar/bi", 4.0),
                                ("packed/bi", 1.5)])
    doc.update({
        "supervisor": {"ok": 2, "retried": 0, "timed_out": 0,
                       "quarantined": 0, "max_retries": 2,
                       "deadline_ms": 0.0},
        "kernel_gate": {"batch": 1024, "reps": 3, "smoke": False,
                        "passed": True, "speedup": 6.0,
                        "threshold": 5.0,
                        "cells": [{"kernel": "scalar", "wall_ms": 60.0},
                                  {"kernel": "packed",
                                   "wall_ms": 10.0}]},
        "equivalence": {"pins": 48, "cross_kernel_rel_dev": 1e-12,
                        "cross_kernel_tolerance": 1e-9,
                        "passed": True},
    })
    return doc


def fabric_doc():
    doc = run_meta("fabric", [("segments4", 3.0),
                              ("segments36", 9.0)])
    doc.update({
        "topology": "mesh", "segments": 36, "pattern": "hotspot",
        "segments_summary": [
            {"segment": i, "transmissions": 10,
             "energy_self_j": 1e-12, "energy_coupling_j": 2e-12,
             "avg_temp_k": 318.0, "max_temp_k": 319.0,
             "thermal_faults": 0} for i in range(4)],
        "target": {"transactions": 100, "hops": 250,
                   "last_cycle": 5000, "epochs": 3,
                   "thermal_faults": 0, "total_energy_j": 1e-9,
                   "max_temp_k": 319.0},
    })
    return doc


def thermal_doc():
    cells = [(32, "rk4"), (32, "tr-bdf2"), (512, "tr-bdf2")]
    doc = run_meta("thermal", [(f"w{w}/{s}", 1.0) for w, s in cells])
    doc.update({
        "equivalence": {"steady_rel_err_rk4": 1e-9,
                        "steady_rel_err_trbdf2": 1e-10,
                        "steady_tolerance": 1e-6,
                        "transient_rel_dev_trbdf2": 1e-4,
                        "passed": True},
        "cells": [{"width": w, "solver": s, "intervals": 10,
                   "wall_ms": 1.0, "ms_per_interval": 0.1}
                  for w, s in cells],
        "acceptance": {"implicit_width": 512, "rk4_width": 32,
                       "implicit_solver": "tr-bdf2",
                       "implicit_ms_per_interval": 0.01,
                       "rk4_ms_per_interval": 0.5, "speedup": 50.0,
                       "passed": True},
    })
    return doc


DOCS = {"pipeline": pipeline_doc, "fabric": fabric_doc,
        "thermal": thermal_doc}


def verdict(bench, doc):
    """None when accepted, else the rejection message."""
    try:
        check_bench.check(bench, doc)
        return None
    except check_bench.CheckError as err:
        return str(err)


def expect_accepted(name, bench, doc):
    msg = verdict(bench, doc)
    report(name, msg is None, f"rejected: {msg}")


def expect_rejected(name, bench, doc, reason):
    """Rejected, and for the doctored field: the message must contain
    `reason`."""
    msg = verdict(bench, doc)
    report(name, msg is not None and reason in msg,
           "accepted" if msg is None else f"rejected for: {msg}")


def doctored(bench, edit):
    doc = copy.deepcopy(DOCS[bench]())
    edit(doc)
    return doc


def gate_miss(smoke):
    def edit(doc):
        gate = doc["kernel_gate"]
        gate.update(smoke=smoke, passed=False, speedup=4.0)
        gate["cells"][1]["wall_ms"] = 15.0  # 60 / 15 = 4x < 5x
    return edit


def test_documents():
    print("in-process documents:")
    for bench in DOCS:
        expect_accepted(f"{bench}:well-formed", bench, DOCS[bench]())
        for key in RUN_META_KEYS:
            expect_rejected(f"{bench}:missing-{key}", bench,
                            doctored(bench, lambda d: d.pop(key)),
                            f"'{key}'")
        other = next(b for b in DOCS if b != bench)
        expect_rejected(f"{bench}:bench-name-{other}", bench,
                        doctored(bench,
                                 lambda d: d.update(bench=other)),
                        f"expected {bench!r}")
    expect_rejected(
        "pipeline:speedup-disagrees-with-cells", "pipeline",
        doctored("pipeline",
                 lambda d: d["kernel_gate"].update(speedup=8.0)),
        "does not match the cell timings")
    expect_rejected("pipeline:full-run-gate-miss", "pipeline",
                    doctored("pipeline", gate_miss(smoke=False)),
                    "kernel_gate.passed is not true")
    expect_accepted("pipeline:smoke-run-gate-miss", "pipeline",
                    doctored("pipeline", gate_miss(smoke=True)))
    expect_rejected(
        "pipeline:cross-kernel-above-tolerance", "pipeline",
        doctored("pipeline", lambda d: d["equivalence"].update(
            cross_kernel_rel_dev=2e-9)),
        "cross-kernel deviation")
    for solver in ("rk4", "trbdf2"):
        expect_rejected(
            f"thermal:steady-{solver}-above-tolerance", "thermal",
            doctored("thermal", lambda d: d["equivalence"].update(
                {f"steady_rel_err_{solver}": 2e-6})),
            f"'steady_rel_err_{solver}' 2e-06 exceeds")
    expect_rejected(
        "fabric:hops-below-transactions", "fabric",
        doctored("fabric",
                 lambda d: d["target"].update(hops=99)),
        "hops < transactions")


def test_command_line():
    print("command line:")
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        bad = os.path.join(tmp, "bad.json")
        with open(good, "w", encoding="utf-8") as fh:
            json.dump(fabric_doc(), fh)
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(doctored("fabric",
                               lambda d: d["target"].update(hops=1)),
                      fh)
        for name, args, want in (("accepts", ["fabric", good], 0),
                                 ("rejects", ["fabric", bad], 1),
                                 ("usage", [good], 2)):
            proc = subprocess.run([sys.executable, CHECKER, *args],
                                  capture_output=True, text=True)
            report(f"cli:{name}", proc.returncode == want,
                   f"rc={proc.returncode}, stderr={proc.stderr[:200]}")


def main():
    test_documents()
    test_command_line()
    if failures:
        print(f"\n{len(failures)} check_bench self-test failure(s): "
              f"{failures}", file=sys.stderr)
        return 1
    print("\ncheck_bench self-tests: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
