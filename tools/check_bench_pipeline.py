#!/usr/bin/env python3
"""Schema check for BENCH_pipeline.json (bench/perf_pipeline.cc).

Validates that the pipeline throughput report carries everything the
study promises: the equivalence block (bitwise batched-vs-per-record
pins for both transition kernels, plus the scalar/packed cross-check
with its tolerance re-verified numerically), the kernel-gate block
(the packed kernel's in-memory speedup over scalar at batch 1024,
re-derived from its cells and, outside --smoke output, checked
against its own threshold), the kernel-labeled shard
timings, and the supervised-sweep tallies.

Usage: check_bench_pipeline.py PATH/TO/BENCH_pipeline.json
"""

import json
import sys

KERNELS = ("scalar", "packed")


def fail(message):
    print(f"check_bench_pipeline: {message}", file=sys.stderr)
    sys.exit(1)


def require(data, key, kinds):
    if key not in data:
        fail(f"missing key '{key}'")
    if not isinstance(data[key], kinds):
        fail(f"key '{key}' has type {type(data[key]).__name__}, "
             f"expected {kinds}")
    return data[key]


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench_pipeline.py BENCH_pipeline.json")
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        fail(f"cannot read {sys.argv[1]}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{sys.argv[1]} is not valid JSON: {err}")

    if require(data, "bench", str) != "pipeline":
        fail(f"bench is {data['bench']!r}, expected 'pipeline'")
    require(data, "threads", int)
    require(data, "total_wall_ms", (int, float))

    # Equivalence block: the bitwise pins must have run for both
    # kernels, and the scalar/packed cross-check must sit under its
    # own stated tolerance.
    equiv = require(data, "equivalence", dict)
    if not isinstance(equiv.get("pins"), int) or equiv["pins"] < 1:
        fail("equivalence missing/invalid 'pins'")
    for key in ("cross_kernel_rel_dev", "cross_kernel_tolerance"):
        if not isinstance(equiv.get(key), (int, float)):
            fail(f"equivalence missing/invalid '{key}'")
        if equiv[key] < 0:
            fail(f"equivalence '{key}' is negative")
    if equiv.get("passed") is not True:
        fail("equivalence.passed is not true")
    if equiv["cross_kernel_rel_dev"] > equiv["cross_kernel_tolerance"]:
        fail(f"cross-kernel deviation "
             f"{equiv['cross_kernel_rel_dev']} exceeds the stated "
             f"tolerance {equiv['cross_kernel_tolerance']}")

    # Kernel gate: one timed cell per kernel, and the reported speedup
    # must match the cells. The full run must also clear the stated
    # threshold; a smoke run (the ctest) only reports its verdict, so
    # a loaded host cannot fail it.
    gate = require(data, "kernel_gate", dict)
    if not isinstance(gate.get("batch"), int) or gate["batch"] < 1:
        fail("kernel_gate missing/invalid 'batch'")
    if not isinstance(gate.get("reps"), int) or gate["reps"] < 1:
        fail("kernel_gate missing/invalid 'reps'")
    cells = require(gate, "cells", list)
    walls = {}
    for i, cell in enumerate(cells):
        if cell.get("kernel") not in KERNELS:
            fail(f"kernel_gate cells[{i}] has unknown kernel "
                 f"{cell.get('kernel')!r}")
        if not isinstance(cell.get("wall_ms"), (int, float)) or \
                cell["wall_ms"] <= 0:
            fail(f"kernel_gate cells[{i}] missing/invalid 'wall_ms'")
        walls[cell["kernel"]] = cell["wall_ms"]
    for kernel in KERNELS:
        if kernel not in walls:
            fail(f"kernel_gate has no '{kernel}' cell")
    for key in ("speedup", "threshold"):
        if not isinstance(gate.get(key), (int, float)):
            fail(f"kernel_gate missing/invalid '{key}'")
    if gate["threshold"] < 5.0:
        fail(f"kernel_gate threshold {gate['threshold']} is below "
             f"the required 5x")
    smoke = require(gate, "smoke", bool)
    passed = require(gate, "passed", bool)
    if not smoke:
        if not passed:
            fail("kernel_gate.passed is not true")
        if gate["speedup"] < gate["threshold"]:
            fail(f"kernel_gate speedup {gate['speedup']} is below the "
                 f"threshold {gate['threshold']}")
    derived = walls["scalar"] / walls["packed"]
    if abs(derived - gate["speedup"]) > 0.05 * derived:
        fail(f"kernel_gate speedup {gate['speedup']} does not match "
             f"the cell timings ({derived:.3f})")

    # Kernel-labeled shard timings: every timing label carries its
    # kernel prefix, and both kernels appear.
    shards = require(data, "shards", list)
    if not shards:
        fail("shards is empty")
    kernels_seen = set()
    for i, shard in enumerate(shards):
        label = shard.get("label")
        if not isinstance(label, str) or \
                not isinstance(shard.get("wall_ms"), (int, float)):
            fail(f"shards[{i}] missing label/wall_ms")
        prefix = label.split("/", 1)[0]
        if prefix not in KERNELS:
            fail(f"shards[{i}] label {label!r} lacks a kernel "
                 f"prefix")
        kernels_seen.add(prefix)
    if kernels_seen != set(KERNELS):
        fail(f"shard labels cover kernels {sorted(kernels_seen)}, "
             f"expected both of {KERNELS}")

    # Supervised sweep tallies: every shard completed.
    sup = require(data, "supervisor", dict)
    for key in ("ok", "retried", "timed_out", "quarantined"):
        if not isinstance(sup.get(key), int) or sup[key] < 0:
            fail(f"supervisor missing/invalid '{key}'")
    if sup["ok"] < 1:
        fail("supervisor reports no successful shards")
    if sup["timed_out"] or sup["quarantined"]:
        fail("supervisor reports incomplete shards")

    verdict = ">=" if passed else "< (advisory, smoke)"
    print(f"check_bench_pipeline: OK ({equiv['pins']} pins, "
          f"{len(shards)} shards, kernel speedup "
          f"{gate['speedup']:.1f}x {verdict} {gate['threshold']:.0f}x)")


if __name__ == "__main__":
    main()
