#!/usr/bin/env python3
"""Schema and claim check for the BENCH_*.json reports of the perf
benches (bench/perf_pipeline.cc, perf_fabric.cc, perf_thermal.cc).

Every report opens with the RunMeta block (bench/bench_common.hh):
bench name, thread count, total and per-shard wall-clock, and the
pool counters. That
block is validated once for every bench. One section per bench then
re-derives the claims the report makes:

  pipeline  bitwise equivalence pins for both transition kernels and
            the scalar/packed cross-check under its stated tolerance;
            the kernel gate's speedup re-derived from its cells and,
            outside --smoke output, held to its threshold;
            kernel-labeled shard timings; supervised-sweep tallies.
  fabric    workload descriptor, per-segment energy/thermal rollup,
            target-cell aggregate (every route is >= 1 hop), and a
            shard for the target cell.
  thermal   steady-state errors under the stated tolerance, the
            width x solver cell table, and the acceptance verdict
            (widest implicit cell faster per interval than the
            narrowest RK4 cell), one shard per cell.

Usage: check_bench.py {pipeline,fabric,thermal} PATH/TO/BENCH.json
Exit status: 0 when the report holds, 1 when it does not, 2 on usage
errors.
"""

import json
import sys

NUMBER = (int, float)
KERNELS = ("scalar", "packed")
SOLVERS = ("rk4", "tr-bdf2")


class CheckError(Exception):
    """The report is malformed or does not back one of its claims."""


def fail(message):
    raise CheckError(message)


def field(block, key, kinds, where, minimum=None):
    """block[key], which must be of `kinds` and at least `minimum`."""
    value = block.get(key) if isinstance(block, dict) else None
    if not isinstance(value, kinds) or (
            minimum is not None and value < minimum):
        fail(f"{where} missing/invalid '{key}'")
    return value


def check_run_meta(data, bench):
    """The RunMeta block every bench writes; returns the shards."""
    name = field(data, "bench", str, "report")
    if name != bench:
        fail(f"bench is {name!r}, expected {bench!r}")
    field(data, "threads", int, "report", minimum=1)
    field(data, "total_wall_ms", NUMBER, "report", minimum=0)
    shard_total = field(data, "shard_total_ms", NUMBER, "report",
                        minimum=0)
    field(data, "tasks_run", int, "report", minimum=0)
    field(data, "steals", int, "report", minimum=0)
    shards = field(data, "shards", list, "report")
    if not shards:
        fail("shards is empty")
    for i, shard in enumerate(shards):
        field(shard, "label", str, f"shards[{i}]")
        field(shard, "wall_ms", NUMBER, f"shards[{i}]", minimum=0)
    # Each entry is printed to 3 decimals; allow their rounding.
    summed = sum(shard["wall_ms"] for shard in shards)
    if abs(summed - shard_total) > 0.001 * (len(shards) + 1):
        fail(f"shard_total_ms {shard_total} is not the sum of the "
             f"shard timings ({summed:.3f})")
    return shards


def check_pipeline(data, shards):
    # Equivalence: the bitwise pins ran for both kernels, and the
    # scalar/packed cross-check sits under its own stated tolerance.
    equiv = field(data, "equivalence", dict, "report")
    pins = field(equiv, "pins", int, "equivalence", minimum=1)
    dev = field(equiv, "cross_kernel_rel_dev", NUMBER, "equivalence",
                minimum=0)
    tol = field(equiv, "cross_kernel_tolerance", NUMBER,
                "equivalence", minimum=0)
    if equiv.get("passed") is not True:
        fail("equivalence.passed is not true")
    if dev > tol:
        fail(f"cross-kernel deviation {dev} exceeds the stated "
             f"tolerance {tol}")

    # Kernel gate: one timed cell per kernel, and the reported speedup
    # must match the cells. The full run must also clear the stated
    # threshold; a smoke run (the ctest) only reports its verdict, so
    # a loaded host cannot fail it.
    gate = field(data, "kernel_gate", dict, "report")
    field(gate, "batch", int, "kernel_gate", minimum=1)
    field(gate, "reps", int, "kernel_gate", minimum=1)
    walls = {}
    for i, cell in enumerate(field(gate, "cells", list, "kernel_gate")):
        kernel = cell.get("kernel") if isinstance(cell, dict) else None
        if kernel not in KERNELS:
            fail(f"kernel_gate cells[{i}] has unknown kernel "
                 f"{kernel!r}")
        wall = field(cell, "wall_ms", NUMBER, f"kernel_gate cells[{i}]")
        if wall <= 0:
            fail(f"kernel_gate cells[{i}] missing/invalid 'wall_ms'")
        walls[kernel] = wall
    for kernel in KERNELS:
        if kernel not in walls:
            fail(f"kernel_gate has no '{kernel}' cell")
    speedup = field(gate, "speedup", NUMBER, "kernel_gate")
    threshold = field(gate, "threshold", NUMBER, "kernel_gate")
    if threshold < 5.0:
        fail(f"kernel_gate threshold {threshold} is below the "
             f"required 5x")
    smoke = field(gate, "smoke", bool, "kernel_gate")
    passed = field(gate, "passed", bool, "kernel_gate")
    if not smoke:
        if not passed:
            fail("kernel_gate.passed is not true")
        if speedup < threshold:
            fail(f"kernel_gate speedup {speedup} is below the "
                 f"threshold {threshold}")
    derived = walls["scalar"] / walls["packed"]
    if abs(derived - speedup) > 0.05 * derived:
        fail(f"kernel_gate speedup {speedup} does not match the cell "
             f"timings ({derived:.3f})")

    # Every shard timing label carries its kernel prefix, and both
    # kernels appear.
    prefixes = set()
    for i, shard in enumerate(shards):
        prefix = shard["label"].split("/", 1)[0]
        if prefix not in KERNELS:
            fail(f"shards[{i}] label {shard['label']!r} lacks a "
                 f"kernel prefix")
        prefixes.add(prefix)
    if prefixes != set(KERNELS):
        fail(f"shard labels cover kernels {sorted(prefixes)}, "
             f"expected both of {KERNELS}")

    # Supervised sweep tallies: every shard completed.
    sup = field(data, "supervisor", dict, "report")
    for key in ("ok", "retried", "timed_out", "quarantined"):
        field(sup, key, int, "supervisor", minimum=0)
    if sup["ok"] < 1:
        fail("supervisor reports no successful shards")
    if sup["timed_out"] or sup["quarantined"]:
        fail("supervisor reports incomplete shards")

    verdict = ">=" if passed else "< (advisory, smoke)"
    return (f"{pins} pins, {len(shards)} shards, kernel speedup "
            f"{speedup:.1f}x {verdict} {threshold:.0f}x")


def check_fabric(data, shards):
    topology = field(data, "topology", str, "report")
    if topology not in ("mesh", "ring", "crossbar"):
        fail(f"unknown topology {topology!r}")
    segments = field(data, "segments", int, "report", minimum=1)
    pattern = field(data, "pattern", str, "report")
    if pattern not in ("uniform", "hotspot", "neighbor"):
        fail(f"unknown pattern {pattern!r}")

    # Per-segment rollup of the target cell, densely indexed.
    rollup = field(data, "segments_summary", list, "report")
    if not rollup:
        fail("segments_summary is empty")
    seg_keys = {
        "segment": int,
        "transmissions": int,
        "energy_self_j": NUMBER,
        "energy_coupling_j": NUMBER,
        "avg_temp_k": NUMBER,
        "max_temp_k": NUMBER,
        "thermal_faults": int,
    }
    for i, entry in enumerate(rollup):
        for key, kinds in seg_keys.items():
            field(entry, key, kinds, f"segments_summary[{i}]")
    if [entry["segment"] for entry in rollup] != \
            list(range(len(rollup))):
        fail("segments_summary is not densely indexed from 0")

    # Target-cell aggregate: every route is at least one segment.
    target = field(data, "target", dict, "report")
    for key in ("transactions", "hops", "last_cycle", "epochs",
                "thermal_faults"):
        field(target, key, int, "target")
    for key in ("total_energy_j", "max_temp_k"):
        field(target, key, NUMBER, "target")
    if target["transactions"] < 1:
        fail("target ran zero transactions")
    if target["hops"] < target["transactions"]:
        fail("target hops < transactions (routes are >= 1 segment)")

    if not any(s["label"] == f"segments{segments}" for s in shards):
        fail(f"no shard for the target cell 'segments{segments}'")
    return (f"{len(rollup)} segments, {len(shards)} cells, "
            f"topology={topology}")


def check_thermal(data, shards):
    # Equivalence pins: every error is non-negative, the steady-state
    # ones sit under the stated tolerance, and the block says so.
    equiv = field(data, "equivalence", dict, "report")
    for key in ("steady_rel_err_rk4", "steady_rel_err_trbdf2",
                "steady_tolerance", "transient_rel_dev_trbdf2"):
        field(equiv, key, NUMBER, "equivalence", minimum=0)
    if equiv.get("passed") is not True:
        fail("equivalence.passed is not true")
    tol = equiv["steady_tolerance"]
    for key in ("steady_rel_err_rk4", "steady_rel_err_trbdf2"):
        if equiv[key] > tol:
            fail(f"equivalence '{key}' {equiv[key]} exceeds the "
                 f"stated tolerance {tol}")

    # Cell table: width ladder x solver with per-interval timings.
    cells = field(data, "cells", list, "report")
    if not cells:
        fail("cells is empty")
    for i, cell in enumerate(cells):
        field(cell, "width", int, f"cells[{i}]", minimum=1)
        if cell.get("solver") not in SOLVERS:
            fail(f"cells[{i}] has unknown solver "
                 f"{cell.get('solver')!r}")
        field(cell, "intervals", int, f"cells[{i}]", minimum=1)
        for key in ("wall_ms", "ms_per_interval"):
            field(cell, key, NUMBER, f"cells[{i}]", minimum=0)
    solvers_seen = {cell["solver"] for cell in cells}
    if "rk4" not in solvers_seen:
        fail("no rk4 oracle cell in the ladder")
    if not solvers_seen - {"rk4"}:
        fail("no implicit cell in the ladder")

    # Acceptance verdict: widest implicit vs narrowest RK4.
    accept = field(data, "acceptance", dict, "report")
    for key in ("implicit_width", "rk4_width"):
        field(accept, key, int, "acceptance", minimum=1)
    if accept.get("implicit_solver") not in SOLVERS[1:]:
        fail(f"acceptance has unknown implicit solver "
             f"{accept.get('implicit_solver')!r}")
    for key in ("implicit_ms_per_interval", "rk4_ms_per_interval",
                "speedup"):
        field(accept, key, NUMBER, "acceptance")
    if accept.get("passed") is not True:
        fail("acceptance.passed is not true")
    if accept["implicit_ms_per_interval"] >= \
            accept["rk4_ms_per_interval"]:
        fail("acceptance claims passed but the implicit cell is not "
             "faster than the RK4 baseline")

    if len(shards) != len(cells):
        fail(f"{len(shards)} shards but {len(cells)} cells")
    widths = sorted({cell["width"] for cell in cells})
    return (f"{len(cells)} cells, widths {widths}, speedup "
            f"{accept['speedup']:.1f}x")


BENCHES = {
    "pipeline": check_pipeline,
    "fabric": check_fabric,
    "thermal": check_thermal,
}


def check(bench, data):
    """Validate one parsed report; returns a one-line summary or
    raises CheckError."""
    shards = check_run_meta(data, bench)
    return BENCHES[bench](data, shards)


def main(argv):
    if len(argv) != 2 or argv[0] not in BENCHES:
        print(f"usage: check_bench.py {{{','.join(BENCHES)}}} "
              f"BENCH.json", file=sys.stderr)
        return 2
    bench, path = argv
    try:
        with open(path, encoding="utf-8") as fh:
            summary = check(bench, json.load(fh))
    except OSError as err:
        print(f"check_bench: cannot read {path}: {err}",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as err:
        print(f"check_bench: {path} is not valid JSON: {err}",
              file=sys.stderr)
        return 1
    except CheckError as err:
        print(f"check_bench: {bench}: {err}", file=sys.stderr)
        return 1
    print(f"check_bench: {bench} OK ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
