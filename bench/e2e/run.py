#!/usr/bin/env python3
"""Run one nanobus end-to-end benchmark workload; print one JSON line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--out PATH]

On first use it configures and builds bench/e2e with CMake into
.bench_build/e2e under the repository root; later calls only rebuild
what changed. It then runs nanobus_e2e on one workload with the given
seed for about S seconds of measurement (at least five reps), checks
the result, and prints as the last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where the metrics are BENCHMARK.json's end-to-end metrics (--trace 0)
or its per-layer metrics (--trace 1, the traced run). --out keeps the
binary's full result JSON (medians, quartiles, samples) for
check_e2e.py --compare. A failed build or run exits non-zero without
printing a result; a run whose outputs are wrong prints
"correct": false and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 175
MIN_REPS = 5


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configure once, then build the benchmark binary; all tool
    output goes to stderr so stdout ends with the result line."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "nanobus_e2e", "-j", jobs()],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "nanobus_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="keep the full result JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    result_path = BUILD / f"result.{os.getpid()}.json"
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--reps={MIN_REPS}", f"--threads={jobs()}",
               f"--reference={HERE / 'reference.txt'}",
               f"--json={result_path}", f"--tmpdir={BUILD}"]
    if args.trace:
        command.append("--traced")
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                             stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if not result_path.exists():
        print(f"run.py: no result (exit {run.returncode})",
              file=sys.stderr)
        return 1
    text = result_path.read_text()
    result_path.unlink()
    if args.out:
        Path(args.out).write_text(text)
    result = json.loads(text)["results"][0]

    source = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in source or source[name]["unit"] != metric["unit"]:
            print(f"run.py: metric {name} missing or mis-unit",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": source[name]["value"],
                         "unit": metric["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
