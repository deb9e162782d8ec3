#!/usr/bin/env python3
"""Validate and compare nanobus_e2e result files.

    check_e2e.py RESULT.json [...]
        Validate each result: every end-to-end metric present with its
        unit, simulated counts equal to the expected counts, accuracy
        within the hard limits, no failed op, and (traced results)
        every per-layer metric present. Exit 1 on any violation.

    check_e2e.py --compare BASE NEW
        BASE and NEW are each a result file, a directory of them, or a
        glob: the runs of one commit. For every workload and
        BENCHMARK.json end-to-end metric, print both sides' median and
        quartiles over runs and a verdict: better, same, worse, or
        unresolved. Unresolved means a side's spread (quartile distance
        over median) exceeds the metric's bound, unless every NEW run
        beats every BASE run. Better needs NEW to win at least 9 of 10
        run pairs (runs paired in order; ties count for neither) and
        the medians to differ by more than BASE's quartile distance.
        Worse means NEW's median is worse by more than the bound. A
        setup_s change within 0.05 s is same, whatever its share. Runs
        of equal seeds must report identical simulated counts; whether
        their result values are bit-identical (equal result digests) is
        reported too. Exit 1 when any pair is worse or counts differ.

    check_e2e.py --summarize LABEL=PATH [...]
        Print per-workload medians and quartiles of every metric over
        the runs under each PATH, keyed by LABEL (the baseline.json
        format).

Metric names, units, directions and bounds come from BENCHMARK.json at
the repository root (--benchmark overrides); the accuracy metrics and
their hard limits are defined here.
"""

import argparse
import glob
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Accuracy against the Scalar+RK4 oracle: reported by every run,
# enforced as hard limits instead of regression bounds.
ACCURACY = {
    "energy_rel_err": ("1", 1e-9),
    "temp_err_k": ("K", 0.05),
    "failed_frac": ("1", 0.0),
}
# A change smaller than this is "same" whatever its share of the
# median: set-up takes microseconds to milliseconds, where the host's
# timer and scheduler noise is larger than any change worth reporting.
ABSOLUTE_FLOOR = {"setup_s": 0.05}
WORKLOADS = ("fig3-grid", "fig4-trace-file", "idle-thermal",
             "fabric-coarse", "fabric-fine")


def load_spec(path):
    spec = json.loads(Path(path).read_text())
    return spec["end_to_end"], spec["per_layer"]


def load_results(path_or_glob):
    """Every result entry under a file, a directory or a glob."""
    path = Path(path_or_glob)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
    elif path.exists():
        files = [path]
    else:
        files = [Path(p) for p in sorted(glob.glob(path_or_glob))]
    results = []
    for f in files:
        for entry in json.loads(f.read_text())["results"]:
            entry["_file"] = str(f)
            results.append(entry)
    return results


def check_metric(errors, where, table, name, unit):
    m = table.get(name)
    if m is None:
        errors.append(f"{where}: metric {name} missing")
        return None
    if m.get("unit") != unit:
        errors.append(f"{where}: {name} unit {m.get('unit')!r}, "
                      f"expected {unit!r}")
    for key in ("value", "q1", "q3", "n"):
        if not isinstance(m.get(key), (int, float)) or \
                not math.isfinite(m[key]):
            errors.append(f"{where}: {name}.{key} not a finite number")
            return None
    if not m["q1"] <= m["value"] <= m["q3"]:
        errors.append(f"{where}: {name} median outside its quartiles")
    return m["value"]


def validate(result, end_to_end, per_layer):
    where = f"{result.get('_file', '?')}:{result.get('workload')}"
    errors = []
    if result.get("workload") not in WORKLOADS:
        errors.append(f"{where}: unknown workload")
    if not isinstance(result.get("reps"), int) or result["reps"] < 1:
        errors.append(f"{where}: reps must be a positive integer")
    metrics = result.get("metrics", {})
    for m in end_to_end:
        value = check_metric(errors, where, metrics, m["name"],
                             m["unit"])
        if value is not None and value <= 0:
            errors.append(f"{where}: {m['name']} = {value} is not "
                          f"positive")
    for name, (unit, limit) in ACCURACY.items():
        value = check_metric(errors, where, metrics, name, unit)
        if value is not None and not value <= limit:
            errors.append(f"{where}: {name} = {value} exceeds {limit}")
    digest = result.get("result_digest")
    if not isinstance(digest, str) or len(digest) != 16:
        errors.append(f"{where}: result_digest missing")
    if result.get("expected_counts") != result.get("observed_counts"):
        errors.append(f"{where}: simulated counts "
                      f"{result.get('observed_counts')} != expected "
                      f"{result.get('expected_counts')}")
    if result.get("failed") != 0 or not result.get("attempted"):
        errors.append(f"{where}: {result.get('failed')} of "
                      f"{result.get('attempted')} ops failed")
    if result.get("correct") is not True or result.get("errors"):
        errors.append(f"{where}: run reported errors "
                      f"{result.get('errors')}")
    if result.get("traced"):
        layers = result.get("layers", {})
        for m in per_layer:
            check_metric(errors, where, layers, m["name"], m["unit"])
    return errors


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def side_summary(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else math.inf
    return med, q1, q3, spread


def verdict(base, new, lower_better, bound, floor=0.0):
    """better / same / worse / unresolved for one metric."""
    b_med, b_q1, b_q3, b_spread = side_summary(base)
    n_med, _, _, n_spread = side_summary(new)
    if abs(n_med - b_med) <= floor:
        return "same"
    beats = (lambda n, b: n < b) if lower_better else \
        (lambda n, b: n > b)
    every_new_beats = all(beats(n, b) for n in new for b in base)
    worse_by = (n_med - b_med) / b_med * (1 if lower_better else -1)
    if max(b_spread, n_spread) > bound and not every_new_beats:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    if pairs and wins >= 0.9 * len(pairs) and \
            abs(n_med - b_med) > b_q3 - b_q1:
        return "better"
    return "same"


def by_workload(results):
    groups = {}
    for r in results:
        if not r.get("traced"):
            groups.setdefault(r["workload"], []).append(r)
    return groups


def compare(base_path, new_path, end_to_end):
    base = by_workload(load_results(base_path))
    new = by_workload(load_results(new_path))
    status = 0
    print(f"{'workload':16} {'metric':12} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}  verdict")
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        b_runs, n_runs = base[workload], new[workload]
        b_by_seed = {r["seed"]: r for r in b_runs}
        for r in n_runs:
            b = b_by_seed.get(r["seed"])
            if b is None:
                continue
            if r["observed_counts"] != b["observed_counts"]:
                print(f"{workload}: seed {r['seed']} simulated counts "
                      f"differ between sides")
                status = 1
            elif r["result_digest"] != b["result_digest"]:
                print(f"{workload}: seed {r['seed']} result values "
                      f"differ between sides (not bit-identical)")
        for m in end_to_end:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            v = verdict(b, n, m["better"] == "lower", m["bound"],
                        ABSOLUTE_FLOOR.get(name, 0.0))
            bm, bq1, bq3, _ = side_summary(b)
            nm, nq1, nq3, _ = side_summary(n)
            print(f"{workload:16} {name:12} "
                  f"{bm:12.6g} [{bq1:.6g}, {bq3:.6g}]".ljust(66) +
                  f"{nm:12.6g} [{nq1:.6g}, {nq3:.6g}]".rjust(36) +
                  f" {(nm - bm) / bm * 100:+7.2f}%  {v}")
            if v == "worse":
                status = 1
        for name, (_, limit) in ACCURACY.items():
            worst = max(r["metrics"][name]["value"] for r in n_runs)
            if worst > limit:
                print(f"{workload}: {name} = {worst} exceeds {limit}")
                status = 1
    return status


def summarize(labelled_paths):
    out = {}
    for item in labelled_paths:
        label, _, path = item.partition("=")
        results = load_results(path)
        table = {}
        for workload, runs in by_workload(results).items():
            table[workload] = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, _ = side_summary(values)
                table[workload][name] = {
                    "median": med, "q1": q1, "q3": q3,
                    "n": len(values),
                    "unit": runs[0]["metrics"][name]["unit"]}
        for r in results:
            if r.get("traced"):
                table.setdefault(r["workload"], {})["layers"] = {
                    name: m["value"] for name, m in r["layers"].items()}
        out[label] = table
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="*")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--summarize", nargs="+", metavar="LABEL=PATH")
    parser.add_argument("--benchmark", default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    end_to_end, per_layer = load_spec(args.benchmark)

    if args.compare:
        return compare(*args.compare, end_to_end)
    if args.summarize:
        return summarize(args.summarize)
    if not args.results:
        parser.error("give result files, --compare or --summarize")
    errors = []
    count = 0
    for path in args.results:
        for result in load_results(path):
            count += 1
            errors += validate(result, end_to_end, per_layer)
    for e in errors:
        print(e)
    if count == 0:
        print("no results found")
        return 1
    print(f"{count} result(s) checked, {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
