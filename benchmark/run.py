#!/usr/bin/env python3
"""Build and run the mldcs end-to-end benchmark (stdlib only).

One run (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

builds benchmark/mldcs_e2e.cpp against the library, runs one workload in
one process, prints every metric with its unit, and prints as the last
line of stdout one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list.  The exit code is 0 only if
every oracle comparison in the run passed.

Sets of runs:

    python3 benchmark/run.py --sets N [--workload W] [--trace] [--out DIR]
    python3 benchmark/run.py --smoke

run one untimed warm-up, then N sets of every workload in interleaved
order (A B C D A B C D ...), seed S+i in set i.  Each run writes one
mldcs-e2e-v1 JSON document into DIR, and summary.json gives each metric's
median and quartiles.  --trace adds one traced run per workload and
checks it (see README.md).  --smoke runs 10 steps per workload with the
oracle on every step.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "benchmark"
BINARY = BUILD / "benchmark" / "mldcs_e2e"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170

# The split each workload was chosen for (README.md, "Workloads"): a
# traced run that breaks it no longer measures what the workload claims.
SPLIT_CHECKS = {
    "quasi_static_1k": ("net.apply_share", 0.05),
    "high_speed_1k": ("broadcast.deliver_share", 0.10),
}
MAX_UNATTRIBUTED_SHARE = 0.05


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("error: library sources (CMakeLists.txt, src/) not found "
                 f"in {ROOT}")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", "-DMLDCS_BUILD_TESTS=OFF",
             "-DMLDCS_BUILD_EXAMPLES=OFF",
             f"-DCMAKE_PROJECT_INCLUDE={ROOT / 'benchmark' / 'hook.cmake'}"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mldcs_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_binary(out_dir, workload, seed, seconds, *, trace=False, smoke=False,
               inject_fault=False):
    """One mldcs_e2e process.  Returns (exit code, run document or None)."""
    stem = f"{workload}-seed{seed}" + ("-traced" if trace else "") + (
        "-smoke" if smoke else "")
    doc_path = out_dir / f"{stem}.json"
    doc_path.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(doc_path)]
    if trace:
        cmd += ["--trace", str(out_dir / f"{stem}.chrome-trace.json")]
    if smoke:
        cmd.append("--smoke")
    if inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if not doc_path.is_file():
        return proc.returncode, None
    return proc.returncode, json.loads(doc_path.read_text())


def single_run(args, spec):
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    code, doc = run_binary(out_dir, args.workload, args.seed, args.seconds,
                           trace=bool(args.trace),
                           inject_fault=args.inject_fault)
    if doc is None:
        sys.exit(f"error: mldcs_e2e exited {code} without a run document")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"error: metric {m['name']} [{m['unit']}] missing from "
                     "the run document")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"{m['name']:40s} {got['value']:.6g} {m['unit']}")
    oracle = doc["oracle"]
    correct = code == 0 and oracle["failures"] == 0
    print(f"{doc['samples']} steps, oracle {oracle['failures']} of "
          f"{oracle['comparisons']} comparisons failed")
    print(json.dumps({"correct": correct, "attempted": doc["samples"],
                      "failed": oracle["failed_checks"], "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(docs):
    """{workload: {metric: {median, q1, q3, n, unit}}} over untraced runs."""
    by_workload = {}
    for doc in docs:
        by_workload.setdefault(doc["workload"], []).append(doc)
    summary = {}
    for workload, runs in sorted(by_workload.items()):
        rows = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                          "unit": m["unit"], "kind": m["kind"]}
        calib = [(r["calib_ms"]["start"] + r["calib_ms"]["end"]) / 2
                 for r in runs]
        summary[workload] = {"runs": len(runs), "calib_ms": quartiles(calib),
                             "metrics": rows}
    return summary


def trace_checks(workload, traced, summary):
    """Tracing overhead and the traced run's own consistency checks."""
    untraced = summary.get(workload, {}).get("metrics", {}).get("step_ms_p50")
    result = {
        "overhead": (traced["metrics"]["step_ms_p50"]["value"] /
                     untraced["median"]) if untraced else None,
        "unattributed_share": traced["trace"]["unattributed_share"],
    }
    ok = result["unattributed_share"] <= MAX_UNATTRIBUTED_SHARE
    if workload in SPLIT_CHECKS:
        name, limit = SPLIT_CHECKS[workload]
        value = traced["metrics"][name]["value"]
        result["split"] = {"metric": name, "value": value, "limit": limit}
        ok = ok and value < limit
    result["ok"] = ok
    return result


def run_sets(args, spec):
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    out_dir = Path(args.out).resolve() if args.out else BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    sets = 1 if args.smoke else args.sets
    failures = 0

    if not args.smoke:
        log("warm-up (untimed):", workloads[0])
        warmup_dir = BUILD / "warmup"
        warmup_dir.mkdir(parents=True, exist_ok=True)
        run_binary(warmup_dir, workloads[0], args.seed, 1, smoke=True)

    docs = []
    for s in range(sets):
        for workload in workloads:
            seed = args.seed + s
            code, doc = run_binary(out_dir, workload, seed, args.seconds,
                                   smoke=args.smoke)
            if doc is None or code != 0:
                failures += 1
                log(f"FAIL: {workload} seed {seed} exited {code}")
            if doc is not None:
                docs.append(doc)

    summary = {"sets": sets, "seed": args.seed, "smoke": args.smoke,
               "workloads": summarize(docs)}
    if args.trace:
        summary["trace"] = {}
        for workload in workloads:
            code, doc = run_binary(out_dir, workload, args.seed, args.seconds,
                                   trace=True, smoke=args.smoke)
            if doc is None or code != 0:
                failures += 1
                continue
            check = trace_checks(workload, doc, summary["workloads"])
            summary["trace"][workload] = check
            if not check["ok"]:
                failures += 1
            log(f"trace {workload}: {check}")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    e2e = [m["name"] for m in spec["end_to_end"]] + ["error_rate"]
    print(f"{'workload':18s} {'metric':18s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s}  unit")
    for workload, s in summary["workloads"].items():
        for name in e2e:
            row = s["metrics"].get(name)
            if row:
                print(f"{workload:18s} {name:18s} {row['median']:12.6g} "
                      f"{row['q1']:12.6g} {row['q3']:12.6g}  {row['unit']}")
    print(f"wrote {len(docs)} run documents and summary.json to {out_dir}")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--sets", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", help="directory for run documents (sets mode)")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one oracle reference set; the run must fail")
    args = p.parse_args()
    spec = json.loads(SPEC.read_text())
    build()
    if args.sets > 0 or args.smoke:
        return run_sets(args, spec)
    if not args.workload:
        p.error("--workload is required for a single run")
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
