#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 benchmark/compare.py DIR_A DIR_B

DIR_A is the baseline and DIR_B the candidate, each written by
`run.py --sets N --out DIR`.  Prints one row per (workload, end-to-end
metric) with the verdict:

  ok          the candidate's median is not worse than the baseline's by
              more than the metric's bound;
  worse       it is, or a deterministic metric (broadcast outcome, error
              rate) differs on some seed;
  unresolved  the run-to-run spread (interquartile range over median) of
              either side exceeds the bound, and not every candidate run
              beats every baseline run.

Warns when the two sets' calibration loops (calib_ms) differ by more than
10%: the host itself ran at a different speed.  Exits 1 if any row is
`worse`.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIB_WARN = 0.10


def load_runs(directory):
    """Untraced, non-smoke run documents, grouped by workload."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if (not isinstance(doc, dict) or doc.get("schema") != "mldcs-e2e-v1"
                or doc["traced"] or doc["smoke"]):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def calib(runs):
    return statistics.median((r["calib_ms"]["start"] + r["calib_ms"]["end"]) / 2
                             for docs in runs.values() for r in docs)


def deterministic_verdict(name, a_docs, b_docs):
    a = {r["seed"]: r["metrics"][name]["value"] for r in a_docs}
    b = {r["seed"]: r["metrics"][name]["value"] for r in b_docs}
    shared = sorted(set(a) & set(b))
    if not shared:
        return "unresolved"
    if name == "error_rate" and any(b[s] != 0 for s in b):
        return "worse"
    return "ok" if all(a[s] == b[s] for s in shared) else "worse"


def timed_verdict(metric, a, b):
    lower = metric["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    if lower:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if max(spread(a), spread(b)) > metric["bound"] and not all_better:
        return "unresolved", change
    return ("worse" if change > metric["bound"] else "ok"), change


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    metrics = spec["end_to_end"] + [
        {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": 0.0}]

    worse = 0
    print(f"{'workload':16s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_docs, b_docs = runs_a[workload], runs_b[workload]
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_docs]
            b = [r["metrics"][name]["value"] for r in b_docs]
            if a_docs[0]["metrics"][name]["deterministic"]:
                verdict = deterministic_verdict(name, a_docs, b_docs)
                change = 0.0 if verdict == "ok" else float("nan")
            else:
                verdict, change = timed_verdict(metric, a, b)
            worse += verdict == "worse"
            print(f"{workload:16s} {name:18s} {statistics.median(a):12.6g} "
                  f"{statistics.median(b):12.6g} {change:+8.2%} "
                  f"{max(spread(a), spread(b)):7.2%} {metric['bound']:6.0%}  "
                  f"{verdict}")
    for workload in sorted(set(runs_a) ^ set(runs_b)):
        print(f"{workload}: runs in only one of the two sets; not compared")

    ca, cb = calib(runs_a), calib(runs_b)
    if abs(cb - ca) / ca > CALIB_WARN:
        print(f"warning: calib_ms differs by {(cb - ca) / ca:+.1%} "
              f"({ca:.1f} -> {cb:.1f} ms); the host ran at a different speed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
