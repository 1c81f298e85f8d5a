#!/usr/bin/env python3
"""Join one run's observability outputs into a single markdown report.

Usage:
  tools/mldcs_report.py --check EVENTS.jsonl
  tools/mldcs_report.py [--telemetry SNAP.json] [--events EVENTS.jsonl]
                        [--bench BENCH.json] [--out REPORT.md] [--title T]

--check validates an mldcs-events-v1 JSONL file (header schema, known
event types, strictly increasing ids, parents preceding children, count
matching the line count) and exits 0/2 — the CI gate for the flight
recorder's on-disk format.

Report mode joins whichever inputs are given — an mldcs-telemetry-v1
snapshot, an event log, an mldcs-perf-v1 benchmark document — into one
markdown file (stdout when --out is omitted): per-broadcast outcomes
refolded from the events, the watchdog verdict cross-checked between
metrics and events, headline telemetry counters, and the benchmark
summary.  Inputs that fail validation become named warnings in the
report rather than a crash; a run that died should still get a report.

Exit status: 0 on success (report mode, possibly with warnings embedded),
2 on --check failure, unreadable --out, or no inputs at all.
"""

import argparse
import sys

import obslib


def fold_broadcasts(events):
    """Mirror obs::replay_broadcasts: fold event segments into outcome
    rows.  Kept deliberately in sync with the C++ replay (differential-
    tested there); this copy only feeds the human-facing report."""
    out = []
    cur = None
    for e in events:
        t = e["t"]
        if t == "broadcast":
            cur = {"source": e["a"], "reachable": e["v"],
                   "transmissions": 0, "delivered": 1, "max_hops": 0,
                   "redundant": 0, "suppressed": 0}
            out.append(cur)
            continue
        if cur is None or t not in ("tx", "rx", "dup_rx", "suppress"):
            continue
        if t == "tx":
            cur["transmissions"] += 1
        elif t == "rx":
            cur["delivered"] += 1
            cur["max_hops"] = max(cur["max_hops"], e["v"])
        elif t == "dup_rx":
            cur["redundant"] += 1
        elif t == "suppress":
            cur["suppressed"] += 1
    return out


def watchdog_from_events(events):
    checks = [e for e in events if e["t"] == "watchdog_check"]
    bad = [e for e in events if e["t"] == "watchdog_mismatch"]
    return checks, bad


def section_events(lines, path):
    lines.append("## Flight recorder")
    lines.append("")
    try:
        header, events = obslib.load_events(path)
    except obslib.SchemaError as e:
        lines.append(f"> **WARNING:** {e}")
        lines.append("")
        return
    by_type = {}
    for e in events:
        by_type[e["t"]] = by_type.get(e["t"], 0) + 1
    lines.append(f"`{path}`: {len(events)} events"
                 f" ({header['dropped']} dropped"
                 f"{', recorder disarmed' if not header['enabled'] else ''})")
    lines.append("")
    if by_type:
        lines.append("| event | count |")
        lines.append("|---|---|")
        for t, n in sorted(by_type.items(), key=lambda kv: -kv[1]):
            lines.append(f"| `{t}` | {n} |")
        lines.append("")

    broadcasts = fold_broadcasts(events)
    if broadcasts:
        lines.append("### Broadcasts (refolded from events)")
        lines.append("")
        lines.append("| source | delivered | reachable | tx | dup rx "
                     "| suppressed | max hops |")
        lines.append("|---|---|---|---|---|---|---|")
        for b in broadcasts:
            lines.append(f"| {b['source']} | {b['delivered']} "
                         f"| {b['reachable']} | {b['transmissions']} "
                         f"| {b['redundant']} | {b['suppressed']} "
                         f"| {b['max_hops']} |")
        lines.append("")

    checks, bad = watchdog_from_events(events)
    if checks:
        sampled = sum(e["a"] for e in checks)
        lines.append(f"### Watchdog: {len(checks)} checks, "
                     f"{sampled} relays audited, {len(bad)} mismatches")
        lines.append("")
        if bad:
            relays = sorted({e["a"] for e in bad})
            lines.append(f"> **ALARM:** cache inconsistency on relay(s) "
                         f"{relays} — see `watchdog_mismatch` events.")
        else:
            lines.append("All sampled forwarding sets matched their "
                         "from-scratch recomputation.")
        lines.append("")


def section_telemetry(lines, path):
    lines.append("## Telemetry snapshot")
    lines.append("")
    try:
        doc = obslib.check_snapshot(obslib.load_json(path), path)
    except obslib.SchemaError as e:
        lines.append(f"> **WARNING:** {e}")
        lines.append("")
        return
    counters = doc["counters"]
    gauges = doc["gauges"]
    rows = [(k, v) for k, v in sorted(counters.items())]
    rows += [(k, v) for k, v in sorted(gauges.items())]
    if rows:
        lines.append("| metric | value |")
        lines.append("|---|---|")
        for k, v in rows:
            lines.append(f"| `{k}` | {v} |")
        lines.append("")
    for name, h in sorted(doc["histograms"].items()):
        lines.append(f"- `{name}`: count={h['count']} mean={h['mean']:.1f} "
                     f"min={h['min']} max={h['max']}")
    if doc["histograms"]:
        lines.append("")

    # The watchdog verdict deserves its own line: a nonzero mismatch
    # counter is the alarm this report exists to surface.
    bad = counters.get("watchdog.mismatches")
    if bad is not None and counters.get("watchdog.checks", 0) > 0:
        if bad > 0:
            lines.append(f"> **ALARM:** `watchdog.mismatches` = {bad} "
                         f"(last at step "
                         f"{gauges.get('watchdog.last_mismatch_step')}).")
        else:
            lines.append(f"Watchdog clean: {counters['watchdog.checks']} "
                         "checks, 0 mismatches.")
        lines.append("")


def section_bench(lines, path):
    lines.append("## Benchmarks")
    lines.append("")
    try:
        doc = obslib.check_bench(obslib.load_json(path), path)
    except obslib.SchemaError as e:
        lines.append(f"> **WARNING:** {e}")
        lines.append("")
        return
    summary = obslib.bench_summary(doc)
    lines.append(f"`{path}` (mode={summary.get('mode')}, "
                 f"threads={summary.get('threads')})")
    lines.append("")
    lines.append("| headline | value |")
    lines.append("|---|---|")
    for key, val in summary.items():
        if key in ("mode", "threads"):
            continue
        if isinstance(val, dict):
            val = ", ".join(f"{k}: {v:.3g}" if isinstance(v, float)
                            else f"{k}: {v}" for k, v in val.items())
        elif isinstance(val, float):
            val = f"{val:.4g}"
        lines.append(f"| {key} | {val} |")
    lines.append("")


def main():
    parser = argparse.ArgumentParser(
        description="Validate an event log or join run outputs into a "
                    "markdown report.")
    parser.add_argument("--check", metavar="EVENTS.jsonl",
                        help="validate an mldcs-events-v1 file and exit")
    parser.add_argument("--events", help="mldcs-events-v1 JSONL")
    parser.add_argument("--telemetry", help="mldcs-telemetry-v1 snapshot")
    parser.add_argument("--bench", help="mldcs-perf-v1 document")
    parser.add_argument("--out", help="write the report here (else stdout)")
    parser.add_argument("--title", default="mldcs run report")
    args = parser.parse_args()

    if args.check:
        try:
            header, events = obslib.load_events(args.check)
        except obslib.SchemaError as e:
            print(f"mldcs_report: {e}", file=sys.stderr)
            return 2
        print(f"mldcs_report: OK: {args.check}: {len(events)} events, "
              f"{header['dropped']} dropped, schema {obslib.EVENT_SCHEMA}")
        return 0

    if not (args.events or args.telemetry or args.bench):
        parser.error("nothing to report: give --events, --telemetry, "
                     "--bench, or --check")

    lines = [f"# {args.title}", ""]
    if args.events:
        section_events(lines, args.events)
    if args.telemetry:
        section_telemetry(lines, args.telemetry)
    if args.bench:
        section_bench(lines, args.bench)
    report = "\n".join(lines).rstrip() + "\n"

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(report)
        except OSError as e:
            print(f"mldcs_report: cannot write {args.out}: {e}",
                  file=sys.stderr)
            return 2
        print(f"mldcs_report: wrote {args.out}")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
