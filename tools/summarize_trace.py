#!/usr/bin/env python3
"""Summarize an mldcs chrome-trace file as a per-phase time table.

Usage: tools/summarize_trace.py [TRACE.json] [--snapshot SNAPSHOT.json]
                                [--blackbox REPORT.jsonl]
                                [--profile PROFILE[.folded|.json]]

TRACE.json is the trace-event file written by `perf_suite --trace` or
`mobility_maintenance --trace` (obs::write_trace_json): a JSON object with
a "traceEvents" array of complete ("ph": "X") spans, timestamps and
durations in microseconds.  The summary groups events by span name and
prints count, total wall time, mean duration, and share of the summed
span time — the quick per-phase readout without opening chrome://tracing.

--snapshot additionally validates and summarizes an mldcs-telemetry-v1
registry snapshot (obs::write_snapshot_json): counter/gauge values and
histogram count/mean/max per metric.

--blackbox validates and summarizes an mldcs-blackbox-v1 flight-recorder
report (the obs::blackbox dumper's output, from --blackbox PATH on the
example/bench binaries or a crash): dump reason, heartbeat step range,
the hottest counters by last-interval delta, and the event-tail span.
A report without its end trailer is summarized with a PARTIAL warning —
the dump was interrupted mid-write — rather than rejected.

--profile validates and summarizes an mldcs-profile-v1 sampling profile
(from --profile PATH on the binaries, or curl of /profile; both the
folded collapsed-stack text and the ?format=json document are accepted):
the phase breakdown table (count and share per phase) and the top-K
hottest folded stacks.  The trace argument is optional when --profile
or --blackbox is given.

Exit status: 0 on success — including an empty trace (tracing never
started) and an empty or truncated trace *file*
(a run that died mid-write; reported as a named warning, since a crashed
run must not also crash its post-mortem tooling).  2 on a missing file
or a schema violation in well-formed JSON.  Doubles as the CI schema
check for both file formats.
"""

import argparse
import os
import sys

import obslib


def fail(msg):
    print(f"summarize_trace: {msg}", file=sys.stderr)
    sys.exit(2)


def load_trace_spans(path):
    """Spans from a trace file, or None (with a named warning) when the
    file is empty or truncated mid-write."""
    if not os.path.exists(path):
        fail(f"cannot read {path}: no such file")
    if os.path.getsize(path) == 0:
        print(f"summarize_trace: WARNING: {path} is empty "
              "(run died before the trace was written?); nothing to do")
        return None
    try:
        doc = obslib.load_json(path)
    except obslib.SchemaError as e:
        # The file exists and has bytes but is not one JSON document:
        # a truncated write, not a schema drift.
        print(f"summarize_trace: WARNING: {path} is not valid JSON "
              f"(truncated write?): {e}")
        return None
    try:
        return obslib.check_trace(doc, path)
    except obslib.SchemaError as e:
        fail(str(e))


def print_trace_summary(spans):
    if not spans:
        print("trace: no spans recorded (tracing was never started)")
        return
    by_name = {}
    for e in spans:
        agg = by_name.setdefault(e["name"], [0, 0.0])
        agg[0] += 1
        agg[1] += e["dur"]
    total_us = sum(t for _, t in by_name.values())
    threads = len({e["tid"] for e in spans})
    print(f"trace: {len(spans)} spans, {len(by_name)} phases, "
          f"{threads} thread(s)")
    header = f"{'phase':<32} {'count':>8} {'total ms':>12} " \
             f"{'mean us':>12} {'share':>7}"
    print(header)
    print("-" * len(header))
    for name, (count, us) in sorted(by_name.items(),
                                    key=lambda kv: -kv[1][1]):
        share = 100.0 * us / total_us if total_us > 0 else 0.0
        print(f"{name:<32} {count:>8} {us / 1e3:>12.3f} "
              f"{us / count:>12.2f} {share:>6.1f}%")
    # Share is of summed span time; nested spans double-count, so the
    # column can legitimately exceed 100% in aggregate.


def print_snapshot_summary(doc):
    n = (len(doc["counters"]) + len(doc["gauges"])
         + len(doc["histograms"]))
    print(f"\nsnapshot: {n} metrics")
    for name, v in sorted(doc["counters"].items()):
        print(f"  counter   {name:<36} {v}")
    for name, v in sorted(doc["gauges"].items()):
        print(f"  gauge     {name:<36} {v}")
    for name, h in sorted(doc["histograms"].items()):
        print(f"  histogram {name:<36} count={h['count']} "
              f"mean={h['mean']:.1f} max={h['max']}")


def print_blackbox_summary(header, frames, events):
    if header is None:
        print("\nblackbox: empty report (armed but never dumped?)")
        return
    print(f"\nblackbox: reason={header['reason']!r} pid={header['pid']} "
          f"{len(frames)} heartbeat frame(s), {len(events)} tail event(s)")
    if not frames:
        print("  no heartbeat frames (dumped before the first heartbeat)")
        return
    first, last = frames[0], frames[-1]
    print(f"  steps {first['step']}..{last['step']} "
          f"(seq {first['seq']}..{last['seq']})")
    deltas = sorted(((name, val[1], val[0])
                     for name, val in last["counters"].items()),
                    key=lambda kv: -kv[1])
    for name, delta, absolute in deltas[:8]:
        print(f"  counter   {name:<36} {absolute} (+{delta} last interval)")
    for row in last.get("shards", []):
        print(f"  shard {row['shard']:>3}  owned={row['owned']} "
              f"halo={row['halo']} incoming={row['incoming']} "
              f"dirty={row['dirty']} step_ns={row['step_ns']} "
              f"wait_ns={row['barrier_wait_ns']}")
    if events:
        print(f"  event tail ids {events[0]['id']}..{events[-1]['id']}")


def print_profile_summary(prof, top_k=12):
    meta = []
    if prof["hz"] is not None:
        meta.append(f"{prof['hz']} Hz")
    if prof["duration_s"] is not None:
        meta.append(f"{prof['duration_s']:.2f} s")
    if prof["dropped"] is not None:
        meta.append(f"{prof['dropped']} dropped")
    suffix = f" ({', '.join(meta)})" if meta else ""
    print(f"\nprofile [{prof['format']}]: {prof['total_samples']} "
          f"samples{suffix}")
    if prof["total_samples"] == 0:
        print("  no samples (the profiler was never armed, or the window "
              "saw no CPU)")
        return
    total = prof["total_samples"]
    header = f"  {'phase':<20} {'samples':>10} {'share':>7}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name, count in sorted(prof["phases"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<20} {count:>10} {100.0 * count / total:>6.1f}%")
    print(f"  top {min(top_k, len(prof['stacks']))} stacks:")
    for stack, count in prof["stacks"][:top_k]:
        label = stack if len(stack) <= 100 else stack[:97] + "..."
        print(f"  {count:>8}  {label}")


def main():
    parser = argparse.ArgumentParser(
        description="Summarize an mldcs trace (and optional telemetry "
                    "snapshot / blackbox report / sampling profile).")
    parser.add_argument("trace", nargs="?",
                        help="trace-event JSON from --trace (optional when "
                             "--profile or --blackbox is given)")
    parser.add_argument("--snapshot",
                        help="mldcs-telemetry-v1 JSON from --telemetry")
    parser.add_argument("--blackbox",
                        help="mldcs-blackbox-v1 JSONL report to validate "
                             "and summarize")
    parser.add_argument("--profile",
                        help="mldcs-profile-v1 sampling profile (folded "
                             "text or JSON) to validate and summarize")
    args = parser.parse_args()
    if args.trace is None and not (args.profile or args.blackbox):
        parser.error("give a trace file, --profile, or --blackbox")

    if args.trace is not None:
        spans = load_trace_spans(args.trace)
        if spans is not None:
            print_trace_summary(spans)

    if args.snapshot:
        try:
            doc = obslib.check_snapshot(obslib.load_json(args.snapshot),
                                        args.snapshot)
        except obslib.SchemaError as e:
            fail(str(e))
        print_snapshot_summary(doc)

    if args.blackbox:
        try:
            header, frames, events = obslib.load_blackbox(args.blackbox)
        except obslib.SchemaError as e:
            fail(str(e))
        print_blackbox_summary(header, frames, events)
        if header is not None and not any(
                ln.strip().startswith('{"kind":"end"')
                for ln in open(args.blackbox, encoding="utf-8")):
            print("  WARNING: PARTIAL report (no end trailer; the dump "
                  "was interrupted mid-write)")
        embedded = obslib.scan_blackbox_profile(args.blackbox)
        if embedded is not None:
            print(f"  profile appendix: {embedded['total_samples']} samples "
                  f"at {embedded['hz']} Hz across "
                  f"{len(embedded['phases'])} phase(s)")

    if args.profile:
        try:
            prof = obslib.load_profile(args.profile)
        except obslib.SchemaError as e:
            fail(str(e))
        print_profile_summary(prof)
    return 0


if __name__ == "__main__":
    sys.exit(main())
