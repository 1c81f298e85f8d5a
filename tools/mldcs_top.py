#!/usr/bin/env python3
"""Live per-shard load dashboard for a running mldcs binary.

Usage: tools/mldcs_top.py [HOST:]PORT [--interval SECONDS] [--once]
                          [--profile SECONDS]

Polls the introspection server a binary started with `--introspect PORT`
(mobility_maintenance, perf_suite — docs/OBSERVABILITY.md, "Live
introspection") and redraws a per-shard table:

  * /shards (mldcs-shards-v1): owned/halo/incoming/dirty residents and
    step/barrier-wait nanoseconds per shard, plus the engine step the
    table was published at,
  * /snapshot.json (mldcs-telemetry-v1): a headline strip of counters
    (cache.updates, shard.migrations, skyline.calls, pool.tasks_executed,
    ...) with per-interval rates once two snapshots are in hand,
  * /profile?seconds=N&format=json (mldcs-profile-v1, only with
    --profile N): a sampled phase-breakdown strip — where the CPU went,
    by obs::Scope phase tag, over an N-second window.  The profile request
    blocks the (single-threaded) server for the window, so the redraw
    cadence drops to roughly the window length while enabled.

Both documents are validated through obslib before display, so this
doubles as a liveness + schema probe: `--once` fetches each endpoint a
single time, prints one table, and exits — the mode CI's bench-smoke
step uses to assert that a live run serves well-formed introspection.

The server is single-threaded and never blocks the simulation; polling
at sub-second intervals is safe but pointless below the heartbeat/step
cadence.  Endpoints with nothing to show yet answer with empty documents;
the dashboard then shows an empty table rather than failing.

Exit status: 0 on success; 2 when the server is unreachable or a
response fails schema validation.
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

import obslib

#: Counters worth a slot on the headline strip, in display order.
HEADLINE_COUNTERS = (
    "shard.steps", "shard.migrations", "shard.exchanged",
    "cache.updates", "cache.dirty_relays", "skyline.calls",
    "pool.tasks_executed",
)


def rate_text(delta, dt):
    """Compact per-second rate: '+12/s', '+3.4k/s'."""
    rate = delta / dt if dt > 0 else 0.0
    if rate >= 10_000:
        return f"+{rate / 1000.0:.1f}k/s"
    if rate >= 10:
        return f"+{rate:.0f}/s"
    return f"+{rate:.1f}/s"


def fail(msg):
    print(f"mldcs_top: {msg}", file=sys.stderr)
    sys.exit(2)


def fetch_json(base, endpoint, timeout):
    url = base + endpoint
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as e:
        fail(f"cannot fetch {url}: {e}")
    try:
        return json.loads(body)
    except ValueError as e:
        fail(f"{url}: response is not JSON: {e}")


def render(base, timeout, prev=None, profile_seconds=None):
    """One dashboard frame.  Returns (lines, state); pass the state back
    as `prev` on the next call to get per-interval counter rates."""
    shards_doc = fetch_json(base, "/shards", timeout)
    snap_doc = fetch_json(base, "/snapshot.json", timeout)
    try:
        shards = obslib.check_shards(shards_doc, base + "/shards")
        obslib.check_snapshot(snap_doc, base + "/snapshot.json")
    except obslib.SchemaError as e:
        fail(str(e))

    lines = []
    step = shards_doc.get("step", 0)
    lines.append(f"mldcs_top: {base}  step {step}  "
                 f"{len(shards)} shard(s)")

    counters = snap_doc.get("counters", {})
    now = time.monotonic()
    prev_time, prev_counters = prev if prev is not None else (None, {})
    dt = now - prev_time if prev_time is not None else 0.0
    strip = []
    for name in HEADLINE_COUNTERS:
        if name not in counters:
            continue
        cell = f"{name}={counters[name]}"
        if name in prev_counters and dt > 0:
            cell += f"({rate_text(counters[name] - prev_counters[name], dt)})"
        strip.append(cell)
    if strip:
        lines.append("  " + "  ".join(strip))
    state = (now, dict(counters))

    if profile_seconds is not None:
        # Blocks for the window: the introspection server sleeps while
        # the profiler's CPU-clock timers sample the worker threads.
        prof_doc = fetch_json(
            base, f"/profile?seconds={profile_seconds}&format=json",
            timeout + profile_seconds)
        try:
            obslib.check_profile_doc(prof_doc, base + "/profile")
        except obslib.SchemaError as e:
            fail(str(e))
        total = prof_doc["total_samples"]
        if total == 0:
            lines.append(f"  phases({profile_seconds}s): no samples "
                         "(idle window)")
        else:
            cells = [f"{name} {100.0 * count / total:.0f}%"
                     for name, count in sorted(prof_doc["phases"].items(),
                                               key=lambda kv: -kv[1])]
            lines.append(f"  phases({profile_seconds}s, {total} samples): "
                         + " | ".join(cells))

    if not shards:
        lines.append("  (no shard table: single-engine run, or the engine "
                     "is not up yet)")
        return lines, state

    header = (f"  {'shard':>5} {'owned':>7} {'halo':>7} {'incoming':>8} "
              f"{'dirty':>7} {'step_us':>9} {'wait_us':>9} {'wait%':>6}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for s in shards:
        busy = s["step_ns"] + s["barrier_wait_ns"]
        share = 100.0 * s["barrier_wait_ns"] / busy if busy > 0 else 0.0
        lines.append(f"  {s['shard']:>5} {s['owned']:>7} {s['halo']:>7} "
                     f"{s['incoming']:>8} {s['dirty']:>7} "
                     f"{s['step_ns'] / 1e3:>9.1f} "
                     f"{s['barrier_wait_ns'] / 1e3:>9.1f} "
                     f"{share:>5.1f}%")
    return lines, state


def main():
    parser = argparse.ArgumentParser(
        description="Live per-shard dashboard over the mldcs "
                    "introspection server.")
    parser.add_argument("target",
                        help="introspection server as [HOST:]PORT "
                             "(default host 127.0.0.1)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="fetch and print a single table, then exit "
                             "(the CI probe mode)")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="per-request timeout in seconds (default 5)")
    parser.add_argument("--profile", type=int, metavar="SECONDS",
                        help="also sample an N-second /profile window per "
                             "redraw and show the phase breakdown (blocks "
                             "the server for the window; 1..30)")
    args = parser.parse_args()
    if args.profile is not None and not 1 <= args.profile <= 30:
        fail("--profile expects a window of 1..30 seconds")

    host, sep, port = args.target.rpartition(":")
    if not sep:
        host = "127.0.0.1"
    if not port.isdigit():
        fail(f"target {args.target!r} is not [HOST:]PORT")
    base = f"http://{host}:{port}"

    if args.once:
        lines, _ = render(base, args.timeout,
                          profile_seconds=args.profile)
        print("\n".join(lines))
        return 0

    try:
        prev = None
        while True:
            lines, prev = render(base, args.timeout, prev=prev,
                                 profile_seconds=args.profile)
            # Home + clear-to-end keeps the table in place without
            # erasing scrollback the way a full clear would.
            sys.stdout.write("\x1b[H\x1b[J" + "\n".join(lines) + "\n")
            sys.stdout.flush()
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
