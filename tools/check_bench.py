#!/usr/bin/env python3
"""Compare a fresh perf-suite run against a checked-in baseline.

Usage: tools/check_bench.py BASELINE.json FRESH.json [--history FILE.jsonl]

The comparison is deliberately coarse — CI runners are noisy, and a quick
run has a 10x smaller time budget than the checked-in full run — so only
two failure modes are flagged, both on the allocation-free workspace path
of the single_relay_skyline section (matched by n_disks):

  * throughput collapse: fresh ops_per_s below baseline/3
  * any allocation regression: allocs_per_op above the baseline (the
    workspace engine is allocation-free by design; even 1 alloc/op means
    the scratch-reuse contract broke)

  * simulator and sweep allocation regression, from the batch_all_relays
    section: simulate_broadcast_skyline_allocs or batch_allocs above the
    baseline (by the same rule as allocs_per_op: the broadcast and the
    sweep run on the calling thread's kept relay batch, so any rise means
    one of them allocates per transmitter, per relay or per call again).
    Beside the broadcast's time, deliver_ns (delivery over held sets) is
    printed, never gated; a baseline without it prints the fresh number
    alone.

  * paper-density regression, from the single_relay_paper_density
    section, gated like single_relay_skyline: relays_per_s below
    baseline/3, allocs_per_relay above the baseline, or
    survivors_per_relay above the baseline.  The survivors (disks the
    sector-bound prefilter lets into the merge) depend only on the
    deployment seed, so any rise means a weakened bound.

  * SIMD dispatch regression, from the single_relay_skyline_simd
    section of the fresh run alone: when the provenance says wide
    kernels are compiled in and the CPU supports them, dispatch must
    not land on the scalar fallback, and the measured simd-vs-scalar
    speedup must stay >= 1.0 (the wide path must never be slower than
    the pinned scalar reference it is bit-identical to).

  * sharded scaling regression, from the sharded_mobility section: per
    deployment size, speedup_vs_1_shard at the top shard count must not
    drop more than 20% below the last valid BENCH_history.jsonl entry
    (or the baseline's own summary when no history is given).  Hosts
    with fewer cores than the top shard count are skipped — there the
    curve measures oversubscription, not scaling (the provenance's
    hardware_concurrency field says which reading applies).

  * incremental-maintenance regression, from the mobility_steady_state
    section: in the low_speed, moderate and high_speed regimes, where
    nearly every node moves and the incremental step only just beats a
    rebuild, speedup_vs_full_rebuild must not drop more than 20% below
    the same reference as the sharded gate.  Both sides of that ratio
    run on the host's cores (the cache update on the suite's pool, the
    graph apply on sim::default_pool()), so hosts with fewer than 4
    cores are skipped.  quasi_static is reported, not gated: its
    incremental step is under 1 ms, and on one idle 4-core host its
    ratio read anywhere from 4.6x to 9.6x.  Beside each ratio the graph
    layer of both sides (apply_ns_per_step, build_ns_per_step) is
    printed, never gated; a run from before those fields prints the
    ratio alone.

The graph_build section's whole-plane DynamicDiskGraph constructor
(dynamic_build_ns, the set-up the single mobility engine pays) is
printed next to DiskGraph::build at each size, never gated; a baseline
from before the field existed prints the fresh numbers alone.

A missing or renamed section/field (e.g. a fresh run produced with
`perf_suite --section ...`, or an older baseline from before a schema
addition) is a named WARNING, not a failure: the comparison that cannot
be made is skipped and the exit status stays 0.  A section present in
the fresh run but absent from the baseline (a schema addition mid-
transition) is informational, not even a warning.  Only measured
regressions exit 1.

Both documents' `provenance` headers (compiler, build flags, detected
ISA, dispatch choice) are diffed and printed so any delta is
attributable; provenance changes never gate by themselves.

--history FILE.jsonl additionally appends the fresh run's per-section
summary (obslib.bench_summary) as one JSON line and prints deltas
against the previous entry; the line's `source` names the fresh file
relative to the repository root, or by its bare name (with a warning)
when it lies outside — the longitudinal record CI keeps so a slow
drift (each step under the 3x gate) is still visible across runs.
Every line is validated (obslib.check_history_entry) before use:
unparseable or malformed lines — non-object entries, non-numeric leaf
values — are skipped with a named warning, deltas are taken against the
last *valid* entry, and a summary that fails validation is not appended.
The appended summary names the run's observability provenance
(`introspect`/`blackbox` keys) so instrumented runs are attributable in
the longitudinal record.

Exit status: 0 clean (possibly with warnings), 1 regression,
2 usage/unreadable-input error.
"""

import argparse
import json
import sys
from pathlib import Path

import obslib

#: The repository root, which history lines name their source relative to.
REPO_ROOT = Path(__file__).resolve().parent.parent

MAX_SLOWDOWN = 3.0
MIN_SIMD_SPEEDUP = 1.0
#: Allowed fractional drop in sharded speedup_vs_1_shard at the top shard
#: count before the scaling gate fails (0.2 = 20%).
MAX_SHARDED_SPEEDUP_DROP = 0.2

#: Allowed fractional drop in a mobility_steady_state regime's
#: speedup_vs_full_rebuild before the incremental-maintenance gate fails.
MAX_MOBILITY_SPEEDUP_DROP = 0.2
#: Cores the mobility gate needs: the incremental step and the rebuild both
#: run on 4-worker pools, and on fewer cores their ratio measures the host.
MOBILITY_GATE_MIN_CORES = 4
#: The regimes the mobility gate covers (see the module docstring).
MOBILITY_GATED_REGIMES = ("low_speed", "moderate", "high_speed")

#: Top-level keys of an mldcs-perf-v1 document that are not sections.
ENVELOPE_KEYS = frozenset({"schema", "mode", "threads", "provenance"})


def warn(msg):
    print(f"check_bench: WARNING: {msg}", file=sys.stderr)


def load(path):
    try:
        doc = obslib.load_json(path)
    except obslib.SchemaError as e:
        print(f"check_bench: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != obslib.PERF_SCHEMA:
        warn(f"{path}: unexpected schema {doc.get('schema')!r} "
             f"(expected {obslib.PERF_SCHEMA}); comparing anyway")
    return doc


def by_n_disks(doc, path):
    """Index the single_relay_skyline section by n_disks.

    Returns None (with a named warning) when the section is absent or
    empty — a sectioned/partial run, not a regression.  Entries missing
    the expected keys are skipped, each with its own warning.
    """
    entries = doc.get("single_relay_skyline")
    if not isinstance(entries, list) or not entries:
        warn(f"{path}: section 'single_relay_skyline' missing or empty; "
             "skipping workspace-path comparison")
        return None
    out = {}
    for i, e in enumerate(entries):
        ws = e.get("workspace") if isinstance(e, dict) else None
        n = e.get("n_disks") if isinstance(e, dict) else None
        if (n is None or not isinstance(ws, dict)
                or "ops_per_s" not in ws or "allocs_per_op" not in ws):
            warn(f"{path}: single_relay_skyline[{i}] is missing "
                 "n_disks/workspace.ops_per_s/workspace.allocs_per_op; "
                 "skipping this entry")
            continue
        out[n] = ws
    if not out:
        warn(f"{path}: no usable single_relay_skyline entries; "
             "skipping workspace-path comparison")
        return None
    return out


def report_section_inventory(baseline_doc, fresh_doc):
    """Name the section-set differences between the two documents.

    Sections only the fresh run has are schema additions still waiting
    for a regenerated baseline — informational.  Sections only the
    baseline has may be a trimmed/sectioned fresh run — a warning, like
    every other comparison this tool cannot make.
    """
    base = set(baseline_doc) - ENVELOPE_KEYS
    fresh = set(fresh_doc) - ENVELOPE_KEYS
    for name in sorted(fresh - base):
        print(f"  section '{name}': new in this run, no baseline yet "
              "(informational)")
    for name in sorted(base - fresh):
        warn(f"section '{name}' is in the baseline but absent from the "
             "fresh run")


def report_provenance_diff(baseline_doc, fresh_doc):
    """Print the provenance delta between baseline and fresh."""
    base = baseline_doc.get("provenance")
    fresh = fresh_doc.get("provenance")
    if not isinstance(fresh, dict):
        warn("fresh run has no provenance header (older perf_suite?)")
        return
    if not isinstance(base, dict):
        summary = ", ".join(f"{k}={fresh[k]}" for k in sorted(fresh))
        print(f"  provenance: {summary} (baseline has no provenance "
              "header)")
        return
    changed = [k for k in sorted(set(base) | set(fresh))
               if base.get(k) != fresh.get(k)]
    if not changed:
        print("  provenance: unchanged "
              f"(dispatch {fresh.get('dispatch', '?')}, "
              f"{fresh.get('compiler', '?')})")
        return
    for key in changed:
        print(f"  provenance: {key}: {base.get(key)!r} -> "
              f"{fresh.get(key)!r}")


def check_simd_dispatch(doc, path):
    """Gate the fresh run's single_relay_skyline_simd section.

    Returns a list of failure strings.  Two failure modes: dispatch fell
    back to scalar although wide kernels are compiled in and the CPU
    supports them, or the wide path measured slower than the pinned
    scalar reference (speedup < MIN_SIMD_SPEEDUP).  A host that has no
    wide kernels to run (not compiled, or not supported) legitimately
    reports scalar dispatch and is not gated.
    """
    failures = []
    entries = doc.get("single_relay_skyline_simd")
    if not isinstance(entries, list) or not entries:
        warn(f"{path}: section 'single_relay_skyline_simd' missing or "
             "empty; skipping SIMD dispatch gate")
        return failures
    prov = doc.get("provenance")
    prov = prov if isinstance(prov, dict) else {}
    wide_available = (prov.get("simd_compiled") == "yes"
                      and prov.get("detected_isa") not in (None, "none"))
    for i, e in enumerate(entries):
        if (not isinstance(e, dict) or "n_disks" not in e
                or "simd_vs_scalar_speedup" not in e):
            warn(f"{path}: single_relay_skyline_simd[{i}] is missing "
                 "n_disks/simd_vs_scalar_speedup; skipping this entry")
            continue
        n = e["n_disks"]
        speedup = e["simd_vs_scalar_speedup"]
        dispatch = e.get("dispatch", "?")
        status = "ok"
        if dispatch == "scalar":
            if wide_available:
                failures.append(
                    f"n_disks={n}: dispatch fell back to scalar although "
                    f"{prov.get('detected_isa')} kernels are compiled in "
                    "and supported")
                status = "FAIL"
            else:
                status = "ok (no wide kernels on this host)"
        elif speedup < MIN_SIMD_SPEEDUP:
            failures.append(
                f"n_disks={n}: {dispatch} path slower than the scalar "
                f"reference ({speedup:.2f}x, gate {MIN_SIMD_SPEEDUP}x)")
            status = "FAIL"
        print(f"  n_disks={n}: dispatch {dispatch}, "
              f"{speedup:.2f}x vs scalar [{status}]")
    return failures


PAPER_DENSITY = "single_relay_paper_density"
PAPER_DENSITY_KEYS = ("relays_per_s", "allocs_per_relay",
                      "survivors_per_relay")


def check_paper_density(baseline_doc, fresh_doc):
    """Gate the single_relay_paper_density section.

    Returns a list of failure strings: relays_per_s below the baseline's
    by more than MAX_SLOWDOWN, or allocs_per_relay / survivors_per_relay
    above the baseline's.  A fresh run without the section skips the gate
    with a named warning; a baseline without it (recorded before the
    section existed) skips it as informational, like every new section.
    """
    fresh = fresh_doc.get(PAPER_DENSITY)
    if not isinstance(fresh, dict):
        warn(f"fresh run: section '{PAPER_DENSITY}' missing; skipping "
             "paper-density gate")
        return []
    base = baseline_doc.get(PAPER_DENSITY)
    if not isinstance(base, dict):
        print("  paper density: no baseline yet (informational)")
        return []
    for label, doc in (("baseline", base), ("fresh run", fresh)):
        missing = [k for k in PAPER_DENSITY_KEYS
                   if not isinstance(doc.get(k), (int, float))
                   or isinstance(doc.get(k), bool)]
        if missing:
            warn(f"{label}: {PAPER_DENSITY} is missing "
                 f"{'/'.join(missing)}; skipping paper-density gate")
            return []
    failures = []
    if fresh["relays_per_s"] < base["relays_per_s"] / MAX_SLOWDOWN:
        failures.append(
            f"paper density: throughput collapsed "
            f"{base['relays_per_s'] / fresh['relays_per_s']:.2f}x "
            f"({base['relays_per_s']:.0f} -> {fresh['relays_per_s']:.0f} "
            "relays/s)")
    if fresh["allocs_per_relay"] > base["allocs_per_relay"]:
        failures.append(
            f"paper density: relay_forwarding_set now allocates "
            f"({base['allocs_per_relay']} -> {fresh['allocs_per_relay']} "
            "allocs/relay)")
    if fresh["survivors_per_relay"] > base["survivors_per_relay"]:
        failures.append(
            f"paper density: more disks enter the merge "
            f"({base['survivors_per_relay']:.4f} -> "
            f"{fresh['survivors_per_relay']:.4f} per relay): the sector "
            "bound drops fewer disks")
    print(f"  paper density: {fresh['relays_per_s']:.0f} relays/s "
          f"(baseline {base['relays_per_s']:.0f}), "
          f"{fresh['allocs_per_relay']} allocs/relay, "
          f"{fresh['survivors_per_relay']:.4f} survivors/relay (baseline "
          f"{base['survivors_per_relay']:.4f}) "
          f"[{'FAIL' if failures else 'ok'}]")
    return failures


#: batch_all_relays allocation counts gated by the no-rise rule, with the
#: label each is reported under.
BATCH_ALLOC_KEYS = (("simulate_broadcast_skyline_allocs",
                     "simulate_broadcast skyline"),
                    ("batch_allocs", "compute_all_skylines sweep"))


def check_batch_allocs(baseline_doc, fresh_doc):
    """Gate the batch_all_relays allocation counts: one skyline
    simulate_broadcast's and one sweep's.

    Returns a list of failure strings: a fresh count above the baseline's
    is a regression, by the same rule as the workspace allocs_per_op
    gate.  A document without a field (an older baseline, or a sectioned
    run) skips that gate with a named warning.  The broadcast's time and
    deliver_ns are printed beside it, never gated.
    """
    batches = [doc.get("batch_all_relays") for doc in (baseline_doc,
                                                       fresh_doc)]
    batches = [b if isinstance(b, dict) else {} for b in batches]
    failures = []
    for key, label in BATCH_ALLOC_KEYS:
        counts = []
        for name, batch in zip(("baseline", "fresh run"), batches):
            val = batch.get(key)
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                warn(f"{name}: batch_all_relays.{key} missing; skipping "
                     f"the {label} allocation gate")
                break
            counts.append(val)
        if len(counts) != 2:
            continue
        base, cur = counts
        status = "ok"
        if cur > base:
            failures.append(f"{label} now allocates more ({base} -> {cur} "
                            "allocs/call)")
            status = "FAIL"
        print(f"  {label}: {cur} allocs (baseline {base}) [{status}]")
    base, fresh = batches
    if "simulate_broadcast_skyline_ns" in fresh:
        def timing(batch):
            sim = batch["simulate_broadcast_skyline_ns"] / 1e6
            deliver = batch.get("deliver_ns")
            return (f"{sim:.2f} ms" if deliver is None else
                    f"{sim:.2f} ms, deliver over held sets "
                    f"{deliver / 1e3:.0f} us")
        line = f"  skyline broadcast: {timing(fresh)}"
        if "simulate_broadcast_skyline_ns" in base:
            line += f" (baseline {timing(base)})"
        print(line + ", not gated")
    return failures


def report_dynamic_build(baseline_doc, fresh_doc):
    """Print the DynamicDiskGraph constructor beside DiskGraph::build per
    graph_build size, with the baseline's when it has one.  Informational:
    never a failure."""
    def by_nodes(doc):
        rows = doc.get("graph_build")
        if not isinstance(rows, list):
            return {}
        return {e["nodes"]: e for e in rows
                if isinstance(e, dict) and "nodes" in e}

    base = by_nodes(baseline_doc)
    for n, cur in sorted(by_nodes(fresh_doc).items()):
        if "dynamic_build_ns" not in cur or "build_ns" not in cur:
            continue
        line = (f"  graph_build n={n}: DynamicDiskGraph "
                f"{cur['dynamic_build_ns'] / 1e6:.2f} ms, DiskGraph::build "
                f"{cur['build_ns'] / 1e6:.2f} ms")
        old = base.get(n, {}).get("dynamic_build_ns")
        if old is not None:
            line += f" (baseline DynamicDiskGraph {old / 1e6:.2f} ms)"
        print(line + " [not gated]")


def flatten(summary, prefix=""):
    """Flatten a bench_summary dict to (dotted-key, number) pairs."""
    for key, val in summary.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from flatten(val, f"{name}.")
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            yield name, val


def flatten_strings(summary, prefix=""):
    """Flatten to (dotted-key, string) pairs — the provenance leaves.

    'source' is excluded: it names the input file and changes every run.
    """
    for key, val in summary.items():
        name = f"{prefix}{key}"
        if name == "source":
            continue
        if isinstance(val, dict):
            yield from flatten_strings(val, f"{name}.")
        elif isinstance(val, str):
            yield name, val


def read_history_previous(path):
    """Return the last valid history entry, or None.  History problems
    are warnings: a corrupt longitudinal record must not gate the
    current run."""
    previous = None
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    parsed = json.loads(line)
                except ValueError:
                    warn(f"{path}:{lineno}: skipping unparseable history "
                         "line")
                    continue
                try:
                    previous = obslib.check_history_entry(
                        parsed, f"{path}:{lineno}")
                except obslib.SchemaError as e:
                    warn(f"skipping malformed history line: {e}")
    except FileNotFoundError:
        pass
    except OSError as e:
        warn(f"cannot read {path}: {e}")
    return previous


def check_sharded_scaling(fresh_doc, fresh_path, reference, ref_label):
    """Gate sharded_mobility scaling against a reference summary.

    `reference` is a bench_summary-shaped dict — the last valid
    BENCH_history.jsonl entry when a history file is given, else the
    baseline document's own summary.  Per deployment size, the fresh
    speedup_vs_1_shard at the top shard count must not drop more than
    MAX_SHARDED_SPEEDUP_DROP below the reference.  Sizes the reference
    never measured, or a host with fewer cores than the top shard count
    (where the curve measures oversubscription, not scaling — see
    provenance.hardware_concurrency), are skipped with a warning.
    """
    failures = []
    summary = obslib.bench_summary(fresh_doc)
    fresh_speedups = summary.get("sharded_speedup_vs_1_shard")
    if not isinstance(fresh_speedups, dict) or not fresh_speedups:
        warn(f"{fresh_path}: section 'sharded_mobility' missing or empty; "
             "skipping sharded scaling gate")
        return failures
    top_shards = summary.get("sharded_top_shards", {})
    prov = fresh_doc.get("provenance")
    hw = (prov.get("hardware_concurrency")
          if isinstance(prov, dict) else None)
    ref_speedups = {}
    if isinstance(reference, dict):
        raw = reference.get("sharded_speedup_vs_1_shard")
        if isinstance(raw, dict):
            # History entries round-trip through JSON, where int keys
            # become strings; normalize both sides.
            ref_speedups = {str(k): v for k, v in raw.items()}
    for nodes, speedup in sorted(fresh_speedups.items(),
                                 key=lambda kv: str(kv[0])):
        shards = top_shards.get(nodes)
        if isinstance(hw, (int, float)) and isinstance(shards, (int, float)) \
                and hw < shards:
            print(f"  sharded n={nodes}: {speedup:.2f}x at {shards} shards "
                  f"[skipped: host has {int(hw)} core(s)]")
            continue
        prev = ref_speedups.get(str(nodes))
        if not isinstance(prev, (int, float)) or prev <= 0:
            warn(f"sharded n={nodes}: no reference speedup in {ref_label}; "
                 "skipping")
            continue
        floor = prev * (1.0 - MAX_SHARDED_SPEEDUP_DROP)
        status = "ok"
        if speedup < floor:
            failures.append(
                f"sharded n={nodes}: speedup_vs_1_shard at {shards} shards "
                f"dropped {prev:.2f}x -> {speedup:.2f}x (gate: >= "
                f"{floor:.2f}x, {ref_label})")
            status = "FAIL"
        print(f"  sharded n={nodes}: {speedup:.2f}x at {shards} shards "
              f"(reference {prev:.2f}x) [{status}]")
    return failures


def check_mobility_speedup(fresh_doc, fresh_path, reference, ref_label):
    """Gate mobility_steady_state's incremental-vs-rebuild speedup.

    `reference` is chosen as for check_sharded_scaling.  In each of
    MOBILITY_GATED_REGIMES, the fresh speedup_vs_full_rebuild must not
    drop more than MAX_MOBILITY_SPEEDUP_DROP below the reference's.
    Regimes the reference never measured are skipped with a warning, and
    so is the whole gate on a host with fewer than MOBILITY_GATE_MIN_CORES
    cores.
    """
    failures = []
    summary = obslib.bench_summary(fresh_doc)
    fresh = summary.get("mobility_speedup_vs_full_rebuild")
    apply_ns = summary.get("mobility_apply_ns_per_step", {})
    build_ns = summary.get("mobility_build_ns_per_step", {})

    def layers(regime, note=""):
        """The graph layer of both sides, printed beside the ratio (never
        gated; runs from before the fields existed print nothing)."""
        if regime not in apply_ns or regime not in build_ns:
            return ""
        return (f"; apply {apply_ns[regime] / 1e6:.3f} ms vs build "
                f"{build_ns[regime] / 1e6:.3f} ms{note}")

    if not isinstance(fresh, dict) or not fresh:
        warn(f"{fresh_path}: section 'mobility_steady_state' missing or "
             "empty; skipping incremental-maintenance gate")
        return failures
    prov = fresh_doc.get("provenance")
    hw = (prov.get("hardware_concurrency")
          if isinstance(prov, dict) else None)
    if isinstance(hw, (int, float)) and hw < MOBILITY_GATE_MIN_CORES:
        print(f"  mobility: skipped, host has {int(hw)} core(s) "
              f"(gate needs {MOBILITY_GATE_MIN_CORES})")
        return failures
    ref = {}
    if isinstance(reference, dict):
        raw = reference.get("mobility_speedup_vs_full_rebuild")
        if isinstance(raw, dict):
            ref = raw
    for regime, speedup in sorted(fresh.items()):
        if regime not in MOBILITY_GATED_REGIMES:
            print(f"  mobility {regime}: {speedup:.2f}x vs full rebuild "
                  f"(not gated{layers(regime)})")
            continue
        prev = ref.get(regime)
        if not isinstance(prev, (int, float)) or prev <= 0:
            warn(f"mobility {regime}: no reference speedup in {ref_label}; "
                 "skipping")
            continue
        floor = prev * (1.0 - MAX_MOBILITY_SPEEDUP_DROP)
        status = "ok"
        if speedup < floor:
            failures.append(
                f"mobility {regime}: speedup_vs_full_rebuild dropped "
                f"{prev:.2f}x -> {speedup:.2f}x (gate: >= {floor:.2f}x, "
                f"{ref_label})")
            status = "FAIL"
        print(f"  mobility {regime}: {speedup:.2f}x vs full rebuild "
              f"(reference {prev:.2f}x{layers(regime, ', not gated')}) "
              f"[{status}]")
    return failures


def history_source(fresh_path):
    """The fresh file as a history line names it: relative to the
    repository root, or its bare name (with a warning) when it lies
    outside, so no machine path lands in the committed history."""
    path = Path(fresh_path).resolve()
    try:
        return path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        warn(f"{fresh_path} lies outside the repository; the history "
             f"line names it '{path.name}'")
        return path.name


def update_history(path, fresh_doc, fresh_path, previous):
    """Append the fresh run's summary to the history file and print
    deltas against `previous` (the last valid entry, already read)."""
    summary = obslib.bench_summary(fresh_doc)
    entry = {"source": history_source(fresh_path), **summary}
    try:
        obslib.check_history_entry(entry, fresh_path)
    except obslib.SchemaError as e:
        warn(f"not appending: this run's summary is malformed: {e}")
        return
    try:
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError as e:
        warn(f"cannot append to {path}: {e}")
        return
    print(f"check_bench: history: appended entry to {path}")

    # Observability provenance is always named, not only on change: a
    # history line recorded with the introspection server on or a blackbox
    # armed measured a (slightly) instrumented run, and whoever reads the
    # longitudinal record needs that attribution next to the numbers.
    prov = summary.get("provenance")
    if isinstance(prov, dict):
        obs_keys = {k: prov[k] for k in ("introspect", "blackbox")
                    if k in prov}
        if obs_keys:
            readout = ", ".join(f"{k}={v}" for k, v in sorted(
                obs_keys.items()))
            print(f"  observability: {readout}")

    if previous is None:
        print("check_bench: history: first entry, no deltas")
        return
    prev = dict(flatten(previous))
    for name, val in flatten(summary):
        if name not in prev:
            print(f"  {name}: {val:.4g} (new)")
            continue
        old = prev[name]
        if old == 0:
            delta = "n/a"
        else:
            delta = f"{100.0 * (val - old) / old:+.1f}%"
        print(f"  {name}: {old:.4g} -> {val:.4g} ({delta})")
    # String leaves (provenance: compiler, flags, dispatch) only print
    # when they differ — the attribution trail for any numeric jump.
    prev_strings = dict(flatten_strings(previous))
    for name, val in flatten_strings(summary):
        old = prev_strings.get(name)
        if old is None:
            print(f"  {name}: {val} (new)")
        elif old != val:
            print(f"  {name}: {old} -> {val} (changed)")


def main():
    parser = argparse.ArgumentParser(
        description="Gate a fresh perf run against a baseline.")
    parser.add_argument("baseline", help="checked-in mldcs-perf-v1 JSON")
    parser.add_argument("fresh", help="freshly measured mldcs-perf-v1 JSON")
    parser.add_argument("--history", metavar="FILE.jsonl",
                        help="append the fresh summary here and print "
                             "deltas vs the previous entry")
    args = parser.parse_args()

    fresh_doc = load(args.fresh)
    baseline_doc = load(args.baseline)
    baseline = by_n_disks(baseline_doc, args.baseline)
    fresh = by_n_disks(fresh_doc, args.fresh)

    report_section_inventory(baseline_doc, fresh_doc)
    report_provenance_diff(baseline_doc, fresh_doc)

    failures = []
    if baseline is None or fresh is None:
        print("check_bench: OK (nothing comparable; see warnings)")
    else:
        for n, base in sorted(baseline.items()):
            cur = fresh.get(n)
            if cur is None:
                # A fresh run that measured fewer sizes (different mode or
                # a trimmed sweep) is a coverage gap, not a slowdown.
                warn(f"n_disks={n}: in baseline but not in fresh run; "
                     "skipping")
                continue
            ratio = base["ops_per_s"] / cur["ops_per_s"]
            status = "ok"
            if cur["ops_per_s"] < base["ops_per_s"] / MAX_SLOWDOWN:
                failures.append(
                    f"n_disks={n}: throughput collapsed {ratio:.2f}x "
                    f"({base['ops_per_s']:.0f} -> {cur['ops_per_s']:.0f} "
                    "ops/s)")
                status = "FAIL"
            if cur["allocs_per_op"] > base["allocs_per_op"]:
                failures.append(
                    f"n_disks={n}: workspace path now allocates "
                    f"({base['allocs_per_op']} -> {cur['allocs_per_op']} "
                    f"allocs/op)")
                status = "FAIL"
            print(f"  n_disks={n}: {cur['ops_per_s']:.0f} ops/s "
                  f"(baseline/{ratio:.2f}), {cur['allocs_per_op']} "
                  f"allocs/op [{status}]")

    report_dynamic_build(baseline_doc, fresh_doc)
    failures += check_batch_allocs(baseline_doc, fresh_doc)
    failures += check_paper_density(baseline_doc, fresh_doc)
    failures += check_simd_dispatch(fresh_doc, args.fresh)

    previous = read_history_previous(args.history) if args.history else None
    if previous is not None:
        reference, ref_label = previous, f"history {args.history}"
    else:
        reference = obslib.bench_summary(baseline_doc)
        ref_label = f"baseline {args.baseline}"
    failures += check_sharded_scaling(fresh_doc, args.fresh, reference,
                                      ref_label)
    failures += check_mobility_speedup(fresh_doc, args.fresh, reference,
                                       ref_label)

    if args.history:
        update_history(args.history, fresh_doc, args.fresh, previous)

    if failures:
        print("check_bench: REGRESSION", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if baseline is not None and fresh is not None:
        print("check_bench: OK "
              f"(workspace path within {MAX_SLOWDOWN}x of baseline, "
              "no allocation regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
