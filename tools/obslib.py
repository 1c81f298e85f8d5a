"""Shared loading/validation helpers for the mldcs observability tools.

The C++ side emits three JSON document families (docs/OBSERVABILITY.md):

  * chrome-trace files from obs::write_trace_json ("traceEvents" spans),
  * mldcs-telemetry-v1 registry snapshots from obs::write_snapshot_json,
  * mldcs-events-v1 flight-recorder JSONL from obs::write_events_jsonl
    (one header line, then one event object per line),
  * mldcs-blackbox-v1 crash/heartbeat reports from the obs::blackbox
    dumper (header, heartbeat frames, event-tail lines, end line),
  * mldcs-shards-v1 per-shard load tables from the introspection
    server's /shards endpoint,
  * mldcs-profile-v1 sampling profiles from obs::profiler (folded
    collapsed-stack text from --profile / /profile, one JSON document
    from /profile?format=json, and {"kind":"profile"} lines embedded in
    blackbox reports),

plus the mldcs-perf-v1 benchmark documents from perf_suite.  Every tool
that reads one of these (summarize_trace.py, check_bench.py,
mldcs_report.py, mldcs_top.py) validates through this module so a schema
drift fails identically everywhere instead of several slightly different
ways.

All checkers raise SchemaError with a path-prefixed message; tools decide
whether that is fatal (CI gates) or a named warning (best-effort reports).
"""

import json

EVENT_SCHEMA = "mldcs-events-v1"
TELEMETRY_SCHEMA = "mldcs-telemetry-v1"
PERF_SCHEMA = "mldcs-perf-v1"
BLACKBOX_SCHEMA = "mldcs-blackbox-v1"
SHARDS_SCHEMA = "mldcs-shards-v1"
PROFILE_SCHEMA = "mldcs-profile-v1"

#: Event-type tokens emitted by obs::event_type_name (one per EventType).
EVENT_TYPES = frozenset({
    "broadcast", "tx", "rx", "dup_rx", "designate", "suppress",
    "step", "cache_update", "watchdog_check", "watchdog_mismatch",
    "shard_exchange", "heartbeat", "crash_dump",
})


class SchemaError(Exception):
    """A document failed to load or does not match its declared schema."""


def load_json(path):
    """Parse one JSON document; raise SchemaError on any failure."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SchemaError(f"cannot read {path}: {e}") from e


def check_trace(doc, path):
    """Validate a chrome-trace document; return its complete-span events."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SchemaError(f"{path}: missing 'traceEvents' array")
    spans = []
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            raise SchemaError(f"{path}: traceEvents[{i}] is not an object")
        if e.get("ph") != "X":
            continue  # tolerate non-span phases from other producers
        for key, typ in (("name", str), ("ts", (int, float)),
                         ("dur", (int, float)), ("tid", (int, float))):
            if not isinstance(e.get(key), typ):
                raise SchemaError(
                    f"{path}: traceEvents[{i}] has no valid '{key}'")
        if e["dur"] < 0:
            raise SchemaError(
                f"{path}: traceEvents[{i}] has negative duration")
        spans.append(e)
    return spans


def check_snapshot(doc, path):
    """Validate an mldcs-telemetry-v1 snapshot; return it."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    if doc.get("schema") != TELEMETRY_SCHEMA:
        raise SchemaError(f"{path}: unexpected schema {doc.get('schema')!r} "
                          f"(expected {TELEMETRY_SCHEMA})")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            raise SchemaError(f"{path}: missing '{section}' object")
    for name, h in doc["histograms"].items():
        if not isinstance(h, dict):
            raise SchemaError(f"{path}: histogram {name!r} is not an object")
        for key in ("count", "sum", "min", "max", "mean", "buckets"):
            if key not in h:
                raise SchemaError(
                    f"{path}: histogram {name!r} is missing '{key}'")
        if not isinstance(h["buckets"], list):
            raise SchemaError(
                f"{path}: histogram {name!r} 'buckets' is not a list")
    return doc


def load_events(path):
    """Load and validate an mldcs-events-v1 JSONL file.

    Returns (header, events): the header dict and the list of event dicts
    in file order, each with an 'a' key (None where the writer left out a
    kNoNode field).  Raises SchemaError on unreadable input, a bad header,
    an unknown event type, non-increasing ids, a parent that does not
    precede its child, or a count that disagrees with the line count.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in (raw.strip() for raw in f) if ln]
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    if not lines:
        raise SchemaError(f"{path}: empty file (expected a header line)")

    def parse(i, line):
        try:
            doc = json.loads(line)
        except ValueError as e:
            raise SchemaError(f"{path}:{i + 1}: bad JSON: {e}") from e
        if not isinstance(doc, dict):
            raise SchemaError(f"{path}:{i + 1}: line is not a JSON object")
        return doc

    header = parse(0, lines[0])
    if header.get("schema") != EVENT_SCHEMA:
        raise SchemaError(f"{path}: unexpected schema "
                          f"{header.get('schema')!r} "
                          f"(expected {EVENT_SCHEMA})")
    for key in ("enabled", "count", "dropped"):
        if key not in header:
            raise SchemaError(f"{path}: header is missing '{key}'")

    events = []
    prev_id = -1
    for i, line in enumerate(lines[1:], start=1):
        e = parse(i, line)
        for key in ("id", "t", "v"):
            if key not in e:
                raise SchemaError(f"{path}:{i + 1}: event missing '{key}'")
        # The writer omits a node field that is kNoNode (as in crash_dump):
        # a missing 'a' reads as None, "no node".
        e.setdefault("a", None)
        if e["t"] not in EVENT_TYPES:
            raise SchemaError(
                f"{path}:{i + 1}: unknown event type {e['t']!r}")
        if not isinstance(e["id"], int) or e["id"] <= prev_id:
            raise SchemaError(f"{path}:{i + 1}: ids must be strictly "
                              f"increasing ({prev_id} then {e['id']})")
        if "parent" in e and e["parent"] >= e["id"]:
            raise SchemaError(f"{path}:{i + 1}: parent {e['parent']} does "
                              f"not precede event {e['id']}")
        prev_id = e["id"]
        events.append(e)

    if header["count"] != len(events):
        raise SchemaError(f"{path}: header count {header['count']} != "
                          f"{len(events)} event lines (truncated?)")
    return header, events


def load_blackbox(path):
    """Load and validate an mldcs-blackbox-v1 crash/heartbeat report.

    Returns (header, frames, events): the header dict, the heartbeat
    frame dicts, and the event-tail dicts, each in file order.  Raises
    SchemaError on unreadable input, a bad header, an unknown line kind,
    non-increasing heartbeat sequence numbers or event ids, a malformed
    counter delta, or an end line whose counts disagree with the body.
    An optional {"kind":"profile"} line (present when the sampling
    profiler was armed at dump time) is validated in place against
    mldcs-profile-v1 and otherwise ignored here; use scan_blackbox_profile
    to extract it.

    The end line is optional: a dump interrupted mid-write (the process
    died inside the crash handler) still yields whatever frames landed,
    and the missing trailer is the caller's signal that the report is
    partial.  Returns header None for an empty file for the same reason.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in (raw.strip() for raw in f) if ln]
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    if not lines:
        return None, [], []

    def parse(i, line):
        try:
            doc = json.loads(line)
        except ValueError as e:
            raise SchemaError(f"{path}:{i + 1}: bad JSON: {e}") from e
        if not isinstance(doc, dict):
            raise SchemaError(f"{path}:{i + 1}: line is not a JSON object")
        return doc

    header = parse(0, lines[0])
    if header.get("kind") != "header":
        raise SchemaError(f"{path}: first line kind is "
                          f"{header.get('kind')!r} (expected 'header')")
    if header.get("schema") != BLACKBOX_SCHEMA:
        raise SchemaError(f"{path}: unexpected schema "
                          f"{header.get('schema')!r} "
                          f"(expected {BLACKBOX_SCHEMA})")
    for key in ("pid", "frames", "event_tail", "reason"):
        if key not in header:
            raise SchemaError(f"{path}: header is missing '{key}'")

    frames = []
    events = []
    end = None
    prev_seq = -1
    prev_id = -1
    for i, line in enumerate(lines[1:], start=1):
        doc = parse(i, line)
        kind = doc.get("kind")
        if end is not None:
            raise SchemaError(f"{path}:{i + 1}: line after the end trailer")
        if kind == "heartbeat":
            for key in ("seq", "step", "counters", "gauges", "hists",
                        "shards", "events"):
                if key not in doc:
                    raise SchemaError(
                        f"{path}:{i + 1}: heartbeat missing '{key}'")
            if not isinstance(doc["seq"], int) or doc["seq"] <= prev_seq:
                raise SchemaError(
                    f"{path}:{i + 1}: heartbeat seq must be strictly "
                    f"increasing ({prev_seq} then {doc['seq']})")
            prev_seq = doc["seq"]
            for name, val in doc["counters"].items():
                if (not isinstance(val, list) or len(val) != 2
                        or not all(isinstance(x, int) for x in val)):
                    raise SchemaError(
                        f"{path}:{i + 1}: counter {name!r} is not an "
                        "[absolute, delta] pair")
            frames.append(doc)
        elif kind == "event":
            for key in ("id", "t", "a", "v"):
                if key not in doc:
                    raise SchemaError(
                        f"{path}:{i + 1}: event missing '{key}'")
            if doc["t"] not in EVENT_TYPES:
                raise SchemaError(
                    f"{path}:{i + 1}: unknown event type {doc['t']!r}")
            if not isinstance(doc["id"], int) or doc["id"] <= prev_id:
                raise SchemaError(
                    f"{path}:{i + 1}: event ids must be strictly "
                    f"increasing ({prev_id} then {doc['id']})")
            prev_id = doc["id"]
            events.append(doc)
        elif kind == "profile":
            check_profile_doc(doc, f"{path}:{i + 1}")
        elif kind == "end":
            end = doc
        else:
            raise SchemaError(f"{path}:{i + 1}: unknown line kind {kind!r}")

    if end is not None:
        if end.get("frames") != len(frames):
            raise SchemaError(f"{path}: end line claims "
                              f"{end.get('frames')} frames, found "
                              f"{len(frames)}")
        if end.get("events") != len(events):
            raise SchemaError(f"{path}: end line claims "
                              f"{end.get('events')} events, found "
                              f"{len(events)}")
    return header, frames, events


#: Phase tokens emitted by obs::phase_name (one per obs::Phase): profile
#: phase keys and folded-stack roots, and the span names of a trace
#: (mldcs-analyze's event-vocabulary rule keeps this set in sync).
PHASE_NAMES = frozenset({
    "none", "step_ownership", "shard_step", "halo_exchange",
    "cache_recompute", "step_commit", "simd_kernel", "pool_idle",
    "graph_apply", "engine_step", "cache_update", "cache_patch",
    "cache_compact", "broadcast",
})


def check_profile_doc(doc, path):
    """Validate one mldcs-profile-v1 JSON document; return it.

    Accepts both the standalone form (/profile?format=json: has
    "duration_s" and a complete "folded" stack map) and the bounded
    {"kind":"profile"} line embedded in blackbox reports (has a
    truncated "top" stack array instead).  In both, phase counts must
    sum to total_samples — every sample carries exactly one phase.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: profile is not a JSON object")
    if doc.get("schema") != PROFILE_SCHEMA:
        raise SchemaError(f"{path}: unexpected schema {doc.get('schema')!r} "
                          f"(expected {PROFILE_SCHEMA})")
    for key in ("hz", "total_samples", "dropped"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            raise SchemaError(
                f"{path}: profile '{key}' is not a non-negative integer")
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        raise SchemaError(f"{path}: profile is missing the 'phases' object")
    for name, count in phases.items():
        if name not in PHASE_NAMES:
            raise SchemaError(f"{path}: unknown phase {name!r}")
        if not isinstance(count, int) or count < 0:
            raise SchemaError(f"{path}: phase {name!r} count is not a "
                              "non-negative integer")
    if sum(phases.values()) != doc["total_samples"]:
        raise SchemaError(
            f"{path}: phase counts sum to {sum(phases.values())}, "
            f"total_samples is {doc['total_samples']}")
    folded = doc.get("folded")
    top = doc.get("top")
    if isinstance(folded, dict):
        for stack, count in folded.items():
            if not isinstance(count, int) or count < 0:
                raise SchemaError(f"{path}: folded stack {stack!r} count "
                                  "is not a non-negative integer")
        if sum(folded.values()) != doc["total_samples"]:
            raise SchemaError(
                f"{path}: folded counts sum to {sum(folded.values())}, "
                f"total_samples is {doc['total_samples']}")
    elif isinstance(top, list):
        seen = 0
        for i, entry in enumerate(top):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], int) or entry[1] < 0):
                raise SchemaError(
                    f"{path}: top[{i}] is not a [stack, count] pair")
            seen += entry[1]
        if seen > doc["total_samples"]:  # truncated list: <= is the contract
            raise SchemaError(
                f"{path}: top counts sum to {seen}, exceeding "
                f"total_samples {doc['total_samples']}")
    else:
        raise SchemaError(
            f"{path}: profile has neither a 'folded' map nor a 'top' array")
    return doc


def _parse_folded_text(text, path):
    """Parse collapsed-stack text ("stack count" lines) into stack rows."""
    stacks = []
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        stack, sep, count = line.rpartition(" ")
        if not sep or not count.isdigit():
            raise SchemaError(
                f"{path}:{i + 1}: not a 'stack count' folded line")
        if not stack:
            raise SchemaError(f"{path}:{i + 1}: empty stack")
        stacks.append((stack, int(count)))
    return stacks


def load_profile(path):
    """Load a profile in either serialization; return a normalized dict.

    Sniffs the format: a document starting with '{' is parsed as the
    mldcs-profile-v1 JSON form (check_profile_doc); anything else as
    collapsed-stack text, where each line is "phase;frame;...;leaf N"
    and the phase breakdown is recovered from the root frame.  An empty
    file is a valid empty profile (no samples).

    Returns {"format", "hz", "total_samples", "dropped", "duration_s",
    "phases", "stacks"} with stacks as (stack, count) pairs sorted by
    descending count; hz/dropped/duration_s are None in folded form
    (the text carries no metadata).
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as e:
            raise SchemaError(f"{path}: bad JSON: {e}") from e
        check_profile_doc(doc, path)
        if isinstance(doc.get("folded"), dict):
            stacks = list(doc["folded"].items())
        else:
            stacks = [(e[0], e[1]) for e in doc.get("top", [])]
        stacks.sort(key=lambda kv: (-kv[1], kv[0]))
        return {"format": "json", "hz": doc["hz"],
                "total_samples": doc["total_samples"],
                "dropped": doc["dropped"],
                "duration_s": doc.get("duration_s"),
                "phases": dict(doc["phases"]), "stacks": stacks}
    stacks = _parse_folded_text(text, path)
    phases = {}
    for stack, count in stacks:
        root = stack.split(";", 1)[0]
        if root not in PHASE_NAMES:
            raise SchemaError(
                f"{path}: folded stack root {root!r} is not a phase "
                "(expected one of obs::phase_name's tokens)")
        phases[root] = phases.get(root, 0) + count
    stacks.sort(key=lambda kv: (-kv[1], kv[0]))
    return {"format": "folded", "hz": None,
            "total_samples": sum(c for _, c in stacks), "dropped": None,
            "duration_s": None, "phases": phases, "stacks": stacks}


def scan_blackbox_profile(path):
    """Return the {"kind":"profile"} line of a blackbox report, or None."""
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if isinstance(doc, dict) and doc.get("kind") == "profile":
                    return check_profile_doc(doc, path)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    return None


def check_shards(doc, path):
    """Validate an mldcs-shards-v1 load table; return its shard rows."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    if doc.get("schema") != SHARDS_SCHEMA:
        raise SchemaError(f"{path}: unexpected schema {doc.get('schema')!r} "
                          f"(expected {SHARDS_SCHEMA})")
    shards = doc.get("shards")
    if not isinstance(shards, list):
        raise SchemaError(f"{path}: missing 'shards' array")
    if doc.get("count") != len(shards):
        raise SchemaError(f"{path}: count {doc.get('count')} != "
                          f"{len(shards)} shard rows")
    for i, s in enumerate(shards):
        if not isinstance(s, dict):
            raise SchemaError(f"{path}: shards[{i}] is not an object")
        for key in ("shard", "owned", "halo", "incoming", "dirty",
                    "step_ns", "barrier_wait_ns"):
            if not isinstance(s.get(key), int):
                raise SchemaError(
                    f"{path}: shards[{i}] has no integer '{key}'")
    return shards


def check_bench(doc, path):
    """Validate the mldcs-perf-v1 envelope; return the document."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    if doc.get("schema") != PERF_SCHEMA:
        raise SchemaError(f"{path}: unexpected schema {doc.get('schema')!r} "
                          f"(expected {PERF_SCHEMA})")
    return doc


def check_history_entry(entry, where):
    """Validate one BENCH_history.jsonl line; raise SchemaError otherwise.

    A history line is a flattened mldcs-perf-v1 summary (bench_summary
    output plus a 'source' tag): a JSON object whose leaves are numbers
    (the plottable series), strings, or null, with at least one numeric
    leaf — anything else cannot be delta-compared and would poison the
    longitudinal record.
    """
    if not isinstance(entry, dict):
        raise SchemaError(f"{where}: history entry is not a JSON object")

    has_number = False

    def walk(d, prefix):
        nonlocal has_number
        for key, val in d.items():
            name = f"{prefix}{key}"
            if isinstance(val, dict):
                walk(val, name + ".")
            elif isinstance(val, (int, float)) and not isinstance(val, bool):
                has_number = True
            elif not isinstance(val, (str, bool)) and val is not None:
                raise SchemaError(
                    f"{where}: history field {name!r} is neither a number, "
                    "a string, nor null")

    walk(entry, "")
    if not has_number:
        raise SchemaError(f"{where}: history entry has no numeric fields")
    return entry


def bench_summary(doc):
    """Reduce an mldcs-perf-v1 document to one flat per-section summary.

    One scalar headline per section — the number you would plot over time
    — so BENCH_history.jsonl entries stay one line each.  Absent sections
    are simply absent keys (sectioned runs summarize what they measured).
    """
    out = {"mode": doc.get("mode"), "threads": doc.get("threads")}

    prov = doc.get("provenance")
    if isinstance(prov, dict):
        strings = {k: v for k, v in prov.items() if isinstance(v, str)}
        if strings:
            out["provenance"] = strings

    simd = doc.get("single_relay_skyline_simd")
    if isinstance(simd, list) and simd:
        speedups = {e["n_disks"]: e["simd_vs_scalar_speedup"] for e in simd
                    if isinstance(e, dict) and "n_disks" in e
                    and "simd_vs_scalar_speedup" in e}
        if speedups:
            out["simd_vs_scalar_speedup"] = speedups

    srs = doc.get("single_relay_skyline")
    if isinstance(srs, list) and srs:
        ops = {e["n_disks"]: e["workspace"]["ops_per_s"] for e in srs
               if isinstance(e, dict) and isinstance(e.get("workspace"), dict)
               and "n_disks" in e and "ops_per_s" in e["workspace"]}
        if ops:
            out["single_relay_ops_per_s"] = ops
            out["single_relay_allocs_per_op"] = max(
                e["workspace"].get("allocs_per_op", 0) for e in srs
                if isinstance(e, dict) and isinstance(e.get("workspace"),
                                                      dict))

    batch = doc.get("batch_all_relays")
    if isinstance(batch, dict):
        for key in ("batch_relays_per_s", "batch_allocs",
                    "simulate_broadcast_skyline_ns",
                    "simulate_broadcast_skyline_allocs", "deliver_ns"):
            if key in batch:
                out[key] = batch[key]

    density = doc.get("single_relay_paper_density")
    if isinstance(density, dict):
        for key in ("relays_per_s", "survivors_per_relay"):
            if key in density:
                out[f"paper_density_{key}"] = density[key]

    gb = doc.get("graph_build")
    if isinstance(gb, list) and gb:
        for key, name in (("ns_per_node", "graph_build_ns_per_node"),
                          ("dynamic_ns_per_node",
                           "graph_build_dynamic_ns_per_node")):
            per_node = [e[key] for e in gb
                        if isinstance(e, dict) and key in e]
            if per_node:
                out[name] = max(per_node)

    threads = doc.get("batch_all_relays_threads")
    if isinstance(threads, list) and threads:
        best = max((e for e in threads
                    if isinstance(e, dict) and "speedup_vs_1_thread" in e),
                   key=lambda e: e["speedup_vs_1_thread"], default=None)
        if best is not None:
            out["best_thread_speedup"] = best["speedup_vs_1_thread"]
            out["best_thread_count"] = best.get("threads")

    sharded = doc.get("sharded_mobility")
    if isinstance(sharded, list) and sharded:
        # One headline per deployment size: the entry at the top shard
        # count, whose speedup_vs_1_shard is what the scaling gate tracks.
        top = {}
        for e in sharded:
            if (not isinstance(e, dict) or "nodes" not in e
                    or "shards" not in e):
                continue
            cur = top.get(e["nodes"])
            if cur is None or e["shards"] > cur["shards"]:
                top[e["nodes"]] = e
        speedups = {n: e["speedup_vs_1_shard"] for n, e in top.items()
                    if "speedup_vs_1_shard" in e}
        if speedups:
            out["sharded_speedup_vs_1_shard"] = speedups
            out["sharded_top_shards"] = {n: e["shards"]
                                         for n, e in top.items()}
        relays = {n: e["relays_per_s"] for n, e in top.items()
                  if "relays_per_s" in e}
        if relays:
            out["sharded_relays_per_s"] = relays
        halos = {n: e["halo_fraction"] for n, e in top.items()
                 if "halo_fraction" in e}
        if halos:
            out["sharded_halo_fraction"] = halos

    mob = doc.get("mobility_steady_state")
    if isinstance(mob, list) and mob:
        # The gated ratio, then the graph layer of each side of it.
        for key in ("speedup_vs_full_rebuild", "apply_ns_per_step",
                    "build_ns_per_step"):
            per_regime = {e["regime"]: e[key] for e in mob
                          if isinstance(e, dict) and "regime" in e
                          and e.get(key) is not None}
            if per_regime:
                out[f"mobility_{key}"] = per_regime

    return out
