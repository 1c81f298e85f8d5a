#!/usr/bin/env python3
"""mldcs-analyze: project-specific static analysis for the mldcs tree.

Enforces the discipline the generic linters cannot see (tools/run-tidy.sh
covers the generic part):

  hot-no-alloc            MLDCS_HOT_PATH call trees never allocate
  lock-discipline         MLDCS_NO_LOCK call trees never lock/block
  tolerance-audit         geometry/core compare doubles through geom::kTol
  event-vocabulary        EventType enum / switch / obslib / emit sites agree

Usage:
    tools/analyze/mldcs_analyze.py [--root DIR] [--rules r1,r2]
        [--baseline FILE] [--json-out FILE] [paths...]

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Annotations come from src/core/annotations.hpp; suppress single findings
with `// mldcs-analyze:allow(<rule>): <reason>` on (or just above) the
flagged line, or whole findings with an entry in the baseline file
(tools/analyze/baseline.json — every entry needs a "reason").
See docs/CORRECTNESS.md ("Static analysis").
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rules as rules_mod  # noqa: E402
from model import Model    # noqa: E402
from rules import Ctx, RULE_FUNCS, RULES  # noqa: E402

CXX_EXT = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h", ".ipp")


def find_sources(root: str, explicit: list) -> list:
    """Files to analyze: explicit paths if given, else every C++ file under
    <root>/src (headers included)."""
    files: set = set()
    for p in explicit or [os.path.join(root, "src")]:
        ap = os.path.abspath(p)
        if os.path.isdir(ap):
            for dirpath, _dirs, names in os.walk(ap):
                for n in names:
                    if n.endswith(CXX_EXT):
                        files.add(os.path.join(dirpath, n))
        elif os.path.isfile(ap):
            files.add(ap)
        else:
            raise FileNotFoundError(p)
    return sorted(files)


def load_baseline(path: str):
    """Baseline entries: [{"key": ..., "reason": ...}, ...]."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError("baseline must be a JSON list")
    entries = {}
    for i, e in enumerate(data):
        if not isinstance(e, dict) or "key" not in e:
            raise ValueError(f"baseline entry {i} has no 'key'")
        if not str(e.get("reason", "")).strip():
            raise ValueError(
                f"baseline entry {i} ({e['key']!r}) has no 'reason' — "
                f"every suppression must be justified")
        entries[e["key"]] = e
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="mldcs-analyze",
        description="Project-specific static analysis for the mldcs tree.")
    default_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("paths", nargs="*",
                    help="files/directories to analyze (default: <root>/src)")
    ap.add_argument("--root", default=default_root,
                    help="repository root (default: two levels above this "
                         "script)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help="comma-separated rule subset (default: all). "
                         "Known: " + ", ".join(RULES))
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON of accepted findings (default: "
                         "<root>/tools/analyze/baseline.json if present)")
    ap.add_argument("--json-out", default=None,
                    help="also write findings as a JSON report")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule names and exit")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the per-finding lines (summary only)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = os.path.abspath(args.root)
    selected = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in selected if r not in RULE_FUNCS]
    if unknown:
        print(f"mldcs-analyze: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    try:
        files = find_sources(root, args.paths)
    except FileNotFoundError as e:
        print(f"mldcs-analyze: no such path: {e}", file=sys.stderr)
        return 2
    if not files:
        print("mldcs-analyze: no sources found", file=sys.stderr)
        return 2

    model = Model()
    for fp in files:
        try:
            with open(fp, encoding="utf-8", errors="replace") as f:
                model.add_file(fp, f.read())
        except OSError as e:
            print(f"mldcs-analyze: warning: skipping {fp}: {e}",
                  file=sys.stderr)
    model.finish()

    ctx = Ctx(root)
    findings = []
    for r in selected:
        findings.extend(RULE_FUNCS[r](model, ctx))
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.key))

    baseline_path = args.baseline
    if baseline_path is None:
        cand = os.path.join(root, "tools", "analyze", "baseline.json")
        baseline_path = cand if os.path.isfile(cand) else None
    baseline = {}
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"mldcs-analyze: bad baseline {baseline_path}: {e}",
                  file=sys.stderr)
            return 2

    active, suppressed = [], []
    for f in findings:
        (suppressed if f.key in baseline else active).append(f)
    stale = sorted(set(baseline) - {f.key for f in suppressed})

    if not args.quiet:
        for f in active:
            print(f.text())
    for k in stale:
        print(f"mldcs-analyze: warning: stale baseline entry (no longer "
              f"fires): {k}", file=sys.stderr)

    if args.json_out:
        report = {
            "schema": "mldcs-analyze-v1",
            "root": root,
            "rules": selected,
            "files": len(files),
            "findings": [f.as_json() for f in active],
            "suppressed": [dict(f.as_json(),
                                reason=baseline[f.key].get("reason", ""))
                           for f in suppressed],
            "stale_baseline": stale,
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    print(f"mldcs-analyze: {len(files)} files, {len(selected)} rules: "
          f"{len(active)} finding(s), {len(suppressed)} baselined"
          + (f", {len(stale)} stale baseline entr"
             f"{'y' if len(stale) == 1 else 'ies'}" if stale else ""))
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
