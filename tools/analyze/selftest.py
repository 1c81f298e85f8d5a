#!/usr/bin/env python3
"""Self-test for mldcs-analyze: the fixture corpus must reproduce the
golden findings exactly, every rule must catch at least one seeded
violation, the clean fixture must stay silent, and baseline suppression
must turn the same run green.

Run directly or via ctest (test name `analyze.selftest`):

    python3 tools/analyze/selftest.py            # check
    python3 tools/analyze/selftest.py --update   # regenerate expected.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
EXPECTED = os.path.join(FIXTURES, "expected.json")
ANALYZER = os.path.join(HERE, "mldcs_analyze.py")

CLEAN_FILES = ("src/core/hot_alloc_ok.cpp",
               "src/core/scope_ok.cpp")


def run_analyzer(extra):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out_path = tf.name
    try:
        proc = subprocess.run(
            [sys.executable, ANALYZER, "--root", FIXTURES,
             "--json-out", out_path] + extra,
            capture_output=True, text=True)
        with open(out_path, encoding="utf-8") as f:
            report = json.load(f)
    finally:
        os.unlink(out_path)
    return proc, report


def main(argv) -> int:
    update = "--update" in argv
    proc, report = run_analyzer([])
    findings = [
        {"rule": f["rule"], "file": f["file"], "line": f["line"]}
        for f in report["findings"]
    ]
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))

    errors = []
    if proc.returncode != 1:
        errors.append(f"expected exit 1 on the fixture corpus, got "
                      f"{proc.returncode}\nstderr: {proc.stderr}")

    rules_hit = {f["rule"] for f in findings}
    from rules import RULES
    for r in RULES:
        if r not in rules_hit:
            errors.append(f"rule '{r}' caught no seeded violation")

    for cf in CLEAN_FILES:
        hits = [f for f in findings if f["file"] == cf]
        if hits:
            errors.append(f"clean fixture {cf} produced findings: {hits}")

    if update:
        with open(EXPECTED, "w", encoding="utf-8") as f:
            json.dump(findings, f, indent=2)
            f.write("\n")
        print(f"selftest: wrote {len(findings)} golden findings to "
              f"{os.path.relpath(EXPECTED)}")
    else:
        try:
            with open(EXPECTED, encoding="utf-8") as f:
                golden = json.load(f)
        except OSError as e:
            errors.append(f"no golden file ({e}); run with --update")
            golden = []
        if not errors and findings != golden:
            got = {(f["file"], f["line"], f["rule"]) for f in findings}
            want = {(f["file"], f["line"], f["rule"]) for f in golden}
            for miss in sorted(want - got):
                errors.append(f"missing expected finding: {miss}")
            for extra in sorted(got - want):
                errors.append(f"unexpected finding: {extra}")

    # Baseline suppression: baselining every finding must turn the run
    # green (exit 0, everything suppressed) with no stale entries.
    baseline = [{"key": f["key"], "reason": "selftest suppression"}
                for f in report["findings"]]
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tf:
        json.dump(baseline, tf)
        bl_path = tf.name
    try:
        proc2, report2 = run_analyzer(["--baseline", bl_path])
    finally:
        os.unlink(bl_path)
    if proc2.returncode != 0:
        errors.append(f"fully-baselined run should exit 0, got "
                      f"{proc2.returncode}\nstdout: {proc2.stdout}")
    if report2["findings"]:
        errors.append(f"baselined run still reports: {report2['findings']}")
    if len(report2["suppressed"]) != len(report["findings"]):
        errors.append("baselined run suppressed "
                      f"{len(report2['suppressed'])} of "
                      f"{len(report['findings'])} findings")

    # A stale baseline entry must be detected (warned, not fatal).
    stale_entry = [{"key": "hot-no-alloc:src/nope.cpp:gone:new-expression",
                    "reason": "stale on purpose"}]
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tf:
        json.dump(stale_entry, tf)
        bl_path = tf.name
    try:
        proc3, report3 = run_analyzer(["--baseline", bl_path])
    finally:
        os.unlink(bl_path)
    if report3["stale_baseline"] != [stale_entry[0]["key"]]:
        errors.append(f"stale baseline entry not reported: "
                      f"{report3['stale_baseline']}")

    if errors:
        for e in errors:
            print(f"selftest: FAIL: {e}")
        return 1
    print(f"selftest: OK ({len(findings)} findings match golden; all "
          f"{len(rules_hit)} rules fire; clean fixtures silent; baseline "
          f"round-trip green)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1:]))
