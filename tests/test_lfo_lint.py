#!/usr/bin/env python3
"""Fixture tests for tools/lfo_lint.py.

Each *_bad.cpp fixture seeds exactly one violation of one rule; this
driver asserts the lint reports exactly that violation (right rule,
right count) and that the clean fixture — which exercises every rule's
trigger in non-violating or suppressed form — reports nothing.

Run directly or via ctest (registered as lfo_lint_fixtures, tier1):

    python3 tests/test_lfo_lint.py
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "lfo_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

failures = 0


def run_lint(*paths: pathlib.Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(FIXTURES),
         *map(str, paths)],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def expect(condition: bool, label: str, detail: str = "") -> None:
    global failures
    if condition:
        print(f"  PASS  {label}")
    else:
        failures += 1
        print(f"  FAIL  {label}" + (f"\n        {detail}" if detail else ""))


def check_bad_fixture(relpath: str, rule: str) -> None:
    path = FIXTURES / relpath
    code, out = run_lint(path)
    hits = [l for l in out.splitlines() if f"[{rule}]" in l]
    other = [l for l in out.splitlines()
             if "[" in l and f"[{rule}]" not in l]
    print(f"{relpath} (expect one {rule} violation):")
    expect(code == 1, "exit status 1", f"got {code}; output:\n{out}")
    expect(len(hits) == 1, f"exactly one [{rule}] line",
           f"got {len(hits)}:\n{out}")
    expect(not other, "no other rules fire", "\n".join(other))


def check_clean_fixture(relpath: str) -> None:
    path = FIXTURES / relpath
    code, out = run_lint(path)
    print(f"{relpath} (expect clean):")
    expect(code == 0, "exit status 0", f"got {code}; output:\n{out}")
    expect("clean" in out, "reports clean", out)


def main() -> int:
    check_bad_fixture("src/gbdt/hotpath_bad.cpp", "hotpath")
    check_bad_fixture("src/core/hotpath_metric_bad.cpp", "hotpath")
    check_bad_fixture("src/core/nondet_bad.cpp", "nondet")
    check_bad_fixture("src/trace/nondet_bad.cpp", "nondet")
    check_bad_fixture("src/util/check_effect_bad.cpp", "check-effect")
    check_bad_fixture("src/obs/metric_name_bad.cpp", "metric-name")
    check_bad_fixture("src/obs/endpoint_metric_name_bad.cpp", "metric-name")
    check_bad_fixture("src/obs/endpoint_bad.cpp", "endpoint")
    check_clean_fixture("src/core/clean.cpp")

    # The whole fixture tree at once: the eight seeded violations and
    # nothing else (guards against cross-file false positives).
    code, out = run_lint(FIXTURES / "src")
    total = len([l for l in out.splitlines() if "[" in l and "]" in l])
    print("full fixture tree (expect exactly 8 violations):")
    expect(code == 1, "exit status 1", f"got {code}")
    expect(total == 8, "exactly 8 violations", f"got {total}:\n{out}")

    if failures:
        print(f"\n{failures} assertion(s) failed")
        return 1
    print("\nall lfo_lint fixture assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
