#!/usr/bin/env python3
"""Compare the two most recent entries of a bench history JSONL file.

tools/run_bench.sh appends one line per run to BENCH_history.jsonl:

    {"revision": "...", "date": "...", "bench": "BENCH_fig7.json",
     "result": {<the bench's JSON document>}}

This tool diffs the latest entry against the previous one (or two files
given explicitly), prints every shared numeric metric that moved, and
exits nonzero when a throughput metric regressed by more than the
threshold (default 10%) — the CI-friendly "did this PR slow the serving
path down" gate.

Usage:
    tools/bench_diff.py [--history BENCH_history.jsonl]
                        [--threshold 0.10] [--bench NAME]
                        [--require-keys a,b,...]
    tools/bench_diff.py --baseline old.json --candidate new.json

--require-keys names metrics the CANDIDATE must carry (comma-separated,
matched against the flattened dotted paths' leaf names). A schema
extension — e.g. fig7's flat_single_preds_per_sec serving-engine
column — can thereby be made mandatory going forward: the diff fails
loudly when a new run silently stops emitting one instead of the key
just vanishing from the shared-metric intersection.

Throughput metrics are keys ending in `_per_sec` / `_qps` or containing
`throughput` (higher is better). Latency-style keys (`_ns`, `_seconds`,
`_ms`) are reported but do not gate: wall-clock noise gates belong to
dedicated latency benches, and ns/request is the exact inverse of the
gated predictions/sec here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def flatten(doc, prefix=""):
    """Flatten nested dicts/lists to {dotted.path: leaf} pairs."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = doc
    return out


def is_throughput_key(key: str) -> bool:
    leaf = key.rsplit(".", 1)[-1]
    return (
        leaf.endswith("_per_sec")
        or leaf.endswith("_qps")
        or "throughput" in leaf
    )


def numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def load_history(path: Path, bench: str | None):
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as err:
            print(f"warning: {path}:{lineno} unparsable, skipped ({err})",
                  file=sys.stderr)
            continue
        if bench is not None and entry.get("bench") != bench:
            continue
        entries.append(entry)
    return entries


def missing_required(candidate_flat: dict, require_keys: list[str]):
    """Required keys with no flattened candidate leaf of that name."""
    leaves = {key.rsplit(".", 1)[-1] for key in candidate_flat}
    return [key for key in require_keys if key not in leaves]


def diff(baseline: dict, candidate: dict, threshold: float,
         require_keys: list[str] | None = None) -> int:
    base = {k: v for k, v in flatten(baseline).items() if numeric(v)}
    cand = {k: v for k, v in flatten(candidate).items() if numeric(v)}
    if require_keys:
        missing = missing_required(cand, require_keys)
        if missing:
            print(
                "FAIL: candidate is missing required metric(s): "
                + ", ".join(missing),
                file=sys.stderr,
            )
            return 1
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("error: no shared numeric metrics to compare",
              file=sys.stderr)
        return 2

    regressions = []
    moved = 0
    for key in shared:
        old, new = base[key], cand[key]
        if old == new:
            continue
        moved += 1
        if old == 0:
            # No relative change is defined against a zero baseline, and
            # "grew from 0" says nothing about serving speed (a metric
            # that just started being emitted, or a counter that was
            # simply off last run) — report it, never classify it.
            print(f"{key}: {old:g} -> {new:g} (new from zero baseline)")
            continue
        rel = (new - old) / abs(old)
        marker = ""
        if is_throughput_key(key):
            if rel < -threshold:
                marker = "  <-- REGRESSION"
                regressions.append((key, old, new, rel))
            elif rel > threshold:
                marker = "  (improvement)"
        print(f"{key}: {old:g} -> {new:g} ({rel:+.2%}){marker}")
    if moved == 0:
        print(f"no changes across {len(shared)} shared metrics")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} throughput metric(s) regressed "
            f"more than {threshold:.0%}:",
            file=sys.stderr,
        )
        for key, old, new, rel in regressions:
            print(f"  {key}: {old:g} -> {new:g} ({rel:+.2%})",
                  file=sys.stderr)
        return 1
    print(f"\nOK: no throughput regression beyond {threshold:.0%} "
          f"across {len(shared)} shared metrics")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="JSONL appended by tools/run_bench.sh")
    parser.add_argument("--bench", default=None,
                        help="only compare entries of this bench "
                             "(e.g. BENCH_fig7.json)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative throughput drop that fails "
                             "(default 0.10)")
    parser.add_argument("--baseline", default=None,
                        help="explicit baseline JSON file (bypasses "
                             "--history)")
    parser.add_argument("--candidate", default=None,
                        help="explicit candidate JSON file (bypasses "
                             "--history)")
    parser.add_argument("--require-keys", default=None,
                        help="comma-separated metric leaf names the "
                             "candidate must emit (fail if missing)")
    args = parser.parse_args()
    require_keys = [k.strip() for k in (args.require_keys or "").split(",")
                    if k.strip()]

    if (args.baseline is None) != (args.candidate is None):
        parser.error("--baseline and --candidate must be given together")

    if args.baseline is not None:
        baseline = json.loads(Path(args.baseline).read_text())
        candidate = json.loads(Path(args.candidate).read_text())
        label_old, label_new = args.baseline, args.candidate
    else:
        path = Path(args.history)
        if not path.exists():
            print(f"error: history file {path} not found", file=sys.stderr)
            return 2
        entries = load_history(path, args.bench)
        if len(entries) < 2:
            print(f"only {len(entries)} matching run(s) in {path}; "
                  "nothing to diff yet")
            return 0
        previous, latest = entries[-2], entries[-1]
        baseline = previous.get("result", {})
        candidate = latest.get("result", {})
        label_old = (f"{previous.get('revision', '?')} "
                     f"({previous.get('date', '?')})")
        label_new = (f"{latest.get('revision', '?')} "
                     f"({latest.get('date', '?')})")

    print(f"baseline:  {label_old}")
    print(f"candidate: {label_new}\n")
    return diff(baseline, candidate, args.threshold, require_keys)


if __name__ == "__main__":
    sys.exit(main())
