#!/usr/bin/env bash
# Build the bench harnesses in Release and run a machine-readable bench.
#
#   tools/run_bench.sh [--scenarios] [extra bench flags...]
#
# Default: the Fig 7 serving-throughput bench -> BENCH_fig7.json
# (predictions/sec and ns/request per inference engine, speedups,
# decision-identity checks, git revision).
#
# --scenarios: the adversarial & freshness workload suite ->
# BENCH_scenarios.json (per-scenario BHR for guarded LFO / heuristic-only
# / LRU, RolloutGuard transition counts, expired hits; exits nonzero if
# the guarded-vs-heuristic robustness gate is violated).
#
# --server: the lfo::server worker-thread scaling curve with a trained
# model installed -> BENCH_server.json (aggregate reqs/s and per-worker
# ns/req at 1/2/4 workers over the TCP front end, the 2-minus-1-worker
# ns/req, and the host spin calibration; the >=3x 1->4 scaling gate arms
# only on hosts with enough cores for the workers plus their closed-loop
# clients).
#
# The human-readable CSV goes to stdout as usual. Pass a different
# --json=<path> to relocate the JSON, or bench-specific flags (e.g.
# --predict-requests=200000 for fig7, --min-serving-accuracy=0.7 for
# --scenarios) to rescale the workload.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

TARGET="bench_fig7_throughput"
JSON_OUT="BENCH_fig7.json"
BENCH_NAME="fig7 throughput"
# Engine columns and learning-loop seconds every fig7 run must emit:
# bench_diff fails loudly if a run silently stops reporting one instead of
# the key just vanishing from the diff.
REQUIRE_KEYS="flat_single_preds_per_sec,flat_single_chained_ns_per_request,pipeline_serial_s_per_window"
EXTRA_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --scenarios)
      TARGET="bench_scenarios"
      JSON_OUT="BENCH_scenarios.json"
      BENCH_NAME="adversarial scenarios"
      REQUIRE_KEYS=""
      ;;
    --server)
      TARGET="bench_server"
      JSON_OUT="BENCH_server.json"
      BENCH_NAME="server scaling"
      REQUIRE_KEYS="server_reqs_per_sec_w1,server_reqs_per_sec_w4"
      ;;
    --json=*) JSON_OUT="${arg#--json=}" ;;
    *) EXTRA_ARGS+=("$arg") ;;
  esac
done

printf '\n=== bench: Release build ===\n'
cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf --target "$TARGET" -j "$JOBS"

printf '\n=== bench: %s (json -> %s) ===\n' "$BENCH_NAME" "$JSON_OUT"
"./build-perf/bench/$TARGET" --json="$JSON_OUT" \
    ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}

printf '\n=== %s ===\n' "$JSON_OUT"
cat "$JSON_OUT"

if [[ "$TARGET" == "bench_fig7_throughput" ]]; then
  printf '\n=== per-engine summary (%s) ===\n' "$JSON_OUT"
  python3 - "$JSON_OUT" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
walk = d.get("tree_walk_preds_per_sec") or 0
print(f"{'engine':<28} {'M preds/s':>10} {'ns/pred':>9} {'vs walk':>8}")
for key in sorted(k for k in d if k.endswith("_preds_per_sec")):
    pps = d[key]
    name = key[: -len("_preds_per_sec")]
    rel = f"{pps / walk:.2f}x" if walk else "n/a"
    print(f"{name:<28} {pps / 1e6:>10.2f} {1e9 / pps:>9.0f} {rel:>8}")
print(f"bitwise_identical={d.get('engines_bitwise_identical')}")
PYEOF
fi

# Append this run to the bench history ledger. Revision and timestamp are
# stamped here in the shell — the bench binaries stay wall-clock-free so
# their output is a pure function of the workload. tools/bench_diff.py
# then compares against the previous run of the same bench and fails on a
# >10% throughput regression (advisory here: a first run has no baseline).
HISTORY_OUT="${BENCH_HISTORY:-BENCH_history.jsonl}"
REVISION="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
DATE_ISO="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
python3 - "$JSON_OUT" "$HISTORY_OUT" "$REVISION" "$DATE_ISO" <<'PYEOF'
import json, sys
json_out, history_out, revision, date_iso = sys.argv[1:5]
with open(json_out) as f:
    result = json.load(f)
entry = {"revision": revision, "date": date_iso,
         "bench": json_out, "result": result}
with open(history_out, "a") as f:
    f.write(json.dumps(entry, sort_keys=True) + "\n")
print(f"# appended {json_out} @ {revision} to {history_out}")
PYEOF

printf '\n=== bench history diff (%s) ===\n' "$HISTORY_OUT"
# Advisory at the end of a manual run (single-run noise on a busy box can
# cross the 10% line); invoke tools/bench_diff.py directly when you want
# its nonzero exit to gate.
python3 tools/bench_diff.py --history "$HISTORY_OUT" --bench "$JSON_OUT" \
  ${REQUIRE_KEYS:+--require-keys "$REQUIRE_KEYS"} \
  || echo "# bench_diff flagged a regression vs the previous run" \
          "(advisory here; rerun or diff against a quiet baseline)"
