#!/usr/bin/env bash
# Static-analysis and dynamic-correctness gate for libLFO.
#
#   tools/run_static_checks.sh [--skip-asan] [--skip-tsan] [--skip-tidy]
#                              [--skip-obs] [--skip-faults] [--skip-perf]
#                              [--skip-threadsafety] [--skip-lint]
#                              [--skip-server]
#
# Runs, in order:
#   1. asan-ubsan preset: configure, build the test suite, run ctest under
#      AddressSanitizer + UndefinedBehaviorSanitizer (LFO_DCHECKs on).
#   2. tsan preset: configure, build, run the "stress" ctest label
#      (ThreadPool, the retraining pipeline's training
#      pool, concurrent const feature extraction, telemetry scrapes under
#      writer load, the telemetry port's event loop, and the cache
#      server's cross-worker frame dispatch) under ThreadSanitizer.
#   3. obs gate: Release build of every test, tier1 on it, then
#      tools/obs_smoke.sh drives the live telemetry endpoints (/metrics,
#      /stats, /healthz, /vars, malformed requests) against the example
#      binary from outside the process.
#   4. fault gate: `ctest -L faults` on the Release tree — the rollout
#      guard under injected training failures on the golden flash-crowd
#      generator (fallback + recovery, BHR >= heuristic-only baseline,
#      inline-vs-pooled training determinism with faults, and
#      guarded-vs-unguarded decision identity when no fault fires).
#   5. perf smoke: `ctest -L perfsmoke` on the Release tree — the flat
#      forest's row-by-row bitwise score check against the tree walk and
#      the instrumented-operator-new zero-allocation hot-path test, whose
#      strict assertions only arm in optimized unsanitized builds.
#   6. clang-tidy over src/ (including src/obs) via the asan build's
#      compile_commands.json with the repo .clang-tidy config (skipped
#      with a warning when no clang-tidy binary is installed, e.g.
#      gcc-only containers).
#   7. thread-safety: clang's -Werror=thread-safety over the annotated
#      lock discipline (util::Mutex / LFO_GUARDED_BY) via the
#      thread-safety preset, after first proving the analysis is armed
#      on a known-good / known-bad fixture pair (skipped with a warning
#      when clang++ is not installed).
#   8. server smoke: bench_server from the Release tree, then
#      tools/server_smoke.sh — boots the sharded lfo::server front end in
#      --linger mode, replays a trace through the closed-loop client,
#      scrapes the mounted /metrics + /healthz from outside, pushes one
#      raw wire-protocol frame, and requires a clean natural shutdown.
#   9. lfo_lint: tools/lfo_lint.py invariant rules (hot-path allocation
#      and locking, nondeterminism in decision code, side effects in
#      LFO_CHECK arguments, obs metric-name conventions, no aborting
#      checks in LFO_ENDPOINT_HANDLER bodies) over src/, plus its
#      fixture self-test.
#
# Stages 3, 4, 5 and 8 share one Release tree, build-release/; each
# builds only the targets it runs, so any of them can be skipped.
#
# Exits non-zero on the first failing stage.
#
# This is the slow gate; the fast development gate is the tier1 label on
# a plain build:  ctest --test-dir build -L tier1

set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_ASAN=0
SKIP_TSAN=0
SKIP_TIDY=0
SKIP_OBS=0
SKIP_FAULTS=0
SKIP_PERF=0
SKIP_THREADSAFETY=0
SKIP_LINT=0
SKIP_SERVER=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    --skip-obs) SKIP_OBS=1 ;;
    --skip-faults) SKIP_FAULTS=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    --skip-threadsafety) SKIP_THREADSAFETY=1 ;;
    --skip-lint) SKIP_LINT=1 ;;
    --skip-server) SKIP_SERVER=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

banner() { printf '\n=== %s ===\n' "$*"; }

# Build targets in the shared Release tree, configuring it on first use.
RELEASE_DIR=build-release
RELEASE_CONFIGURED=0
release_build() {
  if [[ "$RELEASE_CONFIGURED" -eq 0 ]]; then
    cmake -S . -B "$RELEASE_DIR" -DCMAKE_BUILD_TYPE=Release
    RELEASE_CONFIGURED=1
  fi
  local targets=()
  for target in "$@"; do targets+=(--target "$target"); done
  cmake --build "$RELEASE_DIR" "${targets[@]}" -j "$JOBS"
}

if [[ "$SKIP_ASAN" -eq 0 ]]; then
  banner "asan-ubsan: configure + build tests"
  cmake --preset asan-ubsan
  cmake --build build-asan --target lfo_tests -j "$JOBS"
  banner "asan-ubsan: ctest"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_TSAN" -eq 0 ]]; then
  banner "tsan: configure + build stress tests"
  cmake --preset tsan
  # Every target labeled "stress" in tests/CMakeLists.txt: an unbuilt
  # target registers no tests, so ctest would skip it without a word.
  cmake --build build-tsan --target test_stress_threads \
        --target test_async_pipeline --target test_obs_stress \
        --target test_server --target test_telemetry_server -j "$JOBS"
  banner "tsan: ctest -L stress"
  ctest --test-dir build-tsan -L stress --no-tests=error --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_OBS" -eq 0 ]]; then
  banner "obs: Release build + tier1"
  release_build lfo_tests cdn_server_simulation make_trace policy_playground
  ctest --test-dir "$RELEASE_DIR" -L tier1 --no-tests=error --output-on-failure -j "$JOBS"
  banner "obs: live telemetry endpoint smoke (tools/obs_smoke.sh)"
  tools/obs_smoke.sh "./$RELEASE_DIR/examples/cdn_server_simulation"
fi

if [[ "$SKIP_FAULTS" -eq 0 ]]; then
  banner "fault gate: Release build + ctest -L faults"
  # Every target labeled "faults" in tests/CMakeLists.txt.
  release_build test_rollout test_adversarial test_telemetry_server
  # Injected training failures (WindowedConfig::train_fault) must drive
  # the rollout guard through fallback and recovery deterministically,
  # keep BHR at or above the heuristic-only baseline, and — with no
  # faults — leave decisions bitwise-identical to an unguarded run.
  ctest --test-dir "$RELEASE_DIR" -L faults --no-tests=error --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_PERF" -eq 0 ]]; then
  banner "perf smoke: Release build + ctest -L perfsmoke"
  release_build test_flat_forest test_hotpath_alloc
  # Strict gates: the flat forest must score every row bitwise like the
  # tree walk and the warm serving path must perform zero heap allocations
  # (NDEBUG + no sanitizer arms the EXPECT_EQ(delta, 0) assertions).
  ctest --test-dir "$RELEASE_DIR" -L perfsmoke --no-tests=error --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_TIDY" -eq 0 ]]; then
  banner "clang-tidy over src/"
  TIDY="$(command -v clang-tidy || true)"
  if [[ -z "$TIDY" ]]; then
    echo "WARNING: clang-tidy not installed; skipping the lint gate." >&2
    echo "         (install clang-tidy and re-run to enforce .clang-tidy)" >&2
  else
    # Reuse any existing compile database; prefer the asan tree since this
    # script just built it.
    DB_DIR=""
    for d in build-asan build; do
      [[ -f "$d/compile_commands.json" ]] && DB_DIR="$d" && break
    done
    if [[ -z "$DB_DIR" ]]; then
      cmake --preset asan-ubsan
      DB_DIR=build-asan
    fi
    mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "$DB_DIR" -quiet "${SOURCES[@]}"
    else
      "$TIDY" -p "$DB_DIR" --quiet "${SOURCES[@]}"
    fi
  fi
fi

if [[ "$SKIP_THREADSAFETY" -eq 0 ]]; then
  banner "thread-safety: clang -Werror=thread-safety"
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "WARNING: clang++ not installed; skipping the thread-safety gate." >&2
    echo "         (install clang and re-run to enforce the lock annotations)" >&2
  else
    # Arm check: the analysis must accept the known-good fixture and
    # reject the known-bad one, otherwise a misconfigured flag set would
    # "pass" the whole tree without analyzing anything.
    TSA_FLAGS=(-std=c++20 -fsyntax-only -Wthread-safety
               -Werror=thread-safety -Isrc)
    clang++ "${TSA_FLAGS[@]}" tests/threadsafety_fixture/good_guard.cpp         || { echo "thread-safety gate: good fixture rejected" >&2; exit 1; }
    if clang++ "${TSA_FLAGS[@]}" tests/threadsafety_fixture/bad_guard.cpp         2>/dev/null; then
      echo "thread-safety gate: broken-guard fixture passed — analysis"            "is not armed" >&2
      exit 1
    fi
    echo "thread-safety gate: fixture pair behaves (good passes, bad fails)"
    banner "thread-safety: full build under the thread-safety preset"
    cmake --preset thread-safety
    cmake --build build-threadsafety -j "$JOBS"
  fi
fi

if [[ "$SKIP_SERVER" -eq 0 ]]; then
  banner "server smoke: Release bench_server + tools/server_smoke.sh"
  release_build bench_server
  tools/server_smoke.sh "./$RELEASE_DIR/bench/bench_server"
fi

if [[ "$SKIP_LINT" -eq 0 ]]; then
  banner "lfo_lint: fixture self-test + src/ invariants"
  PY="$(command -v python3 || true)"
  if [[ -z "$PY" ]]; then
    echo "WARNING: python3 not installed; skipping the lfo_lint gate." >&2
  else
    "$PY" tests/test_lfo_lint.py
    "$PY" tools/lfo_lint.py --root . src
  fi
fi

banner "all requested static checks passed"
