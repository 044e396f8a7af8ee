#!/usr/bin/env bash
# End-to-end smoke of the live telemetry service: launch the example
# simulation with the in-process HTTP server on an ephemeral port, then
# drive every endpoint from the outside like a real scraper would.
#
#   tools/obs_smoke.sh [path-to-cdn_server_simulation]
#
# Default binary: ./build/examples/cdn_server_simulation (built by the
# standard `cmake --build build` invocation). Checks:
#   argv      — a malformed --requests or an out-of-range --obs-port
#               prints the usage line and exits 2 (a malformed
#               --requests too for the make_trace and policy_playground
#               examples beside the binary)
#   /metrics  — 200, valid-looking exposition, lfo_build_info present
#   /stats    — 200, parses as JSON (python3 json module), and its gauges
#               carry the per-window lfo_window_bhr and lfo_rollout_state
#   /healthz  — 200 and "serving":true after a healthy run
#   /vars     — 200 for a known metric, 404 for an unknown one
#   malformed — a raw garbage request line gets 400, not a hang/abort
#   unknown   — GET /nope gets 404
# Exits nonzero on the first failed check.

set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-./build/examples/cdn_server_simulation}"
if [[ ! -x "$BIN" ]]; then
  echo "obs_smoke: binary not found: $BIN (build the examples first)" >&2
  exit 2
fi

fail() { echo "obs_smoke: FAIL: $*" >&2; exit 1; }

# Bad argv values are refused up front, never parsed into garbage.
expect_usage() {
  local code=0
  timeout 20 "$@" >/dev/null 2>&1 || code=$?
  [[ "$code" == "2" ]] || fail "$* exited $code, want 2"
}
EXAMPLES="$(dirname "$BIN")"
[[ -x "$EXAMPLES/make_trace" && -x "$EXAMPLES/policy_playground" ]] \
  || fail "make_trace and policy_playground not built beside $BIN"
expect_usage "$BIN" --requests=abc
expect_usage "$BIN" --obs-port=70000
expect_usage "$EXAMPLES/make_trace" /dev/null --requests=abc
expect_usage "$EXAMPLES/policy_playground" --requests=abc
echo "obs_smoke: bad argv values exit 2"

LOG="$(mktemp)"
trap 'kill "$SIM_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

# Small workload, ephemeral port, linger long enough for the checks.
"$BIN" --requests=20000 --obs-port=0 --obs-linger=30 > "$LOG" 2>&1 &
SIM_PID=$!

# The example prints "telemetry: listening on 127.0.0.1:<port>" once the
# socket is bound (format is load-bearing; test_telemetry_server and this
# script both rely on it).
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^telemetry: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
          "$LOG" | head -n1)"
  [[ -n "$PORT" ]] && break
  if ! kill -0 "$SIM_PID" 2>/dev/null; then
    echo "obs_smoke: simulation exited before binding; log:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
if [[ -z "$PORT" ]]; then
  echo "obs_smoke: no listening line after 20s; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "obs_smoke: telemetry on port $PORT"

# Wait for the run itself to finish (the results banner) so /healthz
# reflects a completed healthy run, not the bootstrap window.
for _ in $(seq 1 100); do
  grep -q 'telemetry: lingering' "$LOG" && break
  sleep 0.2
done

BASE="http://127.0.0.1:$PORT"

METRICS="$(curl -fsS --max-time 5 "$BASE/metrics")" \
  || fail "/metrics did not return 200"
grep -q '^lfo_build_info{revision=' <<<"$METRICS" \
  || fail "/metrics missing lfo_build_info"
grep -q '^# TYPE lfo_' <<<"$METRICS" || fail "/metrics missing TYPE lines"
echo "obs_smoke: /metrics ok ($(wc -l <<<"$METRICS") lines)"

curl -fsS --max-time 5 "$BASE/stats" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert "build_info" in doc and "counters" in doc, sorted(doc)
gauges = doc.get("gauges", {})
for name in ("lfo_window_bhr", "lfo_rollout_state"):
    assert name in gauges, name + " missing from /stats gauges"
' || fail "/stats invalid"
echo "obs_smoke: /stats ok"

HEALTH_CODE="$(curl -s --max-time 5 -o /tmp/obs_smoke_health.json \
               -w '%{http_code}' "$BASE/healthz")"
[[ "$HEALTH_CODE" == "200" ]] \
  || fail "/healthz returned $HEALTH_CODE: $(cat /tmp/obs_smoke_health.json)"
grep -q '"serving":true' /tmp/obs_smoke_health.json \
  || fail "/healthz not serving: $(cat /tmp/obs_smoke_health.json)"
echo "obs_smoke: /healthz ok"

curl -fsS --max-time 5 "$BASE/vars?name=lfo_rollout_state" >/dev/null \
  || fail "/vars known metric not 200"
UNKNOWN_CODE="$(curl -s --max-time 5 -o /dev/null -w '%{http_code}' \
                "$BASE/vars?name=lfo_no_such_metric_total")"
[[ "$UNKNOWN_CODE" == "404" ]] || fail "/vars unknown got $UNKNOWN_CODE"
echo "obs_smoke: /vars ok"

NOPE_CODE="$(curl -s --max-time 5 -o /dev/null -w '%{http_code}' \
             "$BASE/nope")"
[[ "$NOPE_CODE" == "404" ]] || fail "unknown path got $NOPE_CODE"

# Malformed request line over a raw socket: the server must answer 400
# and close, never abort (the endpoint lint rule's runtime counterpart).
python3 - "$PORT" <<'PYEOF'
import socket, sys
port = int(sys.argv[1])
with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
    s.sendall(b"totally bogus\r\n\r\n")
    data = b""
    while True:
        chunk = s.recv(4096)
        if not chunk:
            break
        data += chunk
status = data.split(b"\r\n", 1)[0]
assert status == b"HTTP/1.1 400 Bad Request", status
PYEOF
[[ $? -eq 0 ]] || fail "malformed request not answered with 400"
echo "obs_smoke: malformed-request handling ok"

# The process must still be alive and healthy after the abuse.
kill -0 "$SIM_PID" || fail "simulation died during the smoke"
curl -fsS --max-time 5 "$BASE/healthz" >/dev/null \
  || fail "/healthz dead after malformed request"

kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true
echo "obs_smoke: all checks passed"
