#!/usr/bin/env bash
# End-to-end smoke of the lfo::server cache service: start bench_server
# in --linger mode (sharded cache + TCP front end + mounted telemetry on
# ephemeral ports), drive a short trace through the built-in closed-loop
# client, scrape the telemetry endpoints from the outside, push one raw
# batch over the wire protocol, and assert a clean natural shutdown.
#
#   tools/server_smoke.sh [path-to-bench_server]
#
# Default binary: ./build/bench/bench_server (built by the standard
# `cmake --build build` invocation). Checks:
#   replay    — the built-in client drives the whole trace, hits > 0
#   /metrics  — 200; the scrape-time serving counts match the replay
#               (requests, and hits equal to the hits the client saw)
#               and the lfo_server_* series are present, the history
#               gauges (lfo_server_history_{objects,bytes}) included
#   /healthz  — 200 (bootstrap serves as healthy)
#   protocol  — a raw one-request frame for object id 2^64-1 gets a
#               one-decision reply within 2 s while 2xW silent sockets
#               and W sockets that sent 2 header bytes are held open
#               (W = lfo_server_workers)
#   held      — the half-sent headers are closed at the frame deadline
#               (io_timeout_seconds, 0.5 s) and counted: /metrics shows
#               lfo_server_bad_frames_total >= W
#   shutdown  — the process exits 0 by itself after the linger window
# Exits nonzero on the first failed check.

set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-./build/bench/bench_server}"
if [[ ! -x "$BIN" ]]; then
  echo "server_smoke: binary not found: $BIN (build the benches first)" >&2
  exit 2
fi

LOG="$(mktemp)"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

# Small workload, ephemeral ports, linger long enough for the checks.
"$BIN" --requests=20000 --linger=10 > "$LOG" 2>&1 &
SRV_PID=$!

# bench_server prints "server: listening on 127.0.0.1:<port>" and
# "telemetry: listening on 127.0.0.1:<port>" once bound (format is
# load-bearing; this script seds the ports out).
PORT=""
TPORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^server: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
          "$LOG" | head -n1)"
  TPORT="$(sed -n 's/^telemetry: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
           "$LOG" | head -n1)"
  [[ -n "$PORT" && -n "$TPORT" ]] && break
  if ! kill -0 "$SRV_PID" 2>/dev/null; then
    echo "server_smoke: server exited before binding; log:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
if [[ -z "$PORT" || -z "$TPORT" ]]; then
  echo "server_smoke: no listening lines after 20s; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "server_smoke: cache on port $PORT, telemetry on port $TPORT"

fail() { echo "server_smoke: FAIL: $*" >&2; cat "$LOG" >&2; exit 1; }

# Wait for the built-in client replay to finish.
for _ in $(seq 1 100); do
  grep -q '^served ' "$LOG" && break
  sleep 0.2
done
grep -q '^served 20000 requests' "$LOG" \
  || fail "client replay did not cover the trace"
HITS="$(sed -n 's/^served [0-9]* requests, \([0-9]*\) hits$/\1/p' "$LOG")"
[[ -n "$HITS" && "$HITS" -gt 0 ]] || fail "replay produced no hits"
echo "server_smoke: replay ok ($HITS hits)"

BASE="http://127.0.0.1:$TPORT"

METRICS="$(curl -fsS --max-time 5 "$BASE/metrics")" \
  || fail "/metrics did not return 200"
grep -q '^lfo_server_requests_total 20000$' <<<"$METRICS" \
  || fail "/metrics lfo_server_requests_total does not match the replay"
grep -q "^lfo_server_hits_total $HITS\$" <<<"$METRICS" \
  || fail "/metrics lfo_server_hits_total does not equal the $HITS replay hits"
grep -q '^lfo_server_bypassed_total ' <<<"$METRICS" \
  || fail "/metrics missing lfo_server_bypassed_total"
grep -q '^lfo_server_workers ' <<<"$METRICS" \
  || fail "/metrics missing lfo_server_workers"
grep -q '^lfo_server_shards ' <<<"$METRICS" \
  || fail "/metrics missing lfo_server_shards"
grep -q '^lfo_server_history_objects [1-9]' <<<"$METRICS" \
  || fail "/metrics missing a nonzero lfo_server_history_objects"
grep -q '^lfo_server_history_bytes [1-9]' <<<"$METRICS" \
  || fail "/metrics missing a nonzero lfo_server_history_bytes"
echo "server_smoke: /metrics ok"

HEALTH_CODE="$(curl -s --max-time 5 -o /tmp/server_smoke_health.json \
               -w '%{http_code}' "$BASE/healthz")"
[[ "$HEALTH_CODE" == "200" ]] \
  || fail "/healthz returned $HEALTH_CODE: $(cat /tmp/server_smoke_health.json)"
echo "server_smoke: /healthz ok"

# One raw frame over the binary protocol: u32 count=1 + a 32-byte
# request must come back as u32 count=1 + one decision byte. The id is
# 2^64-1, the largest: every 64-bit id is an ordinary id. The frame goes
# out while 2xW silent sockets and W sockets that sent 2 bytes of a
# header are held open: held sockets must not delay it. The half-sent
# ones must then be closed by the server at the 0.5 s frame deadline.
WORKERS="$(sed -n 's/^lfo_server_workers \([0-9]*\)$/\1/p' <<<"$METRICS")"
[[ -n "$WORKERS" && "$WORKERS" -gt 0 ]] || fail "no lfo_server_workers gauge"
python3 - "$PORT" "$WORKERS" <<'PYEOF' || fail "wire protocol round-trip failed"
import socket, struct, sys, time
port, workers = int(sys.argv[1]), int(sys.argv[2])
silent = [socket.create_connection(("127.0.0.1", port), timeout=5)
          for _ in range(2 * workers)]
partial = [socket.create_connection(("127.0.0.1", port), timeout=5)
           for _ in range(workers)]
for s in partial:
    s.sendall(struct.pack("<I", 1)[:2])
frame = struct.pack("<I", 1) + struct.pack("<QQQd", 2**64 - 1, 1000, 60, 1000.0)
with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
    s.sendall(frame)
    reply = b""
    while len(reply) < 5:
        chunk = s.recv(5 - len(reply))
        if not chunk:
            break
        reply += chunk
assert len(reply) == 5, reply
count, decision = struct.unpack("<IB", reply)
assert count == 1, count
assert decision in (0, 1, 2), decision
time.sleep(1.0)
for s in partial:
    try:
        assert s.recv(1) == b"", "half-sent header not closed"
    except ConnectionResetError:
        pass
PYEOF
echo "server_smoke: wire protocol ok (past $((3 * WORKERS)) held sockets)"

METRICS="$(curl -fsS --max-time 5 "$BASE/metrics")" \
  || fail "/metrics did not return 200 after the held sockets"
BAD="$(sed -n 's/^lfo_server_bad_frames_total \([0-9]*\)$/\1/p' <<<"$METRICS")"
[[ -n "$BAD" && "$BAD" -ge "$WORKERS" ]] \
  || fail "lfo_server_bad_frames_total is '${BAD}', want >= $WORKERS"
echo "server_smoke: held sockets ok ($BAD bad frames)"

# The server must shut down cleanly on its own when the linger window
# closes (clean shutdown is part of the acceptance contract).
if ! kill -0 "$SRV_PID" 2>/dev/null; then
  : # already exited — fine, as long as the exit was clean
fi
RC=0
wait "$SRV_PID" || RC=$?
trap 'rm -f "$LOG"' EXIT
[[ "$RC" -eq 0 ]] || fail "server exited $RC"
grep -q '^server: clean shutdown$' "$LOG" || fail "no clean-shutdown line"
echo "server_smoke: all checks passed"
