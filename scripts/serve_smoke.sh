#!/usr/bin/env bash
# Crash-tolerance smoke for the noc-serve job service (CI `serve-smoke`).
#
#   1. garbage NOC_BATCH_WIDTH must be refused at boot with exit 2;
#   2. an uninterrupted reference run of a quick sweep job is recorded;
#   3. the same job is submitted to a fresh server which is killed with
#      SIGKILL mid-run and restarted over the same data dir, while a
#      long-poll (`GET /jobs/<id>?wait_ms=`) that was parked on the victim
#      loses its connection, reconnects and waits the job to DONE — the
#      sorted checkpoint rows must equal the reference's;
#   4. the restarted server acknowledges POST /drain with 202 and exits 0
#      within 2 s of it.
#
# Every wait for a job is a curl long-poll, so the event-driven path is
# exercised against the real binary by a client that is not ours.
#
# Requires: curl, a release build of the noc_serve binary (override with
# NOC_SERVE_BIN). Exits non-zero with a FAIL line on any violation.
set -euo pipefail

BIN=${NOC_SERVE_BIN:-target/release/noc_serve}
[ -x "$BIN" ] || { echo "FAIL: $BIN not built (cargo build --release -p noc-serve)"; exit 1; }

WORK=$(mktemp -d)
SERVER_PID=""
WAITER=""
cleanup() {
  [ -n "$WAITER" ] && kill "$WAITER" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# The job under test: 8 second-scale points, so the kill lands mid-run.
SPEC='{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0,0.005,0.01,0.05", "cycles": "8000", "seed": "77"}'

fail() { echo "FAIL: $*" >&2; exit 1; }

# Starts the server over $1 and sets ADDR/SERVER_PID.
start_server() {
  local dir=$1
  rm -f "$dir/addr.txt"
  "$BIN" --data-dir "$dir" --workers 1 --retry-base-ms 5 &
  SERVER_PID=$!
  for _ in $(seq 1 300); do
    if [ -s "$dir/addr.txt" ]; then
      ADDR=$(tr -d '[:space:]' < "$dir/addr.txt")
      return 0
    fi
    sleep 0.1
  done
  fail "server never published its address"
}

# Extracts "key": "value" (or bare numeric) from a flat JSON row on stdin.
json_field() {
  sed -n "s/.*\"$1\": \"\{0,1\}\([^\",}]*\).*/\1/p" | head -n 1
}

# Long-polls GET /jobs/<id>?wait_ms= against whatever server data dir $1
# currently publishes, until the stage is terminal; echoes the status row.
# A request that dies with its server (the SIGKILL step) is not a failure:
# the loop reconnects, to the restarted server's new address.
await_done() {
  local dir=$1 id=$2 addr status stage deadline=$((SECONDS + 120))
  while [ "$SECONDS" -lt "$deadline" ]; do
    addr=$(tr -d '[:space:]' < "$dir/addr.txt" 2>/dev/null || true)
    if [ -n "$addr" ] && status=$(curl -fsS "http://$addr/jobs/$id?wait_ms=5000" 2>/dev/null); then
      stage=$(printf '%s' "$status" | json_field stage)
      case "$stage" in
        done) printf '%s' "$status"; return 0 ;;
        failed|cancelled) fail "job ended $stage: $status" ;;
      esac
    else
      sleep 0.1
    fi
  done
  fail "job never reached a terminal stage"
}

echo "== garbage NOC_BATCH_WIDTH is refused at boot (exit 2)"
mkdir -p "$WORK/env"
set +e
NOC_BATCH_WIDTH=banana "$BIN" --data-dir "$WORK/env" >/dev/null 2>"$WORK/env.err"
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "expected exit 2 on garbage NOC_BATCH_WIDTH, got $rc"
grep -q NOC_BATCH_WIDTH "$WORK/env.err" || fail "exit-2 diagnostic must name NOC_BATCH_WIDTH"

echo "== reference run (uninterrupted)"
mkdir -p "$WORK/reference"
start_server "$WORK/reference"
ID=$(curl -fsS -X POST --data "$SPEC" "http://$ADDR/jobs" | json_field id)
[ -n "$ID" ] || fail "no job id in submit response"
await_done "$WORK/reference" "$ID" >/dev/null
curl -fsS "http://$ADDR/jobs/$ID/rows" | sort > "$WORK/reference.rows"
[ "$(wc -l < "$WORK/reference.rows")" -eq 8 ] || fail "reference run must record 8 rows"
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""

echo "== victim run: kill -9 mid-sweep, restart, resume to DONE"
mkdir -p "$WORK/victim"
start_server "$WORK/victim"
VID=$(curl -fsS -X POST --data "$SPEC" "http://$ADDR/jobs" | json_field id)
[ "$VID" = "$ID" ] || fail "same spec must content-address to the same id ($VID vs $ID)"
# Parked on the victim before the kill; must survive it.
await_done "$WORK/victim" "$VID" > "$WORK/victim.status" &
WAITER=$!
ROWS="$WORK/victim/jobs/$VID/rows.ckpt.jsonl"
for _ in $(seq 1 3000); do
  n=$(wc -l < "$ROWS" 2>/dev/null || echo 0)
  [ "$n" -ge 8 ] && fail "sweep finished before the kill; enlarge it"
  [ "$n" -ge 1 ] && break
  sleep 0.01
done
[ "$n" -ge 1 ] || fail "no checkpoint rows before the kill window closed"
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""
echo "   killed -9 with $n/8 rows checkpointed"

start_server "$WORK/victim"
wait "$WAITER" || fail "the long-poll parked across the kill never saw DONE"
WAITER=""
STATUS=$(cat "$WORK/victim.status")
DONE=$(printf '%s' "$STATUS" | json_field done)
[ "$DONE" = "8" ] || fail "resumed job reports done=$DONE, want 8: $STATUS"

echo "== resumed rows are identical (as a sorted set) to the reference"
curl -fsS "http://$ADDR/jobs/$VID/rows" | sort > "$WORK/victim.rows"
diff "$WORK/reference.rows" "$WORK/victim.rows" \
  || fail "kill -9 + resume diverged from the uninterrupted run"

echo "== graceful drain is acknowledged and exits 0 within 2 s"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/drain")
[ "$CODE" = "202" ] || fail "POST /drain answered $CODE, want 202"
for _ in $(seq 1 40); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$SERVER_PID" 2>/dev/null; then fail "server still running 2 s after the 202"; fi
wait "$SERVER_PID" || fail "drained server exited non-zero"
SERVER_PID=""

echo "serve smoke: OK (killed at $n/8 rows, resumed to byte-identical set)"
