#!/usr/bin/env bash
# Fault-soak smoke for the injectable layers (CI `storage-chaos-smoke` and
# `network-chaos-smoke`):
#
#   scripts/chaos_smoke.sh storage    # storage_chaos, NOC_VFS_FAULT_*
#   scripts/chaos_smoke.sh network    # network_chaos, NOC_NET_FAULT_*
#
#   1. a garbage *_FAULT_SCHEDULE / *_FAULT_SEED must be refused at boot
#      with exit 2 (eager validation, never a silent fault-free run),
#      before any file is written or socket opened;
#   2. the soak injects every fault kind at each of the first operation
#      sites of its reference workload (write ops; connection ops on the
#      client and the server side) and requires every recovered /
#      converged row set to be byte-identical to the fault-free run's
#      (kinds and oracles: DESIGN.md §15, §16);
#   3. any divergence leaves a repro file (the exact schedule to replay it)
#      in the output directory for CI to upload.
#
# Time-boxed via --max-sites plus a hard timeout. Override the binary with
# NOC_STORAGE_CHAOS_BIN / NOC_NETWORK_CHAOS_BIN, the output directory with
# OUT, the site cap with MAX_SITES, the timeout with TIMEOUT_S.
set -euo pipefail

case "${1:-}" in
  storage)
    BIN=${NOC_STORAGE_CHAOS_BIN:-target/release/storage_chaos}
    KNOB=NOC_VFS_FAULT PKG=noc-experiments MAX_SITES=${MAX_SITES:-4} ;;
  network)
    BIN=${NOC_NETWORK_CHAOS_BIN:-target/release/network_chaos}
    KNOB=NOC_NET_FAULT PKG=noc-client MAX_SITES=${MAX_SITES:-3} ;;
  *)
    echo "usage: $0 <storage|network>" >&2
    exit 2 ;;
esac
NAME=$1_chaos
OUT=${OUT:-${NAME}_out}
TIMEOUT_S=${TIMEOUT_S:-240}

[ -x "$BIN" ] || {
  echo "FAIL: $BIN not built (cargo build --release -p $PKG --bin $NAME)"
  exit 1
}

fail() { echo "FAIL: $*"; exit 1; }

# 1. Eager validation: garbage knobs are a boot-time configuration error.
set +e
env "${KNOB}_SCHEDULE=nonsense" "$BIN" --out "$OUT.reject" >/dev/null 2>&1
[ $? -eq 2 ] || fail "garbage ${KNOB}_SCHEDULE must exit 2"
env "${KNOB}_SEED=-3" "$BIN" --out "$OUT.reject" >/dev/null 2>&1
[ $? -eq 2 ] || fail "garbage ${KNOB}_SEED must exit 2"
set -e
[ ! -d "$OUT.reject" ] || fail "rejected run must not open sockets or write output"

# 2. The soak proper: every fault kind at the first $MAX_SITES sites.
rm -rf "$OUT"
timeout "$TIMEOUT_S" "$BIN" --out "$OUT" --max-sites "$MAX_SITES" \
  || fail "$NAME reported a divergence (repros in $OUT)"

# 3. The report must exist, be whole, and say pass.
[ -s "$OUT/$NAME.json" ] || fail "missing $OUT/$NAME.json"
grep -q '"verdict": "pass"' "$OUT/$NAME.json" \
  || fail "report verdict is not pass: $(cat "$OUT/$NAME.json")"
ls "$OUT"/repro_* >/dev/null 2>&1 && fail "pass verdict but repro files present"

echo "PASS: $1-chaos smoke ($(grep -o '"combos": [0-9]*' "$OUT/$NAME.json" \
  | grep -o '[0-9]*') fault combinations matched the fault-free run byte-identically)"
