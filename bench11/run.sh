#!/usr/bin/env bash
# Builds bench11 and the real noc_serve binary from source into one target
# directory, then runs bench11 with the given arguments:
#
#   bench11/run.sh                                   every workload -> report.json
#   bench11/run.sh --trace 1                         ... and the traced runs -> trace.json
#   bench11/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench11/run.sh compare A/report.json B/report.json
#
# Outputs go under <target dir>/bench11 unless --out says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
(cd "$root" && cargo build --release --offline --quiet -p noc-serve)
exec "$CARGO_TARGET_DIR/release/bench11" "$@"
