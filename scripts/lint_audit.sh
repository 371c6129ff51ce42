#!/usr/bin/env bash
# Lint-wall audit: every workspace crate must opt into the shared lint
# table and forbid unsafe code, and the core certification/mechanism
# crates must deny unwrap() in production code.
#
# Run from the repo root:  bash scripts/lint_audit.sh
# Exits nonzero listing every violation; CI gates on it.

set -u
cd "$(dirname "$0")/.."

fail=0
complain() {
    echo "lint-audit: $*" >&2
    fail=1
}

# Workspace members are crates/* minus the excluded compat tree.
for manifest in crates/*/Cargo.toml; do
    crate_dir=$(dirname "$manifest")
    crate=$(basename "$crate_dir")
    [ "$crate" = "compat" ] && continue

    # 1. Every member opts into the shared [workspace.lints] table.
    if ! grep -Eq '^\[lints\]' "$manifest" || \
       ! grep -A1 '^\[lints\]' "$manifest" | grep -Eq '^workspace *= *true'; then
        complain "$crate: Cargo.toml lacks '[lints] workspace = true'"
    fi

    # 2. Every member's crate root forbids unsafe code outright (the
    #    workspace table only *denies* it, which an inner allow could undo).
    root="$crate_dir/src/lib.rs"
    [ -f "$root" ] || root="$crate_dir/src/main.rs"
    if [ ! -f "$root" ]; then
        complain "$crate: no src/lib.rs or src/main.rs to audit"
        continue
    fi
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
        complain "$crate: $root lacks #![forbid(unsafe_code)]"
    fi
done

# 3. The verification and mechanism crates additionally deny unwrap() in
#    production (non-test) code: a panic inside the certifier or the
#    deadlock-recovery path is itself a liveness bug.
for crate in noc-verify noc-protocol seec noc-model; do
    for root in crates/$crate/src/lib.rs crates/$crate/src/main.rs; do
        [ -f "$root" ] || continue
        if ! grep -q 'deny(clippy::unwrap_used)' "$root"; then
            complain "$crate: $root lacks the unwrap_used deny wall"
        fi
    done
done

# 4. The compat stand-ins are outside the workspace and its lint table,
#    so their roots must carry the forbid themselves. One exemption:
#    compat/signal-hook must call the POSIX signal(2) API, which cannot be
#    done in safe Rust. Its unsafe surface is audited instead of forbidden:
#    exactly one `unsafe` block (the registration call) plus the `SAFETY:`
#    comment justifying it, and no growth without updating this gate.
for manifest in crates/compat/*/Cargo.toml; do
    crate_dir=$(dirname "$manifest")
    crate=$(basename "$crate_dir")
    root="$crate_dir/src/lib.rs"
    [ -f "$root" ] || continue
    if [ "$crate" = "signal-hook" ]; then
        blocks=$(grep -c 'unsafe {' "$root")
        if [ "$blocks" -ne 1 ]; then
            complain "compat/signal-hook: expected exactly 1 unsafe block, found $blocks"
        fi
        if ! grep -q '// SAFETY:' "$root"; then
            complain "compat/signal-hook: unsafe block lacks a SAFETY: justification"
        fi
        continue
    fi
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
        complain "compat/$crate: lacks #![forbid(unsafe_code)]"
    fi
done

# 5. One journal protocol. Outside noc-store's own sources, production
#    code (each file up to its `#[cfg(test)]` module) touches the framing
#    primitives only where the protocol is written once: `open_line(` in
#    the one line check (`sweep::load_line`), `seal_line(` in the service's
#    whole-file first record (appends go through `append_sealed`), and the
#    deleted `RetryPolicy` nowhere — so the twin copies cannot grow back.
prod_files() { # production sources of every workspace crate, sorted
    find crates -path crates/compat -prune -o -path 'crates/*/src/*' -name '*.rs' -print | sort
}
prod_code() { # file -> its text up to the `#[cfg(test)]` module
    sed '/^#\[cfg(test)\]/,$d' "$1"
}
journal_hits() { # pattern
    prod_files | grep -v '^crates/noc-store/' | while read -r f; do
        prod_code "$f" | grep -c -- "$1" | sed "s|^|$f:|"
    done | grep -v ':0$'
}
for rule in 'open_line(=crates/noc-experiments/src/sweep.rs:1' \
            'seal_line(=crates/noc-serve/src/service.rs:1' \
            'RetryPolicy='; do
    pattern=${rule%%=*}
    want=${rule#*=}
    got=$(journal_hits "$pattern" | tr '\n' ' ' | sed 's/ $//')
    if [ "$got" != "$want" ]; then
        complain "'$pattern' must appear only at [${want:-nowhere}], found [${got:-nowhere}]"
    fi
done

# 6. One admission rule. `runner::admit` decides for the runner, the sweep
#    and the chaos loop alike, so in production code the routing-reliant
#    scheme set (`SchemeKind::None | SchemeKind::EscapeVc | SchemeKind::Tfc`,
#    in any order) is spelled once, noc-experiments calls the degraded and
#    recovery certifiers only inside `admit`, and the deleted way around it
#    (`NOC_ALLOW_UNVERIFIED`, `allow_unverified`) appears nowhere.
reliant='SchemeKind::(None|EscapeVc|Tfc)( ?[|] ?SchemeKind::(None|EscapeVc|Tfc)){2}'
sets=$(prod_files | while read -r f; do
    prod_code "$f" | tr -s ' \n' ' ' | grep -oE "$reliant" | sed "s|^|$f: |"
done)
if [ "$(printf '%s' "$sets" | grep -c .)" -ne 1 ]; then
    complain "the routing-reliant SchemeKind set must be written once, found [$(echo $sets)]"
fi
override=$(prod_files | while read -r f; do
    prod_code "$f" | grep -qE 'NOC_ALLOW_UNVERIFIED|allow_unverified' && echo "$f"
done)
if [ -n "$override" ]; then
    complain "the unverified-run override is back in [$(echo $override)]"
fi
for call in 'certify_degraded(' 'certify_recovery('; do
    total=$(prod_files | grep '^crates/noc-experiments/' | while read -r f; do
        prod_code "$f"
    done | grep -c -- "$call")
    inside=$(sed -n '/^pub fn admit(/,/^}/p' crates/noc-experiments/src/runner.rs | grep -c -- "$call")
    if [ "$inside" -lt 1 ] || [ "$total" -ne "$inside" ]; then
        complain "noc-experiments calls '$call' $total time(s), $inside inside runner::admit; want all of them there"
    fi
done

# 7. One load-sweep path. `saturation::rate_table` and
#    `saturation::saturation` schedule every offered-load sweep, so the
#    deleted per-figure grid helpers stay gone from production code, the
#    five load-sweep figures go through them, and no figure that does opens
#    a parallel region of its own.
helpers='\b(CurvePoint|curve_point|latency_curve|saturation_from_curve|find_saturation)\b'
back=$(prod_files | while read -r f; do
    prod_code "$f" | grep -qE "$helpers" && echo "$f"
done)
if [ -n "$back" ]; then
    complain "deleted load-sweep helpers are back in [$(echo $back)]"
fi
for fig in fig08 fig09 fig10 fig12 fig13; do
    if ! prod_code "crates/noc-experiments/src/figs/$fig.rs" | grep -qE '\b(rate_table|saturation)\('; then
        complain "figs/$fig.rs sweeps load outside saturation::rate_table/saturation"
    fi
done
for f in crates/noc-experiments/src/figs/*.rs; do
    code=$(prod_code "$f")
    if grep -qE '\b(rate_table|saturation)\(' <<<"$code" && grep -q 'par_iter' <<<"$code"; then
        complain "$f sweeps load through saturation.rs and also calls par_iter"
    fi
done

# 8. No idle-cycle skipping. The engine steps every cycle: no workload the
#    repository runs ever declared an idle horizon, so the skipper, its
#    per-layer horizon hooks, the one workload that fed it and the model
#    trait that routed slices through it stay gone from production code.
#    `Sim::skipped_cycles` (always 0, read only by bench11's probe) lives
#    in the engine alone.
skip_names='\b(idle_skip|with_idle_skip|skip_target|maybe_skip|next_activity|quiet_until|next_due|BurstWorkload|NocModel)\b|\bfn quiescent\b'
back=$(prod_files | while read -r f; do
    prod_code "$f" | grep -qE "$skip_names" && echo "$f"
done)
if [ -n "$back" ]; then
    complain "idle-cycle skipping is back in [$(echo $back)]"
fi
stray=$(prod_files | grep -v '^crates/noc-sim/src/network.rs$' | while read -r f; do
    prod_code "$f" | grep -qw 'skipped_cycles' && echo "$f"
done)
if [ -n "$stray" ]; then
    complain "'skipped_cycles' must appear only in crates/noc-sim/src/network.rs, found in [$(echo $stray)]"
fi

if [ "$fail" -ne 0 ]; then
    echo "lint-audit: FAILED" >&2
    exit 1
fi
echo "lint-audit: ok"
