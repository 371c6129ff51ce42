//! Recovery sweep: cost and benefit of the runtime drain-and-reinject
//! channel across the paper's schemes.
//!
//! Two series, both through the crash-resilient checkpointed runner:
//!
//! * **armed-idle** — the headline VC-router schemes on a healthy mesh with
//!   the recovery channel armed (drain + end-to-end retransmission). On a
//!   healthy mesh nothing ever wedges, so every row must report zero drain
//!   recoveries and zero retransmits: arming is free until it is needed.
//! * **forced-wedge** — the statically deadlockable ADAPT baseline (fully
//!   adaptive minimal, no escape mechanism) at one VC and high load. Unarmed
//!   it is refused by the certification gate (an `"uncertified"` status
//!   row); armed, the drain channel converts each wedge into forward
//!   progress and the point completes as `"recovered"`. SEEC on the same
//!   deadlockable routing relation rides along as the paper's answer to the
//!   same problem — its stochastic escape keeps the network out of the
//!   recovery path entirely.

use crate::runner::Scheme;
use crate::sweep::{cell, reason_cell, FaultPoint, RowsByKey};
use crate::table::FigTable;
use noc_traffic::TrafficPattern;
use noc_types::{FaultConfig, RecoveryConfig};

/// Schemes for the armed-idle overhead comparison.
pub fn armed_schemes() -> Vec<Scheme> {
    vec![
        Scheme::seec(),
        Scheme::mseec(),
        Scheme::escape(),
        Scheme::Spin,
        Scheme::Tfc,
    ]
}

/// An end-to-end timeout far beyond any healthy-mesh latency: the NIC
/// tracks every packet but never retransmits unless one is truly lost.
fn idle_recovery() -> RecoveryConfig {
    RecoveryConfig::drain().with_e2e(100_000, 4)
}

/// A tight drain threshold for the forced-wedge series: rescue long before
/// the runner's watchdog (2 000 stalled cycles) would escalate to a panic.
fn wedge_recovery() -> RecoveryConfig {
    RecoveryConfig::drain().with_stuck_threshold(128)
}

/// The sweep's datapoints. `quick` shrinks the healthy mesh and the cycle
/// budgets for CI smoke runs; the forced-wedge mesh stays 4x4 either way —
/// wedging it is the point, not scaling it.
pub fn points(quick: bool) -> Vec<FaultPoint> {
    let (k, cycles) = if quick { (4, 6_000) } else { (8, 30_000) };
    let mut out = Vec::new();
    for scheme in armed_schemes() {
        out.push(FaultPoint {
            series: "armed-idle",
            scheme,
            k,
            vcs: 4,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            cycles,
            seed: 0xA11CE,
            fault: FaultConfig::default(),
            recovery: idle_recovery(),
        });
    }
    let wedge = |scheme: Scheme, recovery: RecoveryConfig| FaultPoint {
        series: "forced-wedge",
        scheme,
        k: 4,
        vcs: 1,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.30,
        cycles: if quick { 6_000 } else { 20_000 },
        seed: 0xA11CE,
        fault: FaultConfig::default(),
        recovery,
    };
    out.push(wedge(Scheme::Adaptive, RecoveryConfig::default()));
    out.push(wedge(Scheme::Adaptive, wedge_recovery()));
    out.push(wedge(Scheme::seec(), wedge_recovery()));
    out
}

/// Builds the two result tables from checkpoint rows, in the deterministic
/// order of [`points`].
pub fn tables(pts: &[FaultPoint], rows: &RowsByKey) -> Vec<FigTable> {
    let mut armed = FigTable::new(
        "Recovery sweep — armed recovery channel on a healthy mesh (uniform random, 0.05 inj)",
        &[
            "scheme", "status", "avg_lat", "p50", "p95", "p99", "drains", "e2e_retx",
        ],
    )
    .with_note("an armed channel that never fires must cost nothing");
    let mut wedge = FigTable::new(
        "Recovery sweep — forced wedge (ADAPT 1 VC, 0.30 inj) vs drain recovery",
        &[
            "scheme",
            "recovery",
            "status",
            "avg_lat",
            "p99",
            "drains",
            "cycles_lost",
            "reason",
        ],
    )
    .with_note(
        "unarmed ADAPT is refused by the gate; armed, every wedge drains and the run completes",
    );
    for p in pts {
        let row = rows.get(&p.key());
        match p.series {
            "armed-idle" => armed.push_row(vec![
                p.scheme.label(),
                cell(row, "status"),
                cell(row, "avg_latency"),
                cell(row, "p50_latency"),
                cell(row, "p95_latency"),
                cell(row, "p99_latency"),
                cell(row, "drain_recoveries"),
                cell(row, "e2e_retransmits"),
            ]),
            "forced-wedge" => wedge.push_row(vec![
                p.scheme.label(),
                p.recovery.canonical(),
                cell(row, "status"),
                cell(row, "avg_latency"),
                cell(row, "p99_latency"),
                cell(row, "drain_recoveries"),
                cell(row, "recovery_cycles_lost"),
                reason_cell(row),
            ]),
            other => panic!("unknown recovery-sweep series '{other}'"),
        }
    }
    vec![armed, wedge]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep_keyed, Checkpoint};

    #[test]
    fn grids_are_well_formed() {
        for quick in [true, false] {
            let pts = points(quick);
            assert_eq!(pts.len(), armed_schemes().len() + 3);
            let mut keys: Vec<String> = pts.iter().map(FaultPoint::key).collect();
            let n = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), n, "checkpoint keys must be unique per point");
        }
        let tables = tables(&points(true), &RowsByKey::new());
        assert_eq!(tables.len(), 2);
        assert_eq!(
            tables[0].rows.len() + tables[1].rows.len(),
            points(true).len()
        );
    }

    #[test]
    fn forced_wedge_recovers_when_armed_and_is_refused_unarmed() {
        let dir = std::env::temp_dir().join(format!("seec_recsweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = Checkpoint::open(&dir.join("w.ckpt.jsonl")).unwrap();
        let wedge: Vec<FaultPoint> = points(true)
            .into_iter()
            .filter(|p| p.series == "forced-wedge")
            .collect();
        let (by_key, o) = run_sweep_keyed(&wedge, &ckpt, None);
        assert_eq!(o.failed, 0, "no forced-wedge point may panic");
        let status = |p: &FaultPoint| by_key[&p.key()]["status"].clone();
        assert_eq!(status(&wedge[0]), "uncertified", "unarmed ADAPT must skip");
        assert_eq!(status(&wedge[1]), "recovered", "armed ADAPT must recover");
        let drains: u64 = by_key[&wedge[1].key()]["drain_recoveries"].parse().unwrap();
        assert!(drains > 0);
        // SEEC's own escape keeps it clear of the drain channel.
        assert_eq!(status(&wedge[2]), "ok");
        assert_eq!(by_key[&wedge[2].key()]["drain_recoveries"], "0");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
