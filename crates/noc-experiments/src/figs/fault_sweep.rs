//! Fault sweep: latency, throughput and retransmission overhead for
//! SEEC/mSEEC vs escape-VC/SPIN/TFC under rising transient fault rates,
//! plus 1–3 random dead links for the schemes that can route around them.
//!
//! Unlike the healthy-mesh figures this sweep runs through the
//! crash-resilient runner in [`crate::sweep`]: every datapoint lands in a
//! checkpoint as it completes, panicking points become `"failed"` rows with
//! a black-box dump, statically impossible scenarios (unroutable dead sets,
//! severed escape layers under Duato schemes) become status rows, and a
//! restarted sweep re-executes only what is missing. All fault randomness
//! derives from [`noc_types::FaultConfig::fault_seed`], so the curves are
//! reproducible run-to-run.

use crate::runner::Scheme;
use crate::sweep::{cell, reason_cell, FaultPoint, RowsByKey};
use crate::table::FigTable;
use noc_traffic::TrafficPattern;
use noc_types::{FaultConfig, RecoveryConfig};

/// Line-up for the transient-fault curves: SEEC/mSEEC against one
/// proactive (TFC), one reactive (SPIN) and the Duato (escape-VC) baseline.
pub fn transient_schemes() -> Vec<Scheme> {
    vec![
        Scheme::seec(),
        Scheme::mseec(),
        Scheme::escape(),
        Scheme::Spin,
        Scheme::Tfc,
    ]
}

/// Line-up for the dead-link curves. TFC and plain turn-model routing
/// cannot detour (the degraded certifier rejects them), so the comparison
/// is SEEC/mSEEC vs escape-VC — where the certifier shows the escape layer
/// severed, which the table reports as a status row.
pub fn dead_link_schemes() -> Vec<Scheme> {
    vec![Scheme::seec(), Scheme::mseec(), Scheme::escape()]
}

/// The sweep's datapoints. `quick` shrinks mesh, cycle budget and the rate
/// grid for CI smoke runs.
pub fn points(quick: bool) -> Vec<FaultPoint> {
    let (k, cycles) = if quick { (4, 6_000) } else { (8, 30_000) };
    let transient_rates: &[f64] = if quick {
        &[0.0, 0.01, 0.05]
    } else {
        &[0.0, 0.001, 0.005, 0.01, 0.05, 0.1]
    };
    let base = |scheme: Scheme, series: &'static str, fault: FaultConfig| FaultPoint {
        series,
        scheme,
        k,
        vcs: 4,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.05,
        cycles,
        seed: 0xA11CE,
        fault,
        recovery: RecoveryConfig::default(),
    };
    let mut out = Vec::new();
    for scheme in transient_schemes() {
        for &tr in transient_rates {
            out.push(base(scheme, "transient", FaultConfig::transient(tr)));
        }
    }
    for scheme in dead_link_schemes() {
        for n in 1..=3u8 {
            out.push(base(
                scheme,
                "dead-links",
                FaultConfig::default().with_random_dead_links(n),
            ));
        }
    }
    out
}

/// Builds the two result tables from checkpoint rows, in the deterministic
/// order of [`points`]. Points missing from the checkpoint (e.g. deferred
/// by `--max-points`) render as `-` cells.
pub fn tables(pts: &[FaultPoint], rows: &RowsByKey) -> Vec<FigTable> {
    let mut transient = FigTable::new(
        "Fault sweep — transient fault rate vs latency/throughput (uniform random, 0.05 inj)",
        &[
            "scheme",
            "transient",
            "status",
            "avg_lat",
            "thpt",
            "retx_overhead",
            "corrupted",
            "retransmitted",
        ],
    )
    .with_note("link-layer go-back-N heals every corruption: latency cost, never loss");
    let mut dead = FigTable::new(
        "Fault sweep — random dead links vs latency/throughput (uniform random, 0.05 inj)",
        &[
            "scheme",
            "dead",
            "status",
            "avg_lat",
            "thpt",
            "recovery_events",
            "reason",
        ],
    )
    .with_note(
        "degraded-mesh certification gates each point; Duato schemes lose their \
         escape layer and are reported, not run",
    );
    for p in pts {
        let row = rows.get(&p.key());
        match p.series {
            "transient" => transient.push_row(vec![
                p.scheme.label(),
                format!("{:.3}", p.fault.transient_rate),
                cell(row, "status"),
                cell(row, "avg_latency"),
                cell(row, "throughput"),
                cell(row, "retx_overhead"),
                cell(row, "corrupted_flits"),
                cell(row, "retransmitted_flits"),
            ]),
            "dead-links" => dead.push_row(vec![
                p.scheme.label(),
                p.fault.random_dead_links.to_string(),
                cell(row, "status"),
                cell(row, "avg_latency"),
                cell(row, "throughput"),
                cell(row, "recovery_events"),
                reason_cell(row),
            ]),
            other => panic!("unknown sweep series '{other}'"),
        }
    }
    vec![transient, dead]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_both_series_and_unique_keys() {
        let pts = points(true);
        assert_eq!(
            pts.len(),
            transient_schemes().len() * 3 + dead_link_schemes().len() * 3
        );
        let mut keys: Vec<String> = pts.iter().map(FaultPoint::key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "checkpoint keys must be unique per point");
        assert!(pts.iter().any(|p| p.series == "transient"));
        assert!(pts.iter().any(|p| p.series == "dead-links"));
    }

    #[test]
    fn tables_render_missing_points_as_dashes() {
        let pts = points(true);
        let tables = tables(&pts, &RowsByKey::new());
        assert_eq!(tables.len(), 2);
        assert_eq!(
            tables[0].rows.len() + tables[1].rows.len(),
            pts.len(),
            "every point gets a row"
        );
        assert!(tables[0].rows.iter().all(|r| r[2] == "-"));
    }

    #[test]
    fn full_and_quick_grids_differ() {
        assert!(points(false).len() > points(true).len());
    }
}
