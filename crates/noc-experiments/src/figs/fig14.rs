//! Fig 14: application average packet latency and runtime, normalized to XY.
//!
//! Two SEEC configurations as in §4.5: *iso-VC-VNet* (every scheme gets 2
//! VCs per `VNet` — the baselines need 6 `VNets`, SEEC runs one) and
//! *iso-hardware* (SEEC gets the same total VC budget: 12 VCs in 1 `VNet`).

use crate::runner::{run_app, AppSpec, Scheme};
use crate::table::{fmt_latency, fmt_ratio, FigTable};
use noc_traffic::apps::{AppProfile, APPS};
use rayon::prelude::*;

/// (label, scheme, vnets, vcs-per-vnet).
pub fn variants() -> Vec<(String, Scheme, u8, u8)> {
    vec![
        ("XY".into(), Scheme::Xy, 6, 2),
        ("WF".into(), Scheme::WestFirst, 6, 2),
        ("TFC".into(), Scheme::Tfc, 6, 2),
        ("EscVC".into(), Scheme::escape(), 6, 2),
        ("SPIN".into(), Scheme::Spin, 6, 2),
        ("SWAP".into(), Scheme::Swap, 6, 2),
        ("DRAIN".into(), Scheme::Drain, 1, 2),
        ("SEEC".into(), Scheme::seec(), 1, 2),
        ("mSEEC".into(), Scheme::mseec(), 1, 2),
        ("SEEC-isoHW".into(), Scheme::seec(), 1, 12),
        ("mSEEC-isoHW".into(), Scheme::mseec(), 1, 12),
    ]
}

fn apps_subset(quick: bool) -> Vec<&'static AppProfile> {
    if quick {
        APPS.iter().take(2).collect()
    } else {
        APPS.iter().collect()
    }
}

/// Returns (latency table, runtime table): rows = app, cols = variants.
pub fn run(quick: bool) -> Vec<FigTable> {
    // Bounded so that wedged baselines cannot burn minutes per point: 60
    // transactions per core complete in ~40k cycles on a live network.
    let txns = if quick { 30 } else { 60 };
    let max_cycles = if quick { 150_000 } else { 400_000 };
    let vars = variants();
    let apps = apps_subset(quick);

    let mut cols = vec!["app".to_string()];
    cols.extend(vars.iter().map(|v| v.0.clone()));
    let colrefs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut lat_t = FigTable::new(
        "Fig 14a — application average packet latency (cycles), 4x4 mesh",
        &colrefs,
    )
    .with_note(
        "paper: SEEC iso-VC-VNet ≈ SPIN at 1/6th buffers; mSEEC iso-HW ~40% better than all",
    );
    let mut run_t = FigTable::new(
        "Fig 14b — application runtime normalized to XY, 4x4 mesh",
        &colrefs,
    )
    .with_note("paper: SEEC/mSEEC ~5% average runtime improvement");

    for app in apps {
        // The statistical profiles are calibrated for 16-core full-system
        // rates, which leave a 4x4 NoC far below its knee (every scheme then
        // measures identically). The paper's runs stress the network; we
        // match that by scaling request intensity 2.5x.
        let mut hot = *app;
        hot.think_time = (hot.think_time / 2.5).max(8.0);
        let results: Vec<(f64, u64)> = vars
            .par_iter()
            .enumerate()
            .map(|(i, (_, scheme, vnets, vcs))| {
                let r = run_app(AppSpec {
                    k: 4,
                    vnets: *vnets,
                    vcs: *vcs,
                    scheme: *scheme,
                    app: hot,
                    txns_per_core: txns,
                    max_cycles,
                    seed: 0x000F_1614 + i as u64,
                });
                (r.stats.avg_total_latency(), r.runtime)
            })
            .collect();
        let xy_runtime = results[0].1.max(1) as f64;
        let mut lrow = vec![app.name.to_string()];
        let mut rrow = vec![app.name.to_string()];
        for (lat, runtime) in results {
            lrow.push(fmt_latency(lat));
            rrow.push(fmt_ratio(runtime as f64 / xy_runtime));
        }
        lat_t.push_row(lrow);
        run_t.push_row(rrow);
    }
    vec![lat_t, run_t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_both_tables() {
        let ts = run(true);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].rows.len(), 2);
        // XY runtime normalizes to 1.
        let xy: f64 = ts[1].rows[0][1].parse().unwrap();
        assert!((xy - 1.0).abs() < 1e-9);
        // Latencies parse positive.
        for cell in &ts[0].rows[0][1..] {
            let v: f64 = cell.parse().unwrap();
            assert!(v > 0.0);
        }
    }
}
