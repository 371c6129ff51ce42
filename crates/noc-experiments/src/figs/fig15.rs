//! Fig 15: maximum (tail) packet latency per application (log scale in the
//! paper). Adds the SEEC-XY variant: SEEC layered over an inherently
//! deadlock-free routing algorithm — the paper's best tail latency.

use crate::runner::{run_app, AppSpec, Scheme};
use crate::table::FigTable;
use noc_traffic::apps::{AppProfile, APPS};
use noc_types::BaseRouting;
use rayon::prelude::*;

pub fn variants() -> Vec<(String, Scheme, u8, u8)> {
    vec![
        ("XY".into(), Scheme::Xy, 6, 2),
        ("WF".into(), Scheme::WestFirst, 6, 2),
        ("EscVC".into(), Scheme::escape(), 6, 2),
        ("SPIN".into(), Scheme::Spin, 6, 2),
        ("SWAP".into(), Scheme::Swap, 6, 2),
        ("DRAIN".into(), Scheme::Drain, 1, 2),
        ("SEEC".into(), Scheme::seec(), 1, 2),
        (
            "SEEC-XY".into(),
            Scheme::Seec {
                routing: BaseRouting::Xy,
            },
            1,
            2,
        ),
    ]
}

fn apps_subset(quick: bool) -> Vec<&'static AppProfile> {
    if quick {
        APPS.iter().take(2).collect()
    } else {
        APPS.iter().collect()
    }
}

/// Rows = app, columns = variant; cells = max packet latency in cycles.
pub fn run(quick: bool) -> FigTable {
    // Bounded so that wedged baselines cannot burn minutes per point: 60
    // transactions per core complete in ~40k cycles on a live network.
    let txns = if quick { 30 } else { 60 };
    let max_cycles = if quick { 150_000 } else { 400_000 };
    let vars = variants();
    let mut cols = vec!["app".to_string()];
    cols.extend(vars.iter().map(|v| v.0.clone()));
    let colrefs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = FigTable::new(
        "Fig 15 — max packet latency (cycles, plot on log scale), 4x4 mesh",
        &colrefs,
    )
    .with_note("paper: DRAIN worst tail; SPIN ~10x XY; SEEC best; SEEC-XY an order below the rest");
    for app in apps_subset(quick) {
        // Same 2.5x intensity scaling as Fig 14 (see the comment there).
        let mut hot = *app;
        hot.think_time = (hot.think_time / 2.5).max(8.0);
        let maxes: Vec<u64> = vars
            .par_iter()
            .enumerate()
            .map(|(i, (_, scheme, vnets, vcs))| {
                run_app(AppSpec {
                    k: 4,
                    vnets: *vnets,
                    vcs: *vcs,
                    scheme: *scheme,
                    app: hot,
                    txns_per_core: txns,
                    max_cycles,
                    seed: 0x000F_1615 + i as u64,
                })
                .stats
                .max_total_latency
            })
            .collect();
        let mut row = vec![app.name.to_string()];
        row.extend(maxes.iter().map(std::string::ToString::to_string));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_latencies_are_positive() {
        let t = run(true);
        for row in &t.rows {
            for cell in &row[1..] {
                let v: u64 = cell.parse().unwrap();
                assert!(v > 0, "zero tail latency");
            }
        }
    }
}
