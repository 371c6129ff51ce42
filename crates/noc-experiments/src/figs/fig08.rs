//! Fig 8: latency versus injection rate across traffic patterns and mesh
//! sizes, all schemes.

use crate::runner::{Scheme, SynthSpec};
use crate::saturation::rate_table;
use crate::table::{fmt_latency, FigTable};
use noc_traffic::TrafficPattern;

/// The figure's line-up: proactive, reactive, subactive, deflection, SEEC.
pub fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Xy,
        Scheme::WestFirst,
        Scheme::Tfc,
        Scheme::escape(),
        Scheme::MinBd,
        Scheme::Spin,
        Scheme::Swap,
        Scheme::Drain,
        Scheme::seec(),
        Scheme::mseec(),
    ]
}

/// One latency-vs-injection panel (a single pattern × mesh size, 4 VCs as in
/// §4.3). `quick` shrinks rates/cycles for smoke tests and benches.
pub fn panel(pattern: TrafficPattern, k: u8, quick: bool) -> FigTable {
    // Larger meshes sweep fewer points for tractable single-core runtimes;
    // the knee sits well inside the range either way.
    let (rates, cycles): (Vec<f64>, u64) = if quick {
        ((1..=4).map(|i| i as f64 * 0.03).collect(), 6_000)
    } else if k >= 16 {
        ((1..=6).map(|i| i as f64 * 0.03).collect(), 12_000)
    } else {
        ((1..=8).map(|i| i as f64 * 0.03).collect(), 20_000)
    };
    rate_table(
        format!(
            "Fig 8 — avg packet latency vs injection rate, {} on {k}x{k} (4 VCs)",
            pattern.label()
        ),
        &schemes(),
        &rates,
        |s, r| SynthSpec::new(k, 4, s, pattern, r).with_cycles(cycles),
        |s| fmt_latency(s.avg_total_latency()),
    )
    .with_note("paper: SEEC ≥ all baselines; mSEEC best; minBD saturates first")
}

/// The full figure: the paper's four patterns × {4×4, 8×8, 16×16}.
pub fn run(quick: bool) -> Vec<FigTable> {
    let sizes: &[u8] = if quick { &[4] } else { &[4, 8, 16] };
    let mut out = Vec::new();
    for &k in sizes {
        for pattern in TrafficPattern::PAPER {
            out.push(panel(pattern, k, quick));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_has_all_schemes_and_rates() {
        let t = panel(TrafficPattern::UniformRandom, 4, true);
        assert_eq!(t.columns.len(), 1 + schemes().len());
        assert_eq!(t.rows.len(), 4);
        // All latencies parse and are positive at the lowest rate.
        for cell in &t.rows[0][1..] {
            let v: f64 = cell.parse().unwrap();
            assert!(v > 0.0, "zero latency cell");
        }
    }
}
