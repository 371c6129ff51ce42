//! Fig 12: the routing-algorithm deep dive — XY, West-first, oblivious vs
//! adaptive random under escape-VC, SEEC and mSEEC, all with 2 VCs.

use crate::runner::{Scheme, SynthSpec};
use crate::saturation::rate_table;
use crate::table::{fmt_latency, FigTable};
use noc_traffic::TrafficPattern;
use noc_types::BaseRouting;

pub fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Xy,
        Scheme::WestFirst,
        Scheme::EscapeVc {
            normal: BaseRouting::ObliviousMinimal,
        },
        Scheme::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        },
        Scheme::Seec {
            routing: BaseRouting::ObliviousMinimal,
        },
        Scheme::Seec {
            routing: BaseRouting::AdaptiveMinimal,
        },
        Scheme::MSeec {
            routing: BaseRouting::ObliviousMinimal,
        },
        Scheme::MSeec {
            routing: BaseRouting::AdaptiveMinimal,
        },
    ]
}

pub fn panel(pattern: TrafficPattern, quick: bool) -> FigTable {
    let (k, rates, cycles): (u8, Vec<f64>, u64) = if quick {
        (4, vec![0.03, 0.09], 6_000)
    } else {
        (8, (1..=8).map(|i| i as f64 * 0.03).collect(), 20_000)
    };
    rate_table(
        format!(
            "Fig 12 — routing algorithms under deadlock-free NoCs, {} on {k}x{k} (2 VCs)",
            pattern.label()
        ),
        &schemes(),
        &rates,
        |s, r| SynthSpec::new(k, 2, s, pattern, r).with_cycles(cycles),
        |s| fmt_latency(s.avg_total_latency()),
    )
    .with_note(
        "paper: XY wins UR except vs mSEEC; adaptive > oblivious; mSEEC best on both patterns",
    )
}

pub fn run(quick: bool) -> Vec<FigTable> {
    [TrafficPattern::UniformRandom, TrafficPattern::Transpose]
        .into_iter()
        .map(|p| panel(p, quick))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_noc_variants_run() {
        let t = panel(TrafficPattern::UniformRandom, true);
        assert_eq!(t.columns.len(), 9);
        for cell in &t.rows[0][1..] {
            let v: f64 = cell.parse().unwrap();
            assert!(v > 0.0);
        }
    }
}
