//! Footnote 4 of the paper, reproduced as an experiment: "Unlike the
//! original paper, TFC does not show low-load latency improvement. Our
//! baseline router is an optimized 1-cycle router, while the TFC paper's
//! baseline was a 4-cycle router."
//!
//! We run TFC against West-first at low load with both router depths; the
//! token bypass skips the pipeline, so the gain should appear only at
//! 4-cycle routers.

use crate::runner::{admit, Scheme};
use crate::table::{fmt_latency, FigTable};
use noc_sim::Sim;
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::NetConfig;

fn low_load_latency(router_latency: u8, scheme: Scheme, quick: bool) -> f64 {
    let cycles = if quick { 8_000 } else { 25_000 };
    let cfg = scheme
        .configure(NetConfig::synth(4, 2))
        .with_router_latency(router_latency)
        .with_seed(0xF004);
    admit(scheme, &cfg).expect("west-first routing is certified");
    let wl = SyntheticWorkload::new(
        TrafficPattern::UniformRandom,
        0.03,
        4,
        4,
        cfg.warmup,
        0xF004,
    );
    let mech = scheme.mechanism(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), mech);
    sim.run(cycles);
    sim.finish().avg_total_latency()
}

pub fn run(quick: bool) -> FigTable {
    let mut t = FigTable::new(
        "Footnote 4 — TFC's bypass vs router pipeline depth (uniform random @ 0.03, 4x4)",
        &["router_latency", "WF_latency", "TFC_latency", "TFC_gain_%"],
    )
    .with_note("paper: TFC gains vanish against an optimized 1-cycle router");
    for rl in [1u8, 2, 4] {
        let wf = low_load_latency(rl, Scheme::WestFirst, quick);
        let tfc = low_load_latency(rl, Scheme::Tfc, quick);
        let gain = 100.0 * (wf - tfc) / wf;
        t.push_row(vec![
            rl.to_string(),
            fmt_latency(wf),
            fmt_latency(tfc),
            format!("{gain:.1}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfc_gain_appears_only_with_deep_routers() {
        let t = run(true);
        let gain_1cyc: f64 = t.rows[0][3].parse().unwrap();
        let gain_4cyc: f64 = t.rows[2][3].parse().unwrap();
        assert!(
            gain_1cyc < 3.0,
            "TFC should not beat a 1-cycle router meaningfully: {gain_1cyc}%"
        );
        assert!(
            gain_4cyc > 5.0,
            "TFC must show its bypass against 4-cycle routers: {gain_4cyc}%"
        );
        assert!(gain_4cyc > gain_1cyc);
    }

    #[test]
    fn deeper_routers_cost_latency_for_everyone() {
        let t = run(true);
        let wf1: f64 = t.rows[0][1].parse().unwrap();
        let wf4: f64 = t.rows[2][1].parse().unwrap();
        assert!(
            wf4 > wf1 + 3.0,
            "4-cycle router should be slower: {wf1} vs {wf4}"
        );
    }
}
