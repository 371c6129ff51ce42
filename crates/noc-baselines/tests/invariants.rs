//! SPIN, DRAIN, SWAP and TFC under the engine's end-of-cycle invariant sweep
//! (`--features check-invariants`): occupancy counters, credit conservation,
//! claim consistency, and "a clean credit lane equals a fresh recompute" —
//! which holds only if every forced move goes through the tracked SPI.
#![cfg(feature = "check-invariants")]

use noc_baselines::{DrainMechanism, SpinMechanism, SwapMechanism, TfcMechanism};
use noc_sim::{Mechanism, Sim, Stats};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, NetConfig, RoutingAlgo};

const CYCLES: u64 = 5_000;

/// 8x8 / 2 VCs, both patterns, one rate before the knee and one past it.
/// Returns each run's statistics.
fn run_clean(routing: BaseRouting, mech: fn(&NetConfig) -> Box<dyn Mechanism>) -> Vec<Stats> {
    let mut all = Vec::new();
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
        for rate in [0.07, 0.13] {
            let cfg = NetConfig::synth(8, 2)
                .with_routing(RoutingAlgo::Uniform(routing))
                .with_seed(0x5EEC);
            let wl =
                SyntheticWorkload::new(pattern, rate, cfg.cols, cfg.rows, cfg.warmup, cfg.seed);
            let mech = mech(&cfg);
            let mut sim = Sim::new(cfg, Box::new(wl), mech);
            sim.run(CYCLES);
            let inv = &sim.net.inv;
            inv.assert_clean();
            assert_eq!(inv.sweeps, CYCLES, "sweeps did not run every cycle");
            assert!(
                inv.clean_lanes_checked > 0,
                "{pattern:?} @ {rate}: the snapshot-coherence check compared nothing"
            );
            all.push(sim.net.stats.clone());
        }
    }
    all
}

fn forced_moves(runs: &[Stats]) -> u64 {
    runs.iter().map(|s| s.forced_moves).sum()
}

#[test]
fn spin_is_clean() {
    let runs = run_clean(BaseRouting::AdaptiveMinimal, |c| {
        Box::new(SpinMechanism::for_net(c))
    });
    assert!(forced_moves(&runs) > 0, "SPIN never spun");
}

#[test]
fn drain_is_clean() {
    let runs = run_clean(BaseRouting::AdaptiveMinimal, |c| {
        Box::new(DrainMechanism::for_net(c))
    });
    assert!(forced_moves(&runs) > 0, "DRAIN never shifted a packet");
}

#[test]
fn swap_is_clean() {
    let runs = run_clean(BaseRouting::AdaptiveMinimal, |c| {
        Box::new(SwapMechanism::for_net(c))
    });
    assert!(forced_moves(&runs) > 0, "SWAP never swapped");
}

#[test]
fn tfc_is_clean() {
    let runs = run_clean(BaseRouting::WestFirst, |c| {
        Box::new(TfcMechanism::for_net(c))
    });
    assert!(
        runs.iter().map(|s| s.tfc_bypasses).sum::<u64>() > 0,
        "TFC never bypassed"
    );
}
