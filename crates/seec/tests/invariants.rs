//! SEEC and mSEEC under the engine's end-of-cycle invariant sweep
//! (`--features check-invariants`): occupancy counters, credit conservation,
//! claim consistency, and — the part that needs every mutation routed
//! through the tracked SPI — "a clean credit lane equals a fresh recompute".
#![cfg(feature = "check-invariants")]

use noc_sim::{Mechanism, Sim};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, NetConfig, RoutingAlgo};
use seec::{MSeecMechanism, SeecMechanism};

const CYCLES: u64 = 5_000;

/// 8x8 / 2 VCs, both patterns, one rate before the knee and one past it.
/// Returns the Free-Flow packets delivered over the four runs.
fn run_clean(base: &NetConfig, mech: fn(&NetConfig) -> Box<dyn Mechanism>) -> u64 {
    let mut ff_packets = 0;
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
        for rate in [0.07, 0.13] {
            let cfg = base.clone();
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
            ff_packets += sim.net.stats.ff_packets;
        }
    }
    ff_packets
}

fn mesh8() -> NetConfig {
    NetConfig::synth(8, 2)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
        .with_seed(0x5EEC)
}

fn seec(cfg: &NetConfig) -> Box<dyn Mechanism> {
    Box::new(SeecMechanism::for_net(cfg))
}

fn mseec(cfg: &NetConfig) -> Box<dyn Mechanism> {
    Box::new(MSeecMechanism::for_net(cfg))
}

#[test]
fn seec_vct_is_clean() {
    assert!(run_clean(&mesh8(), seec) > 0, "no Free-Flow packet flew");
}

#[test]
fn mseec_vct_is_clean() {
    assert!(run_clean(&mesh8(), mseec) > 0, "no Free-Flow packet flew");
}

#[test]
fn seec_wormhole_streams_are_clean() {
    let ff = run_clean(&mesh8().with_wormhole(2), seec);
    assert!(ff > 0, "no Free-Flow stream ran");
}

#[test]
fn mseec_wormhole_streams_are_clean() {
    let ff = run_clean(&mesh8().with_wormhole(2), mseec);
    assert!(ff > 0, "no Free-Flow stream ran");
}
