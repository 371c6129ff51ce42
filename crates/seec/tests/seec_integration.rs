//! End-to-end SEEC/mSEEC tests: the paper's correctness claims under traffic.

use noc_sim::{watchdog, NoMechanism, Sim};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, NetConfig, RoutingAlgo};
use seec::{MSeecMechanism, SeecMechanism};

fn adaptive_cfg(k: u8, vcs: u8, seed: u64) -> NetConfig {
    NetConfig::synth(k, vcs)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
        .with_seed(seed)
}

fn mechanism(cfg: &NetConfig, mseec: bool) -> Box<dyn noc_sim::Mechanism> {
    if mseec {
        Box::new(MSeecMechanism::for_net(cfg))
    } else {
        Box::new(SeecMechanism::for_net(cfg))
    }
}

#[test]
fn seec_delivers_and_uses_ff_under_load() {
    let cfg = adaptive_cfg(4, 2, 21);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.20, 4, 4, cfg.warmup, 21);
    let mech = SeecMechanism::for_net(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
    sim.run(30_000);
    let s = sim.finish();
    assert!(
        s.ejected_packets > 1000,
        "only {} delivered",
        s.ejected_packets
    );
    assert!(s.ff_packets > 0, "no packet ever used Free Flow");
    assert!(s.sideband_hops > 0, "seekers never moved");
    assert!(s.lookahead_hops > 0, "no lookaheads sent");
}

/// The paper's central correctness claim: fully-adaptive random routing with
/// a single VC is deadlock-prone, and SEEC alone must keep it live.
#[test]
fn seec_keeps_single_vc_adaptive_routing_deadlock_free() {
    let cfg = adaptive_cfg(4, 1, 33);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.30, 4, 4, cfg.warmup, 33);
    let mech = SeecMechanism::for_net(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
    for _ in 0..60 {
        sim.run(1000);
        assert!(
            !watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD),
            "network wedged at cycle {}",
            sim.net.cycle
        );
    }
    let s = sim.finish();
    assert!(s.ejected_packets > 1000);
}

/// Control experiment: without SEEC, the same deadlock-prone configuration
/// wedges (validates that the test above is actually exercising recovery).
#[test]
fn without_seec_single_vc_adaptive_routing_deadlocks() {
    let cfg = adaptive_cfg(4, 1, 33);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.30, 4, 4, cfg.warmup, 33);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
    let mut wedged = false;
    for _ in 0..60 {
        sim.run(1000);
        if watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD) {
            wedged = true;
            break;
        }
    }
    assert!(
        wedged,
        "expected a deadlock without any mechanism; got {} delivered",
        sim.net.stats.ejected_packets
    );
    // And the wait-for graph confirms a true cyclic dependency.
    assert!(
        watchdog::find_deadlock_cycle(&sim.net).is_some(),
        "watchdog fired but no dependency cycle found"
    );
}

#[test]
fn mseec_delivers_with_multiple_concurrent_ff_packets() {
    let cfg = adaptive_cfg(4, 2, 55);
    let wl = SyntheticWorkload::new(TrafficPattern::Transpose, 0.25, 4, 4, cfg.warmup, 55);
    let mech = MSeecMechanism::for_net(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
    sim.run(30_000);
    let s = sim.finish();
    assert!(s.ejected_packets > 500, "only {}", s.ejected_packets);
    assert!(s.ff_packets > 0);
}

#[test]
fn mseec_keeps_single_vc_adaptive_routing_deadlock_free() {
    let cfg = adaptive_cfg(4, 1, 77);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.30, 4, 4, cfg.warmup, 77);
    let mech = MSeecMechanism::for_net(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
    for _ in 0..60 {
        sim.run(1000);
        assert!(
            !watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD),
            "network wedged at cycle {}",
            sim.net.cycle
        );
    }
    assert!(sim.net.stats.ejected_packets > 1000);
}

/// No FF packet ever misroutes: every delivered packet's hop count equals
/// the Manhattan distance between its endpoints (minimal traversal), which
/// we can check in aggregate because *all* routing here is minimal.
#[test]
fn seec_packets_route_minimally() {
    for mseec in [false, true] {
        let cfg = adaptive_cfg(4, 2, 91);
        let cols = cfg.cols;
        let wl = SyntheticWorkload::new(TrafficPattern::BitComplement, 0.04, 4, 4, cfg.warmup, 91);
        let mech = mechanism(&cfg, mseec);
        let mut sim = Sim::new(cfg, Box::new(wl), mech);
        sim.run(20_000);
        let s = sim.finish();
        // Bit complement on 4x4: src (x,y) → (3-x, 3-y); hops = |3-2x|+|3-2y|.
        let mut expect = 0.0;
        let mut n = 0;
        for x in 0..cols {
            for y in 0..cols {
                expect += ((3 - 2 * x as i32).abs() + (3 - 2 * y as i32).abs()) as f64;
                n += 1;
            }
        }
        expect /= n as f64;
        let got = s.avg_hops();
        assert!(
            (got - expect).abs() < 0.05,
            "mseec={mseec}: avg hops {got} vs minimal {expect} — something misrouted"
        );
    }
}

#[test]
fn seec_and_mseec_are_deterministic() {
    let run = |mseec: bool, seed: u64| {
        let cfg = adaptive_cfg(4, 2, seed);
        let wl =
            SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.15, 4, 4, cfg.warmup, seed);
        let mech = mechanism(&cfg, mseec);
        let mut sim = Sim::new(cfg, Box::new(wl), mech);
        sim.run(15_000);
        let s = sim.finish();
        (s.ejected_packets, s.sum_total_latency, s.ff_packets)
    };
    assert_eq!(run(false, 5), run(false, 5));
    assert_eq!(run(true, 5), run(true, 5));
}
