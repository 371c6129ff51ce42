//! §3.11: SEEC over wormhole buffer management — VCs shallower than the
//! largest packet, flit-granularity credits, and streaming FF upgrades.

use noc_sim::{watchdog, NoMechanism, Sim};
use noc_traffic::{PacketMix, SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, NetConfig, RoutingAlgo};
use seec::{MSeecMechanism, SeecMechanism};

fn wormhole_cfg(k: u8, vcs: u8, depth: u8, seed: u64) -> NetConfig {
    NetConfig::synth(k, vcs)
        .with_wormhole(depth)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
        .with_seed(seed)
}

#[test]
fn wormhole_network_delivers_multi_flit_packets() {
    // Depth-2 VCs, 5-flit packets: worms span routers.
    let cfg = wormhole_cfg(4, 2, 2, 11).with_routing(RoutingAlgo::Uniform(BaseRouting::Xy));
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.05, 4, 4, cfg.warmup, 11);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
    sim.run(20_000);
    let s = sim.finish();
    assert!(
        s.ejected_packets as f64 >= 0.95 * s.injected_packets as f64,
        "{} of {}",
        s.ejected_packets,
        s.injected_packets
    );
    // Latency must exceed the VCT equivalent only mildly at this load.
    assert!(s.avg_total_latency() < 40.0, "{}", s.avg_total_latency());
}

#[test]
fn wormhole_minimum_depth_one_works() {
    // The paper: "this approach will work even if the wormhole queue has the
    // minimum depth of 1-flit".
    let cfg = wormhole_cfg(4, 2, 1, 13).with_routing(RoutingAlgo::Uniform(BaseRouting::Xy));
    let wl = SyntheticWorkload::new(TrafficPattern::Transpose, 0.03, 4, 4, cfg.warmup, 13);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
    sim.run(20_000);
    let s = sim.finish();
    assert!(s.ejected_packets as f64 >= 0.9 * s.injected_packets as f64);
}

#[test]
fn seec_streams_ff_packets_under_wormhole() {
    let cfg = wormhole_cfg(4, 1, 2, 17);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.25, 4, 4, cfg.warmup, 17);
    let mech = SeecMechanism::for_net(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
    for _ in 0..40 {
        sim.run(1000);
        assert!(
            !watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD),
            "wormhole SEEC wedged at {}",
            sim.net.cycle
        );
    }
    let s = sim.finish();
    assert!(
        s.ejected_packets_all > 500,
        "only {}",
        s.ejected_packets_all
    );
    assert!(s.ff_packets > 0, "no streaming FF upgrades happened");
}

#[test]
fn seec_wormhole_rescues_long_packets_specifically() {
    // All packets are 5 flits with depth-1 VCs: every upgrade must stream,
    // under either schedule.
    for mseec in [false, true] {
        let cfg = wormhole_cfg(4, 1, 1, 19);
        let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.15, 4, 4, cfg.warmup, 19)
            .with_mix(PacketMix {
                short_len: 5,
                long_len: 5,
                long_prob: 1.0,
            });
        let mech: Box<dyn noc_sim::Mechanism> = if mseec {
            Box::new(MSeecMechanism::for_net(&cfg))
        } else {
            Box::new(SeecMechanism::for_net(&cfg))
        };
        let mut sim = Sim::new(cfg, Box::new(wl), mech);
        for _ in 0..40 {
            sim.run(1000);
            assert!(
                !watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD),
                "mseec={mseec}: wedged at {}",
                sim.net.cycle
            );
        }
        assert!(sim.net.stats.ff_packets > 0, "mseec={mseec}");
    }
}

#[test]
fn mseec_works_under_wormhole_too() {
    let cfg = wormhole_cfg(4, 1, 2, 23);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.25, 4, 4, cfg.warmup, 23);
    let mech = MSeecMechanism::for_net(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(mech));
    for _ in 0..40 {
        sim.run(1000);
        assert!(
            !watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD),
            "mSEEC wormhole wedged at {}",
            sim.net.cycle
        );
    }
    assert!(sim.net.stats.ff_packets > 0);
}

/// Without SEEC, the same wormhole configuration deadlocks (control).
#[test]
fn wormhole_without_mechanism_deadlocks() {
    let cfg = wormhole_cfg(4, 1, 2, 17);
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, 0.25, 4, 4, cfg.warmup, 17);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
    let mut wedged = false;
    for _ in 0..40 {
        sim.run(1000);
        if watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD) {
            wedged = true;
            break;
        }
    }
    assert!(wedged, "expected wormhole adaptive routing to deadlock");
}
