//! SEEC and mSEEC replay cycle-for-cycle.
//!
//! Every row below was recorded at commit 1b7f50d, when `seec.rs` and
//! `mseec.rs` were two hand-written controllers. Each pins the engine's
//! `state_digest()` and the Free-Flow counters after a run long enough
//! to cross both footnote-2 windows (start of run and cycle 10,000) with
//! packets waiting in the injection queues, so the seeker walk, the queue
//! search, the dead-link gate and both express paths (batch and stream) are
//! all inside the fingerprint. Never regenerate these from newer code.

use noc_sim::{Mechanism, Sim};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::{BaseRouting, Direction, FaultConfig, NetConfig, NodeId, RoutingAlgo};
use seec::{MSeecMechanism, SeecMechanism};

const CYCLES: u64 = 12_500;

/// Uniform-random past the knee on a `k`x`k` adaptive-minimal mesh.
fn run(k: u8, mseec: bool, wormhole: bool, dead_link: bool) -> String {
    // (VCs, rate, the link to kill): saturating for both mesh sizes.
    let (vcs, rate, dead) = if k == 4 {
        (1, 0.30, NodeId(5))
    } else {
        (2, 0.18, NodeId(27))
    };
    let mut cfg = NetConfig::synth(k, vcs)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
        .with_seed(0x5EEC);
    if wormhole {
        cfg = cfg.with_wormhole(2);
    }
    if dead_link {
        cfg = cfg.with_fault(FaultConfig::default().with_dead_links(vec![(dead, Direction::East)]));
    }
    let wl = SyntheticWorkload::new(TrafficPattern::UniformRandom, rate, k, k, cfg.warmup, 7);
    let mech: Box<dyn Mechanism> = if mseec {
        Box::new(MSeecMechanism::for_net(&cfg))
    } else {
        Box::new(SeecMechanism::for_net(&cfg))
    };
    let mut sim = Sim::new(cfg, Box::new(wl), mech);
    sim.run(CYCLES);
    let queued: usize = sim
        .net
        .nics
        .iter()
        .flat_map(|n| n.inj_queues.iter())
        .map(std::collections::VecDeque::len)
        .sum();
    assert!(queued > 0, "injection queues drained: not past the knee");
    let s = &sim.net.stats;
    format!(
        "{}x{} {} {} {}: digest={:#018x} ff={} ff_all={} sideband={} lookahead={}",
        k,
        k,
        if mseec { "mseec" } else { "seec" },
        if wormhole { "wormhole2" } else { "vct" },
        if dead_link { "dead-link" } else { "healthy" },
        sim.net.state_digest(),
        s.ff_packets,
        s.ff_packets_all,
        s.sideband_hops,
        s.lookahead_hops
    )
}

const RECORDED: [&str; 16] = [
    "4x4 seec vct healthy: digest=0x1ed7b279e7637ad4 ff=276 ff_all=519 sideband=8722 lookahead=1604",
    "4x4 seec vct dead-link: digest=0xf1f1d986263f3993 ff=9 ff_all=486 sideband=8874 lookahead=1578",
    "4x4 seec wormhole2 healthy: digest=0x5ab4b17ac9a8d6cb ff=192 ff_all=418 sideband=9191 lookahead=1276",
    "4x4 seec wormhole2 dead-link: digest=0xb08c8a2b032feb1b ff=48 ff_all=404 sideband=9259 lookahead=1254",
    "4x4 mseec vct healthy: digest=0x0ce88e4f70c3a46e ff=1352 ff_all=1735 sideband=23993 lookahead=5028",
    "4x4 mseec vct dead-link: digest=0x55214198b236ffe4 ff=937 ff_all=1585 sideband=25865 lookahead=4560",
    "4x4 mseec wormhole2 healthy: digest=0xa019c60f5ed24319 ff=1085 ff_all=1515 sideband=24773 lookahead=4103",
    "4x4 mseec wormhole2 dead-link: digest=0x06cfe5beaedc2bf3 ff=760 ff_all=1369 sideband=26553 lookahead=3756",
    "8x8 seec vct healthy: digest=0x0ee7dccbb4522cec ff=0 ff_all=216 sideband=10273 lookahead=1264",
    "8x8 seec vct dead-link: digest=0x03c2a3559fc93186 ff=1 ff_all=212 sideband=10298 lookahead=1275",
    "8x8 seec wormhole2 healthy: digest=0x44124392bc9e1897 ff=1 ff_all=188 sideband=10593 lookahead=998",
    "8x8 seec wormhole2 dead-link: digest=0x355baee3d566a971 ff=0 ff_all=172 sideband=10748 lookahead=935",
    "8x8 mseec vct healthy: digest=0x0b00e8b1c1b8dfee ff=40 ff_all=2635 sideband=39841 lookahead=12950",
    "8x8 mseec vct dead-link: digest=0x74a752f96c24b8a2 ff=23 ff_all=2344 sideband=42975 lookahead=11977",
    "8x8 mseec wormhole2 healthy: digest=0xc9855940f24ec94e ff=56 ff_all=1690 sideband=52632 lookahead=8208",
    "8x8 mseec wormhole2 dead-link: digest=0x72e338d0b56bbb08 ff=43 ff_all=1613 sideband=53945 lookahead=7815",
];

#[test]
fn recorded_runs_replay() {
    let mut rows = Vec::new();
    for k in [4, 8] {
        for mseec in [false, true] {
            for wormhole in [false, true] {
                for dead_link in [false, true] {
                    rows.push(run(k, mseec, wormhole, dead_link));
                }
            }
        }
    }
    assert_eq!(rows, RECORDED, "replayed rows:\n{}", rows.join("\n"));
}
