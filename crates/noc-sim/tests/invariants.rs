//! Full-system invariant runs (`--features check-invariants`).
//!
//! Seeded 8x8 meshes driven past saturation, with the end-of-cycle invariant
//! sweep on and strict mode enabled (custody-free mechanisms only): the runs
//! must finish with zero violations and *exact* flit conservation at drain.
#![cfg(feature = "check-invariants")]

use noc_sim::{NoMechanism, PacketFactory, Sim, Workload};
use noc_types::{BaseRouting, Cycle, MessageClass, NetConfig, NodeId, Packet, RoutingAlgo};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Open-loop Bernoulli source, stopping at `until` so the network can drain.
struct Bernoulli {
    rate: f64,
    until: Cycle,
    nodes: u16,
    cols: u8,
    transpose: bool,
    rng: SmallRng,
    factory: PacketFactory,
}

impl Bernoulli {
    fn new(cfg: &NetConfig, rate: f64, until: Cycle, transpose: bool, seed: u64) -> Bernoulli {
        Bernoulli {
            rate,
            until,
            nodes: cfg.num_nodes() as u16,
            cols: cfg.cols,
            transpose,
            rng: SmallRng::seed_from_u64(seed),
            factory: PacketFactory::new(),
        }
    }
}

impl Workload for Bernoulli {
    fn generate(&mut self, cycle: Cycle, inject: &mut dyn FnMut(NodeId, Packet)) {
        if cycle >= self.until {
            return;
        }
        for n in 0..self.nodes {
            if !self.rng.gen_bool(self.rate) {
                continue;
            }
            let dest = if self.transpose {
                let (x, y) = (n % self.cols as u16, n / self.cols as u16);
                y + x * self.cols as u16
            } else {
                self.rng.gen_range(0..self.nodes)
            };
            if dest == n {
                continue;
            }
            let p = self
                .factory
                .make(NodeId(n), NodeId(dest), MessageClass(0), 5, cycle, true);
            inject(NodeId(n), p);
        }
    }
}

const INJECT_CYCLES: Cycle = 1_000;

/// Runs `cfg` under the given pattern at `rate` for [`INJECT_CYCLES`],
/// drains, and asserts a clean invariant record plus exact conservation
/// (every injected flit consumed: no packet lost or stuck).
fn run_to_drain(cfg: NetConfig, rate: f64, transpose: bool, seed: u64) -> Sim {
    let inject_cycles = INJECT_CYCLES;
    let wl = Bernoulli::new(&cfg, rate, inject_cycles, transpose, seed);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
    sim.net.inv.strict = true;

    sim.run(inject_cycles);
    // Drain: sources are silent now; a certified-deadlock-free network must
    // clear its queues and buffers in bounded time.
    let mut drained = false;
    for _ in 0..40 {
        sim.run(5_000);
        let backlog: usize = sim.net.nics.iter().map(noc_sim::Nic::backlog).sum();
        let ejecting: usize = sim
            .net
            .nics
            .iter()
            .flat_map(|n| n.ejection.iter())
            .map(|e| e.buf.len())
            .sum();
        let flying: usize = sim.net.inbox_nic.iter().map(noc_sim::Inbox::len).sum();
        if backlog == 0
            && ejecting == 0
            && flying == 0
            && sim.net.flits_in_network() == 0
            && sim.net.nics.iter().all(|n| n.inj_active.is_none())
        {
            drained = true;
            break;
        }
    }
    assert!(drained, "network failed to drain after injection stopped");

    let inv = &sim.net.inv;
    inv.assert_clean();
    assert!(inv.sweeps > inject_cycles, "sweeps did not run every cycle");
    assert_eq!(
        inv.injected_flits, inv.consumed_flits,
        "flit conservation broken at drain"
    );
    sim
}

/// [`run_to_drain`] past saturation.
fn run_and_check(cfg: NetConfig, transpose: bool, seed: u64) {
    let sim = run_to_drain(cfg, 0.30, transpose, seed);
    assert!(
        sim.net.inv.injected_flits > 10_000,
        "run too light to be meaningful: {} flits",
        sim.net.inv.injected_flits
    );
}

fn mesh8(routing: RoutingAlgo) -> NetConfig {
    let mut cfg = NetConfig::synth(8, 4)
        .with_routing(routing)
        .with_seed(0x5EEC);
    cfg.warmup = 0;
    cfg
}

#[test]
fn xy_uniform_random_past_saturation_is_clean() {
    run_and_check(mesh8(RoutingAlgo::Uniform(BaseRouting::Xy)), false, 11);
}

#[test]
fn xy_transpose_past_saturation_is_clean() {
    run_and_check(mesh8(RoutingAlgo::Uniform(BaseRouting::Xy)), true, 12);
}

#[test]
fn escape_vc_uniform_random_past_saturation_is_clean() {
    run_and_check(
        mesh8(RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        }),
        false,
        13,
    );
}

#[test]
fn escape_vc_transpose_past_saturation_is_clean() {
    run_and_check(
        mesh8(RoutingAlgo::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        }),
        true,
        14,
    );
}

#[test]
fn wormhole_nic_injection_respects_flit_credits() {
    // VCs shallower than the 5-flit packets: the NIC, like every other
    // upstream, may only send into a local input VC with a free slot. The
    // occupancy sweep bounds every VC by its depth each cycle, and drained
    // conservation shows every packet still arrives.
    for depth in [1, 2, 4] {
        let cfg = mesh8(RoutingAlgo::Uniform(BaseRouting::Xy)).with_wormhole(depth);
        let sim = run_to_drain(cfg, 0.07, false, 15);
        let s = &sim.net.stats;
        assert!(s.generated_packets > 1_000, "run too light");
        assert_eq!(
            s.ejected_packets, s.generated_packets,
            "depth {depth}: packets lost"
        );
        assert!(sim.net.inv.clean_lanes_checked > 0);
    }
}

#[test]
fn checker_catches_seeded_corruption() {
    // Sanity: the sweep is not vacuous — corrupt a credit counter and the
    // checker must flag it.
    let cfg = mesh8(RoutingAlgo::Uniform(BaseRouting::Xy));
    let wl = Bernoulli::new(&cfg, 0.10, 50, false, 7);
    let mut sim = Sim::new(cfg, Box::new(wl), Box::new(NoMechanism));
    sim.run(30);
    sim.net.routers[0].outputs[noc_types::Direction::East.index()].inflight[0] += 7;
    sim.run(1);
    assert!(
        sim.net.inv.violation_count > 0,
        "corrupted inflight counter went undetected"
    );
}
