//! Golden pins for fault schedules that start from dead hardware and then
//! change it: the epoch trace (`Stats::epochs`, Debug-rendered), the
//! `chaos_*` counters and the final `state_digest()` of three fixed runs.
//! Recorded before the engine read its per-event dead set from the shared
//! fault timeline; never regenerate — a mismatch means a kill, a heal or a
//! drain-cut moved.

use noc_sim::network::Sim;
use noc_sim::workload::Workload;
use noc_sim::NoMechanism;
use noc_types::fault::fnv1a;
use noc_types::{
    BaseRouting, Direction, FaultAction, FaultConfig, FaultEvent, FaultSchedule, MessageClass,
    NetConfig, NodeId, Packet, PacketId, RecoveryConfig, RoutingAlgo,
};

/// What a run pins: FNV-1a of the Debug-rendered epoch trace; the counters
/// `(epochs, links killed, links healed, routers killed, routers healed,
/// purged flits)`; and the final engine state digest.
type Pin = (u64, [u64; 6], u64);

/// Every `period` cycles until `until`, each initially live node sends one
/// packet (alternately 1 and 5 flits) to a rotating live destination, so
/// traffic is in flight across every kill and heal.
struct Periodic {
    live: Vec<u16>,
    period: u64,
    until: u64,
    next_id: u64,
}

impl Workload for Periodic {
    fn generate(&mut self, cycle: u64, inject: &mut dyn FnMut(NodeId, Packet)) {
        if cycle >= self.until || !cycle.is_multiple_of(self.period) {
            return;
        }
        let round = (cycle / self.period) as usize;
        for (k, &src) in self.live.iter().enumerate() {
            let dest = self.live[(k + round * 3 + 1) % self.live.len()];
            if dest == src {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            inject(
                NodeId(src),
                Packet {
                    id: PacketId(id),
                    src: NodeId(src),
                    dest: NodeId(dest),
                    class: MessageClass(0),
                    len_flits: if id.is_multiple_of(2) { 1 } else { 5 },
                    birth: cycle,
                    measured: true,
                },
            );
        }
    }
}

fn run(fault: FaultConfig) -> Pin {
    let mut cfg = NetConfig::synth(4, 2)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
        .with_seed(5)
        .with_recovery(RecoveryConfig::drain().with_e2e(500, 100))
        .with_fault(fault);
    cfg.warmup = 0;
    let live = (0..16)
        .filter(|&i| !cfg.fault.dead_routers.contains(&NodeId(i)))
        .collect();
    let workload = Periodic {
        live,
        period: 20,
        until: 2_000,
        next_id: 0,
    };
    let mut sim = Sim::new(cfg, Box::new(workload), Box::new(NoMechanism));
    sim.run(6_000);
    let st = &sim.net.stats;
    (
        fnv1a(format!("{:?}", st.epochs).as_bytes()),
        [
            st.chaos_epochs,
            st.chaos_links_killed,
            st.chaos_links_healed,
            st.chaos_routers_killed,
            st.chaos_routers_healed,
            st.chaos_purged_flits,
        ],
        sim.net.state_digest(),
    )
}

fn router_flap(node: u16, kill: u64, heal: u64) -> FaultSchedule {
    FaultSchedule::new(vec![
        FaultEvent {
            at: kill,
            action: FaultAction::KillRouter(NodeId(node)),
        },
        FaultEvent {
            at: heal,
            action: FaultAction::HealRouter(NodeId(node)),
        },
    ])
}

#[test]
fn dead_link_beside_a_router_flap_is_pinned() {
    // (5, East) is dead on its own account; router 5 dies and heals around
    // it, and the link stays dead throughout.
    let got = run(FaultConfig::default()
        .with_dead_links(vec![(NodeId(5), Direction::East)])
        .with_schedule(router_flap(5, 300, 1_500)));
    assert_eq!(
        got,
        (
            0xade6_383e_9a12_be2c,
            [2, 0, 0, 1, 1, 257],
            0xfac8_f2a5_fa95_3db2
        )
    );
}

#[test]
fn same_cycle_brownout_over_dead_hardware_is_pinned() {
    let got = run(FaultConfig::default()
        .with_dead_links(vec![(NodeId(1), Direction::South)])
        .with_dead_routers(vec![NodeId(15)])
        .with_schedule(FaultSchedule::brownout(
            &[(NodeId(5), Direction::East), (NodeId(6), Direction::South)],
            200,
            600,
        )));
    assert_eq!(
        got,
        (
            0x1701_c934_8cef_8f0f,
            [4, 2, 2, 0, 0, 0],
            0x2e98_fe2d_6e5d_456b
        )
    );
}

#[test]
fn router_flap_beside_a_dead_router_is_pinned() {
    // Router 5 is dead from the start; router 6 dies and heals beside it,
    // and the link between them stays dead throughout.
    let got = run(FaultConfig::default()
        .with_dead_routers(vec![NodeId(5)])
        .with_schedule(router_flap(6, 300, 1_500)));
    assert_eq!(
        got,
        (
            0x8056_d9d6_f53a_104d,
            [2, 0, 0, 1, 1, 283],
            0xd531_45a4_33bf_4f09
        )
    );
}
