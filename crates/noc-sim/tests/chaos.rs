//! Chaos harness: end-to-end validation of dynamic fault schedules and epoch
//! reconfiguration (`noc_sim::chaos`).
//!
//! Every test drives a [`noc_types::FaultSchedule`] against a live network
//! and asserts the reconfiguration contract: kills drain-cut (no packet is
//! ever truncated mid-worm), heals restore service (the healed link is
//! actually *reused*), the epoch trace records every event, and the
//! end-to-end delivery guarantees survive — exactly-once with recovery
//! armed, loss only through the accounted stranded purge without it.

use noc_sim::fault::{DeadSet, RouteMask};
use noc_sim::network::Sim;
use noc_sim::stats::DeliveredPacket;
use noc_sim::workload::Workload;
use noc_sim::NoMechanism;
use noc_types::{
    BaseRouting, Coord, Cycle, Direction, FaultAction, FaultConfig, FaultEvent, FaultSchedule,
    MessageClass, NetConfig, NodeId, Packet, PacketId, RecoveryConfig, RoutingAlgo,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Collects every delivery.
struct Collect(Rc<RefCell<Vec<DeliveredPacket>>>);
impl Workload for Collect {
    fn generate(&mut self, _c: Cycle, _i: &mut dyn FnMut(NodeId, Packet)) {}
    fn deliver(&mut self, _c: Cycle, p: &DeliveredPacket) -> bool {
        self.0.borrow_mut().push(*p);
        true
    }
}

fn packet(id: u64, src: u16, dest: u16, len: u8) -> Packet {
    Packet {
        id: PacketId(id),
        src: NodeId(src),
        dest: NodeId(dest),
        class: MessageClass(0),
        len_flits: len,
        birth: 0,
        measured: true,
    }
}

/// A deterministic all-to-some population: every node sends `per_node`
/// packets, alternating 1- and 5-flit, to spread-out destinations.
fn population(nodes: u16, per_node: u64) -> Vec<Packet> {
    let mut pkts = Vec::new();
    let mut id = 0u64;
    for src in 0..nodes {
        for k in 0..per_node {
            let dest = (src + 1 + (k as u16 * 5) % (nodes - 1)) % nodes;
            let len = if (src as u64 + k).is_multiple_of(2) {
                1
            } else {
                5
            };
            pkts.push(packet(id, src, dest, len));
            id += 1;
        }
    }
    pkts
}

/// Asserts the exactly-once contract: the delivered multiset of packet ids
/// equals the injected set.
fn assert_exactly_once(pkts: &[Packet], got: &[DeliveredPacket]) {
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for d in got {
        *counts.entry(d.id.0).or_insert(0) += 1;
    }
    for p in pkts {
        match counts.get(&p.id.0) {
            Some(1) => {}
            Some(n) => panic!("packet {} delivered {n} times", p.id.0),
            None => panic!("packet {} lost", p.id.0),
        }
    }
    assert_eq!(got.len(), pkts.len(), "spurious deliveries");
}

fn adaptive_cfg() -> NetConfig {
    let mut cfg = NetConfig::synth(4, 2)
        .with_routing(RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal))
        .with_seed(7);
    cfg.warmup = 0;
    cfg
}

fn new_sim(cfg: NetConfig) -> (Rc<RefCell<Vec<DeliveredPacket>>>, Sim) {
    let got = Rc::new(RefCell::new(Vec::new()));
    let sim = Sim::new(cfg, Box::new(Collect(got.clone())), Box::new(NoMechanism));
    (got, sim)
}

// --- RouteMask under multiple simultaneous dead links (satellite) ---------

#[test]
fn route_mask_reroutes_around_multiple_simultaneous_dead_links() {
    // Three of the four east links of column 1 die at once: a near-wall with
    // one surviving gap in row 3. BFS must still connect every pair, and
    // every eastbound route through the dead rows must detour via the gap.
    let east_links_dead = |nodes: &[u16]| {
        let links = nodes
            .iter()
            .map(|&n| (NodeId(n), Direction::East))
            .collect();
        DeadSet::resolve(4, 4, &FaultConfig::default().with_dead_links(links))
    };
    let dead = east_links_dead(&[1, 5, 9]);
    let mask = RouteMask::build(4, 4, &dead).expect("gap in row 3 keeps the mesh connected");
    assert!(mask.fully_routable(&dead));
    // From (1,0) to (2,0) the direct east hop is gone: only a detour toward
    // the surviving row-3 crossing may be offered.
    let bits = mask.allowed(Coord::new(1, 0), Coord::new(2, 0));
    assert_ne!(bits, 0, "pair disconnected despite surviving gap");
    assert_eq!(
        bits & (1 << Direction::East.index()),
        0,
        "mask offers the dead east link"
    );
    // Sealing the gap partitions the mesh: full build refuses, the partial
    // build degrades per-pair.
    let dead = east_links_dead(&[1, 5, 9, 13]);
    assert!(RouteMask::build(4, 4, &dead).is_err());
    let partial = RouteMask::build_partial(4, 4, &dead);
    assert!(!partial.fully_routable(&dead));
    // Across the wall: nothing. Within the west side: still routable.
    assert_eq!(partial.allowed(Coord::new(0, 0), Coord::new(3, 0)), 0);
    assert_ne!(partial.allowed(Coord::new(0, 0), Coord::new(1, 3)), 0);
}

// --- Heal restores a severed path; the healed link is reused (satellite) --

#[test]
fn heal_restores_severed_path_and_the_healed_link_is_reused() {
    // Row-1 traffic 4 -> 7 is forced over links 4E, 5E, 6E by minimal
    // routing. Kill 5E mid-run (traffic detours), heal it, then verify new
    // traffic crosses the healed link again: `link_use_at(5, East)` must
    // grow after the heal.
    let cfg = adaptive_cfg().with_fault(FaultConfig::default().with_schedule(
        FaultSchedule::link_flap(NodeId(5), Direction::East, 200, 1200),
    ));
    let (got, mut sim) = new_sim(cfg);
    #[cfg(feature = "check-invariants")]
    {
        sim.net.inv.strict = true;
    }
    let batch_a: Vec<Packet> = (0..10).map(|k| packet(k, 4, 7, 5)).collect();
    for p in &batch_a {
        sim.net.nics[p.src.idx()].enqueue(*p);
    }
    sim.run(1_100); // kill applied at 200; heal (at 1200) not yet
    let used_at_kill = sim
        .net
        .stats
        .link_use_at(NodeId(5), Direction::East.index());
    assert_eq!(
        sim.net.stats.epochs.len(),
        1,
        "kill epoch missing before the heal fires"
    );
    assert!(
        sim.net.stats.epochs[0].cut_done_at.is_some(),
        "link never drained to its cut"
    );

    // Inject the second wave only once the heal has taken effect, so its
    // minimal row-1 path is live again and must be taken.
    sim.run(200);
    let batch_b: Vec<Packet> = (100..110).map(|k| packet(k, 4, 7, 5)).collect();
    for p in &batch_b {
        sim.net.nics[p.src.idx()].enqueue(*p);
    }
    sim.run(2_000);
    let used_after_heal = sim
        .net
        .stats
        .link_use_at(NodeId(5), Direction::East.index());

    let all: Vec<Packet> = batch_a.iter().chain(batch_b.iter()).copied().collect();
    assert_exactly_once(&all, &got.borrow());
    assert!(
        used_after_heal > used_at_kill,
        "healed link 5-East was never reused ({used_at_kill} -> {used_after_heal})"
    );
    let st = &sim.net.stats;
    assert_eq!((st.chaos_links_killed, st.chaos_links_healed), (1, 1));
    assert_eq!(st.epochs.len(), 2);
    assert!(st.epochs[0].action.contains(":kl:"));
    assert!(st.epochs[1].action.contains(":hl:"));
    // One link kill never partitions a 4x4 mesh.
    assert!(st.epochs.iter().all(|e| e.routable));
    assert!(sim
        .net
        .fault
        .as_ref()
        .and_then(|f| f.chaos.as_ref())
        .is_some_and(|c| c.settled()));
    #[cfg(feature = "check-invariants")]
    sim.net.inv.assert_clean();
}

// --- Acceptance: kill+heal flap on an escape-path link -------------------

#[test]
fn escape_path_flap_delivers_exactly_once_with_full_epoch_trace() {
    // Duato escape VCs restrict the escape layer to west-first routing;
    // killing 5-East severs a west-first-critical link mid-run. Exactly-once
    // must survive the flap (wedged escape residents fall to the armed
    // recovery layer), and the epoch trace must record both events.
    let run = || {
        let mut cfg = NetConfig::synth(4, 2)
            .with_routing(RoutingAlgo::EscapeVc {
                normal: BaseRouting::AdaptiveMinimal,
            })
            .with_seed(21)
            .with_recovery(RecoveryConfig::drain().with_e2e(800, 20))
            .with_fault(
                FaultConfig::default().with_schedule(FaultSchedule::link_flap(
                    NodeId(5),
                    Direction::East,
                    300,
                    1_500,
                )),
            );
        cfg.warmup = 0;
        let pkts = population(16, 4);
        let (got, mut sim) = new_sim(cfg);
        for p in &pkts {
            sim.net.nics[p.src.idx()].enqueue(*p);
        }
        sim.run(12_000);
        assert_exactly_once(&pkts, &got.borrow());
        let trace: Vec<(Cycle, String, bool, bool)> = sim
            .net
            .stats
            .epochs
            .iter()
            .map(|e| (e.cycle, e.action.clone(), e.routable, e.escape_ok))
            .collect();
        assert_eq!(trace.len(), 2, "flap must open exactly two epochs");
        assert_eq!(trace[0].0, 300);
        assert_eq!(trace[1].0, 1_500);
        assert!(trace[0].1.contains(":kl:") && trace[1].1.contains(":hl:"));
        assert!(trace[1].3, "escape layer still severed after the heal");
        assert!(
            sim.net.stats.epochs[0].cut_done_at.is_some(),
            "kill never completed its drain-cut"
        );
        assert_eq!(sim.net.stats.e2e_abandoned, 0);
        let deliveries: Vec<(u64, Cycle)> =
            got.borrow().iter().map(|d| (d.id.0, d.eject)).collect();
        (deliveries, trace)
    };
    // Chaos runs replay bit-identically from the config.
    assert_eq!(run(), run());
}

// --- Router flap: graceful drain, purge accounting, e2e re-delivery ------

#[test]
fn router_flap_purges_marooned_traffic_and_e2e_redelivers_after_heal() {
    let mut cfg = adaptive_cfg()
        .with_recovery(RecoveryConfig::drain().with_e2e(500, 100))
        .with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::new(vec![
                FaultEvent {
                    at: 400,
                    action: FaultAction::KillRouter(NodeId(5)),
                },
                FaultEvent {
                    at: 3_000,
                    action: FaultAction::HealRouter(NodeId(5)),
                },
            ])),
        );
    cfg.warmup = 0;
    let (got, mut sim) = new_sim(cfg);
    let base = population(16, 2);
    for p in &base {
        sim.net.nics[p.src.idx()].enqueue(*p);
    }
    sim.run(600); // router 5 is down now
                  // Traffic aimed straight at (and sourced from) the dead router.
    let wave: Vec<Packet> = (1_000..1_006)
        .map(|k| packet(k, (k % 4) as u16, 5, 5))
        .chain((2_000..2_004).map(|k| packet(k, 5, (k % 16) as u16, 1)))
        .collect();
    for p in &wave {
        sim.net.nics[p.src.idx()].enqueue(*p);
    }
    sim.run(30_000);

    let all: Vec<Packet> = base.iter().chain(wave.iter()).copied().collect();
    assert_exactly_once(&all, &got.borrow());
    let st = &sim.net.stats;
    assert_eq!((st.chaos_routers_killed, st.chaos_routers_healed), (1, 1));
    assert_eq!(st.epochs.len(), 2);
    // `routable` quantifies over *live* pairs (dead-router endpoints are
    // excluded by definition), so a single dead router keeps it true; the
    // stranded purge is driven by the router-down flag instead.
    assert!(st.epochs.iter().all(|e| e.routable));
    assert!(
        st.chaos_purged_flits > 0,
        "nothing was purged at the dead router despite targeted traffic"
    );
    assert!(
        st.e2e_retransmits > 0,
        "purged packets were never re-sent end-to-end"
    );
    assert_eq!(st.e2e_abandoned, 0, "packet abandoned despite the heal");
}

// --- Property: exactly-once under corruption + flap, across seeds --------

#[test]
fn exactly_once_survives_transient_corruption_plus_mid_run_flap() {
    // Link-layer corruption (go-back-N retransmission) and a kill/heal flap
    // train on the same link, together, across seeds. The heal resets the
    // link's sequence space (generation-stamped), so stale wire events from
    // before each kill must be inert — any protocol leak shows up as loss or
    // duplication here.
    for seed in 1u64..=5 {
        let mut cfg = adaptive_cfg()
            .with_seed(seed)
            .with_recovery(RecoveryConfig::drain().with_e2e(900, 30));
        cfg.warmup = 0;
        let cfg = cfg.with_fault(
            FaultConfig::transient(0.05)
                .with_fault_seed(seed)
                .with_schedule(FaultSchedule::flap_train(
                    NodeId(5),
                    Direction::East,
                    250,
                    450,
                    350,
                    2,
                )),
        );
        let pkts = population(16, 5);
        let (got, mut sim) = new_sim(cfg);
        for p in &pkts {
            sim.net.nics[p.src.idx()].enqueue(*p);
        }
        sim.run(20_000);
        assert_exactly_once(&pkts, &got.borrow());
        let st = &sim.net.stats;
        assert!(
            st.corrupted_flits > 0,
            "seed {seed}: no corruption ever drawn"
        );
        assert_eq!(
            (st.chaos_links_killed, st.chaos_links_healed),
            (2, 2),
            "seed {seed}: flap train misapplied"
        );
        assert_eq!(st.epochs.len(), 4);
        assert_eq!(st.e2e_abandoned, 0);
    }
}

// --- Schedules fold into determinism like every other config ------------

#[test]
fn scheduled_runs_are_reproducible_and_schedule_free_runs_untouched() {
    // A config without a schedule must not even allocate chaos state.
    let (_, sim) = new_sim(adaptive_cfg().with_fault(FaultConfig::transient(0.02)));
    assert!(sim
        .net
        .fault
        .as_ref()
        .is_some_and(|f| f.chaos.is_none() && f.mask.is_none()));

    // With a schedule the partial mask exists from cycle 0 and the epoch
    // counters replay identically.
    let run = || {
        let cfg = adaptive_cfg().with_fault(FaultConfig::default().with_schedule(
            FaultSchedule::brownout(
                &[(NodeId(5), Direction::East), (NodeId(9), Direction::East)],
                200,
                600,
            ),
        ));
        let pkts = population(16, 3);
        let (got, mut sim) = new_sim(cfg);
        assert!(sim.net.fault.as_ref().is_some_and(|f| f.mask.is_some()));
        for p in &pkts {
            sim.net.nics[p.src.idx()].enqueue(*p);
        }
        sim.run(8_000);
        assert_exactly_once(&pkts, &got.borrow());
        // Brownout: both kills share cycle 200, both heals share cycle 800,
        // and every epoch leaves the mesh routable (two east links of a 4x4
        // never partition it).
        let st = &sim.net.stats;
        assert_eq!(st.epochs.len(), 4);
        assert!(st.epochs.iter().all(|e| e.routable && e.escape_ok));
        assert_eq!(st.chaos_epochs, 4);
        let deliveries: Vec<(u64, Cycle)> =
            got.borrow().iter().map(|d| (d.id.0, d.eject)).collect();
        deliveries
    };
    assert_eq!(run(), run());
}
