//! Dynamic fault schedules: epoch reconfiguration of a running network.
//!
//! The static fault layer (`crate::fault`) freezes its dead set at
//! construction. This module executes a [`noc_types::FaultSchedule`] — a
//! validated timeline of link/router kill and heal events — against a *live*
//! network, reconfiguring it at every event ("epoch"):
//!
//! * **Kill link** — the link disappears from the routing mask immediately
//!   (no new VC claims target it; `refresh_one_downfree` reports its VCs
//!   un-free while the dead flag is up), but the wiring is severed only once
//!   the link is *quiet*: all claimed worms finished streaming, all credits
//!   returned, and — under link-layer retransmission — both windows empty.
//!   This drain-cut discipline means a kill never truncates a packet
//!   mid-worm; the cost is that the physical cut trails the logical one by
//!   the drain time (recorded per epoch as
//!   [`EpochRecord::cut_done_at`](crate::stats::EpochRecord)).
//! * **Heal link** — wiring is restored from geometry on both sides, the
//!   retransmission state of the link is reset to a fresh sequence space
//!   (generation-stamped so wire events from before the heal are inert), and
//!   the mask is rebuilt so traffic starts using the link again.
//! * **Kill router** — the router's links go down (drain-cut each), its NIC
//!   stops picking new packets and stops consuming, and the per-cycle purge
//!   removes what ends up marooned there: fully-buffered packets that can no
//!   longer route, and complete packets in ejection VCs no one will consume.
//!   Switch allocation keeps running at a dead router so in-flight worms
//!   finish (graceful drain, not instant power-off).
//! * **Heal router** — the router and every link of it that is not
//!   independently down (and whose far endpoint is alive) come back.
//!
//! What each event leaves dead is not decided here: it is the epoch's dead
//! set from `FaultConfig::epochs`, the walk the validator and the certifier
//! read too. Applying an event diffs the live dead set against it — newly
//! dead links are drain-cut, newly live links revived.
//!
//! After every event the mask is rebuilt *partially*
//! ([`RouteMask::build_partial`]): a mid-run kill may legitimately
//! disconnect pairs. While any pair is disconnected (or any router is dead)
//! the **stranded purge** runs each cycle: fully-buffered, unrouted packets
//! whose source→destination pair has no surviving path are lifted out of
//! their VCs and dropped, counted in `Stats::chaos_purged_flits`. The
//! end-to-end retransmission layer (when armed) re-sends them once their
//! delivery timeout fires — or counts them abandoned — so "purge" is a
//! drop at the network layer, not at the protocol layer. Flit conservation
//! under `check-invariants` accounts purged flits explicitly.
//!
//! Determinism: events fire at fixed cycles, scans run in fixed node order,
//! and nothing here touches any RNG — chaos runs are bit-identical across
//! `NOC_THREADS` settings like every other run.

use crate::fault::{DeadSet, RouteMask};
use crate::network::Network;
use noc_types::{Direction, Epoch, FaultAction, NodeId};

/// A kill whose wiring cut is still waiting for the link to drain.
#[derive(Clone, Copy, Debug)]
struct PendingCut {
    /// The link, named once from its west/north endpoint.
    node: usize,
    dir: Direction,
    /// Index into `Stats::epochs` of the event that requested the cut.
    epoch: usize,
}

/// Runtime state of a fault schedule, hung off
/// [`FaultLayer::chaos`](crate::fault::FaultLayer) when the config carries
/// one.
pub struct ChaosState {
    /// The validated timeline: every event with the hardware dead after it
    /// (`FaultConfig::epochs`).
    epochs: Vec<Epoch>,
    /// Next epoch to open.
    next_event: usize,
    /// Kills still draining toward their cut.
    pending: Vec<PendingCut>,
    /// True while some live pair is unroutable or some router is down — the
    /// per-cycle stranded purge runs only then.
    scan_stranded: bool,
    cols: u8,
    rows: u8,
}

impl ChaosState {
    /// Builds the schedule runtime over the timeline of a `cols`×`rows`
    /// mesh (initially dead hardware is already cut by `Network::new`).
    pub fn new(epochs: Vec<Epoch>, cols: u8, rows: u8) -> ChaosState {
        ChaosState {
            epochs,
            next_event: 0,
            pending: Vec::new(),
            scan_stranded: false,
            cols,
            rows,
        }
    }

    /// Whether the schedule has been fully applied and every pending cut has
    /// completed (soak-harness stopping condition).
    pub fn settled(&self) -> bool {
        self.next_event >= self.epochs.len() && self.pending.is_empty()
    }

    /// Events applied so far.
    pub fn events_applied(&self) -> usize {
        self.next_event
    }
}

/// The per-cycle chaos hook, called at the top of
/// [`Sim::step`](crate::Sim::step) before delivery. Applies every schedule
/// event due at the current cycle, advances pending drain-cuts, and runs the
/// stranded purge while the mesh is partitioned or a router is down. The
/// state is taken out of the network for the duration (same borrow pattern
/// as `recovery::tick`).
pub fn tick(net: &mut Network) {
    let Some(fl) = &mut net.fault else {
        return;
    };
    // A settled schedule with no stranded scan pending has no per-cycle
    // work left: skip the take/put churn, and guarantee structurally that
    // the epoch trace can never grow after the last event.
    if fl
        .chaos
        .as_ref()
        .is_some_and(|c| c.settled() && !c.scan_stranded)
    {
        return;
    }
    let Some(mut chaos) = fl.chaos.take() else {
        return;
    };
    let now = net.cycle;
    let mut batch = 0usize;
    while chaos
        .epochs
        .get(chaos.next_event)
        .is_some_and(|e| e.event.at <= now)
    {
        let record = net.stats.epochs.len() + batch;
        apply_event(&mut chaos, net, record);
        chaos.next_event += 1;
        batch += 1;
    }
    if batch > 0 {
        rebuild(&mut chaos, net, batch);
    }
    advance_cuts(&mut chaos, net);
    if chaos.scan_stranded {
        purge_stranded(net);
    }
    if let Some(fl) = &mut net.fault {
        fl.chaos = Some(chaos);
    }
}

/// Opens the next epoch: the live dead set becomes the epoch's, every link
/// that is newly dead gets a drain-cut and every link that is newly live is
/// revived (mask rebuild and epoch recording happen once per batch in
/// `rebuild`; `record` is the `Stats::epochs` index this event's record will
/// occupy).
fn apply_event(chaos: &mut ChaosState, net: &mut Network, record: usize) {
    let (cols, rows) = (chaos.cols, chaos.rows);
    let epoch = &chaos.epochs[chaos.next_event];
    let st = &mut net.stats;
    *match epoch.event.action {
        FaultAction::KillLink(..) => &mut st.chaos_links_killed,
        FaultAction::HealLink(..) => &mut st.chaos_links_healed,
        FaultAction::KillRouter(_) => &mut st.chaos_routers_killed,
        FaultAction::HealRouter(_) => &mut st.chaos_routers_healed,
    } += 1;
    let fl = net
        .fault
        .as_mut()
        .expect("chaos ticks only with a fault layer");
    let was = std::mem::replace(&mut fl.dead, DeadSet::resolve(cols, rows, &epoch.dead));
    let (before, after) = (
        was.dead_link_list(cols, rows),
        fl.dead.dead_link_list(cols, rows),
    );
    for &(node, dir) in after.iter().filter(|l| !before.contains(l)) {
        chaos.pending.push(PendingCut {
            node: node.idx(),
            dir,
            epoch: record,
        });
    }
    for &(node, dir) in before.iter().filter(|l| !after.contains(l)) {
        revive_link(chaos, net, node.idx(), dir);
    }
}

/// Brings the physical link `(node, d)` back into service: cancels a pending
/// cut, or — when the wiring was actually severed — restores it from
/// geometry on both sides and resets the link-layer retransmission state to
/// a fresh, generation-bumped sequence space.
fn revive_link(chaos: &mut ChaosState, net: &mut Network, node: usize, d: Direction) {
    chaos.pending.retain(|p| (p.node, p.dir) != (node, d));
    if net.routers[node].outputs[d.index()].neighbor.is_some() {
        return; // never severed: the wiring (and protocol state) is intact
    }
    let peer = d
        .step(
            NodeId(node as u16).to_coord(chaos.cols),
            chaos.cols,
            chaos.rows,
        )
        .expect("validated schedules never heal off-mesh links")
        .to_node(chaos.cols);
    net.routers[node].outputs[d.index()].neighbor = Some(peer);
    net.routers[peer.idx()].outputs[d.opposite().index()].neighbor = Some(NodeId(node as u16));
    if let Some(rt) = net.fault.as_mut().and_then(|f| f.retrans.as_mut()) {
        rt.reset_link(node, d);
    }
    net.credit_touch(node);
    net.credit_touch(peer.idx());
}

/// Post-event reconfiguration: rebuild the routing mask (partially — kills
/// may disconnect pairs), re-check the escape layer, drop stale sticky port
/// choices, refresh credit snapshots, and append the epoch records.
fn rebuild(chaos: &mut ChaosState, net: &mut Network, batch: usize) {
    let now = net.cycle;
    let (cols, rows) = (chaos.cols, chaos.rows);
    let fl = net.fault.as_mut().expect("fault layer present");
    let mask = RouteMask::build_partial(cols, rows, &fl.dead);
    let routable = mask.fully_routable(&fl.dead);
    // Re-arm the escape layer: the west-first mask either rebuilds cleanly
    // on the degraded mesh or the escape layer is (for now) severed and
    // escape-resident packets fall to the recovery layer if they wedge.
    let escape_ok =
        !net.cfg.routing.has_escape() || RouteMask::build_west_first(cols, rows, &fl.dead).is_ok();
    fl.mask = Some(mask);
    let last = &chaos.epochs[chaos.next_event - 1];
    chaos.scan_stranded = !routable || !last.dead.dead_routers.is_empty();
    // Sticky (non-adaptive) port choices were computed against the old
    // topology; clear them so waiting heads re-route under the new mask.
    // Allocated routes (claims held) are left alone — claimed worms drain.
    for r in &mut net.routers {
        for port in &mut r.inputs {
            for vc in &mut port.vcs {
                if vc.route.is_none() {
                    vc.pending_port = None;
                }
            }
        }
    }
    net.credit_mark_all();
    // One epoch record per event applied this cycle (same-cycle events
    // share the rebuild; each gets its own trace row).
    for e in &chaos.epochs[chaos.next_event - batch..chaos.next_event] {
        net.stats.epochs.push(crate::stats::EpochRecord {
            cycle: now,
            action: e.key.clone(),
            routable,
            escape_ok,
            purged_flits: 0,
            cut_done_at: None,
            recert: None,
        });
    }
    net.stats.chaos_epochs += batch as u64;
}

/// Severs the wiring of every pending kill whose link has gone quiet: no
/// claims, no in-flight credits, empty retransmission windows — both
/// directions. Quiet-before-cut keeps the upstream credit-return lookup in
/// `deliver_arrivals` sound (it resolves the upstream router through the
/// receiver's own wiring).
fn advance_cuts(chaos: &mut ChaosState, net: &mut Network) {
    if chaos.pending.is_empty() {
        return;
    }
    let now = net.cycle;
    let (cols, rows) = (chaos.cols, chaos.rows);
    let mut k = 0;
    while k < chaos.pending.len() {
        let p = chaos.pending[k];
        let peer = p
            .dir
            .step(NodeId(p.node as u16).to_coord(cols), cols, rows)
            .expect("pending cuts name mesh links")
            .to_node(cols)
            .idx();
        let quiet = link_half_quiet(net, p.node, p.dir)
            && link_half_quiet(net, peer, p.dir.opposite())
            && net
                .fault
                .as_ref()
                .and_then(|f| f.retrans.as_ref())
                .is_none_or(|rt| rt.link_quiet(p.node, p.dir));
        if !quiet {
            k += 1;
            continue;
        }
        net.routers[p.node].outputs[p.dir.index()].neighbor = None;
        net.routers[peer].outputs[p.dir.opposite().index()].neighbor = None;
        net.credit_touch(p.node);
        net.credit_touch(peer);
        if let Some(rec) = net.stats.epochs.get_mut(p.epoch) {
            rec.cut_done_at = Some(now);
        }
        chaos.pending.swap_remove(k);
    }
}

/// One direction of the quiet test: the sender at `node` holds no claim and
/// counts no in-flight flit toward `dir`.
fn link_half_quiet(net: &Network, node: usize, dir: Direction) -> bool {
    let out = &net.routers[node].outputs[dir.index()];
    out.neighbor.is_some()
        && out.vc_claimed.iter().all(Option::is_none)
        && out.inflight.iter().all(|&c| c == 0)
}

/// The stranded purge: removes packets that the new topology can never
/// deliver — fully-buffered, unrouted packets whose pair has no surviving
/// path (which includes everything buffered at or addressed to a dead
/// router), and complete packets sitting in the ejection VCs of dead
/// routers. Purged flits are counted, attributed to the newest epoch, and
/// recovered (or abandoned) by the end-to-end retransmission layer.
fn purge_stranded(net: &mut Network) {
    let now = net.cycle;
    let cols = net.cfg.cols;
    let down = |net: &Network, i: usize| net.fault.as_ref().is_some_and(|f| f.dead.router_dead(i));
    let mut purged: u64 = 0;
    let n = net.routers.len();
    for i in 0..n {
        // Router input VCs: fully-buffered, unrouted, uncaptured packets
        // with no surviving path. Streaming or moving packets are never
        // touched — worms always finish (drain semantics).
        for p in 0..noc_types::NUM_PORTS {
            for v in 0..net.routers[i].inputs[p].vcs.len() {
                let vc = &net.routers[i].inputs[p].vcs[v];
                let Some(front) = vc.front() else { continue };
                if vc.route.is_some() || vc.ff_capture || !vc.packet_fully_buffered() {
                    continue;
                }
                let dest = front.dest;
                if dest.idx() == i && !down(net, i) {
                    continue; // at destination, router alive: it will eject
                }
                let unroutable = down(net, i)
                    || down(net, dest.idx())
                    || net.fault.as_ref().is_some_and(|f| {
                        f.mask.as_ref().is_some_and(|m| {
                            dest.idx() != i
                                && m.allowed(NodeId(i as u16).to_coord(cols), dest.to_coord(cols))
                                    == 0
                        })
                    });
                if !unroutable {
                    continue;
                }
                let flits = net.drain_packet(NodeId(i as u16), p, v);
                purged += flits.len() as u64;
            }
        }
        // Ejection VCs of dead routers: the NIC no longer consumes, so
        // complete packets are lifted out (partial packets wait — their
        // remaining flits are still arriving and worms always finish).
        if down(net, i) {
            for ej in 0..net.nics[i].ejection.len() {
                if net.nics[i].ejection[ej].complete_packet() {
                    purged += net.nics[i].ejection[ej].buf.len() as u64;
                    net.nics[i].consume_commit(ej);
                    net.credit_touch(i);
                }
            }
        }
    }
    if purged > 0 {
        net.stats.chaos_purged_flits += purged;
        if let Some(rec) = net.stats.epochs.last_mut() {
            rec.purged_flits += purged;
        }
        // Purging is progress: the stall it resolves must not also trip the
        // watchdog while end-to-end retransmission takes over.
        net.last_progress = now;
    }
}

#[cfg(test)]
mod tests {
    //! Epoch-boundary pins: the degenerate schedule shapes (no schedule,
    //! zero events due this cycle, fully settled) must do exactly nothing —
    //! no chaos state, no epoch records, no per-cycle work.

    use crate::network::Sim;
    use crate::workload::IdleWorkload;
    use noc_types::{Direction, FaultConfig, FaultSchedule, NetConfig, NodeId};

    fn sim(cfg: NetConfig) -> Sim {
        Sim::new(cfg, Box::new(IdleWorkload), Box::new(crate::NoMechanism))
    }

    #[test]
    fn empty_schedule_creates_no_chaos_state() {
        // `FaultSchedule::none()` must behave exactly like no schedule at
        // all: no ChaosState is hung off the fault layer, no epoch is ever
        // recorded, and ticking is a no-op.
        let cfg = NetConfig::synth(4, 2)
            .with_fault(FaultConfig::default().with_schedule(FaultSchedule::none()));
        let mut s = sim(cfg);
        assert!(s.net.fault.as_ref().is_none_or(|f| f.chaos.is_none()));
        for _ in 0..50 {
            s.step();
        }
        assert_eq!(s.net.stats.chaos_epochs, 0);
        assert!(s.net.stats.epochs.is_empty());
    }

    #[test]
    fn epoch_records_track_events_exactly() {
        // One kill at cycle 10, one heal at 50: before the first event the
        // trace is empty; after each boundary it grows by exactly one; once
        // the schedule settles it never grows again.
        let cfg = NetConfig::synth(4, 2).with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::link_flap(
                NodeId(5),
                Direction::East,
                10,
                50,
            )),
        );
        let mut s = sim(cfg);
        while s.net.cycle < 10 {
            s.step();
        }
        assert!(s.net.stats.epochs.is_empty(), "no epoch before the event");
        while s.net.cycle < 50 {
            s.step();
        }
        assert_eq!(s.net.stats.epochs.len(), 1, "kill recorded once");
        assert!(
            s.net.stats.epochs[0].cut_done_at.is_some(),
            "idle link drain-cuts promptly"
        );
        for _ in 0..200 {
            s.step();
        }
        assert_eq!(s.net.stats.epochs.len(), 2, "heal recorded once");
        assert_eq!(s.net.stats.chaos_epochs, 2);
        let chaos = s.net.fault.as_ref().and_then(|f| f.chaos.as_ref());
        assert!(chaos.is_some_and(|c| c.settled()), "schedule must settle");
    }

    #[test]
    fn same_cycle_events_get_one_record_each() {
        use noc_types::{FaultAction, FaultEvent};
        let events = vec![
            FaultEvent {
                at: 5,
                action: FaultAction::KillLink(NodeId(5), Direction::East),
            },
            FaultEvent {
                at: 5,
                action: FaultAction::KillLink(NodeId(9), Direction::North),
            },
        ];
        let cfg = NetConfig::synth(4, 2)
            .with_fault(FaultConfig::default().with_schedule(FaultSchedule::new(events)));
        let mut s = sim(cfg);
        for _ in 0..30 {
            s.step();
        }
        assert_eq!(s.net.stats.epochs.len(), 2, "one record per event");
        assert_eq!(s.net.stats.chaos_epochs, 2);
        assert_eq!(s.net.stats.epochs[0].cycle, s.net.stats.epochs[1].cycle);
    }

    #[test]
    fn settled_schedule_does_no_further_work() {
        // After the last event applies and its cut drains, the guard in
        // `tick` short-circuits: the chaos state stays queryable (the soak
        // harness polls `settled`) and the trace is frozen.
        let cfg = NetConfig::synth(4, 2).with_fault(
            FaultConfig::default().with_schedule(FaultSchedule::link_flap(
                NodeId(5),
                Direction::East,
                5,
                8,
            )),
        );
        let mut s = sim(cfg);
        for _ in 0..40 {
            s.step();
        }
        let frozen = s.net.stats.epochs.len();
        let applied = s
            .net
            .fault
            .as_ref()
            .and_then(|f| f.chaos.as_ref())
            .map(|c| c.events_applied());
        assert_eq!(applied, Some(2));
        for _ in 0..500 {
            s.step();
        }
        assert_eq!(s.net.stats.epochs.len(), frozen);
        assert!(s
            .net
            .fault
            .as_ref()
            .and_then(|f| f.chaos.as_ref())
            .is_some_and(|c| c.settled()));
    }
}
