//! The cycle-driven network engine.
//!
//! Each cycle proceeds in fixed phases (see [`Sim::step`]):
//!
//! 1. **deliver** — flits whose link traversal completes this cycle enter
//!    input VCs / NIC ejection VCs.
//! 2. **generate** — the workload pushes new packets into NIC queues.
//! 3. **mechanism pre** — seekers, FF flits, probes, forced moves.
//! 4. **credit snapshot** — every router's view of downstream VC
//!    availability is refreshed.
//! 5. **router compute** — combined RC/VA/SA (1-cycle router), winners move.
//! 6. **injection** — NICs stream flits into their router's local port.
//! 7. **consume** — complete packets in ejection VCs are offered to the
//!    workload.
//! 8. **mechanism post**.
//!
//! All inter-router communication travels through timestamped inboxes, so
//! router evaluation order never matters and runs are bit-reproducible for a
//! given seed.

use crate::inbox::Inbox;
use crate::mechanism::Mechanism;
use crate::nic::{EjReserve, InjProgress, Nic};
use crate::reservation::ReservationTable;
use crate::router::{route_compute, try_alloc, try_alloc_ejection, Move, Router};
use crate::soa::{CreditSoA, CreditView};
use crate::stats::Stats;
use crate::vc::VcRoute;
use crate::workload::Workload;
use noc_types::{Coord, Cycle, Direction, Flit, NetConfig, NodeId, PortId, NUM_PORTS};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Extra cycles a flit spends per router-to-router hop at the default
/// 1-cycle router: 1 cycle in the pipeline plus 1 on the link. Deeper
/// routers (`NetConfig::router_latency > 1`) add to this — see
/// [`Network::hop_latency`].
pub const HOP_LATENCY: Cycle = 2;
/// Latency of the NIC↔router links (injection and ejection).
pub const LOCAL_LATENCY: Cycle = 1;

/// The simulated network: routers, NICs, in-flight flits, reservations and
/// statistics. Fields are public — they form the SPI that mechanisms
/// (`seec`, `noc-baselines`) program against.
pub struct Network {
    pub cfg: NetConfig,
    pub cycle: Cycle,
    pub routers: Vec<Router>,
    pub nics: Vec<Nic>,
    /// Mesh coordinate of every node, by node id: per-cycle code looks a
    /// destination up here instead of dividing by `cfg.cols`.
    pub(crate) coords: Vec<Coord>,
    /// The `SoA` hot core: per-`(router, port)` free-VC bitmasks and wormhole
    /// credit slots (refreshed each cycle before SA), per-port occupancy
    /// counters, and per-router dirty-lane masks — flat contiguous arrays
    /// instead of per-router structs.
    pub credits: CreditSoA,
    /// Flits in flight toward router input ports, bucketed by arrival
    /// cycle: each entry is `(in_port, flit)`. Same-cycle entries deliver
    /// in push order (FIFO within a cycle).
    pub inbox_router: Vec<Inbox<(PortId, Flit)>>,
    /// Flits in flight toward NIC ejection VCs: `(ej_vc, flit)` entries
    /// bucketed by arrival cycle.
    pub inbox_nic: Vec<Inbox<(usize, Flit)>>,
    /// Space-time link reservations made by Free-Flow traversals.
    pub reservations: ReservationTable,
    pub stats: Stats,
    pub rng: SmallRng,
    /// Last cycle any flit moved anywhere (watchdog input).
    pub last_progress: Cycle,
    /// Fault-injection runtime (`None` when `cfg.fault` is disabled; the
    /// engine then takes no fault branches and is bit-identical to a build
    /// without the fault layer).
    pub fault: Option<Box<crate::fault::FaultLayer>>,
    /// Optional flight recorder feeding black-box dumps (`None` by default:
    /// zero overhead). Enable with [`Network::enable_flight_recorder`].
    pub recorder: Option<crate::watchdog::FlightRecorder>,
    /// Runtime recovery layer (`None` when `cfg.recovery` is fully disabled;
    /// the engine then takes no recovery branches and is bit-identical to a
    /// build without it).
    pub recovery: Option<Box<crate::recovery::RecoveryState>>,
    /// Invariant-layer counters and findings (`check-invariants` feature).
    #[cfg(feature = "check-invariants")]
    pub inv: crate::invariants::InvariantState,
    /// Scratch for SA winners, reused across cycles.
    moves: Vec<Move>,
    /// Scratch the inbox wheels drain into, reused across cycles.
    scratch_due: Vec<(Cycle, (PortId, Flit))>,
}

impl Network {
    pub fn new(cfg: NetConfig) -> Network {
        let n = cfg.num_nodes();
        assert!(n >= 2, "a network needs at least two nodes");
        if let Err(e) = cfg.recovery.validate() {
            panic!("{e}");
        }
        let mut routers: Vec<Router> = (0..n)
            .map(|i| Router::new(NodeId(i as u16), &cfg))
            .collect();
        let fault = crate::fault::FaultLayer::build(&cfg);
        if let Some(f) = &fault {
            // Dead links lose their wiring on both sides: `refresh_downfree`
            // then reports every VC through them permanently un-free, so no
            // allocation ever targets a dead link.
            for (i, r) in routers.iter_mut().enumerate() {
                for d in Direction::CARDINAL {
                    if f.dead.link_dead(i, d) {
                        r.outputs[d.index()].neighbor = None;
                    }
                }
            }
        }
        let nics = (0..n).map(|i| Nic::new(NodeId(i as u16), &cfg)).collect();
        let coords = routers.iter().map(|r| r.coord).collect();
        let credits = CreditSoA::new(&cfg, n);
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let recovery = cfg
            .recovery
            .any()
            .then(|| Box::new(crate::recovery::RecoveryState::new(cfg.recovery.clone())));
        Network {
            cycle: 0,
            routers,
            nics,
            coords,
            credits,
            inbox_router: vec![Inbox::new(); n],
            inbox_nic: vec![Inbox::new(); n],
            reservations: ReservationTable::with_nodes(n),
            stats: Stats::default(),
            rng,
            last_progress: 0,
            fault,
            recorder: None,
            recovery,
            #[cfg(feature = "check-invariants")]
            inv: crate::invariants::InvariantState::default(),
            moves: Vec::new(),
            scratch_due: Vec::new(),
            cfg,
        }
    }

    /// The neighbour of `node` in direction `d`, if on the mesh.
    pub fn neighbor(&self, node: NodeId, d: Direction) -> Option<NodeId> {
        self.routers[node.idx()].outputs[d.index()].neighbor
    }

    /// Cycles between a flit winning switch allocation and becoming
    /// SA-eligible at the next router: the link plus the downstream router's
    /// pipeline.
    pub fn hop_latency(&self) -> Cycle {
        1 + self.cfg.router_latency as Cycle
    }

    /// Phase 1: deliver due flits into router VCs and NIC ejection VCs.
    ///
    /// Same-cycle arrivals at one node enter their VCs in send order (the
    /// wheels preserve push order within a cycle — see [`Inbox`]).
    fn deliver_arrivals(&mut self) {
        let now = self.cycle;
        let Network {
            routers,
            nics,
            credits,
            inbox_router,
            inbox_nic,
            stats,
            last_progress,
            fault,
            scratch_due,
            ..
        } = self;
        // Link-layer retransmission first: process the wire events due this
        // cycle so freshly accepted flits join this cycle's deliveries (the
        // fault-free path's timing, just via the protocol).
        let mut retrans = fault.as_mut().and_then(|f| f.retrans.as_mut());
        if let Some(rt) = &mut retrans {
            rt.tick(now, stats);
        }
        // The scratch buffer is taken out of `self` and trades places with
        // each due bucket, so steady-state delivery allocates nothing.
        let mut due = std::mem::take(scratch_due);
        // Claims on router-to-router VCs are released only when the tail flit
        // *arrives* (clearing at send would open a window where the VC looks
        // free while flits are still on the link); every arrival also returns
        // its wormhole flit credit (decrements the upstream in-flight count).
        //
        // Arrivals mark no credit lane stale, for routers and NICs alike,
        // because no lane's recompute can change:
        // * a head arrives into a VC its only upstream already claimed, so
        //   that upstream's free bit is already 0;
        // * a tail arrival clears that claim while the VC is non-empty (it
        //   holds at least the tail), so the bit stays 0 until the pop that
        //   releases the VC — which marks;
        // * a wormhole arrival moves one unit from the upstream `inflight`
        //   to `buf.len()`; the slot count reads their sum, which is
        //   unchanged;
        // * the local input port is snapshotted by no router (its upstream,
        //   the NIC, reads the VCs directly);
        // * a flit reaching an ejection VC was allocated through lane
        //   `(i, Local)`, which that allocation marked, and no refresh falls
        //   between the send and this delivery one cycle later (reserved
        //   ejection VCs are un-free already).
        for i in 0..inbox_router.len() {
            inbox_router[i].drain_due_into(now, &mut due);
            if let Some(rt) = &mut retrans {
                rt.drain_accepted_into(i, &mut due);
            }
            if due.is_empty() {
                continue;
            }
            for &(_, (port, flit)) in &due {
                let r = &mut routers[i];
                let vcid = flit_target_vc(r, port, &flit);
                r.inputs[port].vcs[vcid].push(flit);
                credits.occ_add(i, port, 1);
                if port == Direction::Local.index() {
                    // Injection link: the arrival returns the NIC's flit
                    // credit, and its claim clears when the tail lands
                    // (clearing at send reopens the in-flight window once the
                    // router pipeline is deeper than one cycle).
                    let nic = &mut nics[i];
                    nic.local_inflight[vcid] = nic.local_inflight[vcid].saturating_sub(1);
                    if flit.kind.is_tail() {
                        nic.local_claims[vcid] = None;
                    }
                } else if let Some(up) = r.outputs[port].neighbor {
                    // The flit arrived *from* direction `port`, so the
                    // upstream router is the neighbour that way, and its
                    // output port toward us is the opposite one.
                    let toward_us = Direction::from_index(port).opposite().index();
                    let out = &mut routers[up.idx()].outputs[toward_us];
                    out.inflight[vcid] = out.inflight[vcid].saturating_sub(1);
                    if flit.kind.is_tail() {
                        out.vc_claimed[vcid] = None;
                    }
                }
            }
            stats.buffer_writes += due.len() as u64;
            *last_progress = now;
        }
        for i in 0..inbox_nic.len() {
            inbox_nic[i].drain_due_into(now, &mut due);
            if due.is_empty() {
                continue;
            }
            for &(_, (ej, flit)) in &due {
                nics[i].receive(ej, flit);
            }
            *last_progress = now;
        }
        *scratch_due = due;
    }

    /// Marks every lane of `node`'s credit snapshot stale, plus every lane
    /// of its cardinal neighbours (their snapshots read this node's input
    /// VCs as downstream state). The coarse form, for sites that are not
    /// per-flit: forced moves, recovery drains, chaos reconfiguration.
    pub fn credit_touch(&mut self, node: usize) {
        self.credits.mark_dirty(node);
        for d in Direction::CARDINAL {
            if let Some(nb) = self.routers[node].outputs[d.index()].neighbor {
                self.credits.mark_dirty(nb.idx());
            }
        }
    }

    /// Marks every lane of every router's credit snapshot stale (topology
    /// changes).
    pub fn credit_mark_all(&mut self) {
        self.credits.mark_all_dirty();
    }

    /// The engine's running buffered-flit counts for `node`, per input port
    /// (invariant layer: must match the buffers at every end of cycle).
    #[cfg(feature = "check-invariants")]
    pub(crate) fn buffered_count(&self, node: usize) -> [u16; NUM_PORTS] {
        self.credits.occ_array(node)
    }

    /// Phase 4: refresh the stale lanes of every router's
    /// downstream-availability snapshot. Lane `(r, p)` depends only on `r`'s
    /// claims and in-flight counts on output `p` plus the input VCs behind
    /// it (the NIC's ejection VCs for the local lane), and every mutation of
    /// those marks exactly that lane — see the event table in DESIGN.md §8.
    fn refresh_downfree(&mut self) {
        let Network {
            routers,
            nics,
            credits,
            fault,
            ..
        } = self;
        let wormhole = self.cfg.buffer_org == noc_types::BufferOrg::Wormhole;
        let depth = self.cfg.vc_depth;
        let dead = fault.as_ref().map(|f| &f.dead);
        for i in 0..routers.len() {
            let lanes = credits.take_dirty(i);
            if lanes != 0 {
                credits.recompute_router(routers, nics, i, lanes, wormhole, depth, dead);
            }
        }
    }

    /// Phase 5: per-router combined RC/VA/SA and switch traversal.
    fn compute_routers(&mut self) {
        let now = self.cycle;
        let Network {
            cfg,
            routers,
            coords,
            credits,
            inbox_router,
            inbox_nic,
            reservations,
            stats,
            rng,
            last_progress,
            fault,
            recorder,
            moves,
            ..
        } = self;
        // Split the fault layer into its two independently borrowed halves:
        // the routing mask feeds route decisions, the retransmission state
        // replaces the direct inbox push at the send site.
        let (mask, mut retrans) = match fault {
            Some(f) => (f.mask.as_ref(), f.retrans.as_mut()),
            None => (None, None),
        };
        let wormhole = cfg.buffer_org == noc_types::BufferOrg::Wormhole;

        for i in 0..routers.len() {
            if !credits.router_busy(i) {
                continue;
            }
            moves.clear();
            let occ = credits.occ_array(i);
            decide_router(
                i,
                &mut routers[i],
                &occ,
                credits.view(i),
                coords,
                cfg,
                mask,
                reservations,
                rng,
                now,
                moves,
            );
            let r = &mut routers[i];
            for m in moves.iter() {
                let vc = &mut r.inputs[m.in_port].vcs[m.in_vc];
                if let Some((out_vc, escape)) = m.alloc {
                    vc.route = Some(VcRoute {
                        out_port: m.out_port,
                        out_vc,
                        escape,
                    });
                    let pkt = vc.front().expect("allocating empty VC").packet;
                    r.outputs[m.out_port].vc_claimed[out_vc] = Some(pkt);
                    // A new claim clears a free bit of exactly this lane.
                    // Ejection included: a 1-flit packet's claim is gone
                    // again below, but its flit then occupies the VC.
                    credits.mark_lane(i, m.out_port);
                }
                let route = vc.route.expect("moving flit without route");
                let (mut flit, freed) = vc.pop_front_sent();
                if !vc.buf.is_empty() {
                    // The next flit starts its wait now (see stage 1).
                    vc.head_wait_since = Some(now);
                }
                credits.occ_sub(i, m.in_port, 1);
                // The pop frees the whole VC (tail) or, under wormhole, one
                // slot of it.
                if freed || wormhole {
                    mark_upstream_lane(credits, r, m.in_port);
                }
                flit.escape = route.escape;
                flit.vc = route.out_vc as u8;
                stats.buffer_reads += 1;
                // Ejection claims clear at send (the NIC link delivers before
                // the next credit snapshot); router-to-router claims clear at
                // tail *delivery* in `deliver_arrivals`. No mark: the head of
                // a longer packet already sits in the ejection VC, so the
                // free bit stays 0 until `consume`.
                if flit.kind.is_tail() && m.out_port == Direction::Local.index() {
                    r.outputs[route.out_port].vc_claimed[route.out_vc] = None;
                }
                if m.out_port == Direction::Local.index() {
                    inbox_nic[i].push(now + LOCAL_LATENCY, (route.out_vc, flit));
                } else {
                    flit.hops += 1;
                    stats.count_link_hop_at(now, r.id, route.out_port);
                    r.outputs[route.out_port].inflight[route.out_vc] += 1;
                    if wormhole {
                        // Slot counts move per flit.
                        credits.mark_lane(i, route.out_port);
                    }
                    let nb = r.outputs[route.out_port].neighbor.expect("move off-mesh");
                    let their_in = Direction::from_index(m.out_port).opposite().index();
                    match &mut retrans {
                        // Faulty links: the flit enters the link-layer
                        // protocol instead of the inbox; it surfaces in
                        // `deliver_arrivals` once *accepted* downstream.
                        Some(rt) => rt.send(now, i, route.out_port, flit, stats),
                        None => {
                            let hop = 1 + cfg.router_latency as Cycle;
                            inbox_router[nb.idx()].push(now + hop, (their_in, flit));
                        }
                    }
                }
                if let Some(rec) = recorder {
                    rec.record(now, r.id, m.in_port, m.in_vc, m.out_port);
                }
                *last_progress = now;
            }
        }
    }

    /// Phase 6: NICs stream packet flits into their router's local port.
    fn compute_injection(&mut self) {
        let now = self.cycle;
        #[cfg(feature = "check-invariants")]
        let mut injected_now: u64 = 0;
        let Network {
            cfg,
            routers,
            nics,
            inbox_router,
            stats,
            last_progress,
            recovery,
            fault,
            ..
        } = self;
        let lp = Direction::Local.index();
        let wormhole = cfg.buffer_org == noc_types::BufferOrg::Wormhole;
        for (i, nic) in nics.iter_mut().enumerate() {
            // A dead router's NIC picks no new packets (its queues hold);
            // an in-progress injection still finishes streaming so the
            // local input VC is never wedged with a partial packet.
            let router_dead = fault.as_ref().is_some_and(|f| f.dead.router_dead(i));
            if nic.inj_active.is_none() && !router_dead {
                // Pick the next packet: round-robin over classes, allocate a
                // free local-input VC in the packet's VNet.
                let classes = nic.inj_queues.len();
                let mut next = nic.inj_rr;
                'pick: for _ in 0..classes {
                    let cls = next;
                    next = rr_next(cls, classes);
                    let Some(&pkt) = nic.inj_queues[cls].front() else {
                        continue;
                    };
                    let vnet = cfg.vnet_of(pkt.class);
                    let range = cfg.vc_range(vnet);
                    let esc = cfg.escape_vc(vnet).map(|e| range.start + e);
                    // Normal VCs first, escape as fallback.
                    let pick = range
                        .clone()
                        .filter(|&v| Some(v) != esc)
                        .chain(esc)
                        .find(|&v| {
                            routers[i].inputs[lp].vcs[v].is_free() && nic.local_claims[v].is_none()
                        });
                    if let Some(v) = pick {
                        nic.inj_queues[cls].pop_front();
                        nic.local_claims[v] = Some(pkt.id);
                        nic.inj_rr = next;
                        nic.inj_active = Some(InjProgress {
                            packet: pkt,
                            next_seq: 0,
                            vc: v,
                            inject: now,
                        });
                        break 'pick;
                    }
                }
            }
            if let Some(prog) = &mut nic.inj_active {
                // Wormhole: the NIC obeys the same flit credits as every
                // other upstream — it sends only while the local input VC
                // has a slot neither buffered nor already on the link.
                if wormhole {
                    let used = routers[i].inputs[lp].vcs[prog.vc].buf.len()
                        + usize::from(nic.local_inflight[prog.vc]);
                    if used >= usize::from(cfg.vc_depth) {
                        continue;
                    }
                }
                nic.local_inflight[prog.vc] += 1;
                let mut flit = Flit::from_packet(&prog.packet, prog.next_seq, prog.inject);
                let vnet = cfg.vnet_of(prog.packet.class);
                let range = cfg.vc_range(vnet);
                flit.escape = cfg.escape_vc(vnet).map(|e| range.start + e) == Some(prog.vc);
                flit.vc = prog.vc as u8;
                // Direct flits to the VC the NIC allocated: record it so the
                // delivery phase can place them (head marks the VC resident;
                // bodies follow the resident packet).
                inbox_router[i].push(now + cfg.router_latency as Cycle, (lp, flit));
                stats.record_injected_flit(&flit);
                #[cfg(feature = "check-invariants")]
                {
                    injected_now += 1;
                }
                *last_progress = now;
                prog.next_seq += 1;
                if prog.next_seq == prog.packet.len_flits {
                    if let Some(rec) = recovery {
                        // End-to-end layer: the delivery timer starts when
                        // the whole packet has left the NIC.
                        rec.register_sent(&prog.packet, now);
                    }
                    // The claim on the local input VC clears when the tail
                    // *arrives* (see deliver_arrivals), not here.
                    nic.inj_active = None;
                }
            }
        }
        #[cfg(feature = "check-invariants")]
        {
            self.inv.injected_flits += injected_now;
        }
    }

    /// Phase 7: offer complete ejected packets to the workload.
    fn consume(&mut self, workload: &mut dyn Workload) {
        let now = self.cycle;
        for i in 0..self.nics.len() {
            // A dead router's NIC delivers nothing; complete ejection
            // packets sit until the stranded purge lifts them (or the
            // router heals and delivery resumes).
            if self.fault.as_ref().is_some_and(|f| f.dead.router_dead(i)) {
                continue;
            }
            for ej in 0..self.nics[i].ejection.len() {
                if self.nics[i].ejection[ej].complete_packet() {
                    let mut d = self.nics[i].consume_peek(ej, now);
                    let raw = d.id;
                    if let Some(rec) = &self.recovery {
                        // The workload must see the original id; retry
                        // copies carry a distinct wire id (claims and
                        // residency are keyed by it) that is unmasked here.
                        let (logical, dup) = rec.classify_delivery(raw);
                        d.id = logical;
                        if dup {
                            // Exactly-once delivery: a copy of this packet
                            // already reached the workload. Discard silently;
                            // the flits still count as consumed for
                            // conservation.
                            self.nics[i].consume_commit(ej);
                            self.stats.e2e_duplicates_dropped += 1;
                            self.last_progress = now;
                            self.credits.mark_lane(i, Direction::Local.index());
                            #[cfg(feature = "check-invariants")]
                            {
                                self.inv.consumed_flits += u64::from(d.len_flits);
                            }
                            continue;
                        }
                    }
                    if workload.deliver(now, &d) {
                        self.nics[i].consume_commit(ej);
                        if let Some(rec) = &mut self.recovery {
                            rec.on_delivered(raw);
                        }
                        self.stats.record_delivery(&d);
                        self.last_progress = now;
                        // Freeing an ejection VC changes this node's
                        // local lane.
                        self.credits.mark_lane(i, Direction::Local.index());
                        #[cfg(feature = "check-invariants")]
                        {
                            let cols = self.cfg.cols;
                            let detours = self.fault.as_ref().is_some_and(|f| f.mask.is_some());
                            self.inv.on_consume(&d, cols, detours);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Mechanism SPI (SEEC, SPIN, SWAP, DRAIN). State the credit snapshot
    // reads — input-VC buffers, ejection VCs and their reservations — is
    // mutated by mechanisms only through these methods: each one mutates,
    // keeps the occupancy counters exact and marks the stale lanes together.
    // ------------------------------------------------------------------

    /// True when a packet could be installed into `(node, port, vc)`: the VC
    /// is empty and its upstream (router or NIC) holds no claim on it.
    pub fn vc_installable(&self, node: NodeId, port: PortId, vc: usize) -> bool {
        let r = &self.routers[node.idx()];
        if !r.inputs[port].vcs[vc].is_free() {
            return false;
        }
        self.upstream_claim(node, port, vc).is_none()
    }

    /// The upstream claim (if any) on input VC `(node, port, vc)`.
    pub fn upstream_claim(
        &self,
        node: NodeId,
        port: PortId,
        vc: usize,
    ) -> Option<noc_types::PacketId> {
        if port == Direction::Local.index() {
            return self.nics[node.idx()].local_claims[vc];
        }
        let dir = Direction::from_index(port);
        match self.neighbor(node, dir) {
            Some(nb) => self.routers[nb.idx()].outputs[dir.opposite().index()].vc_claimed[vc],
            None => None,
        }
    }

    /// Drains the fully-buffered packet out of `(node, port, vc)`, freeing
    /// the VC. Panics if the packet is still streaming or has begun moving.
    pub fn drain_packet(&mut self, node: NodeId, port: PortId, vc: usize) -> Vec<Flit> {
        let v = &mut self.routers[node.idx()].inputs[port].vcs[vc];
        assert!(v.route.is_none(), "draining a packet that began moving");
        let flits = v.drain_packet();
        self.credits.occ_sub(node.idx(), port, flits.len() as u16);
        self.credit_touch(node.idx());
        flits
    }

    /// Installs a fully-buffered packet into a free, unclaimed VC.
    pub fn install_packet(&mut self, node: NodeId, port: PortId, vc: usize, flits: Vec<Flit>) {
        assert!(
            self.vc_installable(node, port, vc),
            "installing into unavailable VC"
        );
        self.credits.occ_add(node.idx(), port, flits.len() as u16);
        self.routers[node.idx()].inputs[port].vcs[vc].install_packet(flits);
        self.last_progress = self.cycle;
        self.credit_touch(node.idx());
    }

    /// Sets the reservation state of ejection VC `ej_vc` at `node`'s NIC
    /// (SEEC's seeker protocol: `Held` → `For(packet)` → cleared by
    /// consumption, or back to `Free` after an empty-handed seek).
    pub fn set_ej_reserve(&mut self, node: NodeId, ej_vc: usize, to: EjReserve) {
        self.nics[node.idx()].ejection[ej_vc].reserve = to;
        self.credits.mark_lane(node.idx(), Direction::Local.index());
    }

    /// Delivers a Free-Flow flit straight into ejection VC `ej_vc` at
    /// `node`'s NIC (the VC the flight reserved; the mark keeps the lane
    /// right for an unreserved one too).
    pub fn deliver_ff_flit(&mut self, node: NodeId, ej_vc: usize, flit: Flit) {
        self.nics[node.idx()].receive(ej_vc, flit);
        self.last_progress = self.cycle;
        self.credits.mark_lane(node.idx(), Direction::Local.index());
    }

    /// Pops every flit currently buffered in the Free-Flow-captured VC
    /// `(node, port, vc)` (wormhole FF streaming); the VC is released once
    /// the tail has been taken and stays resident until then.
    pub fn take_captured(&mut self, node: NodeId, port: PortId, vc: usize) -> Vec<Flit> {
        let r = &mut self.routers[node.idx()];
        let flits = r.inputs[port].vcs[vc].take_captured();
        self.credits.occ_sub(node.idx(), port, flits.len() as u16);
        mark_upstream_lane(&mut self.credits, r, port);
        flits
    }

    /// Flits currently buffered in routers plus flits in flight (watchdog /
    /// invariants; excludes NIC queues and ejection VCs).
    pub fn flits_in_network(&self) -> usize {
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let flying: usize = self.inbox_router.iter().map(Inbox::len).sum();
        // Under retransmission, flits between send and downstream acceptance
        // live in the link-layer windows instead of the inboxes.
        let in_protocol = self
            .fault
            .as_ref()
            .and_then(|f| f.retrans.as_ref())
            .map_or(0, crate::fault::Retrans::in_flight_total);
        // A victim in the recovery channel is in the network too, just not
        // in any router buffer or inbox.
        let in_recovery = self.recovery.as_ref().map_or(0, |r| r.custody_flits());
        buffered + flying + in_protocol + in_recovery
    }

    /// Turns on the flight recorder keeping the last `cap` switch-traversal
    /// records for black-box dumps.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.recorder = Some(crate::watchdog::FlightRecorder::new(cap));
    }

    /// Cycles since anything moved.
    pub fn quiescent_for(&self) -> u64 {
        self.cycle.saturating_sub(self.last_progress)
    }

    /// Stable 64-bit digest of the observable engine state: clock, progress
    /// stamp, routers, NICs, credit core, in-flight inboxes and link
    /// reservations (not the RNG). Two runs that step identically produce
    /// identical digests; divergence pinpoints the first cycle at which
    /// determinism broke.
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "c={};lp={};", self.cycle, self.last_progress);
        let _ = write!(s, "r={:?};", self.routers);
        let _ = write!(s, "n={:?};", self.nics);
        let _ = write!(s, "d={:?};", self.credits);
        for ib in &self.inbox_router {
            for (at, item) in ib.iter() {
                let _ = write!(s, "ir={at}:{item:?};");
            }
        }
        for ib in &self.inbox_nic {
            for (at, item) in ib.iter() {
                let _ = write!(s, "in={at}:{item:?};");
            }
        }
        let _ = write!(s, "res={:?};", self.reservations);
        noc_types::fault::fnv1a(s.as_bytes())
    }
}

/// Marks the one credit lane that snapshots `router`'s input port
/// `in_port` — the upstream router's lane toward it — after flits left that
/// port's VCs. The local port's upstream is the NIC, which reads the VCs
/// directly, and an unwired port has no upstream.
fn mark_upstream_lane(credits: &mut CreditSoA, router: &Router, in_port: PortId) {
    if in_port == Direction::Local.index() {
        return;
    }
    if let Some(up) = router.outputs[in_port].neighbor {
        let toward_us = Direction::from_index(in_port).opposite().index();
        credits.mark_lane(up.idx(), toward_us);
    }
}

/// Which VC an arriving flit belongs to: the VC id written into the flit
/// header by the sender (exactly what a real head flit carries on the wire).
fn flit_target_vc(router: &Router, port: PortId, flit: &Flit) -> usize {
    let v = flit.vc as usize;
    debug_assert!(
        flit.kind.is_head() || router.inputs[port].vcs[v].resident == Some(flit.packet),
        "body flit arrived at a VC not holding its packet"
    );
    v
}

/// The round-robin successor of `i` among `n` entries (compare-and-wrap:
/// per-cycle code divides by no runtime count).
#[inline]
fn rr_next(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// Stage-1 nomination: `(in_vc, alloc)` where `alloc` is the freshly granted
/// `(downstream VC, is_escape)` pair for head flits (body flits already hold
/// their route and carry `None`).
type Nomination = (usize, Option<(usize, bool)>);

/// The four inter-router ports as port bits.
const CARDINAL_BITS: u8 = !(1 << Direction::Local.index()) & ((1 << NUM_PORTS) - 1);

/// One router's combined route-compute / VC-allocation / switch-allocation
/// decision for this cycle (1-cycle router pipeline).
///
/// Stage 1 nominates at most one VC per input port (round-robin over VCs):
/// a VC is eligible when its front flit can actually move this cycle — its
/// route is allocated, or it is a head for which a downstream VC (or ejection
/// VC) can be allocated right now — and the target output link is not
/// reserved for a Free-Flow traversal. The same scan stamps
/// `head_wait_since` on every buffered front flit. Stage 2 arbitrates each
/// output port among nominating inputs (round-robin over ports).
#[allow(clippy::too_many_arguments)]
fn decide_router(
    node: usize,
    r: &mut Router,
    occ: &[u16; NUM_PORTS],
    down: CreditView<'_>,
    coords: &[Coord],
    cfg: &NetConfig,
    mask: Option<&crate::fault::RouteMask>,
    reservations: &ReservationTable,
    rng: &mut SmallRng,
    now: Cycle,
    moves: &mut Vec<Move>,
) {
    use noc_types::BaseRouting;

    // Cheap per-port pre-filter: a head can only allocate through a port
    // with at least one free downstream VC. In a saturated network this
    // skips route computation for almost every blocked head: one bit per
    // output port, so the test is a mask AND.
    let mut free_ports: u8 = 0;
    for p in 0..NUM_PORTS {
        free_ports |= u8::from(down.any_free(p)) << p;
    }

    // Stage 1: nominations — (in_vc, alloc) per input port, and per output
    // port a bit for each input port that nominated toward it.
    let mut nominee: [Option<Nomination>; NUM_PORTS] = [None; NUM_PORTS];
    let mut requests = [0u8; NUM_PORTS];
    for (p, nom) in nominee.iter_mut().enumerate() {
        if occ[p] == 0 {
            continue; // no flits behind this port: nothing to nominate
        }
        let nvcs = r.inputs[p].vcs.len();
        let mut next = r.sa_in_rr[p];
        for _ in 0..nvcs {
            let v = next;
            next = rr_next(v, nvcs);
            let vc = &mut r.inputs[p].vcs[v];
            if vc.buf.is_empty() {
                continue;
            }
            // Every buffered front flit is waiting from this cycle on unless
            // already stamped (SPIN / watchdog input); a move re-stamps the
            // flit behind it. So the scan goes on past the nominee.
            vc.head_wait_since.get_or_insert(now);
            if nom.is_some() || vc.ff_capture {
                continue; // FF-captured flits belong to an FF stream, not to SA
            }
            let vc = &*vc;
            let Some(front) = vc.front() else {
                continue;
            };
            if let Some(route) = vc.route {
                // Wormhole: body flits advance only when the downstream VC
                // has a free slot (flit-granularity credits). The local port
                // ejects into packet-deep NIC buffers.
                let has_slot = cfg.buffer_org != noc_types::BufferOrg::Wormhole
                    || route.out_port == Direction::Local.index()
                    || down.slot(route.out_port, route.out_vc) > 0;
                if has_slot && !reservations.is_reserved(r.id, route.out_port, now) {
                    *nom = Some((v, None));
                    requests[route.out_port] |= 1 << p;
                }
                continue;
            }
            if !front.kind.is_head() {
                continue;
            }
            if front.dest == r.id {
                let lp = Direction::Local.index();
                if free_ports & (1 << lp) == 0 {
                    continue;
                }
                if let Some(ej) = try_alloc_ejection(front, cfg, down) {
                    if !reservations.is_reserved(r.id, lp, now) {
                        *nom = Some((v, Some((ej, false))));
                        requests[lp] |= 1 << p;
                    }
                }
                continue;
            }
            // Pre-filter: every legal next hop (for any algorithm, escape
            // included) is a productive direction — or, on a degraded mesh,
            // a mask-allowed one; if none has a free VC, allocation is
            // impossible this cycle.
            let here = r.coord;
            let dest = coords[front.dest.idx()];
            let legal = match mask {
                Some(m) => m.allowed(here, dest) & CARDINAL_BITS,
                None => crate::routing::productive_mask(here, dest),
            };
            if legal & free_ports == 0 {
                continue;
            }
            // VC allocation is attempted: the one copy of the front flit.
            let front = *front;
            let in_escape = vc.is_escape_resident;
            let algo = if in_escape {
                BaseRouting::WestFirst
            } else {
                cfg.routing.normal()
            };
            // Adaptive routing re-evaluates its port choice every cycle a
            // head waits (it adapts to congestion); the other algorithms
            // compute the route once per router visit and stick (Garnet).
            let adaptive = matches!(algo, BaseRouting::AdaptiveMinimal | BaseRouting::WestFirst);
            let pending = match vc.pending_port {
                Some(pp) if !adaptive => pp,
                _ => {
                    let vnet = cfg.vnet_of(front.class);
                    let pp = route_compute(algo, here, dest, vnet, down, mask, rng);
                    r.inputs[p].vcs[v].pending_port = Some(pp);
                    pp
                }
            };
            if let Some((port, out_vc, esc)) =
                try_alloc(&front, in_escape, pending, here, dest, cfg, down)
            {
                if !reservations.is_reserved(r.id, port, now) {
                    *nom = Some((v, Some((out_vc, esc))));
                    requests[port] |= 1 << p;
                }
            }
        }
    }

    // Stage 2: output arbitration, round-robin over the requesting input
    // ports: the first at or after the pointer, else the first overall.
    for (o, &req) in requests.iter().enumerate() {
        if req == 0 {
            continue;
        }
        let from_rr = req & (u8::MAX << r.sa_out_rr[o]);
        let p = (if from_rr != 0 { from_rr } else { req }).trailing_zeros() as usize;
        if let Some((v, alloc)) = nominee[p] {
            moves.push(Move {
                node,
                in_port: p,
                in_vc: v,
                out_port: o,
                alloc,
            });
            r.sa_in_rr[p] = rr_next(v, r.inputs[p].vcs.len());
            r.sa_out_rr[o] = rr_next(p, NUM_PORTS);
        }
    }
}

/// A complete simulation: network + workload + mechanism, driven cycle by
/// cycle.
pub struct Sim {
    pub net: Network,
    pub mech: Box<dyn Mechanism>,
    pub workload: Box<dyn Workload>,
    /// Always 0: the engine steps every cycle. Kept only because bench11's
    /// `noc-sim.skipped_cycles` probe reads it, and that benchmark changes
    /// only on its own; the field goes when the probe is dropped.
    pub skipped_cycles: u64,
}

impl Sim {
    pub fn new(cfg: NetConfig, workload: Box<dyn Workload>, mech: Box<dyn Mechanism>) -> Sim {
        let mut net = Network::new(cfg);
        net.stats.measure_start = net.cfg.warmup;
        Sim {
            net,
            mech,
            workload,
            skipped_cycles: 0,
        }
    }

    /// Advances the simulation by one cycle (all eight phases).
    pub fn step(&mut self) {
        let net = &mut self.net;
        if net.cycle == net.cfg.warmup {
            net.stats.measure_start = net.cycle;
        }
        // Dynamic fault schedules reconfigure the topology before anything
        // moves this cycle (no-op without a schedule).
        crate::chaos::tick(net);
        net.deliver_arrivals();
        {
            let Network {
                nics, stats, cycle, ..
            } = net;
            self.workload.generate(*cycle, &mut |node, pkt| {
                debug_assert_ne!(pkt.src, pkt.dest, "self-addressed packet");
                if pkt.measured {
                    stats.generated_packets += 1;
                }
                nics[node.idx()].enqueue(pkt);
            });
        }
        self.mech.pre_cycle(net);
        net.refresh_downfree();
        net.compute_routers();
        net.compute_injection();
        net.consume(self.workload.as_mut());
        self.mech.post_cycle(net);
        if net.recovery.is_some() {
            // Runtime recovery observes the same end-of-cycle state the
            // watchdog would; on a healthy network it does nothing.
            crate::recovery::tick(net, self.mech.as_mut());
        }
        #[cfg(feature = "check-invariants")]
        net.check_invariants();
        let c = net.cycle;
        net.reservations.prune(c);
        net.cycle += 1;
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until the workload reports completion or `max_cycles` elapse.
    /// Returns `true` if the workload finished.
    pub fn run_until_done(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.workload.finished() == Some(true) {
                return true;
            }
            self.step();
        }
        self.workload.finished() == Some(true)
    }

    /// Finalizes and returns the statistics.
    pub fn finish(&mut self) -> &Stats {
        let c = self.net.cycle;
        self.net.stats.finish(c);
        &self.net.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DeliveredPacket;
    use crate::workload::IdleWorkload;
    use noc_types::{MessageClass, NetConfig, Packet, PacketId};

    fn packet(id: u64, src: u16, dest: u16, len: u8, birth: Cycle) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dest: NodeId(dest),
            class: MessageClass(0),
            len_flits: len,
            birth,
            measured: true,
        }
    }

    fn sim(cfg: NetConfig) -> Sim {
        Sim::new(cfg, Box::new(IdleWorkload), Box::new(crate::NoMechanism))
    }

    /// A collecting workload that records deliveries.
    struct Collect(std::rc::Rc<std::cell::RefCell<Vec<DeliveredPacket>>>);
    impl Workload for Collect {
        fn generate(&mut self, _c: Cycle, _i: &mut dyn FnMut(NodeId, Packet)) {}
        fn deliver(&mut self, _c: Cycle, p: &DeliveredPacket) -> bool {
            self.0.borrow_mut().push(*p);
            true
        }
    }

    #[test]
    fn digest_tracks_state_changes() {
        let mut sim = sim(NetConfig::synth(4, 2));
        for i in 0..8u16 {
            sim.net.nics[i as usize].enqueue(packet(u64::from(i), i, 15 - i, 3, 0));
        }
        let d0 = sim.net.state_digest();
        sim.step();
        sim.step();
        assert_ne!(d0, sim.net.state_digest(), "injection must change state");
    }

    #[test]
    fn single_packet_timing_is_deterministic() {
        // 4x4 XY: node 0 → node 3 is 3 hops east.
        let mut cfg = NetConfig::synth(4, 2);
        cfg.routing = noc_types::RoutingAlgo::Uniform(noc_types::BaseRouting::Xy);
        cfg.warmup = 0;
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Sim::new(
            cfg,
            Box::new(Collect(got.clone())),
            Box::new(crate::NoMechanism),
        );
        sim.net.nics[0].enqueue(packet(1, 0, 3, 1, 0));
        sim.run(40);
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        let d = got[0];
        assert_eq!(d.hops, 3);
        // Timing: inject at 0, +1 NIC link (at router 0 at cycle 1), three
        // 2-cycle hops win SA at cycles 1/3/5, arrive at the edge router at
        // 7, eject over the 1-cycle local link → consumed at 8.
        assert_eq!(d.inject, 0);
        assert_eq!(d.eject, 8, "timing model changed unexpectedly");
    }

    #[test]
    fn five_flit_packet_streams_back_to_back() {
        let mut cfg = NetConfig::synth(4, 2);
        cfg.routing = noc_types::RoutingAlgo::Uniform(noc_types::BaseRouting::Xy);
        cfg.warmup = 0;
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Sim::new(
            cfg,
            Box::new(Collect(got.clone())),
            Box::new(crate::NoMechanism),
        );
        sim.net.nics[0].enqueue(packet(1, 0, 1, 5, 0));
        sim.run(40);
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        // One hop: the head is consumed at +4; the tail trails it by exactly
        // 4 cycles (full pipelining, one flit per cycle) → +8.
        assert_eq!(got[0].eject - got[0].inject, 8);
    }

    #[test]
    fn claims_block_reallocation_until_tail_arrives() {
        let mut s = sim(NetConfig::synth(4, 1));
        s.net.nics[0].enqueue(packet(1, 0, 3, 5, 0));
        s.net.nics[0].enqueue(packet(2, 0, 3, 5, 0));
        // Run a few cycles: packet 1 allocates router 0's east VC; packet 2
        // must not interleave into the same VC (single VC per port!).
        for _ in 0..8 {
            s.step();
            // Invariant enforced by debug_assert in push(); additionally,
            // every VC holds flits of at most one packet.
            for r in &s.net.routers {
                for p in &r.inputs {
                    for vc in &p.vcs {
                        let ids: std::collections::HashSet<u64> =
                            vc.buf.iter().map(|f| f.packet.0).collect();
                        assert!(ids.len() <= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn reservations_block_switch_allocation() {
        let mut cfg = NetConfig::synth(4, 2);
        cfg.routing = noc_types::RoutingAlgo::Uniform(noc_types::BaseRouting::Xy);
        cfg.warmup = 0;
        let mut s = sim(cfg);
        s.net.nics[0].enqueue(packet(1, 0, 3, 1, 0));
        // Reserve router 0's east output for a long window before the flit
        // can use it; the packet must be delayed by roughly that window.
        s.net
            .reservations
            .reserve(NodeId(0), Direction::East.index(), 0, 20);
        let mut delivered_at = None;
        for _ in 0..60 {
            s.step();
            if s.net.stats.ejected_packets > 0 && delivered_at.is_none() {
                delivered_at = Some(s.net.cycle);
            }
        }
        let t = delivered_at.expect("packet never delivered");
        assert!(t > 20, "reservation did not delay SA: delivered at {t}");
    }

    #[test]
    fn wormhole_credits_gate_body_flits() {
        // Depth-1 wormhole: consecutive flits of one packet must be spaced
        // by the credit round trip, not back-to-back.
        let mut cfg = NetConfig::synth(4, 1).with_wormhole(1);
        cfg.routing = noc_types::RoutingAlgo::Uniform(noc_types::BaseRouting::Xy);
        cfg.warmup = 0;
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Sim::new(
            cfg,
            Box::new(Collect(got.clone())),
            Box::new(crate::NoMechanism),
        );
        sim.net.nics[0].enqueue(packet(1, 0, 2, 5, 0));
        sim.run(120);
        let got = got.borrow();
        assert_eq!(got.len(), 1, "wormhole packet lost");
        // With depth-1 VCs the worm serializes: strictly slower than the
        // fully-pipelined VCT delivery of eject-inject = 2 hops + 4 flits.
        assert!(
            got[0].eject - got[0].inject > 12,
            "depth-1 wormhole too fast: {}",
            got[0].eject - got[0].inject
        );
    }

    #[test]
    fn injection_round_robins_across_classes() {
        let mut cfg = NetConfig::full_system(4, 6, 1);
        cfg.warmup = 0;
        let mut s = sim(cfg);
        for c in 0..6u8 {
            let mut p = packet(c as u64, 0, 1, 1, 0);
            p.class = MessageClass(c);
            s.net.nics[0].enqueue(p);
        }
        // Six classes, one flit each, one injection per cycle → all gone
        // within ~8 cycles and each class's queue drains exactly once.
        s.run(10);
        assert_eq!(s.net.nics[0].backlog(), 0);
    }

    #[test]
    fn local_port_never_routes_off_mesh() {
        // Saturate a corner node toward the opposite corner; no panics and
        // no flit loss means edge ports are never selected.
        let mut cfg = NetConfig::synth(4, 2);
        cfg.warmup = 0;
        let mut s = sim(cfg);
        for i in 0..10 {
            s.net.nics[0].enqueue(packet(i, 0, 15, 5, 0));
        }
        s.run(300);
        assert_eq!(s.net.stats.ejected_packets, 10);
    }
}
