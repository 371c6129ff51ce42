//! Fault injection and self-healing links.
//!
//! This module implements the runtime half of the fault model described by
//! [`noc_types::FaultConfig`] (see `DESIGN.md` §9):
//!
//! * **Transient faults** corrupt individual link traversals. A go-back-N
//!   link-layer retransmission protocol ([`Retrans`]) heals them
//!   transparently: every flit crossing a router-to-router link carries a
//!   sequence number and a checksum; the receiver accepts flits strictly in
//!   sequence order, nacks the first corrupted or missing one, and the
//!   sender re-sends everything unacknowledged (with a timeout-and-backoff
//!   path for lost control races). Per-link FIFO order is preserved, so the
//!   engine above sees exactly the fault-free flit stream, only later —
//!   latency cost, never loss, duplication or reordering.
//! * **Permanent faults** kill physical links or whole routers for the run
//!   ([`DeadSet`]). The engine nulls the corresponding `neighbor` wiring and
//!   routes around the holes with a [`RouteMask`]: a per-destination table
//!   of minimal productive directions from which the rest of the path is
//!   still live. When no such direction exists for a live source/destination
//!   pair the configuration is *unroutable* and construction fails loudly
//!   (the degraded channel-dependency graph is re-certified by `noc-verify`
//!   before experiments trust such a mesh).
//!
//! Scope: only router-to-router data links fault. NIC↔router links, the
//! seeker side-band ring and the ack/nack control wires are assumed
//! protected (they are narrow and cheap to harden); acks and nacks are
//! therefore never lost, and the timeout path exists only for the window
//! where a resend races an ack already in flight.
//!
//! All randomness comes from a dedicated RNG seeded by
//! `FaultConfig::fault_seed` — never from the traffic RNG — so with faults
//! disabled the engine's RNG stream, and hence its output, is bit-identical
//! to a build without this module.

use crate::inbox::Inbox;
use crate::routing::{west_first, Candidates};
use crate::stats::Stats;
use noc_types::{Coord, Cycle, Direction, FaultConfig, Flit, NetConfig, NodeId, PortId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// XOR mask applied to a transmitted checksum when the fault RNG corrupts a
/// traversal (the corruption model is checksum-detectable by construction;
/// silent data corruption is out of scope).
const CORRUPT: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Content checksum of a flit as transmitted on a link (FNV-1a over the
/// header fields a real link-layer CRC would cover).
pub fn flit_checksum(f: &Flit) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&f.packet.0.to_le_bytes());
    bytes[8..10].copy_from_slice(&f.src.0.to_le_bytes());
    bytes[10..12].copy_from_slice(&f.dest.0.to_le_bytes());
    bytes[12] = f.seq;
    bytes[13] = f.len;
    bytes[14] = f.vc;
    bytes[15] = f.class.0;
    bytes[16..24].copy_from_slice(&f.birth.to_le_bytes());
    noc_types::fault::fnv1a(&bytes)
}

/// A live source/destination pair with no surviving minimal path — the
/// degraded mesh cannot carry this traffic and the config must be rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unroutable {
    pub src: NodeId,
    pub dest: NodeId,
}

/// The resolved set of permanently dead hardware: explicit link kills,
/// router kills (which take all four of the router's links down), and the
/// random kills drawn from the fault seed.
#[derive(Clone, Debug)]
pub struct DeadSet {
    /// `links[node][dir]`: the physical link leaving `node` in cardinal
    /// direction `dir` is dead. Symmetric: both endpoints are marked.
    links: Vec<[bool; 4]>,
    /// Dead routers (neither inject, eject, nor forward).
    routers: Vec<bool>,
}

impl DeadSet {
    /// Resolves `fault` into a concrete dead set on a `cols`×`rows` mesh.
    /// Random kills are drawn deterministically from the fault seed over the
    /// links still alive after the explicit kills.
    ///
    /// # Panics
    /// Panics when a listed link/router is off-mesh or when more random
    /// kills are requested than live links exist.
    pub fn resolve(cols: u8, rows: u8, fault: &FaultConfig) -> DeadSet {
        let n = usize::from(cols) * usize::from(rows);
        let mut set = DeadSet {
            links: vec![[false; 4]; n],
            routers: vec![false; n],
        };
        let kill = |set: &mut DeadSet, node: NodeId, d: Direction| {
            let c = node.to_coord(cols);
            let nb = d
                .step(c, cols, rows)
                .unwrap_or_else(|| panic!("fault config kills off-mesh link ({node}, {d})"))
                .to_node(cols);
            set.links[node.idx()][d.index()] = true;
            set.links[nb.idx()][d.opposite().index()] = true;
        };
        for &(node, d) in &fault.dead_links {
            assert!(d.is_cardinal(), "fault config kills a non-mesh link");
            assert!(node.idx() < n, "fault config kills link of off-mesh node");
            kill(&mut set, node, d);
        }
        for &node in &fault.dead_routers {
            assert!(node.idx() < n, "fault config kills off-mesh router");
            set.routers[node.idx()] = true;
            let c = node.to_coord(cols);
            for d in Direction::CARDINAL {
                if d.step(c, cols, rows).is_some() {
                    kill(&mut set, node, d);
                }
            }
        }
        if fault.random_dead_links > 0 {
            // Canonical candidate list (each physical link once, named from
            // its west/north endpoint) so the draw order is well-defined.
            let mut live: Vec<(NodeId, Direction)> = Vec::new();
            for i in 0..n {
                let c = NodeId(i as u16).to_coord(cols);
                for d in [Direction::East, Direction::South] {
                    if d.step(c, cols, rows).is_some() && !set.links[i][d.index()] {
                        live.push((NodeId(i as u16), d));
                    }
                }
            }
            assert!(
                usize::from(fault.random_dead_links) <= live.len(),
                "fault config kills {} random links but only {} are alive",
                fault.random_dead_links,
                live.len()
            );
            let mut rng = SmallRng::seed_from_u64(fault.fault_seed ^ 0x9E37_79B9_7F4A_7C15);
            for _ in 0..fault.random_dead_links {
                let k = rng.gen_range(0..live.len());
                let (node, d) = live.swap_remove(k);
                kill(&mut set, node, d);
            }
        }
        set
    }

    /// Whether the link leaving `node` in direction `d` is dead.
    pub fn link_dead(&self, node: usize, d: Direction) -> bool {
        self.links[node][d.index()]
    }

    /// Whether router `node` is dead.
    pub fn router_dead(&self, node: usize) -> bool {
        self.routers[node]
    }

    /// True when anything at all is dead.
    pub fn any(&self) -> bool {
        self.routers.iter().any(|&r| r) || self.links.iter().any(|l| l.iter().any(|&d| d))
    }

    /// Every dead physical link once, named from its west/north endpoint
    /// (reporting and the degraded-CDG build).
    pub fn dead_link_list(&self, cols: u8, rows: u8) -> Vec<(NodeId, Direction)> {
        let mut out = Vec::new();
        for (i, l) in self.links.iter().enumerate() {
            let c = NodeId(i as u16).to_coord(cols);
            for d in [Direction::East, Direction::South] {
                if l[d.index()] && d.step(c, cols, rows).is_some() {
                    out.push((NodeId(i as u16), d));
                }
            }
        }
        out
    }
}

/// Per-(source, destination) table of allowed directions on the degraded
/// mesh.
///
/// The main mask ([`RouteMask::build`]) is *shortest-path on the degraded
/// graph*: a direction is allowed at `u` toward `t` when its link is live
/// and it strictly decreases the BFS distance to `t` over live links and
/// routers. On a fault-free mesh this coincides with the productive
/// (Manhattan-minimal) set; with dead links it admits exactly the detours
/// needed to route around the holes, and a pair is unroutable only when
/// the degraded graph disconnects it. Distance strictly decreases along
/// every allowed hop, so masked routing is livelock-free per destination;
/// deadlock freedom of the resulting channel usage is re-certified by
/// `noc-verify` against the degraded channel-dependency graph.
///
/// [`RouteMask::build_west_first`] builds the stricter mask for the
/// west-first escape layer by backward induction over Manhattan rings —
/// west-first cannot detour, so a dead link on a required west-first path
/// makes the escape layer (and hence the escape-VC scheme) unroutable.
#[derive(Clone, Debug)]
pub struct RouteMask {
    cols: u8,
    n: usize,
    /// `bits[u * n + t]`: bitmask over [`Direction::index`] of allowed
    /// directions at node `u` toward destination `t`.
    bits: Vec<u8>,
}

impl RouteMask {
    /// Builds the degraded-graph shortest-path mask (see type docs).
    pub fn build(cols: u8, rows: u8, dead: &DeadSet) -> Result<RouteMask, Unroutable> {
        match RouteMask::build_impl(cols, rows, dead, false) {
            Ok(m) => Ok(m),
            Err(u) => Err(u),
        }
    }

    /// Builds the mask like [`RouteMask::build`] but tolerates disconnected
    /// pairs: their mask bits stay zero instead of failing the build. Epoch
    /// reconfiguration uses this — a mid-run kill may legitimately strand a
    /// pair, and the chaos layer purges (then e2e-retransmits) the affected
    /// packets rather than refusing the topology.
    pub fn build_partial(cols: u8, rows: u8, dead: &DeadSet) -> RouteMask {
        match RouteMask::build_impl(cols, rows, dead, true) {
            Ok(m) => m,
            Err(_) => unreachable!("partial build never fails"),
        }
    }

    /// Whether every live source can reach every live destination under this
    /// mask (false only for partial builds over a disconnected mesh).
    pub fn fully_routable(&self, dead: &DeadSet) -> bool {
        for u in 0..self.n {
            if dead.router_dead(u) {
                continue;
            }
            for t in 0..self.n {
                if u == t || dead.router_dead(t) {
                    continue;
                }
                if self.bits[u * self.n + t] == 0 {
                    return false;
                }
            }
        }
        true
    }

    fn build_impl(
        cols: u8,
        rows: u8,
        dead: &DeadSet,
        partial: bool,
    ) -> Result<RouteMask, Unroutable> {
        let n = cols as usize * rows as usize;
        let mut bits = vec![0u8; n * n];
        let mut dist = vec![u32::MAX; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for t in 0..n {
            if dead.router_dead(t) {
                continue;
            }
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[t] = 0;
            queue.clear();
            queue.push_back(t);
            while let Some(u) = queue.pop_front() {
                let uc = NodeId(u as u16).to_coord(cols);
                for d in Direction::CARDINAL {
                    if dead.link_dead(u, d) {
                        continue;
                    }
                    let Some(nc) = d.step(uc, cols, rows) else {
                        continue;
                    };
                    let v = nc.to_node(cols).idx();
                    if !dead.router_dead(v) && dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            for u in 0..n {
                if u == t || dead.router_dead(u) {
                    continue;
                }
                if dist[u] == u32::MAX {
                    if partial {
                        continue;
                    }
                    return Err(Unroutable {
                        src: NodeId(u as u16),
                        dest: NodeId(t as u16),
                    });
                }
                let uc = NodeId(u as u16).to_coord(cols);
                let mut m = 0u8;
                for d in Direction::CARDINAL {
                    if dead.link_dead(u, d) {
                        continue;
                    }
                    let Some(nc) = d.step(uc, cols, rows) else {
                        continue;
                    };
                    let v = nc.to_node(cols).idx();
                    if !dead.router_dead(v) && dist[v] != u32::MAX && dist[v] < dist[u] {
                        m |= 1 << d.index();
                    }
                }
                debug_assert!(m != 0, "reachable node with no distance-decreasing hop");
                bits[u * n + t] = m;
            }
        }
        Ok(RouteMask { cols, n, bits })
    }

    /// Builds the mask for west-first routing (the escape-VC layer):
    /// backward induction over Manhattan rings, candidate set restricted to
    /// west-first-legal directions (which cannot detour).
    pub fn build_west_first(cols: u8, rows: u8, dead: &DeadSet) -> Result<RouteMask, Unroutable> {
        RouteMask::build_with(cols, rows, dead, west_first)
    }

    fn build_with(
        cols: u8,
        rows: u8,
        dead: &DeadSet,
        f: fn(Coord, Coord) -> Candidates,
    ) -> Result<RouteMask, Unroutable> {
        let n = cols as usize * rows as usize;
        let mut bits = vec![0u8; n * n];
        let mut ok = vec![false; n];
        for t in 0..n {
            if dead.router_dead(t) {
                continue;
            }
            let tc = NodeId(t as u16).to_coord(cols);
            ok.iter_mut().for_each(|s| *s = false);
            ok[t] = true;
            for dist in 1..=u32::from(cols) + u32::from(rows) {
                for u in 0..n {
                    if dead.router_dead(u) {
                        continue;
                    }
                    let uc = NodeId(u as u16).to_coord(cols);
                    if uc.manhattan(tc) != dist {
                        continue;
                    }
                    let mut m = 0u8;
                    for &d in f(uc, tc).as_slice() {
                        if dead.link_dead(u, d) {
                            continue;
                        }
                        let Some(nc) = d.step(uc, cols, rows) else {
                            continue;
                        };
                        if ok[nc.to_node(cols).idx()] {
                            m |= 1 << d.index();
                        }
                    }
                    if m == 0 {
                        return Err(Unroutable {
                            src: NodeId(u as u16),
                            dest: NodeId(t as u16),
                        });
                    }
                    bits[u * n + t] = m;
                    ok[u] = true;
                }
            }
        }
        Ok(RouteMask { cols, n, bits })
    }

    /// Allowed-direction bitmask at `from` toward `dest`.
    #[inline]
    pub fn allowed(&self, from: Coord, dest: Coord) -> u8 {
        self.bits[from.to_node(self.cols).idx() * self.n + dest.to_node(self.cols).idx()]
    }

    /// Whether direction `d` is allowed at `from` toward `dest`.
    #[inline]
    pub fn permits(&self, from: Coord, dest: Coord, d: Direction) -> bool {
        self.allowed(from, dest) & (1 << d.index()) != 0
    }

    /// The allowed directions as a candidate set (in [`Direction::CARDINAL`]
    /// order).
    pub fn candidates(&self, from: Coord, dest: Coord) -> Candidates {
        let m = self.allowed(from, dest);
        Direction::CARDINAL
            .into_iter()
            .filter(|d| m & (1 << d.index()) != 0)
            .collect()
    }
}

/// A wire-level event on a faulty link. `Data` travels sender→receiver over
/// the data link; `Ack`/`Nack` travel receiver→sender over the (protected)
/// control wires.
#[derive(Clone, Copy, Debug)]
enum Wire {
    Data {
        /// Input port at the receiver (the direction the flit arrives from).
        in_port: u8,
        /// Link generation the event belongs to (bumped by
        /// [`Retrans::reset_link`]; stale-generation events are dropped so an
        /// in-flight ack or duplicate from before a heal can never touch the
        /// fresh sequence space).
        gen: u32,
        seq: u32,
        csum: u64,
        flit: Flit,
    },
    Ack {
        /// Output port at the receiving *sender* this ack belongs to.
        out_dir: u8,
        gen: u32,
        /// Cumulative: everything `<= seq` is acknowledged.
        seq: u32,
    },
    Nack {
        out_dir: u8,
        gen: u32,
        /// The receiver's next expected sequence number; the sender re-sends
        /// everything from here (go-back-N).
        seq: u32,
    },
}

/// Sender-side state of one directed link.
#[derive(Clone, Debug, Default)]
struct LinkTx {
    next_seq: u32,
    gen: u32,
    unacked: VecDeque<TxEntry>,
}

#[derive(Clone, Copy, Debug)]
struct TxEntry {
    seq: u32,
    flit: Flit,
    last_sent: Cycle,
    attempts: u32,
}

/// Receiver-side state of one directed link.
#[derive(Clone, Copy, Debug, Default)]
struct LinkRx {
    next_expected: u32,
    gen: u32,
    /// Sequence number already nacked (suppresses duplicate nacks for the
    /// same gap; after a nacked resend arrives corrupted again, recovery
    /// falls to the sender's timeout).
    nacked: Option<u32>,
}

/// Go-back-N link-layer retransmission state for the whole mesh. Present on
/// [`crate::Network`] only when `FaultConfig::transient_rate > 0`.
pub struct Retrans {
    rate: f64,
    timeout: Cycle,
    backoff: Cycle,
    hop: Cycle,
    rng: SmallRng,
    /// Per directed link `node * 4 + dir`.
    tx: Vec<LinkTx>,
    rx: Vec<LinkRx>,
    /// In-flight wire events toward each node.
    wire: Vec<Inbox<Wire>>,
    /// Flits accepted this cycle, per node, drained by the engine's
    /// delivery phase.
    accepted: Vec<Vec<(Cycle, (PortId, Flit))>>,
    /// Geometric neighbour table (dead links never carry sends, so the
    /// pre-fault wiring is sufficient).
    nbr: Vec<[Option<u16>; 4]>,
    scratch: Vec<(Cycle, Wire)>,
}

impl Retrans {
    fn new(cfg: &NetConfig) -> Retrans {
        let n = cfg.num_nodes();
        let mut nbr = vec![[None; 4]; n];
        for (i, slots) in nbr.iter_mut().enumerate() {
            let c = NodeId(i as u16).to_coord(cfg.cols);
            for d in Direction::CARDINAL {
                slots[d.index()] = d.step(c, cfg.cols, cfg.rows).map(|s| s.to_node(cfg.cols).0);
            }
        }
        Retrans {
            rate: cfg.fault.transient_rate,
            timeout: Cycle::from(cfg.fault.retransmit_timeout.max(1)),
            backoff: Cycle::from(cfg.fault.resend_backoff),
            hop: 1 + Cycle::from(cfg.router_latency),
            rng: SmallRng::seed_from_u64(cfg.fault.fault_seed),
            tx: vec![LinkTx::default(); n * 4],
            rx: vec![LinkRx::default(); n * 4],
            wire: vec![Inbox::new(); n],
            accepted: vec![Vec::new(); n],
            nbr,
            scratch: Vec::new(),
        }
    }

    /// First transmission of a flit over the directed link `(from,
    /// out_dir)`, called by the engine at switch traversal in place of the
    /// direct inbox push. The engine has already counted the link hop and
    /// incremented the in-flight credit counter (which now stays up until
    /// *acceptance*, not first arrival).
    pub fn send(
        &mut self,
        now: Cycle,
        from: usize,
        out_dir: PortId,
        flit: Flit,
        stats: &mut Stats,
    ) {
        let l = from * 4 + out_dir;
        let seq = self.tx[l].next_seq;
        let gen = self.tx[l].gen;
        self.tx[l].next_seq += 1;
        let nb = usize::from(self.nbr[from][out_dir].expect("send over off-mesh link"));
        let mut csum = flit_checksum(&flit);
        if self.rng.gen_bool(self.rate) {
            csum ^= CORRUPT;
            stats.corrupted_flits += 1;
        }
        self.tx[l].unacked.push_back(TxEntry {
            seq,
            flit,
            last_sent: now,
            attempts: 0,
        });
        let in_port = Direction::from_index(out_dir).opposite().index() as u8;
        self.wire[nb].push(
            now + self.hop,
            Wire::Data {
                in_port,
                gen,
                seq,
                csum,
                flit,
            },
        );
    }

    /// Processes every wire event due at `now` (acceptance, ack/nack
    /// bookkeeping, nack-triggered resends) and fires timeout resends.
    /// Called by the engine at the top of the delivery phase; accepted flits
    /// are then collected per node via [`Retrans::drain_accepted_into`].
    pub fn tick(&mut self, now: Cycle, stats: &mut Stats) {
        let n = self.wire.len();
        let mut ev = std::mem::take(&mut self.scratch);
        for i in 0..n {
            self.wire[i].drain_due_into(now, &mut ev);
            for &(_, e) in &ev {
                self.handle(now, i, e, stats);
            }
        }
        self.scratch = ev;
        // Timeout path: the oldest unacked flit of a link has waited past
        // its (backed-off) deadline — re-send the whole window.
        for node in 0..n {
            for d in 0..4 {
                let l = node * 4 + d;
                let Some(front) = self.tx[l].unacked.front() else {
                    continue;
                };
                let wait = self.timeout + self.backoff * Cycle::from(front.attempts);
                let (deadline, from_seq) = (front.last_sent + wait, front.seq);
                if now >= deadline {
                    stats.recovery_events += 1;
                    self.resend_from(now, node, d, from_seq, stats);
                }
            }
        }
    }

    fn handle(&mut self, now: Cycle, node: usize, e: Wire, stats: &mut Stats) {
        match e {
            Wire::Data {
                in_port,
                gen,
                seq,
                csum,
                flit,
            } => {
                let p = usize::from(in_port);
                let sender = usize::from(self.nbr[node][p].expect("data from off-mesh"));
                let out_dir = Direction::from_index(p).opposite().index() as u8;
                let rx = &mut self.rx[node * 4 + p];
                if gen != rx.gen {
                    // In flight across a heal's link reset: its sequence
                    // number is meaningless in the fresh space. Drop.
                    return;
                }
                let good = csum == flit_checksum(&flit);
                if good && seq == rx.next_expected {
                    rx.next_expected += 1;
                    rx.nacked = None;
                    self.accepted[node].push((now, (p, flit)));
                    stats.link_acks += 1;
                    self.wire[sender].push(now + 1, Wire::Ack { out_dir, gen, seq });
                } else if seq >= rx.next_expected {
                    // Corrupted, or a gap (an earlier flit was dropped):
                    // nack the first missing sequence number, once.
                    if rx.nacked != Some(rx.next_expected) {
                        rx.nacked = Some(rx.next_expected);
                        let seq = rx.next_expected;
                        stats.link_nacks += 1;
                        self.wire[sender].push(now + 1, Wire::Nack { out_dir, gen, seq });
                    }
                }
                // seq < next_expected: stale duplicate from a resend race —
                // already accepted and acked; drop silently.
            }
            Wire::Ack { out_dir, gen, seq } => {
                let tx = &mut self.tx[node * 4 + usize::from(out_dir)];
                if gen != tx.gen {
                    return;
                }
                while tx.unacked.front().is_some_and(|e| e.seq <= seq) {
                    tx.unacked.pop_front();
                }
            }
            Wire::Nack { out_dir, gen, seq } => {
                if gen != self.tx[node * 4 + usize::from(out_dir)].gen {
                    return;
                }
                self.resend_from(now, node, usize::from(out_dir), seq, stats);
            }
        }
    }

    /// Go-back-N: re-sends every unacked entry with sequence `>= from_seq`
    /// on the directed link `(node, d)`, re-rolling corruption per
    /// traversal and re-counting the link energy.
    fn resend_from(&mut self, now: Cycle, node: usize, d: usize, from_seq: u32, stats: &mut Stats) {
        let l = node * 4 + d;
        let nb = usize::from(self.nbr[node][d].expect("resend over off-mesh link"));
        let in_port = Direction::from_index(d).opposite().index() as u8;
        let gen = self.tx[l].gen;
        for k in 0..self.tx[l].unacked.len() {
            let (seq, flit) = {
                let e = &mut self.tx[l].unacked[k];
                if e.seq < from_seq {
                    continue;
                }
                e.attempts = e.attempts.saturating_add(1);
                e.last_sent = now;
                (e.seq, e.flit)
            };
            let mut csum = flit_checksum(&flit);
            if self.rng.gen_bool(self.rate) {
                csum ^= CORRUPT;
                stats.corrupted_flits += 1;
            }
            stats.retransmitted_flits += 1;
            stats.count_link_hop_at(now, NodeId(node as u16), d);
            self.wire[nb].push(
                now + self.hop,
                Wire::Data {
                    in_port,
                    gen,
                    seq,
                    csum,
                    flit,
                },
            );
        }
    }

    /// Whether the physical link `(node, d)` is quiet: no unacknowledged
    /// flit on either directed half. Epoch reconfiguration waits for this
    /// before cutting a link's wiring so no accepted-but-unacked flit is
    /// stranded inside the protocol.
    pub fn link_quiet(&self, node: usize, d: Direction) -> bool {
        let Some(nb) = self.nbr[node][d.index()] else {
            return true;
        };
        self.tx[node * 4 + d.index()].unacked.is_empty()
            && self.tx[usize::from(nb) * 4 + d.opposite().index()]
                .unacked
                .is_empty()
    }

    /// Resets both directed halves of the physical link `(node, d)` to a
    /// fresh sequence space and bumps their generation, invalidating every
    /// wire event still in flight from before the reset. Called on link heal
    /// (the link was cut quiet, so nothing undelivered is discarded).
    pub fn reset_link(&mut self, node: usize, d: Direction) {
        let Some(nb) = self.nbr[node][d.index()] else {
            return;
        };
        let nb = usize::from(nb);
        for (tx_node, dir) in [(node, d), (nb, d.opposite())] {
            let rx_node = if tx_node == node { nb } else { node };
            let tx = &mut self.tx[tx_node * 4 + dir.index()];
            let gen = tx.gen.wrapping_add(1);
            *tx = LinkTx {
                gen,
                ..LinkTx::default()
            };
            self.rx[rx_node * 4 + dir.opposite().index()] = LinkRx {
                gen,
                ..LinkRx::default()
            };
        }
    }

    /// Appends the flits accepted at `node` this cycle, stamped with the
    /// cycle, to `out` (in per-link sequence order; deterministic).
    pub fn drain_accepted_into(&mut self, node: usize, out: &mut Vec<(Cycle, (PortId, Flit))>) {
        out.append(&mut self.accepted[node]);
    }

    /// Receiver's next expected sequence number for the directed link
    /// leaving `node` through `out_dir`.
    fn peer_expected(&self, node: usize, out_dir: usize) -> u32 {
        let nb = usize::from(self.nbr[node][out_dir].expect("dead-end link"));
        let p = Direction::from_index(out_dir).opposite().index();
        self.rx[nb * 4 + p].next_expected
    }

    /// Flits genuinely in flight (sent, not yet accepted downstream) on the
    /// directed link `(node, out_dir)` toward downstream VC `vc`. Mirrors
    /// the engine's `inflight` credit counters under retransmission.
    pub fn wire_in_flight_vc(&self, node: usize, out_dir: usize, vc: usize) -> usize {
        if self.nbr[node][out_dir].is_none() {
            return 0;
        }
        let expected = self.peer_expected(node, out_dir);
        self.tx[node * 4 + out_dir]
            .unacked
            .iter()
            .filter(|e| e.seq >= expected && usize::from(e.flit.vc) == vc)
            .count()
    }

    /// Total flits in flight across all links (flit-conservation input).
    pub fn in_flight_total(&self) -> usize {
        let mut total = 0;
        for node in 0..self.nbr.len() {
            for d in 0..4 {
                if self.nbr[node][d].is_none() {
                    continue;
                }
                let expected = self.peer_expected(node, d);
                total += self.tx[node * 4 + d]
                    .unacked
                    .iter()
                    .filter(|e| e.seq >= expected)
                    .count();
            }
        }
        total
    }
}

/// The complete runtime fault layer carried by [`crate::Network`] (`None`
/// when `FaultConfig` is disabled — the engine then takes none of the fault
/// branches and stays bit-identical to a fault-free build).
pub struct FaultLayer {
    /// The *currently effective* dead set. With a fault schedule each epoch
    /// replaces it with that epoch's; without one it is the
    /// construction-time resolution and never changes.
    pub dead: DeadSet,
    /// Degraded-mesh routing mask; `Some` iff anything is permanently dead
    /// or a fault schedule can make it so mid-run.
    pub mask: Option<RouteMask>,
    /// Link-layer retransmission; `Some` iff `transient_rate > 0`.
    pub retrans: Option<Retrans>,
    /// Dynamic-schedule state; `Some` iff the config carries a
    /// [`noc_types::FaultSchedule`].
    pub chaos: Option<Box<crate::chaos::ChaosState>>,
}

impl FaultLayer {
    /// Builds the fault layer for `cfg`, or `None` when faults are
    /// disabled.
    ///
    /// # Panics
    /// Panics when the permanent faults disconnect a live
    /// source/destination pair (the config is unroutable; `noc-verify`'s
    /// degraded certification reports the same condition without
    /// constructing a network).
    pub fn build(cfg: &NetConfig) -> Option<Box<FaultLayer>> {
        if !cfg.fault.enabled() {
            return None;
        }
        let epochs = cfg
            .fault
            .epochs(cfg.cols, cfg.rows)
            .unwrap_or_else(|e| panic!("{e}"));
        let dead = DeadSet::resolve(cfg.cols, cfg.rows, &cfg.fault);
        let mask = if dead.any() {
            match RouteMask::build(cfg.cols, cfg.rows, &dead) {
                Ok(m) => Some(m),
                Err(u) => panic!(
                    "fault config unroutable: no live minimal path from {} to {} \
                     (dead links: {:?})",
                    u.src,
                    u.dest,
                    dead.dead_link_list(cfg.cols, cfg.rows)
                ),
            }
        } else if cfg.fault.has_schedule() {
            // Schedule but nothing initially dead: start from the
            // full-connectivity mask so the routed path never changes shape
            // when the first kill arrives — only the mask contents do.
            Some(RouteMask::build_partial(cfg.cols, cfg.rows, &dead))
        } else {
            None
        };
        let retrans = (cfg.fault.transient_rate > 0.0).then(|| Retrans::new(cfg));
        let chaos = cfg
            .fault
            .has_schedule()
            .then(|| Box::new(crate::chaos::ChaosState::new(epochs, cfg.cols, cfg.rows)));
        Some(Box::new(FaultLayer {
            dead,
            mask,
            retrans,
            chaos,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_fault_builds_nothing() {
        assert!(FaultLayer::build(&NetConfig::synth(4, 2)).is_none());
    }

    #[test]
    fn dead_set_is_symmetric_and_deterministic() {
        let f = FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]);
        let set = DeadSet::resolve(4, 4, &f);
        assert!(set.link_dead(5, Direction::East));
        assert!(set.link_dead(6, Direction::West));
        assert!(!set.link_dead(5, Direction::West));

        let f = FaultConfig::default()
            .with_random_dead_links(3)
            .with_fault_seed(42);
        let a = DeadSet::resolve(4, 4, &f);
        let b = DeadSet::resolve(4, 4, &f);
        assert_eq!(
            a.dead_link_list(4, 4),
            b.dead_link_list(4, 4),
            "random kills must be reproducible from the seed"
        );
        assert_eq!(a.dead_link_list(4, 4).len(), 3);
    }

    #[test]
    fn dead_router_kills_all_its_links() {
        let f = FaultConfig {
            dead_routers: vec![NodeId(5)],
            ..FaultConfig::default()
        };
        let set = DeadSet::resolve(4, 4, &f);
        assert!(set.router_dead(5));
        for d in Direction::CARDINAL {
            assert!(set.link_dead(5, d));
        }
        assert!(set.link_dead(1, Direction::South));
        assert!(set.link_dead(4, Direction::East));
    }

    #[test]
    fn fault_free_mask_matches_productive_set() {
        let dead = DeadSet::resolve(4, 4, &FaultConfig::default());
        let mask = RouteMask::build(4, 4, &dead).expect("fault-free mesh routable");
        for u in 0..16u16 {
            for t in 0..16u16 {
                if u == t {
                    continue;
                }
                let (uc, tc) = (NodeId(u).to_coord(4), NodeId(t).to_coord(4));
                let mut want = 0u8;
                for &d in crate::routing::productive(uc, tc).as_slice() {
                    want |= 1 << d.index();
                }
                assert_eq!(mask.allowed(uc, tc), want, "{uc} -> {tc}");
            }
        }
    }

    #[test]
    fn route_mask_detours_around_interior_dead_link() {
        // Kill the (1,1)-E-(2,1) link. The same-row pair (1,1) -> (2,1) has
        // no minimal path any more, but the degraded-graph mask admits the
        // two symmetric 3-hop detours: leave via North or South.
        let f = FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]);
        let mask = RouteMask::build(4, 4, &DeadSet::resolve(4, 4, &f)).expect("still connected");
        let (from, to) = (Coord::new(1, 1), Coord::new(2, 1));
        assert!(!mask.permits(from, to, Direction::East), "dead link used");
        assert!(mask.permits(from, to, Direction::North));
        assert!(mask.permits(from, to, Direction::South));
        assert!(
            !mask.permits(from, to, Direction::West),
            "West never shortens"
        );
        // Unaffected pairs keep the plain productive set.
        assert!(mask.permits(Coord::new(0, 3), Coord::new(2, 0), Direction::East));
        assert!(mask.permits(Coord::new(0, 3), Coord::new(2, 0), Direction::North));
    }

    #[test]
    fn route_mask_rejects_disconnected_corner() {
        // Kill both links of corner (0,0): the graph disconnects and the
        // build must name a pair involving the isolated corner.
        let f = FaultConfig::default().with_dead_links(vec![
            (NodeId(0), Direction::East),
            (NodeId(0), Direction::South),
        ]);
        let err = RouteMask::build(4, 4, &DeadSet::resolve(4, 4, &f)).unwrap_err();
        assert!(err.src == NodeId(0) || err.dest == NodeId(0));
    }

    #[test]
    fn west_first_mask_is_stricter_than_minimal() {
        let dead = DeadSet::resolve(4, 4, &FaultConfig::default());
        let wf = RouteMask::build_west_first(4, 4, &dead).expect("fault-free WF routable");
        // Westward dest: WF allows only West.
        assert_eq!(
            wf.allowed(Coord::new(3, 1), Coord::new(0, 3)),
            1 << Direction::West.index()
        );
    }

    #[test]
    fn checksum_detects_field_changes() {
        let p = noc_types::Packet {
            id: noc_types::PacketId(9),
            src: NodeId(1),
            dest: NodeId(14),
            class: noc_types::MessageClass(0),
            len_flits: 5,
            birth: 7,
            measured: true,
        };
        let a = Flit::from_packet(&p, 2, 10);
        let mut b = a;
        b.vc = a.vc + 1;
        assert_ne!(flit_checksum(&a), flit_checksum(&b));
        assert_eq!(flit_checksum(&a), flit_checksum(&a));
    }
}
