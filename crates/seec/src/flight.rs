//! Free-Flow flights: the bufferless traversal of an upgraded packet.
//!
//! At upgrade time the whole minimal path is known, so the flight reserves
//! every `(directed link, cycle)` slot it will use — the model of the
//! lookahead signal racing one cycle ahead of the data (§3.5) — and then the
//! flits simply materialize at the destination NIC on schedule, with link
//! activity accounted per cycle. Switch allocation skips reserved slots, so
//! normal traffic can never collide with a flight, and two flights can never
//! collide with each other (the reservation table rejects overlaps).

use noc_sim::network::Network;
use noc_sim::routing::hop_dir;
use noc_types::{Coord, Cycle, Direction, Flit, NodeId, PortId};

/// An in-progress Free-Flow traversal.
#[derive(Clone, Debug)]
pub struct FfFlight {
    /// The packet's flits, already marked `ff` and stamped with the upgrade
    /// cycle.
    flits: Vec<Flit>,
    /// Output links in path order. The last entry is the destination
    /// router's local (ejection) port; earlier entries are router-router
    /// links.
    links: Vec<(NodeId, PortId)>,
    /// Cycle the head flit crosses `links[0]`.
    depart: Cycle,
    /// Destination NIC index and reserved ejection VC.
    dest: NodeId,
    ej_vc: usize,
    /// Flits fully delivered so far.
    delivered: usize,
}

impl FfFlight {
    /// Plans a flight for `flits` (a fully drained packet, upgraded by a
    /// seeker at cycle `now`) currently at router `from`, destined for
    /// `dest`'s NIC ejection VC `ej_vc`.
    ///
    /// `column_first` picks YX instead of XY hop order — mSEEC flights stay
    /// in their column partition as long as possible (Fig 5), base SEEC uses
    /// XY. The earliest conflict-free departure after `now` is chosen by
    /// probing the reservation table (for base SEEC the table is empty and
    /// `now + 1` is always used; for mSEEC this enforces the static
    /// schedule's non-intersection guarantee structurally).
    pub fn plan(
        net: &mut Network,
        mut flits: Vec<Flit>,
        from: NodeId,
        dest: NodeId,
        ej_vc: usize,
        now: Cycle,
        column_first: bool,
    ) -> FfFlight {
        let links = express_links(net, from, dest, column_first);
        let depart = reserve(net, &links, now + 1, flits.len() as Cycle);
        for f in &mut flits {
            upgrade(f, now, &links, ej_vc);
        }
        // One lookahead per link precedes the data.
        net.stats.lookahead_hops += links.len() as u64;

        FfFlight {
            flits,
            links,
            depart,
            dest,
            ej_vc,
            delivered: 0,
        }
    }

    /// Advances the flight to `now`: counts link activity for flits crossing
    /// links this cycle and delivers flits reaching the NIC. Returns `true`
    /// when the whole packet has been delivered.
    pub fn advance(&mut self, net: &mut Network, now: Cycle) -> bool {
        let len = self.flits.len();
        let nlinks = self.links.len();
        // Flit s crosses link i at cycle depart + s + i.
        for s in 0..len {
            if now < self.depart + s as Cycle {
                continue;
            }
            let i = (now - self.depart - s as Cycle) as usize;
            if i < nlinks.saturating_sub(1) {
                // Router-router traversal.
                let (node, port) = self.links[i];
                net.stats.count_link_hop_at(now, node, port);
            }
        }
        // Flit s arrives at the NIC at depart + s + nlinks.
        while self.delivered < len && now == self.depart + self.delivered as Cycle + nlinks as Cycle
        {
            net.deliver_ff_flit(self.dest, self.ej_vc, self.flits[self.delivered]);
            self.delivered += 1;
        }
        self.delivered == len
    }

    /// Cycle the tail flit enters the NIC (flight completion).
    pub fn completes_at(&self) -> Cycle {
        self.depart + (self.flits.len() - 1) as Cycle + self.links.len() as Cycle
    }

    /// The links this flight crosses (tests).
    pub fn links(&self) -> &[(NodeId, PortId)] {
        &self.links
    }

    /// Chosen departure cycle (tests).
    pub fn depart(&self) -> Cycle {
        self.depart
    }
}

/// Whether the Free-Flow path from `from` to `dest` crosses only live
/// links. Flights fly the fixed minimal path with no way to detour, so on a
/// degraded mesh ([`noc_types::FaultConfig`] dead links) the seeker must
/// skip candidates whose express path would cross a dead link — the packet
/// stays reachable through the masked adaptive routing, it just cannot be
/// express-channelled from that router. The seeker side band itself is
/// modeled fault-free. Always `true` on a healthy mesh, at zero cost.
pub fn ff_path_is_live(net: &Network, from: NodeId, dest: NodeId, column_first: bool) -> bool {
    match &net.fault {
        Some(f) if f.dead.any() => {}
        _ => return true,
    }
    let links = express_links(net, from, dest, column_first);
    links[..links.len() - 1]
        .iter()
        .all(|&(node, port)| net.neighbor(node, Direction::from_index(port)).is_some())
}

/// The output links of the express path from router `from` to `dest`'s NIC,
/// in path order: the router-router links of the minimal XY (or, with
/// `column_first`, YX) path, then `dest`'s local (ejection) port.
fn express_links(
    net: &Network,
    from: NodeId,
    dest: NodeId,
    column_first: bool,
) -> Vec<(NodeId, PortId)> {
    let cols = net.cfg.cols;
    let mut cur = from.to_coord(cols);
    let path = minimal_path(cur, dest.to_coord(cols), column_first);
    let mut links = Vec::with_capacity(path.len() + 1);
    for next in path {
        links.push((cur.to_node(cols), hop_dir(cur, next).index()));
        cur = next;
    }
    links.push((dest, Direction::Local.index()));
    links
}

/// Reserves every link of `links` for a `len`-cycle window at the earliest
/// conflict-free departure at or after `earliest`, and returns that
/// departure: link `i` is held for cycles `[depart + i, depart + i + len - 1]`.
/// A batch flight holds one window for the whole packet, a stream one
/// single-cycle window per flit.
fn reserve(net: &mut Network, links: &[(NodeId, PortId)], earliest: Cycle, len: Cycle) -> Cycle {
    let mut depart = earliest;
    while links.iter().enumerate().any(|(i, &(node, port))| {
        let at = depart + i as Cycle;
        net.reservations.conflicts(node, port, at, at + len - 1)
    }) {
        depart += 1;
    }
    for (i, &(node, port)) in links.iter().enumerate() {
        let at = depart + i as Cycle;
        net.reservations.reserve(node, port, at, at + len - 1);
    }
    depart
}

/// Marks `flit` as Free-Flow, upgraded by a seeker at cycle `at` and bound
/// for ejection VC `ej_vc` over `links`; the router-router hops of that path
/// (every link but the last) are charged to it now.
fn upgrade(flit: &mut Flit, at: Cycle, links: &[(NodeId, PortId)], ej_vc: usize) {
    flit.ff = true;
    flit.ff_upgrade = Some(at);
    flit.escape = false;
    flit.hops = flit.hops.saturating_add((links.len() - 1) as u8);
    flit.vc = ej_vc as u8;
}

/// Minimal path from `from` to `to`, XY (row-first) or YX (column-first)
/// order; excludes `from`, includes `to`.
pub fn minimal_path(from: Coord, to: Coord, column_first: bool) -> Vec<Coord> {
    let mut path = Vec::with_capacity(from.manhattan(to) as usize);
    let mut cur = from;
    let step_x = |cur: &mut Coord, path: &mut Vec<Coord>| {
        while cur.x != to.x {
            cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(*cur);
        }
    };
    let step_y = |cur: &mut Coord, path: &mut Vec<Coord>| {
        while cur.y != to.y {
            cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(*cur);
        }
    };
    if column_first {
        step_y(&mut cur, &mut path);
        step_x(&mut cur, &mut path);
    } else {
        step_x(&mut cur, &mut path);
        step_y(&mut cur, &mut path);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{FlitKind, MessageClass, NetConfig, Packet, PacketId};

    fn flits(len: u8, src: NodeId, dest: NodeId) -> Vec<Flit> {
        let p = Packet {
            id: PacketId(1),
            src,
            dest,
            class: MessageClass(0),
            len_flits: len,
            birth: 0,
            measured: true,
        };
        (0..len).map(|s| Flit::from_packet(&p, s, 5)).collect()
    }

    #[test]
    fn flight_reserves_whole_path_and_delivers_on_schedule() {
        let mut net = Network::new(NetConfig::synth(4, 2));
        let from = NodeId(0);
        let dest = NodeId(10); // (2,2): 4 hops + ejection
        let mut flight = FfFlight::plan(
            &mut net,
            flits(5, NodeId(3), dest),
            from,
            dest,
            0,
            10,
            false,
        );
        assert_eq!(flight.links().len(), 5);
        assert_eq!(flight.depart(), 11);
        // Head: crosses links 11..15, arrives NIC at 16; tail arrives at 20.
        assert_eq!(flight.completes_at(), 20);
        // Link slots are reserved.
        assert!(net
            .reservations
            .is_reserved(NodeId(0), flight.links()[0].1, 11));
        assert!(net
            .reservations
            .is_reserved(NodeId(0), flight.links()[0].1, 15));
        assert!(!net
            .reservations
            .is_reserved(NodeId(0), flight.links()[0].1, 16));

        let mut done = false;
        for now in 11..=20 {
            done = flight.advance(&mut net, now);
        }
        assert!(done);
        let nic = &net.nics[10];
        assert!(nic.ejection[0].complete_packet());
        assert_eq!(nic.ejection[0].buf.front().unwrap().hops, 4);
        assert_eq!(nic.ejection[0].buf.front().unwrap().kind, FlitKind::Head);
    }

    #[test]
    fn conflicting_flight_is_delayed_not_overlapped() {
        let mut net = Network::new(NetConfig::synth(4, 2));
        let dest = NodeId(3);
        let a = FfFlight::plan(
            &mut net,
            flits(5, NodeId(0), dest),
            NodeId(0),
            dest,
            0,
            4,
            false,
        );
        // Same path, same earliest: must be pushed past a's occupancy.
        let b = FfFlight::plan(
            &mut net,
            flits(5, NodeId(0), dest),
            NodeId(0),
            dest,
            1,
            4,
            false,
        );
        assert!(b.depart() > a.depart());
        // No shared (link, cycle): b departs only after a's first link frees.
        assert!(b.depart() >= a.depart() + 5);
    }

    #[test]
    fn column_first_path_stays_in_column_then_row() {
        let path = minimal_path(Coord::new(2, 0), Coord::new(0, 3), true);
        // Down column 2 first, then west along row 3.
        assert_eq!(path[0], Coord::new(2, 1));
        assert_eq!(path[2], Coord::new(2, 3));
        assert_eq!(path[3], Coord::new(1, 3));
        assert_eq!(*path.last().unwrap(), Coord::new(0, 3));
    }

    #[test]
    fn ff_path_liveness_reflects_dead_links() {
        use noc_types::{Direction, FaultConfig};
        let cfg = NetConfig::synth(4, 2)
            .with_fault(FaultConfig::default().with_dead_links(vec![(NodeId(1), Direction::East)]));
        let net = Network::new(cfg);
        // XY paths along row 0 cross the dead 1 -> 2 link.
        assert!(!ff_path_is_live(&net, NodeId(0), NodeId(3), false));
        assert!(!ff_path_is_live(&net, NodeId(0), NodeId(7), false));
        // Column-first drops to row 1 before heading east: alive.
        assert!(ff_path_is_live(&net, NodeId(0), NodeId(7), true));
        // Paths that never touch the dead link are unaffected.
        assert!(ff_path_is_live(&net, NodeId(4), NodeId(12), false));
        // A healthy mesh is always live.
        let clean = Network::new(NetConfig::synth(4, 2));
        assert!(ff_path_is_live(&clean, NodeId(0), NodeId(3), false));
    }

    #[test]
    fn zero_hop_flight_is_just_ejection() {
        // Packet already buffered at its destination router.
        let mut net = Network::new(NetConfig::synth(4, 2));
        let dest = NodeId(6);
        let mut flight = FfFlight::plan(
            &mut net,
            flits(1, NodeId(0), dest),
            dest,
            dest,
            1,
            99,
            false,
        );
        assert_eq!(flight.links().len(), 1);
        assert_eq!(flight.completes_at(), 101);
        assert!(!flight.advance(&mut net, 100));
        assert!(flight.advance(&mut net, 101));
        assert!(net.nics[6].ejection[1].complete_packet());
    }
}

/// A *streaming* Free-Flow traversal for wormhole buffering (§3.11): the
/// seeker upgrades the head flit at the front of a (possibly shallow) VC;
/// the VC is put into capture mode, and each trailing flit is launched onto
/// the express path as it arrives, chasing the head at one hop per cycle.
/// Launches reserve their link slots individually, so the no-collision
/// invariant holds exactly as for batch flights.
#[derive(Clone, Debug)]
pub struct FfStream {
    links: Vec<(NodeId, PortId)>,
    dest: NodeId,
    ej_vc: usize,
    /// Total flits in the packet (from the head flit's header).
    total: u8,
    /// Launched flits with their departure cycles, in sequence order.
    launched: Vec<(Cycle, Flit)>,
    delivered: usize,
    last_depart: Cycle,
    /// Source VC being captured (None once the tail has been taken).
    src: Option<(NodeId, PortId, usize)>,
    upgrade_cycle: Cycle,
}

impl FfStream {
    /// Begins capturing `(node, port, vc)`, whose front flit must be the
    /// packet's head. Flits buffered right now launch immediately.
    #[allow(clippy::too_many_arguments)] // mirrors the upgrade-site tuple one-to-one
    pub fn begin(
        net: &mut Network,
        node: NodeId,
        port: PortId,
        vc: usize,
        dest: NodeId,
        ej_vc: usize,
        now: Cycle,
        column_first: bool,
    ) -> FfStream {
        let head = *net.routers[node.idx()].inputs[port].vcs[vc]
            .front()
            .expect("capturing empty VC");
        debug_assert!(head.kind.is_head());
        let links = express_links(net, node, dest, column_first);
        net.stats.lookahead_hops += links.len() as u64;
        net.routers[node.idx()].inputs[port].vcs[vc].ff_capture = true;
        let mut s = FfStream {
            links,
            dest,
            ej_vc,
            total: head.len,
            launched: Vec::with_capacity(head.len as usize),
            delivered: 0,
            last_depart: now, // first launch departs at now + 1
            src: Some((node, port, vc)),
            upgrade_cycle: now,
        };
        s.pump(net, now);
        s
    }

    /// Takes any newly-arrived captured flits and launches them.
    fn pump(&mut self, net: &mut Network, now: Cycle) {
        let Some((node, port, vc)) = self.src else {
            return;
        };
        if net.routers[node.idx()].inputs[port].vcs[vc].buf.is_empty() {
            return;
        }
        let flits = net.take_captured(node, port, vc);
        if !net.routers[node.idx()].inputs[port].vcs[vc].ff_capture {
            // The tail passed: the VC has been released.
            self.src = None;
        }
        for mut f in flits {
            upgrade(&mut f, self.upgrade_cycle, &self.links, self.ej_vc);
            // Earliest conflict-free departure after the previous flit.
            let depart = reserve(net, &self.links, (now + 1).max(self.last_depart + 1), 1);
            self.last_depart = depart;
            self.launched.push((depart, f));
        }
    }

    /// One cycle of progress; returns `true` when the whole packet has been
    /// delivered into the reserved ejection VC.
    pub fn advance(&mut self, net: &mut Network, now: Cycle) -> bool {
        self.pump(net, now);
        let nlinks = self.links.len();
        for &(depart, _) in &self.launched {
            if now >= depart && now < depart + (nlinks - 1) as Cycle {
                let (node, port) = self.links[(now - depart) as usize];
                net.stats.count_link_hop_at(now, node, port);
            }
        }
        while self.delivered < self.launched.len() {
            let (depart, flit) = self.launched[self.delivered];
            if now != depart + nlinks as Cycle {
                break;
            }
            net.deliver_ff_flit(self.dest, self.ej_vc, flit);
            self.delivered += 1;
        }
        self.delivered == self.total as usize
    }
}

/// The express traversal a seeker's match launched: a whole drained packet
/// (VCT, or from a NIC queue) flying as one batch, or a captured wormhole VC
/// streaming its flits as they arrive.
pub(crate) enum Express {
    Flight(FfFlight),
    Stream(FfStream),
}

impl Express {
    /// One cycle of progress; `true` once the whole packet sits in the
    /// reserved ejection VC.
    pub(crate) fn advance(&mut self, net: &mut Network, now: Cycle) -> bool {
        match self {
            Express::Flight(f) => f.advance(net, now),
            Express::Stream(s) => s.advance(net, now),
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use noc_types::{MessageClass, NetConfig, Packet, PacketId};

    fn packet(len: u8, src: NodeId, dest: NodeId) -> (Packet, Vec<Flit>) {
        let p = Packet {
            id: PacketId(77),
            src,
            dest,
            class: MessageClass(0),
            len_flits: len,
            birth: 0,
            measured: true,
        };
        let flits = (0..len).map(|s| Flit::from_packet(&p, s, 3)).collect();
        (p, flits)
    }

    /// Buffers `flit` the way an arrival does: into the VC and the
    /// occupancy counter together.
    fn arrive(net: &mut Network, (node, port, vc): (NodeId, PortId, usize), flit: Flit) {
        net.routers[node.idx()].inputs[port].vcs[vc].push(flit);
        net.credits.occ_add(node.idx(), port, 1);
    }

    #[test]
    fn stream_launches_flits_as_they_arrive() {
        let mut net = Network::new(NetConfig::synth(4, 2).with_wormhole(2));
        let (_, flits) = packet(5, NodeId(0), NodeId(3));
        let (node, port, vc) = (NodeId(1), 2, 0);
        // Two flits buffered now; three trickle in later.
        arrive(&mut net, (node, port, vc), flits[0]);
        arrive(&mut net, (node, port, vc), flits[1]);

        let mut stream = FfStream::begin(&mut net, node, port, vc, NodeId(3), 0, 100, false);
        assert_eq!(stream.launched.len(), 2);
        assert!(net.routers[node.idx()].inputs[port].vcs[vc].ff_capture);

        // Trailing flits arrive over the next cycles.
        let mut done = false;
        for now in 101..140 {
            if now == 105 {
                arrive(&mut net, (node, port, vc), flits[2]);
                arrive(&mut net, (node, port, vc), flits[3]);
            }
            if now == 110 {
                arrive(&mut net, (node, port, vc), flits[4]);
            }
            done = stream.advance(&mut net, now);
            if done {
                break;
            }
        }
        assert!(done, "stream never completed");
        // The VC was released when the tail was taken.
        assert!(net.routers[node.idx()].inputs[port].vcs[vc].is_free());
        // The packet reassembled in order at the destination.
        let ej = &net.nics[3].ejection[0];
        assert!(ej.complete_packet());
        let seqs: Vec<u8> = ej.buf.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stream_departures_are_strictly_ordered() {
        let mut net = Network::new(NetConfig::synth(4, 2).with_wormhole(1));
        let (_, flits) = packet(3, NodeId(0), NodeId(12));
        let (node, port, vc) = (NodeId(5), 0, 1);
        for f in &flits {
            arrive(&mut net, (node, port, vc), *f);
        }
        let stream = FfStream::begin(&mut net, node, port, vc, NodeId(12), 1, 50, true);
        let departs: Vec<Cycle> = stream.launched.iter().map(|(d, _)| *d).collect();
        assert_eq!(departs.len(), 3);
        assert!(departs.windows(2).all(|w| w[0] < w[1]));
    }
}
