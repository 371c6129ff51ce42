//! The seeker turn — the one mechanism behind SEEC and mSEEC.
//!
//! A turn belongs to one (NIC, message class): reserve an ejection VC at the
//! NIC, walk a seeker over the side band one hop per cycle, upgrade the first
//! packet found that is headed for that NIC and class, fly it there over the
//! express path, and move on; a seeker that finishes its walk empty-handed
//! releases the reservation in the same cycle. An *engine* runs turns back to
//! back. What differs between base SEEC and mSEEC is only the [`Schedule`]:
//! how many engines run side by side, whose turn is next on each, which
//! routers a seeker walks and which of those it searches, and the hop order
//! of the express path.

use crate::flight::{ff_path_is_live, Express, FfFlight, FfStream};
use noc_sim::network::Network;
use noc_sim::nic::EjReserve;
use noc_sim::Mechanism;
use noc_types::{
    BufferOrg, Cycle, Direction, Flit, MessageClass, NetConfig, NodeId, PortId, SchemeKind,
    NUM_PORTS,
};

/// Footnote 2 of the paper: every this many cycles, seekers also search NIC
/// *injection* queues for a window of eight seek times, which guards the
/// corner case where the `NoC` is so full of requests that a response can
/// never inject. The paper set N = 1M and never hit the case on gem5's
/// resource sizing; our stress configurations (2 TBEs, 1 `VNet`) reach it
/// readily, hence 10k. One seek time is [`Schedule::seek_time`]: the ring
/// length for SEEC (return segment included), `cols × rows` for mSEEC.
pub const INJ_SEARCH_PERIOD: Cycle = 10_000;

/// One stop of a seeker walk: the router the seeker sits on for a cycle, and
/// whether it searches there or merely transits.
pub type Stop = (NodeId, bool);

/// What distinguishes base SEEC from mSEEC.
pub trait Schedule {
    const KIND: SchemeKind;
    /// Express paths fly YX (column-first) instead of XY.
    const COLUMN_FIRST: bool;

    fn new(cfg: &NetConfig) -> Self;
    /// Engines running turns side by side.
    fn engines(&self) -> usize;
    /// Side-band cycles of one full search — the unit of the footnote-2
    /// windows.
    fn seek_time(&self) -> Cycle;
    /// Whose turn it is on engine `e`.
    fn turn(&self, e: usize) -> (NodeId, MessageClass);
    /// Moves engine `e` past its current turn; `false` once the engine has
    /// nothing left to serve until the others catch up.
    fn advance(&mut self, e: usize) -> bool;
    /// The seeker walk of engine `e`'s current turn, origin first.
    fn walk(&self, e: usize) -> Vec<Stop>;
    /// Engine `e`'s seeker found a packet at router `at`.
    fn found(&mut self, _e: usize, _at: NodeId) {}
    /// Every engine is waiting: moves all of them to their next turns.
    fn barrier(&mut self) {}
    /// The schedule's position, for black-box dumps.
    fn describe(&self) -> String;
}

/// The turn in progress on one engine.
#[derive(Debug)]
struct Turn {
    origin: NodeId,
    class: MessageClass,
    /// Reserved ejection VC at the origin NIC (flattened index).
    ej_vc: usize,
    /// Whether the seeker also searches NIC injection queues (footnote 2).
    search_queues: bool,
}

/// What a seeker found.
enum Match {
    /// A whole packet, drained from a VC (VCT) or taken from a NIC queue.
    Batch(Vec<Flit>),
    /// A head-fronted input VC to capture and stream (wormhole, §3.11).
    Stream(PortId, usize),
}

enum State {
    /// About to reserve an ejection VC and send the seeker off.
    Start,
    /// The seeker sits on stop `at` of `walk`.
    Seeking {
        turn: Turn,
        walk: Vec<Stop>,
        at: usize,
    },
    Express(Express),
    /// Waiting at the schedule's barrier.
    Idle,
}

/// [`Schedule::engines`] engines taking seeker turns in the order `S` sets.
pub struct Controller<S> {
    sched: S,
    engines: Vec<State>,
    /// Per (NIC, class): the class missed a turn for want of a free ejection
    /// VC and proactively reserves the next one to free up (§3.3).
    pending_reserve: Vec<bool>,
    classes: usize,
    /// Diagnostics: completed FF ejections.
    ff_ejections: u64,
    /// Diagnostics: seekers that returned empty-handed.
    empty_seeks: u64,
}

impl<S: Schedule> Controller<S> {
    /// The mechanism for a network of configuration `cfg`.
    pub fn for_net(cfg: &NetConfig) -> Self {
        let sched = S::new(cfg);
        Controller {
            engines: (0..sched.engines()).map(|_| State::Start).collect(),
            sched,
            pending_reserve: vec![false; cfg.num_nodes() * cfg.classes as usize],
            classes: cfg.classes as usize,
            ff_ejections: 0,
            empty_seeks: 0,
        }
    }

    /// The ejection VC for a turn of (`origin`, `class`): one an earlier
    /// missed turn already holds, else a free one; with neither, the turn is
    /// missed and a standing order is left for [`Self::serve_pending`].
    fn reserve(&mut self, net: &mut Network, origin: NodeId, class: MessageClass) -> Option<usize> {
        let per = net.cfg.ejection_vcs_per_class as usize;
        let base = class.idx() * per;
        let nic = &net.nics[origin.idx()];
        let ej_vc = (base..base + per)
            .find(|&i| nic.ejection[i].reserve() == EjReserve::Held)
            .or_else(|| hold_free_vc(net, origin, class));
        self.pending_reserve[origin.idx() * self.classes + class.idx()] = ej_vc.is_none();
        ej_vc
    }

    /// Serves the standing orders of classes whose NIC now has a free VC.
    fn serve_pending(&mut self, net: &mut Network) {
        for (slot, pending) in self.pending_reserve.iter_mut().enumerate() {
            if *pending {
                let nic = NodeId((slot / self.classes) as u16);
                let class = MessageClass((slot % self.classes) as u8);
                *pending = hold_free_vc(net, nic, class).is_none();
            }
        }
    }

    /// The state of engine `e` after its current turn.
    fn next(&mut self, e: usize) -> State {
        if self.sched.advance(e) {
            State::Start
        } else {
            State::Idle
        }
    }

    /// One cycle of engine `e`.
    fn step(&mut self, net: &mut Network, e: usize, state: State) -> State {
        let now = net.cycle;
        match state {
            State::Start => {
                let (origin, class) = self.sched.turn(e);
                let Some(ej_vc) = self.reserve(net, origin, class) else {
                    return self.next(e);
                };
                // Injection queues are searched inside the periodic window
                // and whenever the data network has gone quiescent for a
                // couple of seek times — the state in which a response that
                // can never inject is the only thing left to rescue.
                let seek = self.sched.seek_time();
                let search_queues =
                    now % INJ_SEARCH_PERIOD < 8 * seek || net.quiescent_for() > 2 * seek;
                State::Seeking {
                    turn: Turn {
                        origin,
                        class,
                        ej_vc,
                        search_queues,
                    },
                    walk: self.sched.walk(e),
                    at: 0,
                }
            }
            State::Seeking { turn, walk, at } => {
                // One hop per cycle on the side band, searching or not.
                net.stats.sideband_hops += 1;
                let (node, searched) = walk[at];
                let found = if searched {
                    search(net, &turn, node, S::COLUMN_FIRST)
                } else {
                    None
                };
                match found {
                    Some(found) => {
                        // The seeker is dropped; the packet flies.
                        self.sched.found(e, node);
                        State::Express(launch(net, &turn, node, found, S::COLUMN_FIRST))
                    }
                    None if at + 1 == walk.len() => {
                        debug_assert_eq!(
                            net.nics[turn.origin.idx()].ejection[turn.ej_vc].reserve(),
                            EjReserve::Held
                        );
                        net.set_ej_reserve(turn.origin, turn.ej_vc, EjReserve::Free);
                        self.empty_seeks += 1;
                        self.next(e)
                    }
                    None => State::Seeking {
                        turn,
                        walk,
                        at: at + 1,
                    },
                }
            }
            State::Express(mut express) => {
                if express.advance(net, now) {
                    self.ff_ejections += 1;
                    self.next(e)
                } else {
                    State::Express(express)
                }
            }
            State::Idle => State::Idle,
        }
    }
}

/// Holds the first free ejection VC of `class` at `nic`, if there is one.
fn hold_free_vc(net: &mut Network, nic: NodeId, class: MessageClass) -> Option<usize> {
    let claims = &net.routers[nic.idx()].outputs[Direction::Local.index()].vc_claimed;
    let free = net.nics[nic.idx()].free_ejection_vc(class, claims)?;
    net.set_ej_reserve(nic, free, EjReserve::Held);
    Some(free)
}

/// Searches router `node` — its input VCs and, for a footnote-2 seeker, its
/// NIC's injection queue — for a packet of `turn`'s class headed to its
/// origin, and takes the first one out of the network's hands.
fn search(net: &mut Network, turn: &Turn, node: NodeId, column_first: bool) -> Option<Match> {
    // A flight from here flies the fixed minimal path and cannot detour
    // around dead links; if that path is severed, nothing at this router is
    // a valid Free-Flow candidate for this origin.
    if !ff_path_is_live(net, node, turn.origin, column_first) {
        return None;
    }
    let r = node.idx();
    let wormhole = net.cfg.buffer_org == BufferOrg::Wormhole;
    for port in 0..NUM_PORTS {
        if net.credits.occ(r, port) == 0 {
            continue; // nothing buffered behind this port
        }
        for vc in 0..net.routers[r].inputs[port].vcs.len() {
            let v = &net.routers[r].inputs[port].vcs[vc];
            if v.ff_capture || v.route.is_some() {
                continue;
            }
            // VCT upgrades fully-buffered packets in one shot; wormhole
            // (§3.11) upgrades any head-fronted VC and streams the rest.
            let eligible = if wormhole {
                v.front().is_some_and(|f| f.kind.is_head())
            } else {
                v.packet_fully_buffered()
            };
            if !eligible {
                continue;
            }
            let front = v.front().expect("eligible VC is non-empty");
            if front.dest == turn.origin && front.class == turn.class && !front.ff {
                return Some(if wormhole {
                    Match::Stream(port, vc)
                } else {
                    Match::Batch(net.drain_packet(node, port, vc))
                });
            }
        }
    }
    if turn.search_queues {
        let q = &mut net.nics[r].inj_queues[turn.class.idx()];
        let k = q.iter().position(|p| p.dest == turn.origin)?;
        let pkt = q.remove(k).expect("position() returned an in-range index");
        let now = net.cycle;
        return Some(Match::Batch(
            (0..pkt.len_flits)
                .map(|i| Flit::from_packet(&pkt, i, now))
                .collect(),
        ));
    }
    None
}

/// Starts the express traversal of the match found at router `from` into
/// `turn`'s reserved ejection VC.
fn launch(
    net: &mut Network,
    turn: &Turn,
    from: NodeId,
    found: Match,
    column_first: bool,
) -> Express {
    let now = net.cycle;
    let (dest, ej_vc) = (turn.origin, turn.ej_vc);
    match found {
        Match::Batch(flits) => {
            net.set_ej_reserve(dest, ej_vc, EjReserve::For(flits[0].packet));
            Express::Flight(FfFlight::plan(
                net,
                flits,
                from,
                dest,
                ej_vc,
                now,
                column_first,
            ))
        }
        Match::Stream(port, vc) => {
            let packet = net.routers[from.idx()].inputs[port].vcs[vc]
                .front()
                .expect("streamed VC holds the matched packet")
                .packet;
            net.set_ej_reserve(dest, ej_vc, EjReserve::For(packet));
            Express::Stream(FfStream::begin(
                net,
                from,
                port,
                vc,
                dest,
                ej_vc,
                now,
                column_first,
            ))
        }
    }
}

impl<S: Schedule> Mechanism for Controller<S> {
    fn kind(&self) -> SchemeKind {
        S::KIND
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        self.serve_pending(net);
        for e in 0..self.engines.len() {
            let state = std::mem::replace(&mut self.engines[e], State::Idle);
            self.engines[e] = self.step(net, e, state);
        }
        if self.engines.iter().all(|s| matches!(s, State::Idle)) {
            self.sched.barrier();
            self.engines.fill_with(|| State::Start);
        }
    }

    fn debug_state(&self) -> String {
        let engines: Vec<String> = self
            .engines
            .iter()
            .enumerate()
            .map(|(e, state)| {
                let state = match state {
                    State::Start => "start".to_string(),
                    State::Seeking { turn, walk, at } => {
                        format!(
                            "seeking {turn:?} stop={at}/{} at={:?}",
                            walk.len(),
                            walk[*at].0
                        )
                    }
                    State::Express(Express::Flight(f)) => {
                        format!("flying depart={} links={}", f.depart(), f.links().len())
                    }
                    State::Express(Express::Stream(_)) => "streaming".to_string(),
                    State::Idle => "done".to_string(),
                };
                format!("eng{e}: {state}")
            })
            .collect();
        format!(
            "{} ff_ejections={} empty_seeks={} pending_reserves={} [{}]",
            self.sched.describe(),
            self.ff_ejections,
            self.empty_seeks,
            self.pending_reserve.iter().filter(|&&b| b).count(),
            engines.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mseec::Columns;
    use crate::seec::Ring;
    use noc_types::Coord;
    use std::collections::BTreeSet;

    fn searched(walk: &[Stop]) -> BTreeSet<NodeId> {
        walk.iter().filter(|s| s.1).map(|s| s.0).collect()
    }

    /// A seeker moves at most one mesh hop per cycle.
    fn assert_hops(walk: &[Stop], cols: u8) {
        for pair in walk.windows(2) {
            let (a, b) = (pair[0].0.to_coord(cols), pair[1].0.to_coord(cols));
            assert!(a.manhattan(b) <= 1, "{a} -> {b} is not a hop");
        }
    }

    /// The walk contract of both schedules, over every turn of each mesh.
    #[test]
    fn walks_keep_their_contract() {
        for (cols, rows, classes) in [(4u8, 4u8, 1u8), (8, 8, 1), (4, 2, 3), (3, 5, 2)] {
            let mut cfg = NetConfig::synth(cols, 2);
            (cfg.rows, cfg.classes) = (rows, classes);
            let nodes = cfg.num_nodes();

            // SEEC: transit unsearched to the slot's search start, then
            // search one revolution — from wherever the last find left it.
            let mut ring = Ring::new(&cfg);
            let len = ring.seek_time() as usize;
            for turn in 0..nodes * classes as usize {
                let (origin, class) = ring.turn(0);
                assert_eq!(origin.idx(), turn / classes as usize);
                assert_eq!(class.idx(), turn % classes as usize);
                for found_at in (0..nodes as u16).map(NodeId) {
                    ring.found(0, found_at);
                    let walk = ring.walk(0);
                    let transit = walk.iter().take_while(|s| !s.1).count();
                    assert!(transit < len);
                    assert_eq!(walk.len(), transit + len);
                    assert_eq!(walk[0].0, origin);
                    assert!(walk[transit..].iter().all(|s| s.1));
                    assert_eq!(searched(&walk).len(), nodes, "a router went unsearched");
                    let first = walk[transit].0.to_coord(cols);
                    assert_eq!(first.manhattan(found_at.to_coord(cols)), 1);
                    assert_hops(&walk, cols);
                }
                assert!(ring.advance(0));
            }
            assert_eq!(ring.turn(0), (NodeId(0), MessageClass(0)));

            // mSEEC: in every phase and step the engines search exactly the
            // column partitions, one each, plus their own origins.
            let mut columns = Columns::new(&cfg);
            assert_eq!(columns.engines(), cols as usize);
            for phase in 0..rows {
                for step in 0..cols {
                    let mut claimed = BTreeSet::new();
                    for e in 0..cols {
                        let origin = Coord::new(e, phase).to_node(cols);
                        assert_eq!(columns.turn(e as usize), (origin, MessageClass(0)));
                        let walk = columns.walk(e as usize);
                        assert_eq!(walk[0], (origin, true));
                        assert_hops(&walk, cols);
                        let col = (e + step) % cols;
                        let mut partition: BTreeSet<NodeId> = (0..rows)
                            .map(|y| Coord::new(col, y).to_node(cols))
                            .collect();
                        assert!(partition.iter().all(|&n| claimed.insert(n)));
                        partition.insert(origin);
                        assert_eq!(searched(&walk), partition, "engine {e}");
                    }
                    assert_eq!(claimed.len(), nodes);
                    for e in 0..cols as usize {
                        for class in 1..classes {
                            assert!(columns.advance(e));
                            assert_eq!(columns.turn(e).1, MessageClass(class));
                        }
                        assert!(!columns.advance(e));
                    }
                    columns.barrier();
                }
            }
            assert_eq!(columns.turn(0), (NodeId(0), MessageClass(0)));
        }
    }
}
