//! mSEEC: multiple simultaneous seekers over column partitions (§3.8).
//!
//! Partitions are the mesh columns, groups are the rows (Fig 5). In phase
//! `p`, the NICs of row `p` are active; in step `s` of that phase, the NIC
//! in column `j` seeks within column `(j + s) mod k`. Seekers travel along
//! row `p` to their target column, then sweep the column; FF packets return
//! column-first. The paper guarantees non-intersection with a static
//! schedule; here the same invariant is enforced structurally by the
//! space-time reservation table (a flight that would cross another's path
//! is delayed by the bounded residual occupancy — see DESIGN.md).

use crate::flight::{FfFlight, FfStream};
use crate::seec::SeecConfig;
use noc_sim::network::Network;
use noc_sim::nic::EjReserve;
use noc_sim::Mechanism;
use noc_types::{Coord, Cycle, Flit, MessageClass, NodeId, SchemeKind, NUM_PORTS};

/// A seeker scoped to one column partition.
#[derive(Clone, Debug)]
struct MSeeker {
    origin: NodeId,
    class: MessageClass,
    ej_vc: usize,
    /// Router the seeker currently sits on.
    pos: NodeId,
    /// Remaining walk (next router first).
    walk: Vec<NodeId>,
    /// Column being searched.
    col: u8,
    /// Whether this seeker also searches NIC injection queues (footnote 2).
    search_queues: bool,
}

#[derive(Debug)]
enum EngState {
    /// About to serve `class_cursor` (reserve + launch seeker).
    StartClass,
    Seeking(MSeeker),
    Flying(FfFlight),
    /// Wormhole (§3.11): trailing flits chase the head through a captured VC.
    Streaming(FfStream),
    /// All classes served for this step; waiting at the barrier.
    DoneStep,
}

/// One per-column engine (the active NIC of the current group/row).
#[derive(Debug)]
struct Engine {
    /// Column of this engine's NIC.
    j: u8,
    state: EngState,
    class_cursor: u8,
}

/// The mSEEC mechanism: `k` concurrent engines, phase/step schedule.
pub struct MSeecMechanism {
    cfg: SeecConfig,
    cols: u8,
    rows: u8,
    classes: u8,
    /// Active group (row).
    phase: u8,
    /// Step within the phase: engine `j` searches column `(j+step) % cols`.
    step: u8,
    engines: Vec<Engine>,
    /// Per (nic, class): pending proactive reservation after a missed turn.
    pending_reserve: Vec<bool>,
    pub ff_ejections: u64,
    pub empty_seeks: u64,
}

impl MSeecMechanism {
    pub fn new(cols: u8, rows: u8, classes: u8, cfg: SeecConfig) -> MSeecMechanism {
        assert!(cols >= 2 && rows >= 2, "mSEEC needs at least a 2x2 mesh");
        let engines = (0..cols)
            .map(|j| Engine {
                j,
                state: EngState::StartClass,
                class_cursor: 0,
            })
            .collect();
        MSeecMechanism {
            cfg,
            cols,
            rows,
            classes,
            phase: 0,
            step: 0,
            engines,
            pending_reserve: vec![false; cols as usize * rows as usize * classes as usize],
            ff_ejections: 0,
            empty_seeks: 0,
        }
    }

    pub fn for_net(cfg: &noc_types::NetConfig) -> MSeecMechanism {
        MSeecMechanism::new(cfg.cols, cfg.rows, cfg.classes, SeecConfig::default())
    }

    fn slot(&self, nic: usize, class: u8) -> usize {
        nic * self.classes as usize + class as usize
    }

    /// The seeker walk for engine `j` in the current phase/step: along row
    /// `phase` to the target column, then to the column's top, then down to
    /// its bottom. Excludes the origin router itself (searched first).
    fn build_walk(&self, j: u8) -> (Vec<NodeId>, u8) {
        let p = self.phase;
        let c = (j + self.step) % self.cols;
        let mut walk = Vec::new();
        let mut x = j;
        while x != c {
            x = if c > x { x + 1 } else { x - 1 };
            walk.push(Coord::new(x, p).to_node(self.cols));
        }
        for y in (0..p).rev() {
            walk.push(Coord::new(c, y).to_node(self.cols));
        }
        for y in 0..self.rows {
            // Sweep top-to-bottom; revisits of (c, 0..=p) are transit-cheap.
            walk.push(Coord::new(c, y).to_node(self.cols));
        }
        (walk, c)
    }

    fn serve_pending(&mut self, net: &mut Network) {
        for nic in 0..net.nics.len() {
            for class in 0..self.classes {
                let slot = self.slot(nic, class);
                if !self.pending_reserve[slot] {
                    continue;
                }
                let claims =
                    &net.routers[nic].outputs[noc_types::Direction::Local.index()].vc_claimed;
                if let Some(i) = net.nics[nic].free_ejection_vc(MessageClass(class), claims) {
                    net.set_ej_reserve(NodeId(nic as u16), i, EjReserve::Held);
                    self.pending_reserve[slot] = false;
                }
            }
        }
    }
}

/// Searches one router's input VCs for a packet headed to `origin` in
/// `class`; drains and upgrades it on a match.
/// How a seeker match launches its traversal (see `seec::Found`).
enum MFound {
    Batch(Vec<Flit>),
    Stream(noc_types::PortId, usize),
}

fn search_router_for(
    net: &mut Network,
    node: NodeId,
    origin: NodeId,
    class: MessageClass,
    now: Cycle,
    search_queues: bool,
) -> Option<MFound> {
    let r = node.idx();
    let wormhole = net.cfg.buffer_org == noc_types::BufferOrg::Wormhole;
    for port in 0..NUM_PORTS {
        if net.credits.occ(r, port) == 0 {
            continue; // nothing buffered behind this port
        }
        for vc in 0..net.routers[r].inputs[port].vcs.len() {
            let v = &net.routers[r].inputs[port].vcs[vc];
            if v.ff_capture || v.route.is_some() {
                continue;
            }
            let eligible = if wormhole {
                v.front().is_some_and(|f| f.kind.is_head())
            } else {
                v.packet_fully_buffered()
            };
            if !eligible {
                continue;
            }
            let front = v.front().expect("eligible VC is non-empty");
            if front.dest == origin && front.class == class && !front.ff {
                if wormhole {
                    return Some(MFound::Stream(port, vc));
                }
                let mut flits = net.drain_packet(node, port, vc);
                for f in &mut flits {
                    f.ff = true;
                    f.ff_upgrade = Some(now);
                    f.escape = false;
                }
                return Some(MFound::Batch(flits));
            }
        }
    }
    if search_queues {
        let q = &mut net.nics[r].inj_queues[class.idx()];
        if let Some(k) = q.iter().position(|p| p.dest == origin) {
            let pkt = q.remove(k).expect("position() returned an in-range index");
            let mut flits: Vec<Flit> = (0..pkt.len_flits)
                .map(|i| Flit::from_packet(&pkt, i, now))
                .collect();
            for f in &mut flits {
                f.ff = true;
                f.ff_upgrade = Some(now);
            }
            return Some(MFound::Batch(flits));
        }
    }
    None
}

impl Mechanism for MSeecMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::MSeec
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let now = net.cycle;
        self.serve_pending(net);

        let p = self.phase;
        let classes = self.classes;
        let inj_period = self.cfg.inj_search_period;
        let cols = self.cols;
        let mut all_done = true;

        for e in 0..self.engines.len() {
            // Temporarily take the state to sidestep double borrows.
            let state = std::mem::replace(&mut self.engines[e].state, EngState::DoneStep);
            let j = self.engines[e].j;
            let origin = Coord::new(j, p).to_node(cols);
            let new_state = match state {
                EngState::StartClass => {
                    let class = MessageClass(self.engines[e].class_cursor);
                    // Reserve an ejection VC (or adopt a Held one).
                    let per = net.cfg.ejection_vcs_per_class as usize;
                    let base = class.idx() * per;
                    let nic = &net.nics[origin.idx()];
                    let held =
                        (base..base + per).find(|&i| nic.ejection[i].reserve() == EjReserve::Held);
                    let ej_vc = match held {
                        Some(i) => Some(i),
                        None => {
                            let claims = &net.routers[origin.idx()].outputs
                                [noc_types::Direction::Local.index()]
                            .vc_claimed;
                            let free = nic.free_ejection_vc(class, claims);
                            if let Some(i) = free {
                                net.set_ej_reserve(origin, i, EjReserve::Held);
                            }
                            free
                        }
                    };
                    match ej_vc {
                        Some(ej_vc) => {
                            let (walk, col) = self.build_walk(j);
                            let period = inj_period;
                            let area = (cols as Cycle) * (self.rows as Cycle);
                            let search_queues = (period > 0 && now % period < 8 * area)
                                || net.quiescent_for() > 2 * area;
                            EngState::Seeking(MSeeker {
                                origin,
                                class,
                                ej_vc,
                                pos: origin,
                                walk,
                                col,
                                search_queues,
                            })
                        }
                        None => {
                            let slot = self.slot(origin.idx(), class.0);
                            self.pending_reserve[slot] = true;
                            // Missed turn for this class: next class (or done).
                            self.engines[e].class_cursor += 1;
                            if self.engines[e].class_cursor == classes {
                                EngState::DoneStep
                            } else {
                                EngState::StartClass
                            }
                        }
                    }
                }
                EngState::Seeking(mut s) => {
                    net.stats.sideband_hops += 1;
                    // Search the router the seeker currently sits on, but
                    // only while inside the partition column (row-transit
                    // routers belong to other engines' turf); the origin
                    // router itself is always searched.
                    let cur = s.pos;
                    // Column-first flights cannot detour around dead links,
                    // so a router whose express path to the origin is severed
                    // has no valid candidates (see `flight::ff_path_is_live`).
                    let searchable = (cur.to_coord(cols).x == s.col || cur == origin)
                        && crate::flight::ff_path_is_live(net, cur, s.origin, true);
                    let found = if searchable {
                        search_router_for(net, cur, s.origin, s.class, now, s.search_queues)
                    } else {
                        None
                    };
                    match found {
                        Some(MFound::Batch(flits)) => {
                            net.set_ej_reserve(s.origin, s.ej_vc, EjReserve::For(flits[0].packet));
                            let flight = FfFlight::plan(
                                net,
                                flits,
                                cur,
                                s.origin,
                                s.ej_vc,
                                now + 1,
                                true, // column-first: stay in the partition
                            );
                            EngState::Flying(flight)
                        }
                        Some(MFound::Stream(port, vc)) => {
                            let pkt = net.routers[cur.idx()].inputs[port].vcs[vc]
                                .front()
                                .expect("streamed VC holds the matched packet")
                                .packet;
                            net.set_ej_reserve(s.origin, s.ej_vc, EjReserve::For(pkt));
                            let stream =
                                FfStream::begin(net, cur, port, vc, s.origin, s.ej_vc, now, true);
                            EngState::Streaming(stream)
                        }
                        None => {
                            if s.walk.is_empty() {
                                // Walk exhausted: release and next class.
                                debug_assert_eq!(
                                    net.nics[s.origin.idx()].ejection[s.ej_vc].reserve(),
                                    EjReserve::Held
                                );
                                net.set_ej_reserve(s.origin, s.ej_vc, EjReserve::Free);
                                self.empty_seeks += 1;
                                self.engines[e].class_cursor += 1;
                                if self.engines[e].class_cursor == classes {
                                    EngState::DoneStep
                                } else {
                                    EngState::StartClass
                                }
                            } else {
                                s.pos = s.walk.remove(0);
                                EngState::Seeking(s)
                            }
                        }
                    }
                }
                EngState::Flying(mut flight) => {
                    if flight.advance(net, now) {
                        self.ff_ejections += 1;
                        self.engines[e].class_cursor += 1;
                        if self.engines[e].class_cursor == classes {
                            EngState::DoneStep
                        } else {
                            EngState::StartClass
                        }
                    } else {
                        EngState::Flying(flight)
                    }
                }
                EngState::Streaming(mut stream) => {
                    if stream.advance(net, now) {
                        self.ff_ejections += 1;
                        self.engines[e].class_cursor += 1;
                        if self.engines[e].class_cursor == classes {
                            EngState::DoneStep
                        } else {
                            EngState::StartClass
                        }
                    } else {
                        EngState::Streaming(stream)
                    }
                }
                EngState::DoneStep => EngState::DoneStep,
            };
            if !matches!(new_state, EngState::DoneStep) {
                all_done = false;
            }
            self.engines[e].state = new_state;
        }

        if all_done {
            // Barrier: everyone finished the step; rotate partitions, then
            // groups.
            self.step += 1;
            if self.step == self.cols {
                self.step = 0;
                self.phase = (self.phase + 1) % self.rows;
            }
            for e in &mut self.engines {
                e.state = EngState::StartClass;
                e.class_cursor = 0;
            }
        }
    }

    fn debug_state(&self) -> String {
        let engines: Vec<String> = self
            .engines
            .iter()
            .map(|e| {
                let st = match &e.state {
                    EngState::StartClass => "start".to_string(),
                    EngState::Seeking(s) => format!(
                        "seeking origin={} class={} pos={} walk_left={}",
                        s.origin.0,
                        s.class.0,
                        s.pos.0,
                        s.walk.len()
                    ),
                    EngState::Flying(f) => {
                        format!("flying depart={} links={}", f.depart(), f.links().len())
                    }
                    EngState::Streaming(_) => "streaming".to_string(),
                    EngState::DoneStep => "done".to_string(),
                };
                format!("eng{}(cursor={}): {st}", e.j, e.class_cursor)
            })
            .collect();
        format!(
            "mseec phase={} step={} ff_ejections={} empty_seeks={} pending_reserves={} [{}]",
            self.phase,
            self.step,
            self.ff_ejections,
            self.empty_seeks,
            self.pending_reserve.iter().filter(|&&b| b).count(),
            engines.join("; ")
        )
    }
}
