//! The base SEEC mechanism: one seeker / one FF packet at a time.

use crate::flight::{FfFlight, FfStream};
use crate::ring::SeekerRing;
use noc_sim::network::Network;
use noc_sim::nic::EjReserve;
use noc_sim::Mechanism;
use noc_types::{Cycle, Flit, MessageClass, NodeId, SchemeKind, NUM_PORTS};

/// Tunables for SEEC / mSEEC.
#[derive(Clone, Copy, Debug)]
pub struct SeecConfig {
    /// Every this many cycles, seekers also search NIC *injection* queues
    /// for one full revolution (footnote 2 of the paper: guards the corner
    /// case where the `NoC` is so full of requests that a response can never
    /// inject). The paper set N = 1M and never hit the case on gem5's
    /// resource sizing; our stress configurations (2 TBEs, 1 `VNet`) reach it
    /// readily, so the default is 10k. Set to 0 to disable.
    pub inj_search_period: Cycle,
}

impl Default for SeecConfig {
    fn default() -> Self {
        SeecConfig {
            inj_search_period: 10_000,
        }
    }
}

/// Where the seeker-turn token currently sits: NIC × message class.
#[derive(Clone, Copy, Debug)]
struct Token {
    nic: usize,
    class: u8,
}

/// An in-flight seeker.
#[derive(Clone, Copy, Debug)]
struct Seeker {
    origin: NodeId,
    class: MessageClass,
    /// Reserved ejection VC at the origin NIC (flattened index).
    ej_vc: usize,
    /// Current position on the ring walk.
    pos: usize,
    /// Hops of pure transit remaining before searching starts (round-robin
    /// start offset, §3.3's `<router-id, inport-id>` tracker).
    transit_left: usize,
    /// Routers still to search (one per walk step once transit is done).
    search_left: usize,
    /// Whether this seeker also searches NIC injection queues (footnote 2).
    search_queues: bool,
}

/// Controller state: the three phases of a SEEC turn.
#[derive(Debug)]
enum State {
    /// Advance the token and try to reserve an ejection VC.
    Advance,
    Seeking(Seeker),
    Flying(FfFlight),
    /// Wormhole (§3.11): trailing flits chase the head through a captured VC.
    Streaming(FfStream),
}

/// Base SEEC: a single global round-robin token over (NIC, message class)
/// pairs; the holder reserves an ejection VC, circulates a seeker over the
/// ring, and — on a find — launches exactly one Free-Flow packet.
pub struct SeecMechanism {
    cfg: SeecConfig,
    ring: SeekerRing,
    state: State,
    token: Token,
    /// Per (nic, class): ring position after the router that produced the
    /// last FF packet — where the next search begins (round-robin fairness).
    search_start: Vec<usize>,
    /// Per (nic, class): the class missed its turn and proactively reserves
    /// the next free ejection VC (§3.3).
    pending_reserve: Vec<bool>,
    classes: usize,
    /// Diagnostics: completed FF ejections.
    pub ff_ejections: u64,
    /// Diagnostics: seekers that returned empty-handed.
    pub empty_seeks: u64,
}

impl SeecMechanism {
    pub fn new(cols: u8, rows: u8, classes: u8, cfg: SeecConfig) -> SeecMechanism {
        let n = cols as usize * rows as usize;
        let ring = SeekerRing::new(cols, rows);
        SeecMechanism {
            cfg,
            ring,
            state: State::Advance,
            token: Token {
                nic: n - 1,
                class: classes - 1,
            },
            search_start: vec![0; n * classes as usize],
            pending_reserve: vec![false; n * classes as usize],
            classes: classes as usize,
            ff_ejections: 0,
            empty_seeks: 0,
        }
    }

    /// Convenience constructor from a network config.
    pub fn for_net(cfg: &noc_types::NetConfig) -> SeecMechanism {
        SeecMechanism::new(cfg.cols, cfg.rows, cfg.classes, SeecConfig::default())
    }

    fn slot(&self, nic: usize, class: u8) -> usize {
        nic * self.classes + class as usize
    }

    /// Moves the token to the next (class, then NIC) position.
    fn bump_token(&mut self, nodes: usize) {
        self.token.class += 1;
        if self.token.class as usize == self.classes {
            self.token.class = 0;
            self.token.nic = (self.token.nic + 1) % nodes;
        }
    }

    /// Tries to start a turn for the current token holder: reserve an
    /// ejection VC and launch a seeker.
    fn try_start_turn(&mut self, net: &mut Network) -> Option<Seeker> {
        let nic_id = NodeId(self.token.nic as u16);
        let class = MessageClass(self.token.class);
        let slot = self.slot(self.token.nic, self.token.class);
        // An earlier missed turn may have pre-reserved a VC (Held).
        let per = net.cfg.ejection_vcs_per_class as usize;
        let base = class.idx() * per;
        let nic = &net.nics[self.token.nic];
        let held = (base..base + per).find(|&i| nic.ejection[i].reserve() == EjReserve::Held);
        let ej_vc = match held {
            Some(i) => Some(i),
            None => {
                let claims = &net.routers[self.token.nic].outputs
                    [noc_types::Direction::Local.index()]
                .vc_claimed;
                let free = nic.free_ejection_vc(class, claims);
                if let Some(i) = free {
                    net.set_ej_reserve(nic_id, i, EjReserve::Held);
                }
                free
            }
        };
        let Some(ej_vc) = ej_vc else {
            // Missed turn: proactively reserve when one frees up.
            self.pending_reserve[slot] = true;
            return None;
        };
        self.pending_reserve[slot] = false;
        let origin_pos = self.ring.position_of(nic_id);
        let start = self.search_start[slot];
        // Transit (without searching) from the origin to the round-robin
        // start position, then search one full revolution.
        let len = self.ring.len();
        let transit = (start + len - origin_pos) % len;
        Some(Seeker {
            origin: nic_id,
            class,
            ej_vc,
            pos: origin_pos,
            transit_left: transit,
            search_left: len,
            search_queues: false,
        })
    }

    /// Serves any `pending_reserve` classes whose NIC now has a free VC
    /// (the proactive reservation of §3.3).
    fn serve_pending(&mut self, net: &mut Network) {
        for nic in 0..net.nics.len() {
            for class in 0..self.classes as u8 {
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

    /// Searches the router at the seeker's position. On a match, returns how
    /// to launch the Free-Flow traversal.
    fn search_router(&mut self, net: &mut Network, s: &Seeker, now: Cycle) -> Option<Found> {
        let node = self.ring.at(s.pos);
        let r = node.idx();
        // A flight from here flies the fixed minimal path and cannot detour
        // around dead links; if that path is severed, nothing at this router
        // is a valid Free-Flow candidate for this origin.
        if !crate::flight::ff_path_is_live(net, node, s.origin, self.column_first()) {
            return None;
        }
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
                if front.dest == s.origin && front.class == s.class && !front.ff {
                    if wormhole {
                        return Some(Found::Stream(node, port, vc));
                    }
                    let flits = net.drain_packet(node, port, vc);
                    return Some(Found::Batch(upgrade(flits, now), node));
                }
            }
        }
        // Periodically also search the local NIC's injection queues.
        if s.search_queues {
            let q = &mut net.nics[r].inj_queues[s.class.idx()];
            if let Some(k) = q.iter().position(|p| p.dest == s.origin) {
                let pkt = q.remove(k).expect("position() returned an in-range index");
                let flits: Vec<Flit> = (0..pkt.len_flits)
                    .map(|i| Flit::from_packet(&pkt, i, now))
                    .collect();
                return Some(Found::Batch(upgrade(flits, now), node));
            }
        }
        None
    }

    /// Releases the seeker's reservation after an empty-handed return.
    fn release_reservation(net: &mut Network, s: &Seeker) {
        debug_assert_eq!(
            net.nics[s.origin.idx()].ejection[s.ej_vc].reserve(),
            EjReserve::Held
        );
        net.set_ej_reserve(s.origin, s.ej_vc, EjReserve::Free);
    }

    /// Column-first flights are the mSEEC discipline; base SEEC flies XY.
    fn column_first(&self) -> bool {
        false
    }
}

/// How a seeker's match launches its Free-Flow traversal.
enum Found {
    /// Fully-drained packet flying as one batch (VCT, or from a NIC queue).
    Batch(Vec<Flit>, NodeId),
    /// Captured VC streaming flits as they arrive (wormhole, §3.11).
    Stream(NodeId, noc_types::PortId, usize),
}

/// Marks drained flits as a Free-Flow packet.
fn upgrade(mut flits: Vec<Flit>, now: Cycle) -> Vec<Flit> {
    for f in &mut flits {
        f.ff = true;
        f.ff_upgrade = Some(now);
        f.escape = false;
    }
    flits
}

impl Mechanism for SeecMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Seec
    }

    fn pre_cycle(&mut self, net: &mut Network) {
        let now = net.cycle;
        self.serve_pending(net);
        match std::mem::replace(&mut self.state, State::Advance) {
            State::Advance => {
                self.bump_token(net.nics.len());
                match self.try_start_turn(net) {
                    Some(mut seeker) => {
                        // Footnote 2: seekers also inspect NIC injection
                        // queues (a) for one window every `inj_search_period`
                        // cycles and (b) whenever the data network has gone
                        // quiescent for a couple of seek times — the state in
                        // which a response that can never inject is the only
                        // thing left to rescue.
                        let period = self.cfg.inj_search_period;
                        let ring = self.ring.len() as Cycle;
                        seeker.search_queues = (period > 0 && now % period < 8 * ring)
                            || net.quiescent_for() > 2 * ring;
                        self.state = State::Seeking(seeker);
                    }
                    None => self.state = State::Advance,
                }
            }
            State::Seeking(mut s) => {
                // One ring hop per cycle on the side band.
                net.stats.sideband_hops += 1;
                if s.transit_left > 0 {
                    s.transit_left -= 1;
                    s.pos += 1;
                    self.state = State::Seeking(s);
                    return;
                }
                if let Some(found) = self.search_router(net, &s, now) {
                    // Seeker dropped; FF launch. Remember where to resume the
                    // round-robin search next turn.
                    let slot = self.slot(s.origin.idx(), s.class.0);
                    match found {
                        Found::Batch(flits, found_at) => {
                            self.search_start[slot] =
                                (self.ring.position_of(found_at) + 1) % self.ring.len();
                            net.set_ej_reserve(s.origin, s.ej_vc, EjReserve::For(flits[0].packet));
                            let flight = FfFlight::plan(
                                net,
                                flits,
                                found_at,
                                s.origin,
                                s.ej_vc,
                                now + 1,
                                self.column_first(),
                            );
                            self.state = State::Flying(flight);
                        }
                        Found::Stream(node, port, vc) => {
                            self.search_start[slot] =
                                (self.ring.position_of(node) + 1) % self.ring.len();
                            let pkt = net.routers[node.idx()].inputs[port].vcs[vc]
                                .front()
                                .expect("streamed VC holds the matched packet")
                                .packet;
                            net.set_ej_reserve(s.origin, s.ej_vc, EjReserve::For(pkt));
                            let stream = FfStream::begin(
                                net,
                                node,
                                port,
                                vc,
                                s.origin,
                                s.ej_vc,
                                now,
                                self.column_first(),
                            );
                            self.state = State::Streaming(stream);
                        }
                    }
                    return;
                }
                s.search_left -= 1;
                if s.search_left == 0 {
                    // Full revolution, nothing found: free the VC, next turn.
                    Self::release_reservation(net, &s);
                    self.empty_seeks += 1;
                    self.state = State::Advance;
                } else {
                    s.pos += 1;
                    self.state = State::Seeking(s);
                }
            }
            State::Flying(mut flight) => {
                if flight.advance(net, now) {
                    self.ff_ejections += 1;
                    self.state = State::Advance;
                } else {
                    self.state = State::Flying(flight);
                }
            }
            State::Streaming(mut stream) => {
                if stream.advance(net, now) {
                    self.ff_ejections += 1;
                    self.state = State::Advance;
                } else {
                    self.state = State::Streaming(stream);
                }
            }
        }
    }

    fn debug_state(&self) -> String {
        let state = match &self.state {
            State::Advance => "advance".to_string(),
            State::Seeking(s) => format!(
                "seeking origin={} class={} pos={} transit_left={} search_left={} queues={}",
                s.origin.0, s.class.0, s.pos, s.transit_left, s.search_left, s.search_queues
            ),
            State::Flying(f) => {
                format!("flying depart={} links={}", f.depart(), f.links().len())
            }
            State::Streaming(_) => "streaming".to_string(),
        };
        format!(
            "seec token=(nic {}, class {}) state=[{state}] ff_ejections={} empty_seeks={} \
             pending_reserves={}",
            self.token.nic,
            self.token.class,
            self.ff_ejections,
            self.empty_seeks,
            self.pending_reserve.iter().filter(|&&b| b).count()
        )
    }
}
