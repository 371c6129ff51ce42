//! Runtime deadlock recovery: drain-and-reinject escape channel plus
//! NIC-level end-to-end retransmission.
//!
//! The watchdog (`crate::watchdog`) *detects* a wedged network; this module
//! converts the detection into forward progress instead of a panic. Two
//! independent sub-layers, both armed through
//! [`NetConfig::recovery`](noc_types::NetConfig):
//!
//! * **Drain recovery** — when the network has made no progress for
//!   [`RecoveryConfig::stuck_threshold`] cycles (well below the watchdog's
//!   panic threshold, so recovery pre-empts it), a victim packet is selected
//!   from the wait-for cycle witness ([`watchdog::find_deadlock_cycle`]) —
//!   or, when the stall is livelock/starvation with no cycle, the oldest
//!   blocked head. The victim is drained out of its VC through the SPI
//!   ([`Network::drain_packet`]) into a reserved, serialized, one-packet-deep
//!   *recovery channel*: a dedicated XY-routed escape path modelled at full
//!   per-hop cost, certified acyclic by `noc-verify`. On arrival the victim
//!   is re-delivered into a free ejection VC at its destination NIC; the
//!   packets that waited on its buffer resume on their own. Breaking one
//!   edge of a wait cycle restores progress for the whole cycle; repeated
//!   stalls drain repeated victims (one at a time — the channel is
//!   serialized, which is what keeps it trivially deadlock-free).
//! * **End-to-end retransmission** — the source NIC keeps every sent packet
//!   in an outstanding table until its delivery is confirmed at consumption.
//!   A packet unconfirmed past its (attempt-scaled) timeout is re-injected
//!   as a fresh copy with a distinct retry [`PacketId`]; duplicate arrivals
//!   are suppressed at ejection so the workload observes exactly-once
//!   delivery. This covers losses no in-network mechanism can heal, e.g. a
//!   router dying mid-flight with flits buffered inside it.
//!
//! Both layers are deterministic: victim selection scans in fixed order,
//! tables are ordered (`BTreeMap`/`BTreeSet`), and nothing here touches the
//! network RNG — runs are bit-identical across `NOC_THREADS` settings. On a
//! healthy mesh neither layer ever acts (`looks_stuck` never fires, the
//! outstanding table drains on time), so arming recovery leaves fault-free
//! runs byte-identical.

use crate::mechanism::Mechanism;
use crate::network::{Network, LOCAL_LATENCY};
use crate::nic::EjReserve;
use crate::watchdog;
use noc_types::{
    Cycle, Direction, Flit, MessageClass, NodeId, Packet, PacketId, PortId, RecoveryConfig,
};
use std::collections::{BTreeMap, BTreeSet};

/// Bit marking a [`PacketId`] as an end-to-end retransmission copy. Retry
/// copies need ids distinct from the original (claims, residency and
/// duplicate bookkeeping are all keyed by id), but must still map back to the
/// original for delivery accounting — see [`logical_id`].
pub const RETRY_BIT: u64 = 1 << 63;
/// The retry attempt number is encoded above the logical id so each copy of
/// one packet is globally unique.
const ATTEMPT_SHIFT: u32 = 48;
/// Low bits carrying the original (logical) packet id.
const LOGICAL_MASK: u64 = (1 << ATTEMPT_SHIFT) - 1;

/// The original packet id behind a possibly-retry id.
#[inline]
pub fn logical_id(id: PacketId) -> PacketId {
    PacketId(id.0 & LOGICAL_MASK)
}

/// True when `id` names an end-to-end retransmission copy.
#[inline]
pub fn is_retry(id: PacketId) -> bool {
    id.0 & RETRY_BIT != 0
}

/// How often (cycles) the end-to-end layer scans its outstanding table for
/// expired deliveries. Timeouts are coarse by nature; a periodic scan keeps
/// the healthy-path cost at a single modulo test.
const E2E_SCAN_PERIOD: Cycle = 16;

/// A packet sent but not yet confirmed delivered (end-to-end layer).
struct Outstanding {
    packet: Packet,
    deadline: Cycle,
    attempts: u32,
}

/// A victim in transit through the recovery channel.
struct Drain {
    flits: Vec<Flit>,
    class: MessageClass,
    dest: NodeId,
    /// Cycle the victim reaches its destination NIC (full modelled cost of
    /// the serialized escape path, not a free teleport).
    arrive_at: Cycle,
}

/// Runtime state of the recovery layer, hung off
/// [`Network::recovery`](crate::network::Network) when
/// [`RecoveryConfig::any`] is set.
pub struct RecoveryState {
    pub cfg: RecoveryConfig,
    /// The victim currently in the recovery channel (at most one: the
    /// channel is serialized).
    drain: Option<Drain>,
    /// End-to-end outstanding table, keyed by logical packet id. Ordered so
    /// timeout scans are deterministic.
    outstanding: BTreeMap<u64, Outstanding>,
    /// Logical ids delivered once while a retransmission copy was (or may
    /// still be) in flight; later copies are suppressed at ejection.
    delivered_retx: BTreeSet<u64>,
}

impl RecoveryState {
    pub fn new(cfg: RecoveryConfig) -> RecoveryState {
        RecoveryState {
            cfg,
            drain: None,
            outstanding: BTreeMap::new(),
            delivered_retx: BTreeSet::new(),
        }
    }

    /// Flits currently in recovery-channel custody (conservation: these are
    /// in the network, just not in any router buffer or inbox).
    pub fn custody_flits(&self) -> usize {
        self.drain.as_ref().map_or(0, |d| d.flits.len())
    }

    /// Called by injection when the source NIC finishes streaming a packet:
    /// the end-to-end layer starts its delivery timer. Retry copies are not
    /// re-registered — their deadline was set when they were scheduled.
    pub fn register_sent(&mut self, pkt: &Packet, now: Cycle) {
        if self.cfg.e2e_timeout == 0 || is_retry(pkt.id) {
            return;
        }
        self.outstanding.entry(pkt.id.0).or_insert(Outstanding {
            packet: *pkt,
            deadline: now + self.cfg.e2e_timeout,
            attempts: 0,
        });
    }

    /// Pure classification of a delivery at ejection: the logical id the
    /// workload must see, and whether this arrival is a duplicate to discard.
    /// No mutation — the workload may refuse the delivery (backpressure) and
    /// the same packet will be classified again next cycle.
    pub fn classify_delivery(&self, raw: PacketId) -> (PacketId, bool) {
        let logical = logical_id(raw);
        let dup = self.cfg.e2e_timeout > 0 && self.delivered_retx.contains(&logical.0);
        (logical, dup)
    }

    /// Confirms a successful delivery (after the workload accepted it):
    /// clears the outstanding entry and, when any retransmission copy of this
    /// packet was ever scheduled, remembers the logical id so late copies are
    /// suppressed.
    pub fn on_delivered(&mut self, raw: PacketId) {
        if self.cfg.e2e_timeout == 0 {
            return;
        }
        let key = logical_id(raw).0;
        let retried = match self.outstanding.remove(&key) {
            Some(entry) => entry.attempts > 0,
            None => false,
        };
        if retried || is_retry(raw) {
            self.delivered_retx.insert(key);
        }
    }

    /// One recovery cycle: end-to-end timeout scan, recovery-channel
    /// delivery, then (when armed and the network is stuck) victim selection
    /// and drain. Runs after the mechanism's post-cycle so it observes the
    /// same state the watchdog would.
    fn step(&mut self, net: &mut Network, mech: &mut dyn Mechanism) {
        let now = net.cycle;
        if self.cfg.e2e_timeout > 0 && now.is_multiple_of(E2E_SCAN_PERIOD) {
            self.scan_timeouts(net);
        }
        self.advance_drain(net);
        if self.cfg.enabled
            && self.drain.is_none()
            && watchdog::looks_stuck(net, self.cfg.stuck_threshold)
        {
            self.start_drain(net, mech);
        }
    }

    /// Re-injects expired outstanding packets (or abandons them past the
    /// retry budget).
    fn scan_timeouts(&mut self, net: &mut Network) {
        let now = net.cycle;
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| now >= o.deadline)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            let Some(entry) = self.outstanding.get_mut(&key) else {
                continue;
            };
            if entry.attempts >= self.cfg.e2e_max_retries {
                self.outstanding.remove(&key);
                net.stats.e2e_abandoned += 1;
                continue;
            }
            entry.attempts += 1;
            let attempt = u64::from(entry.attempts);
            // Back off exponentially (capped at 64x) so a congestion-delayed
            // (not lost) packet is not hammered with copies: with a fixed or
            // linearly-growing retry interval, a saturated network receives
            // retry copies faster than it delivers packets and the source
            // backlogs diverge instead of draining (found by the chaos soak).
            entry.deadline = now + (self.cfg.e2e_timeout << attempt.min(6));
            let mut copy = entry.packet;
            copy.id = PacketId(key | RETRY_BIT | (attempt << ATTEMPT_SHIFT));
            copy.birth = now;
            // Copies never count toward traffic statistics; the original
            // already did at generation.
            copy.measured = false;
            let src = entry.packet.src.idx();
            net.stats.e2e_retransmits += 1;
            net.nics[src].enqueue(copy);
            net.last_progress = now;
        }
    }

    /// Delivers the in-transit victim once its modelled escape-path latency
    /// has elapsed and a free ejection VC of its class exists at the
    /// destination. Retries every cycle on ejection backpressure.
    fn advance_drain(&mut self, net: &mut Network) {
        let now = net.cycle;
        let Some(d) = &self.drain else {
            return;
        };
        if now < d.arrive_at {
            return;
        }
        let dest = d.dest.idx();
        let claims = &net.routers[dest].outputs[Direction::Local.index()].vc_claimed;
        let Some(ej) = net.nics[dest].free_ejection_vc(d.class, claims) else {
            return; // destination ejection busy: retry next cycle
        };
        let Some(d) = self.drain.take() else {
            return;
        };
        for f in d.flits {
            net.nics[dest].receive(ej, f);
        }
        net.credit_touch(dest);
        net.last_progress = now;
    }

    /// Selects a victim and drains it into the recovery channel. When no
    /// viable victim exists, leaves the network untouched — quiescence keeps
    /// growing and the watchdog's panic path stays armed as the backstop.
    fn start_drain(&mut self, net: &mut Network, mech: &mut dyn Mechanism) {
        let Some(w) = select_victim(net) else {
            return;
        };
        let now = net.cycle;
        let flits = net.drain_packet(w.node, w.port, w.vc);
        let head = flits[0];
        let victim = head.packet;
        let hops = manhattan(w.node, head.dest, net.cfg.cols);
        // Full cost of the serialized escape path: one recovery-channel hop
        // per mesh hop at the configured per-hop latency, the tail trailing
        // the head by one flit per two cycles, plus the ejection link.
        let transit = hops * net.hop_latency() + (flits.len() as Cycle - 1) * 2 + LOCAL_LATENCY;
        let mut flits = flits;
        for f in &mut flits {
            f.hops = f.hops.saturating_add(u8::try_from(hops).unwrap_or(u8::MAX));
        }
        for _ in 0..hops * flits.len() as Cycle {
            net.stats.count_link_hop(now);
        }
        net.stats.drain_recoveries += 1;
        net.stats.recovery_victim_hops += hops;
        net.stats.recovery_cycles_lost += transit;
        self.drain = Some(Drain {
            class: head.class,
            dest: head.dest,
            arrive_at: now + transit,
            flits,
        });
        // Any ejection VC reserved for the victim (a Free-Flow reservation
        // made before it wedged) must be released, or it leaks forever.
        for i in 0..net.nics.len() {
            let mut touched = false;
            for ej in &mut net.nics[i].ejection {
                if ej.reserve == EjReserve::For(victim) {
                    ej.reserve = EjReserve::Free;
                    touched = true;
                }
            }
            if touched {
                net.credit_touch(i);
            }
        }
        mech.on_recovery_drain(net, victim);
        // Starting a drain *is* progress: the stuck clock restarts and fires
        // again only if draining this victim did not unwedge the network.
        net.last_progress = now;
    }
}

/// The per-cycle recovery hook called from [`Sim::step`](crate::Sim). The
/// state is taken out of the network for the duration so it can mutate the
/// network freely through the SPI.
pub fn tick(net: &mut Network, mech: &mut dyn Mechanism) {
    let Some(mut rec) = net.recovery.take() else {
        return;
    };
    rec.step(net, mech);
    net.recovery = Some(rec);
}

/// A candidate victim: the VC holding the packet to drain.
struct Victim {
    node: NodeId,
    port: PortId,
    vc: usize,
}

/// Deterministic victim selection. Prefers a member of the wait-for cycle
/// witness (breaking an actual deadlock edge); falls back to the oldest
/// blocked head anywhere (livelock/starvation has no cycle to point at).
/// A viable victim must be fully buffered (VCT: a streaming or moving packet
/// cannot be lifted out of its VC), not captured by a Free-Flow stream, and
/// addressed to a live router.
fn select_victim(net: &Network) -> Option<Victim> {
    if let Some(cycle) = watchdog::find_deadlock_cycle(net) {
        for w in &cycle {
            if viable(net, w.node, w.port, w.vc) {
                return Some(Victim {
                    node: w.node,
                    port: w.port,
                    vc: w.vc,
                });
            }
        }
    }
    // Livelock / starvation fallback: the longest-waiting viable head, scan
    // order breaking ties, so selection is reproducible.
    let mut best: Option<(Cycle, Victim)> = None;
    for (i, r) in net.routers.iter().enumerate() {
        for (p, port) in r.inputs.iter().enumerate() {
            for (v, vc) in port.vcs.iter().enumerate() {
                let Some(since) = vc.head_wait_since else {
                    continue;
                };
                if best.as_ref().is_some_and(|(b, _)| *b <= since) {
                    continue;
                }
                let node = NodeId(i as u16);
                if viable(net, node, p, v) {
                    best = Some((
                        since,
                        Victim {
                            node,
                            port: p,
                            vc: v,
                        },
                    ));
                }
            }
        }
    }
    best.map(|(_, v)| v)
}

/// Whether the packet in `(node, port, vc)` can be drained right now.
fn viable(net: &Network, node: NodeId, port: PortId, vc: usize) -> bool {
    let v = &net.routers[node.idx()].inputs[port].vcs[vc];
    let Some(front) = v.front() else {
        return false;
    };
    if v.route.is_some() || v.ff_capture || !v.packet_fully_buffered() {
        return false;
    }
    // A victim must be deliverable: a dead destination router has no working
    // ejection link, so draining toward it would wedge the recovery channel.
    let dest_dead = net
        .fault
        .as_ref()
        .is_some_and(|f| f.dead.router_dead(front.dest.idx()));
    !dest_dead
}

/// Mesh distance of the recovery channel's XY path.
fn manhattan(from: NodeId, to: NodeId, cols: u8) -> Cycle {
    let a = from.to_coord(cols);
    let b = to.to_coord(cols);
    Cycle::from(a.x.abs_diff(b.x)) + Cycle::from(a.y.abs_diff(b.y))
}
