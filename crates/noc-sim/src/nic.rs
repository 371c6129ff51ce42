//! Network interface controllers (NICs).
//!
//! Each node has a NIC with per-message-class injection queues and — per the
//! paper's system assumptions (§3.3) — per-message-class *ejection VCs*. The
//! NIC is the upstream "router" of the local input port (it allocates local
//! input VCs and streams flits at one per cycle) and the downstream consumer
//! of the local output port.

use crate::stats::DeliveredPacket;
use noc_types::{Cycle, Flit, MessageClass, NetConfig, NodeId, Packet, PacketId};
use std::collections::VecDeque;

/// Reservation state of an ejection VC (used by SEEC's seeker protocol).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EjReserve {
    /// Not reserved; normal ejection may allocate it.
    #[default]
    Free,
    /// Reserved by a NIC about to send (or searching with) a seeker; blocked
    /// for normal ejection.
    Held,
    /// Reserved for a specific in-flight Free-Flow packet.
    For(PacketId),
}

/// One ejection VC at a NIC. Ejection VCs are per message class; the
/// flattened index of class `c`, slot `k` is `c * ejection_vcs_per_class + k`.
#[derive(Clone, Debug, Default)]
pub struct EjVc {
    pub buf: VecDeque<Flit>,
    /// Written only through [`Network::set_ej_reserve`](crate::Network::set_ej_reserve)
    /// and consumption, which mark the credit lane that reads it.
    pub(crate) reserve: EjReserve,
}

impl EjVc {
    /// Reservation state (SEEC's seeker protocol).
    pub fn reserve(&self) -> EjReserve {
        self.reserve
    }

    /// Free for normal (router-side) allocation: empty and unreserved.
    pub fn is_free(&self) -> bool {
        self.buf.is_empty() && self.reserve == EjReserve::Free
    }

    /// True when a complete packet sits in the VC ready for consumption.
    pub fn complete_packet(&self) -> bool {
        match self.buf.front() {
            Some(f) => f.kind.is_head() && self.buf.len() == f.len as usize,
            None => false,
        }
    }
}

/// Progress of a packet currently being streamed into the router's local
/// input port.
#[derive(Clone, Copy, Debug)]
pub struct InjProgress {
    pub packet: Packet,
    pub next_seq: u8,
    /// Local-input VC the packet was allocated.
    pub vc: usize,
    /// Cycle the head flit was sent (the packet's injection timestamp).
    pub inject: Cycle,
}

/// A network interface controller.
#[derive(Clone, Debug)]
pub struct Nic {
    pub id: NodeId,
    /// Per-message-class injection queues (unbounded source queues; queueing
    /// delay is measured).
    pub inj_queues: Vec<VecDeque<Packet>>,
    /// Round-robin pointer over classes for injection fairness.
    pub inj_rr: usize,
    /// In-progress multi-flit injection, if any.
    pub inj_active: Option<InjProgress>,
    /// Claims on the router's local input VCs (this NIC is their upstream).
    /// `Some(p)` from allocation until `p`'s tail flit has been sent.
    pub local_claims: Vec<Option<PacketId>>,
    /// Flits sent toward each local input VC that have not yet arrived
    /// (wormhole flit-credit accounting, as `OutputPort::inflight`).
    pub local_inflight: Vec<u8>,
    /// Ejection VCs, flattened `classes * ejection_vcs_per_class`.
    pub ejection: Vec<EjVc>,
    ej_per_class: usize,
}

impl Nic {
    pub fn new(id: NodeId, cfg: &NetConfig) -> Nic {
        let classes = cfg.classes as usize;
        let ej_per_class = cfg.ejection_vcs_per_class as usize;
        Nic {
            id,
            inj_queues: vec![VecDeque::new(); classes],
            inj_rr: 0,
            inj_active: None,
            local_claims: vec![None; cfg.vcs_per_port()],
            local_inflight: vec![0; cfg.vcs_per_port()],
            ejection: vec![EjVc::default(); classes * ej_per_class],
            ej_per_class,
        }
    }

    /// Queues a packet for injection.
    pub fn enqueue(&mut self, p: Packet) {
        self.inj_queues[p.class.idx()].push_back(p);
    }

    /// Total packets waiting in injection queues.
    pub fn backlog(&self) -> usize {
        self.inj_queues.iter().map(VecDeque::len).sum()
    }

    /// Flattened ejection-VC index for `(class, slot)`.
    pub fn ej_index(&self, class: MessageClass, slot: usize) -> usize {
        class.idx() * self.ej_per_class + slot
    }

    /// The ejection VCs of one message class.
    pub fn ej_slots(&self, class: MessageClass) -> &[EjVc] {
        let s = class.idx() * self.ej_per_class;
        &self.ejection[s..s + self.ej_per_class]
    }

    /// First free (unreserved, empty, unclaimed) ejection VC of `class`, as a
    /// flattened index. `claims` is the router-side local-output claim table.
    pub fn free_ejection_vc(
        &self,
        class: MessageClass,
        claims: &[Option<PacketId>],
    ) -> Option<usize> {
        let s = class.idx() * self.ej_per_class;
        (s..s + self.ej_per_class).find(|&i| self.ejection[i].is_free() && claims[i].is_none())
    }

    /// Accepts a flit arriving from the router's local output port (or from a
    /// Free-Flow traversal) into ejection VC `ej_vc`.
    pub fn receive(&mut self, ej_vc: usize, flit: Flit) {
        let vc = &mut self.ejection[ej_vc];
        if flit.kind.is_head() {
            debug_assert!(vc.buf.is_empty(), "head into occupied ejection VC");
        }
        vc.buf.push_back(flit);
    }

    /// Summarizes the complete packet at ejection VC `ej_vc` without removing
    /// it (the workload may refuse consumption — backpressure).
    /// Panics if no complete packet is present.
    pub fn consume_peek(&self, ej_vc: usize, now: Cycle) -> DeliveredPacket {
        let vc = &self.ejection[ej_vc];
        assert!(vc.complete_packet(), "consuming incomplete packet");
        let head = *vc.buf.front().expect("complete packet has a head flit");
        let tail = *vc.buf.back().expect("complete packet has a tail flit");
        DeliveredPacket {
            id: head.packet,
            src: head.src,
            dest: head.dest,
            class: head.class,
            len_flits: head.len,
            birth: head.birth,
            inject: head.inject,
            eject: now,
            hops: head.hops,
            ff_upgrade: head.ff_upgrade.or(tail.ff_upgrade),
            measured: head.measured,
        }
    }

    /// Removes the packet summarized by [`Self::consume_peek`] and clears the
    /// VC's reservation.
    pub fn consume_commit(&mut self, ej_vc: usize) {
        let vc = &mut self.ejection[ej_vc];
        debug_assert!(vc.complete_packet());
        vc.buf.clear();
        vc.reserve = EjReserve::Free;
    }

    /// Peek + commit in one call (tests and simple sinks).
    pub fn consume(&mut self, ej_vc: usize, now: Cycle) -> DeliveredPacket {
        let d = self.consume_peek(ej_vc, now);
        self.consume_commit(ej_vc);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{FlitKind, NetConfig};

    fn cfg() -> NetConfig {
        NetConfig::full_system(4, 6, 2)
    }

    fn flit(seq: u8, len: u8, class: MessageClass) -> Flit {
        let p = Packet {
            id: PacketId(9),
            src: NodeId(0),
            dest: NodeId(5),
            class,
            len_flits: len,
            birth: 0,
            measured: true,
        };
        Flit::from_packet(&p, seq, 2)
    }

    #[test]
    fn ejection_vc_indexing_is_per_class() {
        let nic = Nic::new(NodeId(5), &cfg());
        assert_eq!(nic.ejection.len(), 12);
        assert_eq!(nic.ej_index(MessageClass(0), 0), 0);
        assert_eq!(nic.ej_index(MessageClass(3), 1), 7);
        assert_eq!(nic.ej_slots(MessageClass(5)).len(), 2);
    }

    #[test]
    fn free_ejection_vc_respects_reservations_and_claims() {
        let mut nic = Nic::new(NodeId(1), &cfg());
        let claims = vec![None; 12];
        let c = MessageClass(2);
        assert_eq!(nic.free_ejection_vc(c, &claims), Some(4));
        nic.ejection[4].reserve = EjReserve::Held;
        assert_eq!(nic.free_ejection_vc(c, &claims), Some(5));
        let mut claims2 = claims.clone();
        claims2[5] = Some(PacketId(1));
        assert_eq!(nic.free_ejection_vc(c, &claims2), None);
    }

    #[test]
    fn receive_then_consume_builds_summary() {
        let mut nic = Nic::new(NodeId(5), &cfg());
        let class = MessageClass(1);
        let idx = nic.ej_index(class, 0);
        for s in 0..5 {
            let mut f = flit(s, 5, class);
            f.hops = 4;
            nic.receive(idx, f);
        }
        assert!(nic.ejection[idx].complete_packet());
        let d = nic.consume(idx, 50);
        assert_eq!(d.len_flits, 5);
        assert_eq!(d.eject, 50);
        assert_eq!(d.network_latency(), 48);
        assert_eq!(d.hops, 4);
        assert!(nic.ejection[idx].is_free());
    }

    #[test]
    fn incomplete_packet_is_not_consumable() {
        let mut nic = Nic::new(NodeId(5), &cfg());
        let class = MessageClass(0);
        let idx = nic.ej_index(class, 1);
        nic.receive(idx, flit(0, 5, class));
        nic.receive(idx, flit(1, 5, class));
        assert!(!nic.ejection[idx].complete_packet());
        assert!(!nic.ejection[idx].is_free());
    }

    #[test]
    fn single_flit_packet_is_complete_on_arrival() {
        let mut nic = Nic::new(NodeId(5), &cfg());
        let class = MessageClass(0);
        let idx = nic.ej_index(class, 0);
        let f = flit(0, 1, class);
        assert_eq!(f.kind, FlitKind::HeadTail);
        nic.receive(idx, f);
        assert!(nic.ejection[idx].complete_packet());
    }
}
