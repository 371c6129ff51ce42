//! Virtual channels.
//!
//! The paper's buffer organization (Table 4) is virtual cut-through with a
//! single packet per VC: a VC is allocated to a whole packet when its head
//! flit wins switch allocation upstream, and is freed when the tail flit
//! departs.

use noc_types::{Cycle, Flit, PacketId, PortId};
use std::collections::VecDeque;

/// Downstream allocation of an input VC: where flits of the resident packet
/// are being switched to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VcRoute {
    /// Output port of this router.
    pub out_port: PortId,
    /// VC index at the downstream input port (or ejection-VC index when
    /// `out_port` is the local port).
    pub out_vc: usize,
    /// True when `out_vc` names an escape VC (routing stays west-first
    /// downstream).
    pub escape: bool,
}

/// One input virtual channel of a router.
#[derive(Clone, Debug, Default)]
pub struct VirtualChannel {
    /// Buffered flits, in packet order. With single-packet VCT at most one
    /// packet's flits are ever resident.
    pub buf: VecDeque<Flit>,
    /// The packet this VC is currently allocated to (set by the upstream
    /// router when it picked this VC, observed here when the head arrives;
    /// `Some` from head arrival until tail departure).
    pub resident: Option<PacketId>,
    /// Downstream route + VC chosen for the resident packet; `None` until
    /// VC allocation succeeds.
    pub route: Option<VcRoute>,
    /// True while the resident packet occupies this VC *as an escape VC*:
    /// its routing is restricted to west-first.
    pub is_escape_resident: bool,
    /// Output port chosen by route computation for the resident head; sticks
    /// until VC allocation succeeds (Garnet computes the route once per
    /// router visit).
    pub pending_port: Option<noc_types::PortId>,
    /// Cycle the current head flit arrived at the front of this VC with no
    /// grant yet — drives SPIN's deadlock-detection timeout and the watchdog.
    pub head_wait_since: Option<Cycle>,
    /// Number of flits of the resident packet that have already departed
    /// downstream (for virtual cut-through streaming).
    pub flits_sent: u8,
    /// True while a Free-Flow *stream* is capturing this VC (§3.11 wormhole
    /// upgrade): switch allocation skips it, and the SEEC mechanism pops
    /// arriving flits straight into the FF flight.
    pub ff_capture: bool,
}

impl VirtualChannel {
    /// True when the VC holds no flits and is not reserved by an in-flight
    /// packet — i.e. an upstream router may allocate it.
    pub fn is_free(&self) -> bool {
        self.buf.is_empty() && self.resident.is_none()
    }

    /// True when a head flit sits at the front and no downstream VC has been
    /// allocated yet.
    pub fn needs_route(&self) -> bool {
        self.route.is_none() && self.buf.front().is_some_and(|f| f.kind.is_head())
    }

    /// The flit that would depart next, if any.
    pub fn front(&self) -> Option<&Flit> {
        self.buf.front()
    }

    /// True when *all* flits of the resident packet are buffered here (the
    /// packet is not streaming across the upstream link). Seekers only
    /// upgrade, and forced moves only relocate, fully-buffered packets.
    pub fn packet_fully_buffered(&self) -> bool {
        match self.buf.front() {
            Some(f) => f.kind.is_head() && self.buf.len() == f.len as usize,
            None => false,
        }
    }

    /// Accepts an arriving flit. Sets `resident` on head arrival.
    pub fn push(&mut self, flit: Flit) {
        if flit.kind.is_head() {
            debug_assert!(
                self.is_free(),
                "head flit arriving into a non-free VC violates VCT"
            );
            self.resident = Some(flit.packet);
            self.is_escape_resident = flit.escape;
            self.flits_sent = 0;
        } else {
            debug_assert_eq!(
                self.resident,
                Some(flit.packet),
                "interleaved packets in VC"
            );
        }
        self.buf.push_back(flit);
    }

    /// Removes the front flit after it won switch traversal. Frees the VC on
    /// tail departure and returns `true` in that case (caller returns a
    /// credit upstream).
    pub fn pop_front_sent(&mut self) -> (Flit, bool) {
        let flit = self.buf.pop_front().expect("pop from empty VC");
        self.head_wait_since = None;
        self.flits_sent += 1;
        let freed = flit.kind.is_tail();
        if freed {
            self.release();
        }
        (flit, freed)
    }

    /// Drains the *entire* resident packet out of the VC (used when a seeker
    /// upgrades it to Free Flow, or a subactive scheme relocates it).
    /// The VC becomes free. Panics if the packet is not fully buffered.
    pub fn drain_packet(&mut self) -> Vec<Flit> {
        assert!(
            self.packet_fully_buffered(),
            "draining a VC whose packet is still streaming"
        );
        let flits: Vec<Flit> = self.buf.drain(..).collect();
        self.release();
        flits
    }

    /// Clears allocation state, making the VC free for the next packet.
    fn release(&mut self) {
        self.resident = None;
        self.route = None;
        self.is_escape_resident = false;
        self.pending_port = None;
        self.head_wait_since = None;
        self.flits_sent = 0;
        self.ff_capture = false;
    }

    /// Pops every currently-buffered flit of a captured VC (wormhole FF
    /// streaming). Releases the VC once the tail has been taken; until then
    /// the VC stays resident so trailing flits keep arriving into it.
    /// Mechanisms call it through `Network::take_captured`, which keeps the
    /// occupancy counters and credit lanes in step.
    pub(crate) fn take_captured(&mut self) -> Vec<Flit> {
        debug_assert!(self.ff_capture);
        let mut out = Vec::with_capacity(self.buf.len());
        let mut saw_tail = false;
        while let Some(f) = self.buf.pop_front() {
            saw_tail |= f.kind.is_tail();
            out.push(f);
        }
        if saw_tail {
            self.release();
        }
        out
    }

    /// Installs a full packet into an idle VC (used by forced-move schemes:
    /// SWAP, DRAIN, SPIN rotations).
    pub fn install_packet(&mut self, flits: Vec<Flit>) {
        assert!(self.is_free(), "installing into a busy VC");
        assert!(!flits.is_empty());
        assert!(flits[0].kind.is_head());
        self.resident = Some(flits[0].packet);
        self.route = None;
        self.is_escape_resident = flits[0].escape;
        self.pending_port = None;
        self.flits_sent = 0;
        self.buf.extend(flits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{FlitKind, MessageClass, NodeId, Packet, PacketId};

    fn make_flits(id: u64, len: u8) -> Vec<Flit> {
        let p = Packet {
            id: PacketId(id),
            src: NodeId(0),
            dest: NodeId(3),
            class: MessageClass(0),
            len_flits: len,
            birth: 0,
            measured: true,
        };
        (0..len).map(|s| Flit::from_packet(&p, s, 1)).collect()
    }

    #[test]
    fn vct_lifecycle() {
        let mut vc = VirtualChannel::default();
        assert!(vc.is_free());
        for f in make_flits(1, 3) {
            vc.push(f);
        }
        assert!(!vc.is_free());
        assert!(vc.needs_route());
        assert!(vc.packet_fully_buffered());
        assert_eq!(vc.resident, Some(PacketId(1)));

        let (h, freed) = vc.pop_front_sent();
        assert_eq!(h.kind, FlitKind::Head);
        assert!(!freed);
        let (_, freed) = vc.pop_front_sent();
        assert!(!freed);
        let (t, freed) = vc.pop_front_sent();
        assert_eq!(t.kind, FlitKind::Tail);
        assert!(freed);
        assert!(vc.is_free());
        assert_eq!(vc.flits_sent, 0);
    }

    #[test]
    fn partial_packet_is_not_fully_buffered() {
        let mut vc = VirtualChannel::default();
        let flits = make_flits(2, 5);
        vc.push(flits[0]);
        vc.push(flits[1]);
        assert!(!vc.packet_fully_buffered());
        vc.push(flits[2]);
        vc.push(flits[3]);
        vc.push(flits[4]);
        assert!(vc.packet_fully_buffered());
    }

    #[test]
    fn drain_and_install_roundtrip() {
        let mut vc = VirtualChannel::default();
        for f in make_flits(3, 5) {
            vc.push(f);
        }
        let flits = vc.drain_packet();
        assert_eq!(flits.len(), 5);
        assert!(vc.is_free());

        let mut other = VirtualChannel::default();
        other.install_packet(flits);
        assert!(other.packet_fully_buffered());
        assert_eq!(other.resident, Some(PacketId(3)));
    }

    #[test]
    #[should_panic(expected = "draining a VC")]
    fn drain_streaming_packet_panics() {
        let mut vc = VirtualChannel::default();
        let flits = make_flits(4, 5);
        vc.push(flits[0]);
        let _ = vc.drain_packet();
    }

    #[test]
    fn single_flit_packet_frees_immediately() {
        let mut vc = VirtualChannel::default();
        for f in make_flits(5, 1) {
            vc.push(f);
        }
        assert!(vc.packet_fully_buffered());
        let (f, freed) = vc.pop_front_sent();
        assert_eq!(f.kind, FlitKind::HeadTail);
        assert!(freed);
    }
}
