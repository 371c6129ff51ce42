//! The workload interface: who injects packets and who consumes them.
//!
//! Open-loop synthetic traffic only implements `generate`; the closed-loop
//! coherence-protocol workload also gates consumption (a directory may refuse
//! a request while its resources are busy — the root of protocol deadlock)
//! and reacts to deliveries by issuing follow-up messages.

use crate::stats::DeliveredPacket;
use noc_types::{Cycle, MessageClass, NodeId, Packet, PacketId};

/// Allocates globally unique packet ids for a workload.
#[derive(Clone, Debug, Default)]
pub struct PacketFactory {
    next: u64,
}

impl PacketFactory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a packet descriptor with a fresh id.
    #[allow(clippy::too_many_arguments)]
    pub fn make(
        &mut self,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u8,
        birth: Cycle,
        measured: bool,
    ) -> Packet {
        let id = PacketId(self.next);
        self.next += 1;
        Packet {
            id,
            src,
            dest,
            class,
            len_flits,
            birth,
            measured,
        }
    }

    /// Number of packets created so far.
    pub fn created(&self) -> u64 {
        self.next
    }
}

/// A source/sink of traffic driven by the simulation loop.
pub trait Workload {
    /// Called once per cycle before routers compute. Push new packets via
    /// `inject(node, packet)`; they enter that NIC's injection queue this
    /// cycle.
    fn generate(&mut self, cycle: Cycle, inject: &mut dyn FnMut(NodeId, Packet));

    /// Offered a complete packet sitting in an ejection VC. Return `true` to
    /// consume it now (it is then removed and counted), `false` to leave it
    /// (backpressure — the ejection VC stays occupied).
    ///
    /// Implementations that consume may record follow-up messages and emit
    /// them on the next `generate` call.
    fn deliver(&mut self, cycle: Cycle, packet: &DeliveredPacket) -> bool {
        let _ = (cycle, packet);
        true
    }

    /// For closed-loop workloads: `Some(true)` once the workload's work items
    /// are all complete (run can stop), `None` for open-loop workloads.
    fn finished(&self) -> Option<bool> {
        None
    }
}

/// The trivial workload: nothing injected, everything consumed. Useful for
/// tests that drive the network by hand.
#[derive(Clone, Debug, Default)]
pub struct IdleWorkload;

impl Workload for IdleWorkload {
    fn generate(&mut self, _cycle: Cycle, _inject: &mut dyn FnMut(NodeId, Packet)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_ids_are_unique_and_monotonic() {
        let mut f = PacketFactory::new();
        let a = f.make(NodeId(0), NodeId(1), MessageClass(0), 1, 0, true);
        let b = f.make(NodeId(2), NodeId(3), MessageClass(1), 5, 7, false);
        assert_ne!(a.id, b.id);
        assert!(a.id < b.id);
        assert_eq!(f.created(), 2);
        assert_eq!(b.len_flits, 5);
        assert!(!b.measured);
    }
}
