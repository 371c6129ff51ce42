//! The mechanism SPI: how deadlock-freedom / flow-control schemes plug into
//! the simulation loop.
//!
//! A mechanism runs twice per cycle around the routers' compute phase. It may
//! read the network freely through the public fields, reserve link slots and
//! feed statistics; state the credit snapshot reads — input-VC buffers,
//! ejection VCs and their reservations — it mutates only through the SPI
//! methods on [`crate::network::Network`] (`drain_packet`, `install_packet`,
//! `set_ej_reserve`, `deliver_ff_flit`, `take_captured`), which keep the
//! occupancy counters exact and mark the stale credit lanes as they mutate.

use crate::network::Network;
use noc_types::{PacketId, SchemeKind};

/// A deadlock-freedom / flow-control scheme.
pub trait Mechanism {
    /// Which scheme this is (for labelling and the area/energy models).
    fn kind(&self) -> SchemeKind;

    /// Runs after flit arrivals and traffic generation, before routers
    /// compute. Seeker movement, FF flit movement, probes and forced moves
    /// happen here; switch allocation this cycle observes the effects.
    fn pre_cycle(&mut self, net: &mut Network) {
        let _ = net;
    }

    /// Runs after routers, injection and consumption.
    fn post_cycle(&mut self, net: &mut Network) {
        let _ = net;
    }

    /// Called by the runtime recovery layer immediately after it has drained
    /// `victim` out of its VC into the recovery channel. The packet no longer
    /// exists anywhere in router buffers; any mechanism state that names it —
    /// a pending escape reservation, an in-flight probe targeting its VC —
    /// must be dropped or reset here, or the mechanism will act on a ghost.
    /// The default assumes the mechanism keeps no per-packet state.
    fn on_recovery_drain(&mut self, net: &mut Network, victim: PacketId) {
        let _ = (net, victim);
    }

    /// A human-readable snapshot of the mechanism's internal state (seeker
    /// tables, tokens, probes in flight, …) for the watchdog's black-box
    /// dump. The default says nothing; schemes with interesting state
    /// override it.
    fn debug_state(&self) -> String {
        String::new()
    }
}

/// The null mechanism: a plain VC router network. Deadlock-free only if the
/// routing algorithm is.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMechanism;

impl Mechanism for NoMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::None
    }
}
