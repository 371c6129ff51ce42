//! # noc-sim — a cycle-accurate 2D-mesh `NoC` simulator
//!
//! The substrate of the SEEC reproduction: a Garnet2.0-class network model
//! built from scratch. VC routers with credit flow control, virtual
//! cut-through buffering (single packet per VC), per-VNet virtual channels,
//! 1-cycle routers and 1-cycle links, NICs with per-message-class ejection
//! VCs, minimal routing algorithms (XY, west-first, oblivious/adaptive random,
//! Duato escape-VC), and a mechanism SPI through which the SEEC and baseline
//! deadlock-freedom schemes plug into the cycle loop.
//!
//! Entry point: [`network::Sim`]. A simulation is
//! `Sim::new(config, workload, mechanism)` followed by [`network::Sim::run`].

#![forbid(unsafe_code)]
// The simulator proper never unwraps; invariant-backed Options use
// `expect` with the invariant spelled out. Unit tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod chaos;
pub mod fault;
pub mod inbox;
#[cfg(feature = "check-invariants")]
pub mod invariants;
pub mod mechanism;
pub mod network;
pub mod nic;
pub mod recovery;
pub mod reorder;
pub mod reservation;
pub mod router;
pub mod routing;
pub mod soa;
pub mod stats;
pub mod vc;
pub mod watchdog;
pub mod workload;

pub use batch::{LockstepBatch, ShapeKey};
pub use chaos::ChaosState;
pub use fault::{DeadSet, FaultLayer, RouteMask, Unroutable};
pub use inbox::Inbox;
pub use mechanism::{Mechanism, NoMechanism};
pub use network::{Network, NocModel, Sim, HOP_LATENCY, LOCAL_LATENCY};
pub use nic::{EjReserve, EjVc, Nic};
pub use recovery::RecoveryState;
pub use reorder::ReorderBuffer;
pub use reservation::ReservationTable;
pub use router::Router;
pub use soa::{CreditSoA, CreditView};
pub use stats::{DeliveredPacket, Stats};
pub use vc::{VcRoute, VirtualChannel};
pub use workload::{IdleWorkload, PacketFactory, Workload};
