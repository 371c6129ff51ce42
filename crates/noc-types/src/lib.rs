//! Vocabulary types shared by every crate in the SEEC reproduction.
//!
//! This crate deliberately contains *no* behaviour beyond small, pure helpers:
//! coordinates and node identifiers on a 2D mesh, mesh port directions, flit
//! and packet descriptors, message classes, and the network configuration
//! structure. Everything is `Copy` or cheaply clonable so the simulator's hot
//! loop never allocates for bookkeeping.

#![forbid(unsafe_code)]

pub mod config;
pub mod direction;
pub mod fault;
pub mod flit;
pub mod geometry;
pub mod message;
pub mod recovery;
pub mod schedule;

pub use config::{BaseRouting, BufferOrg, NetConfig, RoutingAlgo, SchemeKind};
pub use direction::{Direction, PortId, NUM_PORTS};
pub use fault::FaultConfig;
pub use flit::{Flit, FlitKind, Packet};
pub use geometry::{Coord, NodeId};
pub use message::{MessageClass, PacketId};
pub use recovery::RecoveryConfig;
pub use schedule::{Epoch, FaultAction, FaultEvent, FaultSchedule};

/// Simulation time, in router clock cycles.
pub type Cycle = u64;
