//! Deterministic, replayable network-fault injection over `std::net`.
//!
//! The network twin of `noc-store`'s `FaultVfs`: a [`Transport`] wraps
//! every connection operation (connect, accept, read, write) and replays a
//! [`NetFaultPlan`] against the endpoint's op counter. With no plan
//! configured the transport is a zero-overhead passthrough, so production
//! paths pay one `Option` branch per op and nothing else.
//!
//! Fault kinds: connection resets, torn reads/writes at byte offset *n*,
//! slow trickle, admission failures, and a sticky partition with heal.
//! Plans come from `NOC_NET_FAULT_SCHEDULE` (explicit `op:kind` events)
//! and/or `NOC_NET_FAULT_SEED` (seeded draws), explicit-event-wins, both
//! validated eagerly by binaries (exit 2 on garbage). The plan and the
//! op-counting injector are `noc_store`'s generic `Plan` / `Injector`;
//! this crate adds the network kind table and the `std::net` wrappers.

#![forbid(unsafe_code)]

mod fault;
mod plan;

pub use fault::{FaultListener, FaultNet, FaultStream, Transport};
pub use plan::{NetFaultKind, NetFaultPlan};
