//! # seec — Stochastic Escape Express Channel
//!
//! The paper's contribution, as one turn and two schedules. A *turn* belongs
//! to one (destination NIC, message class): the NIC reserves an ejection VC,
//! sends a *seeker* over a side-band walk, and the first packet the seeker
//! finds headed for that VC is upgraded to *Free Flow* — a bufferless,
//! minimal, lookahead-driven traversal with absolute priority that is
//! guaranteed to eject ([`flight`]). The private `turn` module implements
//! that once. A *schedule* says whose turn it is and where the seeker walks:
//!
//! * [`SeecMechanism`] — one engine, a global (NIC, class) token, a
//!   [`SeekerRing`] walk that transits to the slot's round-robin start and
//!   then searches one revolution, XY flights: one FF packet at a time.
//! * [`MSeecMechanism`] (§3.8) — one engine per column, the phase/step
//!   order with a barrier between steps, a walk that searches only its
//!   column partition and its origin, column-first flights: one FF packet
//!   per partition.
//!
//! Nothing is tunable. Footnote 2's periodic injection-queue search runs
//! every 10,000 cycles for eight seek times (one seek time is the ring
//! length, return segment included, for SEEC and `cols × rows` for mSEEC),
//! and whenever the network has been quiescent for two.
//!
//! Integration with the simulator is through `noc_sim::Mechanism`:
//! everything SEEC does happens in `pre_cycle`, and the switch allocator
//! honours the space-time link reservations FF traversals make (the model of
//! the paper's lookahead signal, §3.5).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod flight;
pub mod mseec;
pub mod ring;
pub mod seec;
mod turn;

pub use flight::FfFlight;
pub use mseec::MSeecMechanism;
pub use ring::SeekerRing;
pub use seec::SeecMechanism;
