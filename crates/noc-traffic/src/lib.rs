//! Traffic generation for the SEEC reproduction.
//!
//! Synthetic patterns match Garnet's `garnet_synth_traffic` definitions
//! (uniform random, transpose, bit rotation, shuffle, bit complement,
//! tornado, neighbor, hotspot) with Bernoulli injection and the paper's mix
//! of 1-flit and 5-flit packets. Application *profiles* for the PARSEC /
//! SPLASH-2 experiments live in [`apps`]; the closed-loop engine that drives
//! them is in the `noc-protocol` crate.

#![forbid(unsafe_code)]

pub mod apps;
pub mod pattern;
pub mod synth;

pub use pattern::TrafficPattern;
pub use synth::{PacketMix, SyntheticWorkload};
