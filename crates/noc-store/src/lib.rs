//! Storage hardening layer for every artifact this workspace persists.
//!
//! The crash-tolerance story (checkpointed sweeps, `noc-serve` journal
//! replay, black-box dumps) is only as strong as the filesystem writes it
//! rides on. This crate makes those writes *verifiable*:
//!
//! * a [`Vfs`] abstraction every journal/checkpoint/dump/quarantine writer
//!   and reader goes through — a production [`StdVfs`] (temp file + fsync +
//!   atomic rename, directory fsync on Linux) and a seeded [`FaultVfs`]
//!   that injects ENOSPC, EIO, torn writes, slow writes and rename failures
//!   on a canonical, replayable schedule (same digest discipline as the
//!   simulator's `FaultSchedule`);
//! * CRC32 record framing ([`seal_line`] / [`open_line`]) so a torn **or
//!   corrupt** JSONL row is detected — never parsed as data;
//! * the one sealed journal append ([`append_sealed`]): bounded retries
//!   under the workspace's one capped exponential [`backoff`], each led by
//!   a newline, before a failure escalates to the caller;
//! * the generic fault [`Plan`] and [`Injector`] that this crate's
//!   `FaultVfs` and `noc-net`'s fault transport both replay.
//!
//! The storage fault schedule is driven by two environment knobs,
//! validated eagerly by every binary (exit status 2 on garbage, like
//! `NOC_THREADS`):
//!
//! * `NOC_VFS_FAULT_SCHEDULE` — explicit events, e.g.
//!   `"3:enospc,7:torn@12,9:rename,2:stuck,8:heal"` (op-indexed);
//! * `NOC_VFS_FAULT_SEED` — seeded pseudo-random faults for soaks.
//!
//! See DESIGN.md §15 for the grammar, the precedence and the fault matrix.

#![forbid(unsafe_code)]

pub mod fault;
pub mod frame;
pub mod plan;
pub mod vfs;

pub use fault::{FaultKind, FaultPlan, FaultVfs};
pub use frame::{crc32, open_line, seal_line, LineCheck};
pub use plan::{Injector, Kind, Plan};
pub use vfs::{active, append_sealed, backoff, AppendLog, StdVfs, Vfs};

/// FNV-1a 64-bit — the workspace's canonical content-address hash, local
/// so this crate stays dependency-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
