//! `noc-serve`: a crash-tolerant job service over the repo's simulation
//! runners.
//!
//! Long-running work — fault sweeps, chaos soaks, repro replays — is
//! submitted over a hand-rolled HTTP/1.1 + JSON interface (zero external
//! dependencies), deduplicated by content address (the same config digest
//! machinery the checkpoint journals key on), and executed on a supervised
//! worker pool:
//!
//! * the job lifecycle is one runtime relation ([`lifecycle::Stage`]):
//!   every transition is checked against it, live and on journal replay,
//!   and terminal stages have no exits;
//! * every transition is journaled, and every unit of work lands in an
//!   append-only `rows.ckpt.jsonl`, so `kill -9` at any byte is recoverable:
//!   the next boot adopts the journals and resumes, producing row sets
//!   byte-identical to an uninterrupted run;
//! * per-job **deadlines** and client cancellation ride one cooperative
//!   [`rayon::CancelToken`], observed at sweep-point granularity;
//! * panicking jobs are **retried** under capped exponential backoff and
//!   then **quarantined** with a black-box dump;
//! * the queue is bounded: overload is shed at admission with HTTP 429 +
//!   `Retry-After`, never absorbed as latency;
//! * SIGTERM drains gracefully — running jobs park as CHECKPOINTED.
//!
//! See DESIGN.md §14 for the architecture and failure matrix.

#![forbid(unsafe_code)]

pub mod http;
pub mod lifecycle;
pub mod queue;
pub mod service;
pub mod spec;

pub use http::HttpOpts;
pub use lifecycle::Stage;
pub use queue::{BoundedQueue, QueueFull};
pub use service::{Counter, JobStatus, NetStats, ServeOpts, Service, SubmitError};
pub use spec::{JobSpec, SpecKind, SweepSource};
