//! The job lifecycle as a runtime relation: [`Stage`] is what journals,
//! HTTP payloads and the scheduler's registry store, and
//! [`Stage::permits`] is the edge set every transition — written live or
//! replayed from a journal on restart — is validated against.
//! `tests/lifecycle.rs` pins the edge set, reachability and terminality.
//!
//! ```text
//!            ┌────────────┐ start  ┌─────────┐ complete  ┌──────┐
//!   submit → │   QUEUED   ├───────►│ RUNNING ├──────────►│ DONE │
//!            └─────┬──────┘        └─┬─┬─┬─┬─┘           └──────┘
//!                  │ cancel   resume │ │ │ │ fail/deadline ┌────────┐
//!                  ▼           ┌─────┘ │ │ └──────────────►│ FAILED │
//!            ┌───────────┐     │       │ │ checkpoint      └────────┘
//!            │ CANCELLED │◄────┼───────┘ ▼   (interrupt)       ▲
//!            └───────────┘     │  ┌──────────────┐  quarantine │
//!                  ▲           └──┤ CHECKPOINTED ├─────────────┘
//!                  └── cancel ────┴──────────────┘
//! ```
//!
//! `DONE`, `FAILED` and `CANCELLED` are terminal: the relation returns
//! `false` for every edge out of them, so a cancelled job is never
//! resurrected (the restart-adoption path leans on this — a terminal
//! journal line ends the job's story, whatever follows).

/// A job's lifecycle position: what journals, HTTP responses and the
/// scheduler's registry store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Accepted, journaled, waiting for a worker.
    Queued,
    /// Claimed by a worker, executing.
    Running,
    /// Interrupted with its progress journaled (drain, crash adoption, or
    /// a panicking attempt awaiting its retry): resumable.
    Checkpointed,
    /// Completed; report available.
    Done,
    /// Terminal error: deterministic job failure, deadline expiry, or
    /// quarantine after the retry budget.
    Failed,
    /// Cancelled by the client. Never resurrected, even across restarts.
    Cancelled,
}

impl Stage {
    /// Every stage, in journal-label order.
    pub const ALL: [Stage; 6] = [
        Stage::Queued,
        Stage::Running,
        Stage::Checkpointed,
        Stage::Done,
        Stage::Failed,
        Stage::Cancelled,
    ];

    /// The journal/HTTP label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Queued => "queued",
            Stage::Running => "running",
            Stage::Checkpointed => "checkpointed",
            Stage::Done => "done",
            Stage::Failed => "failed",
            Stage::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`Stage::label`].
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.label() == s)
    }

    /// No edges lead out of a terminal stage.
    pub fn is_terminal(self) -> bool {
        matches!(self, Stage::Done | Stage::Failed | Stage::Cancelled)
    }

    /// The transition relation. Journal replay on restart validates every
    /// recorded transition against this (a journal claiming `done →
    /// running` is corruption, not history).
    pub fn permits(self, to: Stage) -> bool {
        use Stage::{Cancelled, Checkpointed, Done, Failed, Queued, Running};
        matches!(
            (self, to),
            (Queued, Running | Cancelled)
                | (Running, Done | Failed | Cancelled | Checkpointed)
                | (Checkpointed, Running | Cancelled | Failed)
        )
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.label()), Some(s));
        }
        assert_eq!(Stage::parse("zombie"), None);
    }

    #[test]
    fn terminal_stages_permit_nothing() {
        for from in Stage::ALL.into_iter().filter(|s| s.is_terminal()) {
            for to in Stage::ALL {
                assert!(!from.permits(to), "{from} -> {to} must be illegal");
            }
        }
    }
}
