//! Resumable simulation jobs: the unit of work `noc-serve` schedules.
//!
//! A [`SimJob`] wraps one of the repo's long-running workloads — a fault
//! sweep, a chaos soak, or a repro replay — behind a single contract:
//!
//! * **resumable** — progress is journaled to an append-only `*.jsonl`
//!   checkpoint keyed by content addresses, so re-running the same job
//!   after a crash (or `kill -9`) re-executes only the missing units and
//!   the finished journal is byte-identical to an uninterrupted run's;
//! * **cancellable** — a [`rayon::CancelToken`] (explicit cancel or
//!   deadline) is observed at unit granularity, and interruption is a
//!   distinct, typed outcome ([`JobError::Interrupted`]), never a failure;
//! * **observable** — an optional progress callback fires after every
//!   completed unit with done/total/failed counts.
//!
//! The service layer owns retries, backoff and quarantine; this layer owns
//! determinism and the resume contract.

use std::path::{Path, PathBuf};

use crate::chaos::{self, CaseGen, GenPool};
use crate::sweep::{run_sweep_ctx, Checkpoint, FaultPoint, SweepCtx, SweepProgress};

/// Live progress of a running job, delivered after every completed unit
/// (sweep point, chaos case, or replayed repro).
#[derive(Clone, Copy, Debug, Default)]
pub struct JobProgress {
    /// Units finished so far, including those adopted from a previous
    /// attempt's journal.
    pub done: usize,
    /// Total units in the job.
    pub total: usize,
    /// Units that failed this run (a `"status": "failed"` sweep row, a
    /// chaos case that failed an oracle).
    pub failed: usize,
}

/// Execution context handed to [`SimJob::run`] by the scheduler.
pub struct JobCtx<'a> {
    /// Cooperative cancellation: explicit cancel, deadline expiry, or
    /// service drain. Checked between units and between watchdog slices
    /// inside a sweep point.
    pub cancel: &'a rayon::CancelToken,
    /// Fired after every completed unit.
    pub progress: Option<&'a (dyn Fn(JobProgress) + Sync)>,
    /// Where black-box dumps and repro files for failing units land.
    pub dump_dir: &'a Path,
    /// Storage layer for the job's journals and repro artifacts. `None`
    /// uses the process-wide [`noc_store::active`]; the service passes its
    /// own handle so a fault-injected run covers job I/O too.
    pub vfs: Option<std::sync::Arc<dyn noc_store::Vfs>>,
}

impl JobCtx<'_> {
    fn vfs(&self) -> std::sync::Arc<dyn noc_store::Vfs> {
        self.vfs.clone().unwrap_or_else(noc_store::active)
    }
}

/// Terminal summary of a completed (not interrupted) job.
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    /// Units finished over the job's lifetime (this run + resumed).
    pub done: usize,
    pub total: usize,
    /// Units recorded as failed (the job itself still completed: a failed
    /// datapoint is data, not a scheduler error).
    pub failed: usize,
    /// Units adopted from a previous attempt's journal instead of re-run.
    pub resumed: usize,
    /// Torn journal lines repaired away (quarantined + compacted) when the
    /// journal was opened — a crashed previous writer, now accounted for
    /// instead of silently discarded.
    pub repaired_lines: usize,
    /// CRC-failed journal lines repaired away at open — bit rot or a torn
    /// sector inside a record, detected by the per-record trailer.
    pub corrupt_lines: usize,
    /// The journal holding one row per unit, when the job keeps one.
    pub rows: Option<PathBuf>,
    /// One-line human summary.
    pub summary: String,
}

/// Why a job did not produce a [`JobReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The cancellation token fired: explicit cancel or deadline. All
    /// completed units are journaled; the rest re-execute on resume.
    Interrupted(rayon::CancelReason),
    /// The job cannot run or finish (bad spec, unreadable repro, I/O
    /// error). Deterministic — retrying without a fix will fail again.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Interrupted(r) => write!(f, "interrupted: {r:?}"),
            JobError::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// One schedulable workload. Construction fixes every knob (content
/// addressing happens over these fields), execution is deterministic.
pub enum SimJob {
    /// Run every point of a fault sweep, checkpointing to `ckpt`.
    Sweep {
        points: Vec<FaultPoint>,
        ckpt: PathBuf,
        /// Lockstep batch width (explicit here so jobs do not race on the
        /// process environment; the service resolves `NOC_BATCH_WIDTH`
        /// once at startup).
        width: usize,
    },
    /// Generate and run `cases` chaos cases from `seed`, logging one row
    /// per case to `log` (`chaos::record_case`); failing cases are
    /// minimized and leave `repro_<key>.json` in the dump directory. This
    /// is the only chaos case loop: `noc_chaos` runs it under a deadline.
    Chaos {
        seed: u64,
        cases: usize,
        pool: GenPool,
        log: PathBuf,
    },
    /// Replay a recorded repro file and verify the failure reproduces
    /// byte-identically.
    Replay { repro: PathBuf },
}

impl SimJob {
    /// Total units this job consists of.
    pub fn total_units(&self) -> usize {
        match self {
            SimJob::Sweep { points, .. } => points.len(),
            SimJob::Chaos { cases, .. } => *cases,
            SimJob::Replay { .. } => 1,
        }
    }

    /// Executes the job to completion, resuming from its journal when one
    /// exists. Returns [`JobError::Interrupted`] the moment the token's
    /// firing is observed at a unit boundary.
    pub fn run(&self, ctx: &JobCtx<'_>) -> Result<JobReport, JobError> {
        match self {
            SimJob::Sweep {
                points,
                ckpt,
                width,
            } => run_sweep_job(points, ckpt, *width, ctx),
            SimJob::Chaos {
                seed,
                cases,
                pool,
                log,
            } => run_chaos_job(*seed, *cases, *pool, log, ctx),
            SimJob::Replay { repro } => run_replay_job(repro, ctx),
        }
    }
}

fn interrupted(token: &rayon::CancelToken) -> JobError {
    JobError::Interrupted(token.reason().unwrap_or(rayon::CancelReason::Cancelled))
}

fn run_sweep_job(
    points: &[FaultPoint],
    ckpt_path: &Path,
    width: usize,
    ctx: &JobCtx<'_>,
) -> Result<JobReport, JobError> {
    let ckpt = Checkpoint::open_with_vfs(ckpt_path, ctx.vfs())
        .map_err(|e| JobError::Failed(format!("cannot open {}: {e}", ckpt_path.display())))?;
    let forward = |p: SweepProgress| {
        if let Some(cb) = ctx.progress {
            cb(JobProgress {
                done: p.done,
                total: p.total,
                failed: p.failed,
            });
        }
    };
    let sctx = SweepCtx {
        cancel: ctx.cancel,
        progress: Some(&forward),
    };
    let o = run_sweep_ctx(points, &ckpt, None, ctx.dump_dir, width, Some(&sctx));
    // A journal that stopped persisting parks the job as interrupted —
    // completed rows are safe, missing points re-execute on resume — and
    // the reason is storage, NOT the shared cancel token: latching that
    // token would poison the eventual retry.
    if ckpt.write_failed() {
        return Err(JobError::Interrupted(rayon::CancelReason::StorageDegraded));
    }
    if o.interrupted > 0 || ctx.cancel.is_cancelled() {
        return Err(interrupted(ctx.cancel));
    }
    Ok(JobReport {
        done: o.resumed + o.executed,
        total: points.len(),
        failed: o.failed,
        resumed: o.resumed,
        repaired_lines: ckpt.torn_dropped(),
        corrupt_lines: ckpt.corrupt_dropped(),
        rows: Some(ckpt_path.to_path_buf()),
        summary: format!(
            "sweep: {} executed, {} resumed, {} failed",
            o.executed, o.resumed, o.failed
        ),
    })
}

fn run_chaos_job(
    seed: u64,
    cases: usize,
    pool: GenPool,
    log_path: &Path,
    ctx: &JobCtx<'_>,
) -> Result<JobReport, JobError> {
    // The chaos log reuses the sweep checkpoint machinery: append-only
    // keyed rows, torn-final-line repair, atomic compaction. Case keys are
    // content addresses, and the generator is a pure function of the seed,
    // so "skip rows already present" is exactly "resume".
    let ckpt = Checkpoint::open_with_vfs(log_path, ctx.vfs())
        .map_err(|e| JobError::Failed(format!("cannot open {}: {e}", log_path.display())))?;
    let mut gen = CaseGen::new(seed, pool);
    let mut done = 0usize;
    let mut resumed = 0usize;
    let mut failed = 0usize;
    for _ in 0..cases {
        let case = gen.next_case();
        if ckpt.is_done(&case.key()) {
            done += 1;
            resumed += 1;
            continue;
        }
        // Observed between cases only: a started case — minimization
        // included — always finishes and records its row.
        if ctx.cancel.is_cancelled() {
            return Err(interrupted(ctx.cancel));
        }
        let gate = crate::runner::admit(case.scheme, &case.config());
        let Some(was_failure) = chaos::record_case(&case, gate, &ckpt, ctx.dump_dir) else {
            // The case's repro or row never landed: park as
            // storage-interrupted so it re-executes once storage persists.
            return Err(JobError::Interrupted(rayon::CancelReason::StorageDegraded));
        };
        done += 1;
        if was_failure {
            failed += 1;
        }
        if let Some(cb) = ctx.progress {
            cb(JobProgress {
                done,
                total: cases,
                failed,
            });
        }
    }
    Ok(JobReport {
        done,
        total: cases,
        failed,
        resumed,
        repaired_lines: ckpt.torn_dropped(),
        corrupt_lines: ckpt.corrupt_dropped(),
        rows: Some(log_path.to_path_buf()),
        summary: format!("chaos: {done} cases, {resumed} resumed, {failed} failed"),
    })
}

fn run_replay_job(repro: &Path, ctx: &JobCtx<'_>) -> Result<JobReport, JobError> {
    if ctx.cancel.is_cancelled() {
        return Err(interrupted(ctx.cancel));
    }
    let verdict = chaos::replay(repro, ctx.dump_dir).map_err(JobError::Failed)?;
    if let Some(cb) = ctx.progress {
        cb(JobProgress {
            done: 1,
            total: 1,
            failed: 0,
        });
    }
    Ok(JobReport {
        done: 1,
        total: 1,
        failed: 0,
        resumed: 0,
        repaired_lines: 0,
        corrupt_lines: 0,
        rows: None,
        summary: verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scheme;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_point(scheme: Scheme, transient: f64) -> FaultPoint {
        FaultPoint::quick("job-test", scheme, transient)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seec_job_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn quiet<'a>(token: &'a rayon::CancelToken, dump: &'a Path) -> JobCtx<'a> {
        JobCtx {
            cancel: token,
            progress: None,
            dump_dir: dump,
            vfs: None,
        }
    }

    #[test]
    fn sweep_job_completes_resumes_and_reports_progress() {
        let dir = tmpdir("sweep");
        let ckpt = dir.join("s.ckpt.jsonl");
        let job = SimJob::Sweep {
            points: vec![
                quick_point(Scheme::seec(), 0.0),
                quick_point(Scheme::mseec(), 0.0),
            ],
            ckpt: ckpt.clone(),
            width: 2,
        };
        assert_eq!(job.total_units(), 2);
        let token = rayon::CancelToken::new();
        let seen = AtomicUsize::new(0);
        let cb = |p: JobProgress| seen.store(p.done, Ordering::Relaxed);
        let ctx = JobCtx {
            cancel: &token,
            progress: Some(&cb),
            dump_dir: &dir,
            vfs: None,
        };
        let r = job.run(&ctx).expect("job completes");
        assert_eq!((r.done, r.total, r.resumed), (2, 2, 0));
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(r.rows.as_deref(), Some(ckpt.as_path()));
        // Second run resumes everything without re-executing.
        let r = job.run(&ctx).expect("resume completes");
        assert_eq!((r.done, r.resumed), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_sweep_job_is_interrupted_not_failed() {
        let dir = tmpdir("sweep_cancel");
        let job = SimJob::Sweep {
            points: vec![quick_point(Scheme::seec(), 0.0)],
            ckpt: dir.join("c.ckpt.jsonl"),
            width: 1,
        };
        let token = rayon::CancelToken::new();
        token.cancel();
        let err = job.run(&quiet(&token, &dir)).unwrap_err();
        assert_eq!(err, JobError::Interrupted(rayon::CancelReason::Cancelled));
        // The journal holds nothing: the point re-executes on resume.
        let fresh = rayon::CancelToken::new();
        let r = job.run(&quiet(&fresh, &dir)).expect("resume completes");
        assert_eq!((r.done, r.resumed), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_job_journals_cases_and_resumes_by_key() {
        let dir = tmpdir("chaos");
        let log = dir.join("soak.jsonl");
        let job = SimJob::Chaos {
            seed: 7,
            cases: 2,
            pool: GenPool::Smoke,
            log: log.clone(),
        };
        let token = rayon::CancelToken::new();
        let r = job.run(&quiet(&token, &dir)).expect("chaos completes");
        assert_eq!((r.done, r.total, r.resumed), (2, 2, 0));
        let rows = Checkpoint::open(&log).unwrap().rows();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.contains_key("status"), "{row:?}");
            // The service log carries the whole case: it rebuilds.
            let case = chaos::ChaosCase::from_row(row).expect("row rebuilds its case");
            assert_eq!(case.key(), row["key"]);
        }
        // A second run adopts both rows from the journal.
        let r = job.run(&quiet(&token, &dir)).expect("chaos resumes");
        assert_eq!((r.done, r.resumed), (2, 2));
        // A wider run resumes the prefix: the generator is pure in the seed.
        let wider = SimJob::Chaos {
            seed: 7,
            cases: 3,
            pool: GenPool::Smoke,
            log: log.clone(),
        };
        let r = wider.run(&quiet(&token, &dir)).expect("wider run");
        assert_eq!((r.done, r.resumed), (3, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_chaos_job_resumes_where_it_stopped() {
        let dir = tmpdir("chaos_cancel");
        let log = dir.join("soak.jsonl");
        let job = SimJob::Chaos {
            seed: 3,
            cases: 2,
            pool: GenPool::Smoke,
            log: log.clone(),
        };
        let token = rayon::CancelToken::new();
        token.cancel();
        let err = job.run(&quiet(&token, &dir)).unwrap_err();
        assert!(matches!(err, JobError::Interrupted(_)));
        let fresh = rayon::CancelToken::new();
        let r = job.run(&quiet(&fresh, &dir)).expect("resume");
        assert_eq!(r.done, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_job_round_trips_a_recorded_failure() {
        let dir = tmpdir("replay");
        // Manufacture a deterministic failing case, harvest its repro via a
        // chaos-style run, then replay it through the job abstraction.
        let case = chaos::wedged_adaptive_case();
        let f = match chaos::run_case(&case, &dir) {
            chaos::CaseOutcome::Fail(f) => f,
            other => panic!("expected failure, got {other:?}"),
        };
        let repro = dir.join("repro.jsonl");
        std::fs::write(&repro, format!("{}\n", chaos::repro_line(&case, &f))).unwrap();
        let token = rayon::CancelToken::new();
        let job = SimJob::Replay {
            repro: repro.clone(),
        };
        let r = job.run(&quiet(&token, &dir)).expect("replay verifies");
        assert_eq!((r.done, r.total), (1, 1));
        assert!(!r.summary.is_empty());
        // A corrupted repro is a deterministic failure, not an interrupt.
        std::fs::write(&repro, "not json\n").unwrap();
        let err = job.run(&quiet(&token, &dir)).unwrap_err();
        assert!(matches!(err, JobError::Failed(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
