//! The job service: a bounded queue feeding a supervised worker pool, with
//! every lifecycle transition journaled for crash-safe restart.
//!
//! ## Failure matrix
//!
//! | event                    | outcome                                     |
//! |--------------------------|---------------------------------------------|
//! | job panics               | retried with capped exponential backoff; after `max_attempts` quarantined as FAILED with a `quarantine.json` black box |
//! | deadline expires         | FAILED (`deadline exceeded`), no retry       |
//! | client cancels           | CANCELLED at the next unit boundary, terminal forever (restarts included) |
//! | queue full               | submission shed with `QueueFull` (HTTP 429 + `Retry-After`) |
//! | drain (SIGTERM)          | running jobs parked as CHECKPOINTED, queue closed, workers joined |
//! | `kill -9`                | next boot adopts the journals: non-terminal jobs requeue and resume from `rows.ckpt.jsonl`; a torn final row is repaired and re-executed |
//! | storage write fails      | running jobs park as CHECKPOINTED with their rows intact and the service flips to read-only DEGRADED: submissions get `StorageDegraded` (HTTP 503 + `Retry-After`), `healthz` reports it, and a periodic probe write heals the service and requeues the parked jobs once storage recovers |
//! | corrupt journal line     | detected by its CRC trailer at the next boot, dropped with exact accounting (`repaired_lines` / `corrupt_lines` in every status row), and compacted out of the journal |
//!
//! ## On-disk layout (under `data_dir`)
//!
//! ```text
//! jobs/<id>/spec.json        the submitted spec (canonical rendering)
//! jobs/<id>/state.jsonl      append-only stage transitions
//! jobs/<id>/rows.ckpt.jsonl  per-unit results (the resume journal)
//! jobs/<id>/dumps/           black-box dumps and repro files
//! jobs/<id>/quarantine.json  written when retries are exhausted
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use noc_experiments::jsonio::{self, JsonObj};
use noc_experiments::{JobError, JobProgress};
use noc_store::{LineCheck, Vfs};

use crate::lifecycle::Stage;
use crate::queue::{BoundedQueue, QueueFull};
use crate::spec::JobSpec;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Root of the persistent state.
    pub data_dir: PathBuf,
    /// Worker threads. `0` means accept-only — jobs queue but never run
    /// (the load-shedding tests use this to fill the queue reliably).
    pub workers: usize,
    /// Queue bound; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Base backoff after a panicking attempt; attempt `n` waits
    /// `retry_base_ms << (n-1)`, capped at 64× the base.
    pub retry_base_ms: u64,
    /// Attempts before a panicking job is quarantined.
    pub max_attempts: u32,
    /// Lockstep batch width for sweep jobs (resolve `NOC_BATCH_WIDTH`
    /// before building this — the service never reads the environment).
    pub batch_width: usize,
}

impl ServeOpts {
    pub fn new(data_dir: impl Into<PathBuf>) -> ServeOpts {
        ServeOpts {
            data_dir: data_dir.into(),
            workers: 2,
            queue_cap: 16,
            retry_base_ms: 50,
            max_attempts: 3,
            batch_width: 4,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Malformed spec; the message names the field.
    Invalid(String),
    /// Queue at capacity — shed, retry later.
    Busy(QueueFull),
    /// The service is draining and accepts nothing new.
    Draining,
    /// Storage is degraded: the service is read-only until a probe write
    /// succeeds. The message names the failure that tripped it.
    StorageDegraded(String),
}

/// Point-in-time public view of one job.
#[derive(Clone, Debug)]
pub struct JobStatus {
    pub id: String,
    pub stage: Stage,
    pub attempts: u32,
    pub done: usize,
    pub total: usize,
    pub failed_units: usize,
    /// Torn journal lines detected (by shape or CRC), quarantined, and
    /// re-executed across this job's journals.
    pub repaired_lines: usize,
    /// Lines whose CRC trailer failed outright — silent corruption that
    /// would have been parsed as data before checksummed framing.
    pub corrupt_lines: usize,
    /// Present when terminal-with-prejudice: the failure/cancel detail.
    pub error: Option<String>,
    /// Present when DONE: the job's one-line summary.
    pub summary: Option<String>,
    /// Present when quarantined: the black-box path.
    pub quarantine: Option<PathBuf>,
}

impl JobStatus {
    /// Flat JSON rendering for HTTP payloads.
    pub fn to_row(&self) -> String {
        let mut obj = JsonObj::new()
            .str_field("id", &self.id)
            .str_field("stage", self.stage.label())
            .u64_field("attempts", u64::from(self.attempts))
            .u64_field("done", self.done as u64)
            .u64_field("total", self.total as u64)
            .u64_field("failed_units", self.failed_units as u64)
            .u64_field("repaired_lines", self.repaired_lines as u64)
            .u64_field("corrupt_lines", self.corrupt_lines as u64);
        if let Some(e) = &self.error {
            obj = obj.str_field("error", e);
        }
        if let Some(s) = &self.summary {
            obj = obj.str_field("summary", s);
        }
        if let Some(q) = &self.quarantine {
            obj = obj.str_field("quarantine", &q.display().to_string());
        }
        obj.finish()
    }
}

/// One monotonic event counter. Relaxed ordering: counters are telemetry,
/// never synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one observed event.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotonic network/admission counters, surfaced in `/healthz` so chaos
/// soaks can assert that shedding, deadline kills, and idempotent
/// resubmission actually happened — not just that the end state converged.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections the accept loop took off the listener.
    pub accepted: Counter,
    /// Connections refused inline (concurrency cap or spawn failure).
    pub shed: Counter,
    /// Connections that died mid-request (reset, torn request, I/O error).
    pub reset: Counter,
    /// Connections refused with `408` for exceeding the request deadline.
    pub deadline_kills: Counter,
    /// Requests refused with `431` (header line/count caps).
    pub header_rejects: Counter,
    /// Submissions answered from the content-address dedupe — each one is
    /// a client retry observed after the original attempt was admitted.
    pub dedupe_hits: Counter,
}

/// Shared per-job progress counters, updated by the running worker and
/// read by status snapshots.
#[derive(Default)]
struct Progress {
    done: AtomicUsize,
    total: AtomicUsize,
    failed: AtomicUsize,
    repaired: AtomicUsize,
    corrupt: AtomicUsize,
}

struct Entry {
    spec: JobSpec,
    stage: Stage,
    attempts: u32,
    token: rayon::CancelToken,
    progress: Arc<Progress>,
    /// First worker claim — the deadline anchor.
    started: Option<Instant>,
    /// Set by [`Service::cancel`]; distinguishes a user cancel from a
    /// drain interrupt when both arrive as `CancelReason::Cancelled`.
    user_cancelled: bool,
    /// Parked because the storage layer stopped accepting writes; requeued
    /// automatically when the probe write heals the service.
    parked_by_storage: bool,
    error: Option<String>,
    summary: Option<String>,
    quarantine: Option<PathBuf>,
}

struct Shared {
    opts: ServeOpts,
    queue: BoundedQueue<String>,
    jobs: Mutex<BTreeMap<String, Entry>>,
    draining: AtomicBool,
    /// Every persistence path goes through this handle; tests swap in a
    /// `noc_store::FaultVfs` via [`Service::open_with_vfs`].
    vfs: Arc<dyn Vfs>,
    /// Read-only DEGRADED mode: set when a persistent write failure is
    /// observed, cleared when a probe write lands.
    storage_down: AtomicBool,
    /// The failure that tripped DEGRADED, for `healthz` and submit errors.
    storage_detail: Mutex<String>,
    /// Network/admission counters (the HTTP layer increments these).
    net: NetStats,
}

/// The running service. Cheap to clone handles out of via [`Service::drain`]
/// semantics: one instance owns the worker pool.
pub struct Service {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn job_dir(&self, id: &str) -> PathBuf {
        self.opts.data_dir.join("jobs").join(id)
    }

    /// Appends one transition to the job's `state.jsonl` after validating
    /// it against the lifecycle relation; an illegal edge is a scheduler
    /// bug and panics in tests (and is refused, loudly, in release).
    ///
    /// The line carries a CRC trailer so a torn or bit-rotted record is
    /// detected (never parsed) at the next boot. A failed append retries
    /// with the newline-resync protocol, then trips DEGRADED — the
    /// in-memory stage already advanced, so status stays truthful even
    /// when the journal lags.
    fn transition(&self, entry: &mut Entry, id: &str, to: Stage, detail: &str) {
        let from = entry.stage;
        if !from.permits(to) {
            debug_assert!(false, "illegal transition {from} -> {to} for {id}");
            eprintln!("noc-serve: refusing illegal transition {from} -> {to} for {id}");
            return;
        }
        entry.stage = to;
        let line = JsonObj::new()
            .str_field("stage", to.label())
            .u64_field("attempts", u64::from(entry.attempts))
            .str_field("detail", detail)
            .finish();
        let sealed = noc_store::seal_line(&line);
        let path = self.job_dir(id).join("state.jsonl");
        let appended = self.vfs.open_append(&path).and_then(|mut log| {
            noc_store::RetryPolicy::default().run(|attempt| {
                // After a failed append the bytes on disk are unknown, so
                // retries lead with a newline: a torn fragment becomes its
                // own (CRC-detectable) line instead of a hybrid.
                let framed = if attempt > 1 {
                    format!("\n{sealed}\n")
                } else {
                    format!("{sealed}\n")
                };
                log.append(framed.as_bytes())
            })
        });
        if let Err(e) = appended {
            self.mark_degraded(&format!("cannot journal {id} -> {to}: {e}"));
        }
    }

    /// Flips the service into read-only DEGRADED mode (idempotent).
    fn mark_degraded(&self, why: &str) {
        *lock(&self.storage_detail) = why.to_string();
        if !self.storage_down.swap(true, Ordering::SeqCst) {
            eprintln!("noc-serve: storage DEGRADED (read-only): {why}");
        }
    }

    fn is_degraded(&self) -> bool {
        self.storage_down.load(Ordering::SeqCst)
    }

    fn status_of(&self, id: &str, e: &Entry) -> JobStatus {
        JobStatus {
            id: id.to_string(),
            stage: e.stage,
            attempts: e.attempts,
            done: e.progress.done.load(Ordering::Relaxed),
            total: e.progress.total.load(Ordering::Relaxed),
            failed_units: e.progress.failed.load(Ordering::Relaxed),
            repaired_lines: e.progress.repaired.load(Ordering::Relaxed),
            corrupt_lines: e.progress.corrupt.load(Ordering::Relaxed),
            error: e.error.clone(),
            summary: e.summary.clone(),
            quarantine: e.quarantine.clone(),
        }
    }
}

impl Service {
    /// Opens (or re-opens) the service over `data_dir`: creates the
    /// layout, **adopts** every journaled job — terminal jobs stay as
    /// their journals say (a cancelled job is never resurrected), every
    /// non-terminal job is parked as CHECKPOINTED and requeued, resuming
    /// from its `rows.ckpt.jsonl` — and starts the worker pool.
    pub fn open(opts: ServeOpts) -> std::io::Result<Service> {
        Service::open_with_vfs(opts, noc_store::active())
    }

    /// [`Service::open`] over an explicit storage layer — the storage-fault
    /// tests pass a seeded `noc_store::FaultVfs` here.
    pub fn open_with_vfs(opts: ServeOpts, vfs: Arc<dyn Vfs>) -> std::io::Result<Service> {
        let jobs_root = opts.data_dir.join("jobs");
        vfs.create_dir_all(&jobs_root)?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(opts.queue_cap),
            jobs: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            vfs,
            storage_down: AtomicBool::new(false),
            storage_detail: Mutex::new(String::new()),
            net: NetStats::default(),
            opts,
        });
        let mut adopt: Vec<String> = Vec::new();
        for dirent in std::fs::read_dir(&jobs_root)? {
            let dir = dirent?.path();
            let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            match adopt_one(&shared, &dir, &id) {
                Ok(Some(id)) => adopt.push(id),
                Ok(None) => {}
                Err(e) => eprintln!("noc-serve: skipping {id}: {e}"),
            }
        }
        // Requeue outside the jobs lock, bound-exempt: these jobs were
        // accepted in a previous life.
        {
            let mut jobs = lock(&shared.jobs);
            for id in adopt {
                if let Some(e) = jobs.get_mut(&id) {
                    // A job the last process died while RUNNING parks as
                    // CHECKPOINTED; QUEUED/CHECKPOINTED jobs requeue as-is.
                    if e.stage == Stage::Running {
                        shared.transition(e, &id, Stage::Checkpointed, "adopted after crash");
                    }
                }
                shared.queue.requeue(id);
            }
        }
        let service = Service {
            workers: Mutex::new(Vec::new()),
            shared,
        };
        service.spawn_workers();
        Ok(service)
    }

    fn spawn_workers(&self) {
        let mut handles = lock(&self.workers);
        for i in 0..self.shared.opts.workers {
            let shared = Arc::clone(&self.shared);
            let h = std::thread::Builder::new()
                .name(format!("noc-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker");
            handles.push(h);
        }
    }

    /// Submits a job. Returns the status and whether it was newly created
    /// (`false` = content-address dedupe hit an existing job, in whatever
    /// stage it is — including terminal).
    pub fn submit(&self, row: &BTreeMap<String, String>) -> Result<(JobStatus, bool), SubmitError> {
        if self.shared.draining.load(Ordering::Relaxed) {
            return Err(SubmitError::Draining);
        }
        if self.shared.is_degraded() {
            return Err(SubmitError::StorageDegraded(
                lock(&self.shared.storage_detail).clone(),
            ));
        }
        let spec = JobSpec::parse(row).map_err(SubmitError::Invalid)?;
        let id = spec.digest().map_err(SubmitError::Invalid)?;
        let mut jobs = lock(&self.shared.jobs);
        if let Some(e) = jobs.get(&id) {
            // A dedupe hit is the idempotency escape channel at work: a
            // retrying client resubmitted something already admitted.
            self.shared.net.dedupe_hits.incr();
            return Ok((self.shared.status_of(&id, e), false));
        }
        let dir = self.shared.job_dir(&id);
        self.shared
            .vfs
            .create_dir_all(&dir.join("dumps"))
            .map_err(|e| SubmitError::Invalid(format!("cannot create job dir: {e}")))?;
        let progress = Arc::new(Progress::default());
        progress
            .total
            .store(spec.to_job(&dir, 1).total_units(), Ordering::Relaxed);
        let entry = Entry {
            spec,
            stage: Stage::Queued,
            attempts: 0,
            token: rayon::CancelToken::new(),
            progress,
            started: None,
            user_cancelled: false,
            parked_by_storage: false,
            error: None,
            summary: None,
            quarantine: None,
        };
        // Reserve the queue slot before anything becomes visible.
        if let Err(full) = self.shared.queue.try_push(id.clone()) {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(SubmitError::Busy(full));
        }
        // Both acceptance artifacts land atomically (temp + fsync +
        // rename): a crash mid-submit leaves no half-written spec for the
        // next boot to choke on. A write failure here IS a storage fault —
        // undo, trip DEGRADED, and shed the submission. (The reserved
        // queue slot drains harmlessly: the id has no registry entry.)
        let spec_write = self
            .shared
            .vfs
            .write_atomic(
                &dir.join("spec.json"),
                format!("{}\n", entry.spec.to_row()).as_bytes(),
            )
            .and_then(|()| {
                // First journal line: the QUEUED acceptance record. Not a
                // transition (there is no prior stage), so written whole.
                let line = JsonObj::new()
                    .str_field("stage", Stage::Queued.label())
                    .u64_field("attempts", 0)
                    .str_field("detail", "accepted")
                    .finish();
                self.shared.vfs.write_atomic(
                    &dir.join("state.jsonl"),
                    format!("{}\n", noc_store::seal_line(&line)).as_bytes(),
                )
            });
        if let Err(e) = spec_write {
            let _ = std::fs::remove_dir_all(&dir);
            let why = format!("cannot persist submission {id}: {e}");
            self.shared.mark_degraded(&why);
            return Err(SubmitError::StorageDegraded(why));
        }
        let status = self.shared.status_of(&id, &entry);
        jobs.insert(id, entry);
        Ok((status, true))
    }

    /// Snapshot of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let jobs = lock(&self.shared.jobs);
        jobs.get(id).map(|e| self.shared.status_of(id, e))
    }

    /// Snapshot of every job, id-ordered.
    pub fn list(&self) -> Vec<JobStatus> {
        let jobs = lock(&self.shared.jobs);
        jobs.iter()
            .map(|(id, e)| self.shared.status_of(id, e))
            .collect()
    }

    /// The job's unit journal, for the rows endpoint.
    pub fn rows_path(&self, id: &str) -> Option<PathBuf> {
        let jobs = lock(&self.shared.jobs);
        jobs.contains_key(id)
            .then(|| self.shared.job_dir(id).join("rows.ckpt.jsonl"))
    }

    /// Cancels a job: immediate for parked jobs, observed at the next unit
    /// boundary for running ones. `Err` carries the terminal stage when
    /// there is nothing left to cancel.
    pub fn cancel(&self, id: &str) -> Result<JobStatus, Option<Stage>> {
        let mut jobs = lock(&self.shared.jobs);
        let Some(e) = jobs.get_mut(id) else {
            return Err(None);
        };
        if e.stage.is_terminal() {
            return Err(Some(e.stage));
        }
        e.user_cancelled = true;
        e.token.cancel();
        if matches!(e.stage, Stage::Queued | Stage::Checkpointed) {
            self.shared
                .transition(e, id, Stage::Cancelled, "cancelled while parked");
            e.error = Some("cancelled by client".into());
        }
        Ok(self.shared.status_of(id, e))
    }

    /// True once [`Service::drain`] began.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// True while the service is in read-only DEGRADED mode (a persistent
    /// storage write failure was observed and the probe write has not yet
    /// succeeded).
    pub fn storage_degraded(&self) -> bool {
        self.shared.is_degraded()
    }

    /// The failure that tripped DEGRADED mode, when degraded.
    pub fn storage_detail(&self) -> Option<String> {
        self.shared
            .is_degraded()
            .then(|| lock(&self.shared.storage_detail).clone())
    }

    /// Queue depth (for health reporting).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// The network/admission counters (HTTP layer writes, `healthz` reads).
    pub fn net(&self) -> &NetStats {
        &self.shared.net
    }

    /// Graceful shutdown: stop accepting, interrupt running jobs (they
    /// park as CHECKPOINTED with their progress journaled), and join the
    /// workers. Idempotent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        {
            let jobs = lock(&self.shared.jobs);
            for e in jobs.values() {
                if e.stage == Stage::Running {
                    e.token.cancel();
                }
            }
        }
        let handles: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rebuilds one job's registry entry from its journals. Returns the id
/// when the job must be requeued (non-terminal), `None` when it rests.
///
/// Every `state.jsonl` line is verified against its CRC trailer first: a
/// torn or bit-rotted record is dropped with exact accounting (surfaced as
/// `repaired_lines` in the status row) and compacted out of the journal,
/// so repeated restarts do not re-count the same damage. Pre-CRC lines
/// (journals written before checksummed framing) are accepted as legacy
/// when they still parse.
fn adopt_one(shared: &Arc<Shared>, dir: &Path, id: &str) -> Result<Option<String>, String> {
    let spec_line = shared
        .vfs
        .read_to_string(&dir.join("spec.json"))
        .map_err(|e| format!("unreadable spec.json: {e}"))?;
    let row = jsonio::parse_flat(spec_line.trim()).ok_or("corrupt spec.json")?;
    let spec = JobSpec::parse(&row)?;
    // Verify, then replay the transition journal, validating each edge;
    // CRC-failed lines are repaired away and illegal edges end the
    // believable history.
    let mut stage = Stage::Queued;
    let mut attempts = 0u32;
    let mut error = None;
    let mut summary = None;
    let mut state_repaired = 0usize;
    if let Ok(text) = shared.vfs.read_to_string(&dir.join("state.jsonl")) {
        let mut kept: Vec<&str> = Vec::new();
        let mut payloads: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue; // newline-resync padding from an append retry
            }
            match noc_store::open_line(line) {
                LineCheck::Sealed(payload) => {
                    kept.push(line);
                    payloads.push(payload.to_string());
                }
                LineCheck::Legacy(payload) if jsonio::parse_flat(payload).is_some() => {
                    kept.push(line);
                    payloads.push(payload.to_string());
                }
                LineCheck::Legacy(_) | LineCheck::Corrupt => state_repaired += 1,
            }
        }
        if state_repaired > 0 {
            eprintln!(
                "noc-serve: {id}: repairing state journal \
                 ({state_repaired} torn/corrupt line(s) dropped)"
            );
            let mut fixed = kept.join("\n");
            if !fixed.is_empty() {
                fixed.push('\n');
            }
            let _ = shared
                .vfs
                .write_atomic(&dir.join("state.jsonl"), fixed.as_bytes());
        }
        // The first believable line is the QUEUED acceptance record, not a
        // transition.
        for payload in payloads.iter().skip(1) {
            let Some(row) = jsonio::parse_flat(payload) else {
                continue;
            };
            let Some(next) = row.get("stage").and_then(|s| Stage::parse(s)) else {
                continue;
            };
            if !stage.permits(next) {
                eprintln!("noc-serve: {id}: journal claims {stage} -> {next}; truncating history");
                break;
            }
            stage = next;
            if let Some(a) = row.get("attempts").and_then(|a| a.parse().ok()) {
                attempts = a;
            }
            if let Some(d) = row.get("detail") {
                match stage {
                    Stage::Failed | Stage::Cancelled => error = Some(d.clone()),
                    Stage::Done => summary = Some(d.clone()),
                    _ => {}
                }
            }
        }
    }
    let progress = Arc::new(Progress::default());
    progress
        .total
        .store(spec.to_job(dir, 1).total_units(), Ordering::Relaxed);
    progress.repaired.store(state_repaired, Ordering::Relaxed);
    // Terminal verdicts survive restarts untouched; everything else counts
    // its journaled rows as done and goes back to work.
    if !stage.is_terminal() {
        if let Ok(ckpt) = noc_experiments::Checkpoint::open_with_vfs(
            &dir.join("rows.ckpt.jsonl"),
            Arc::clone(&shared.vfs),
        ) {
            progress.done.store(ckpt.done_count(), Ordering::Relaxed);
            progress
                .repaired
                .fetch_add(ckpt.torn_dropped(), Ordering::Relaxed);
            progress
                .corrupt
                .fetch_add(ckpt.corrupt_dropped(), Ordering::Relaxed);
        }
    }
    let quarantine = dir.join("quarantine.json");
    let entry = Entry {
        spec,
        stage,
        attempts,
        token: rayon::CancelToken::new(),
        progress,
        started: None,
        user_cancelled: false,
        parked_by_storage: false,
        error,
        summary,
        quarantine: quarantine.exists().then_some(quarantine),
    };
    let requeue = !stage.is_terminal();
    lock(&shared.jobs).insert(id.to_string(), entry);
    Ok(requeue.then(|| id.to_string()))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        if shared.is_degraded() {
            // Read-only mode: nothing runs until the probe write lands.
            probe_storage(shared);
            if shared.is_degraded() {
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        }
        let Some(id) = shared.queue.pop(Duration::from_millis(50)) else {
            continue;
        };
        run_one(shared, &id);
    }
}

/// Attempts the self-heal probe: one atomic write under `data_dir`. On
/// success the service leaves DEGRADED mode and every job that was parked
/// by a storage fault is requeued (bound-exempt — they were accepted
/// before the fault). Safe to race from every worker: the probe is
/// idempotent and `run_one` claims under the jobs lock, so a double
/// requeue is harmless.
fn probe_storage(shared: &Arc<Shared>) {
    let probe = shared.opts.data_dir.join(".storage_probe");
    if shared.vfs.write_atomic(&probe, b"ok\n").is_err() {
        return; // still down; stay degraded
    }
    if shared.storage_down.swap(false, Ordering::SeqCst) {
        eprintln!("noc-serve: storage healed; leaving read-only mode");
        let resume: Vec<String> = {
            let mut jobs = lock(&shared.jobs);
            jobs.iter_mut()
                .filter(|(_, e)| e.parked_by_storage && e.stage == Stage::Checkpointed)
                .map(|(id, e)| {
                    e.parked_by_storage = false;
                    id.clone()
                })
                .collect()
        };
        for id in resume {
            shared.queue.requeue(id);
        }
    }
}

/// Claims, executes and settles one job attempt.
fn run_one(shared: &Arc<Shared>, id: &str) {
    let dir = shared.job_dir(id);
    // Claim.
    let (spec, token, progress, attempt) = {
        let mut jobs = lock(&shared.jobs);
        let Some(e) = jobs.get_mut(id) else { return };
        if !matches!(e.stage, Stage::Queued | Stage::Checkpointed) {
            return; // cancelled (or settled) while queued
        }
        e.attempts += 1;
        let verb = if e.stage == Stage::Queued {
            "start"
        } else {
            "resume"
        };
        shared.transition(
            e,
            id,
            Stage::Running,
            &format!("{verb} attempt {}", e.attempts),
        );
        let started = *e.started.get_or_insert_with(Instant::now);
        if let Some(ms) = e.spec.deadline_ms {
            e.token.set_deadline(started + Duration::from_millis(ms));
        }
        (
            e.spec.clone(),
            e.token.clone(),
            Arc::clone(&e.progress),
            e.attempts,
        )
    };
    let dumps = dir.join("dumps");
    let _ = shared.vfs.create_dir_all(&dumps);
    let job = spec.to_job(&dir, shared.opts.batch_width);
    let cb = {
        let progress = Arc::clone(&progress);
        move |p: JobProgress| {
            progress.done.store(p.done, Ordering::Relaxed);
            progress.total.store(p.total, Ordering::Relaxed);
            progress.failed.store(p.failed, Ordering::Relaxed);
        }
    };
    let job_vfs = Arc::clone(&shared.vfs);
    let result = rayon::catch_panic(|| {
        if attempt <= spec.fail_attempts {
            panic!(
                "injected service test panic (attempt {attempt}/{})",
                spec.fail_attempts
            );
        }
        job.run(&noc_experiments::JobCtx {
            cancel: &token,
            progress: Some(&cb),
            dump_dir: &dumps,
            vfs: Some(job_vfs),
        })
    });
    // Settle.
    let mut jobs = lock(&shared.jobs);
    let Some(e) = jobs.get_mut(id) else { return };
    match result {
        Ok(Ok(report)) => {
            e.progress
                .repaired
                .fetch_add(report.repaired_lines, Ordering::Relaxed);
            e.progress
                .corrupt
                .fetch_add(report.corrupt_lines, Ordering::Relaxed);
            shared.transition(e, id, Stage::Done, &report.summary);
            e.summary = Some(report.summary);
        }
        Ok(Err(JobError::Failed(err))) => {
            // Deterministic job failure: retrying cannot help.
            shared.transition(e, id, Stage::Failed, &err);
            e.error = Some(err);
        }
        Ok(Err(JobError::Interrupted(reason))) => {
            if reason == rayon::CancelReason::StorageDegraded {
                // The job's journal stopped accepting writes: park with
                // every completed row intact (nothing is lost — the units
                // that could not journal re-execute after the heal) and
                // flip the service read-only. The probe write requeues it.
                shared.transition(e, id, Stage::Checkpointed, "parked by storage fault");
                e.parked_by_storage = true;
                shared.mark_degraded(&format!("job {id}: persistent journal write failure"));
            } else if reason == rayon::CancelReason::DeadlineExceeded {
                let msg = format!("deadline exceeded ({} ms)", e.spec.deadline_ms.unwrap_or(0));
                shared.transition(e, id, Stage::Failed, &msg);
                e.error = Some(msg);
            } else if e.user_cancelled {
                shared.transition(e, id, Stage::Cancelled, "cancelled by client");
                e.error = Some("cancelled by client".into());
            } else {
                // Drain: park with progress journaled; the next boot
                // adopts and resumes.
                shared.transition(e, id, Stage::Checkpointed, "parked by drain");
            }
        }
        Err(panic_msg) => {
            if e.attempts >= shared.opts.max_attempts {
                let quarantine = dir.join("quarantine.json");
                let body = JsonObj::new()
                    .str_field("schema", "noc-serve-quarantine-v1")
                    .str_field("id", id)
                    .u64_field("attempts", u64::from(e.attempts))
                    .str_field("panic", &panic_msg)
                    .str_field("dumps", &dumps.display().to_string())
                    .finish();
                // Atomic: a half-written black box is worse than none.
                let _ = shared
                    .vfs
                    .write_atomic(&quarantine, format!("{body}\n").as_bytes());
                let msg = format!("quarantined after {} attempts: {panic_msg}", e.attempts);
                shared.transition(e, id, Stage::Checkpointed, "panicked");
                shared.transition(e, id, Stage::Failed, &msg);
                e.error = Some(msg);
                e.quarantine = Some(quarantine);
            } else {
                shared.transition(
                    e,
                    id,
                    Stage::Checkpointed,
                    &format!("panicked on attempt {}: {panic_msg}", e.attempts),
                );
                let attempts = e.attempts;
                drop(jobs);
                backoff_then_requeue(shared, id, attempts);
            }
        }
    }
}

/// Sleeps the capped exponential backoff (cancellable at 10 ms
/// granularity), then requeues — unless a drain or a user cancel arrived
/// while waiting.
fn backoff_then_requeue(shared: &Arc<Shared>, id: &str, attempt: u32) {
    let mut remaining = noc_store::backoff(shared.opts.retry_base_ms, attempt);
    while remaining > 0 {
        if shared.draining.load(Ordering::Relaxed) {
            return; // stays CHECKPOINTED; adopted on restart
        }
        {
            let jobs = lock(&shared.jobs);
            if jobs.get(id).is_none_or(|e| e.stage != Stage::Checkpointed) {
                return; // cancelled (or otherwise settled) while parked
            }
        }
        let step = remaining.min(10);
        std::thread::sleep(Duration::from_millis(step));
        remaining -= step;
    }
    let jobs = lock(&shared.jobs);
    if jobs.get(id).is_some_and(|e| e.stage == Stage::Checkpointed) {
        shared.queue.requeue(id.to_string());
    }
}
