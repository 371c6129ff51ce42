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
//! | torn or corrupt journal line | detected at the next boot by the one line check both journals share, quarantined to `<journal>.quarantine`, counted (`repaired_lines` / `corrupt_lines` in every status row), and compacted out of the journal |
//!
//! ## On-disk layout (under `data_dir`)
//!
//! ```text
//! jobs/<id>/spec.json                   the submitted spec (canonical rendering)
//! jobs/<id>/state.jsonl                 append-only stage transitions
//! jobs/<id>/rows.ckpt.jsonl             per-unit results (the resume journal)
//! jobs/<id>/<journal>.quarantine        raw lines a repair dropped from either journal
//! jobs/<id>/dumps/                      black-box dumps and repro files
//! jobs/<id>/quarantine.json             written when retries are exhausted
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use noc_experiments::jsonio::{self, JsonObj};
use noc_experiments::sweep::repair;
use noc_experiments::{JobError, JobProgress};
use noc_store::Vfs;

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
    /// Torn lines the open-time repair dropped from this job's journals
    /// (`state.jsonl` and the row journal). One rule for both: a line with
    /// no CRC trailer that does not parse is torn (the tail of a killed
    /// writer); a line whose trailer fails, or whose sealed payload is not
    /// flat JSON, is corrupt. Either way it is quarantined, never parsed.
    pub repaired_lines: usize,
    /// Corrupt lines the same repair dropped — silent corruption that
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

/// Terminal jobs kept resident. Disk is the truth for a settled job
/// (`spec.json` + `state.jsonl` + `rows.ckpt.jsonl`), so the registry only
/// needs the recent ones — the ones clients are still asking about — and a
/// service that has run a million jobs holds as much memory as one that
/// has run this many.
const RESIDENT_TERMINAL_CAP: usize = 256;

/// The in-memory registry: every non-terminal job, plus a bounded window
/// of terminal ones cached over `jobs/<id>/`.
struct Registry {
    jobs: BTreeMap<String, Entry>,
    /// Ids whose acceptance artifacts are being written, outside the lock,
    /// by the submission that reserved them. Anyone else who wants the id
    /// waits on [`Shared::changed`] until it settles.
    admitting: BTreeSet<String>,
    /// Resident terminal ids, oldest-settled first: the eviction order.
    settled: VecDeque<String>,
    /// [`RESIDENT_TERMINAL_CAP`], or a test's smaller window.
    cap: usize,
}

impl Registry {
    /// Makes a job resident (admission or adoption).
    fn insert(&mut self, id: String, entry: Entry) {
        let terminal = entry.stage.is_terminal();
        self.jobs.insert(id.clone(), entry);
        if terminal {
            self.settle(id);
        }
    }

    /// Records that resident job `id` is now terminal and evicts the
    /// oldest-settled entries beyond the cap. Non-terminal jobs are never
    /// evicted: their tokens, progress counters and deadlines exist only
    /// here.
    fn settle(&mut self, id: String) {
        self.settled.push_back(id);
        while self.settled.len() > self.cap {
            if let Some(oldest) = self.settled.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

struct Shared {
    opts: ServeOpts,
    queue: BoundedQueue<String>,
    jobs: Mutex<Registry>,
    /// The registry's one condvar, notified on every lifecycle edge, when
    /// an admitting placeholder settles, and when the service or its HTTP
    /// front end starts shutting down. Long-polls and same-id admissions
    /// wait here.
    changed: Condvar,
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

    /// Locks the registry with `id` resolved: waits out an admitting
    /// placeholder, and on a miss re-adopts the job from `jobs/<id>/` — the
    /// same [`adopt_one`] a boot runs, so an evicted job answers exactly as
    /// it would after a restart. The journals are only ever appended under
    /// this lock, so the read cannot see a half-written record.
    fn locked_with(&self, id: &str) -> MutexGuard<'_, Registry> {
        self.resolve(lock(&self.jobs), id)
    }

    fn resolve<'a>(&self, mut reg: MutexGuard<'a, Registry>, id: &str) -> MutexGuard<'a, Registry> {
        while reg.admitting.contains(id) {
            reg = wait(&self.changed, reg);
        }
        // Ids arrive from URLs: only the shape `JobSpec::digest` issues
        // (16 lowercase hex digits) is ever taken to the filesystem.
        let issued = id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        if issued && !reg.jobs.contains_key(id) {
            let dir = self.job_dir(id);
            if self.vfs.exists(&dir.join("spec.json")) {
                // Unreadable journals were reported at boot; here the id
                // is simply unknown.
                if let Ok(Some(id)) = adopt_one(self, &mut reg, &dir, id) {
                    self.queue.requeue(id);
                }
            }
        }
        reg
    }

    /// Makes a submission durable: the job directory and both acceptance
    /// artifacts, each landed atomically (temp + fsync + rename) so a
    /// crash mid-submit leaves no half-written spec for the next boot to
    /// choke on. A failed write IS a storage fault: it trips DEGRADED.
    fn write_acceptance(&self, dir: &Path, id: &str, spec: &JobSpec) -> Result<(), SubmitError> {
        self.vfs
            .create_dir_all(&dir.join("dumps"))
            .map_err(|e| SubmitError::Invalid(format!("cannot create job dir: {e}")))?;
        // First journal line: the QUEUED acceptance record. Not a
        // transition (there is no prior stage), so written whole.
        let accepted = JsonObj::new()
            .str_field("stage", Stage::Queued.label())
            .u64_field("attempts", 0)
            .str_field("detail", "accepted")
            .finish();
        self.vfs
            .write_atomic(
                &dir.join("spec.json"),
                format!("{}\n", spec.to_row()).as_bytes(),
            )
            .and_then(|()| {
                self.vfs.write_atomic(
                    &dir.join("state.jsonl"),
                    format!("{}\n", noc_store::seal_line(&accepted)).as_bytes(),
                )
            })
            .map_err(|e| {
                let why = format!("cannot persist submission {id}: {e}");
                self.mark_degraded(&why);
                SubmitError::StorageDegraded(why)
            })
    }

    /// Appends one transition to the job's `state.jsonl` after validating
    /// it against the lifecycle relation; an illegal edge is a scheduler
    /// bug and panics in tests (and is refused, loudly, in release).
    ///
    /// The line goes through [`noc_store::append_sealed`], so a torn or
    /// bit-rotted record is detected (never parsed) at the next boot. An
    /// append that exhausts its retries trips DEGRADED — the in-memory
    /// stage already advanced, so status stays truthful even when the
    /// journal lags.
    ///
    /// Every edge wakes the registry's waiters; a terminal edge also
    /// enters the job into the eviction order.
    fn transition(&self, reg: &mut Registry, id: &str, to: Stage, detail: &str) {
        let Some(entry) = reg.jobs.get_mut(id) else {
            return;
        };
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
        let path = self.job_dir(id).join("state.jsonl");
        let appended = self
            .vfs
            .open_append(&path)
            .and_then(|mut log| noc_store::append_sealed(&mut *log, &line));
        if let Err(e) = appended {
            self.mark_degraded(&format!("cannot journal {id} -> {to}: {e}"));
        }
        if to.is_terminal() {
            reg.settle(id.to_string());
        }
        self.changed.notify_all();
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
        Service::open_with_window(opts, vfs, RESIDENT_TERMINAL_CAP)
    }

    /// [`Service::open_with_vfs`] keeping at most `cap` terminal jobs
    /// resident — the seam the eviction test uses; not a public option.
    pub(crate) fn open_with_window(
        opts: ServeOpts,
        vfs: Arc<dyn Vfs>,
        cap: usize,
    ) -> std::io::Result<Service> {
        let jobs_root = opts.data_dir.join("jobs");
        vfs.create_dir_all(&jobs_root)?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(opts.queue_cap),
            jobs: Mutex::new(Registry {
                jobs: BTreeMap::new(),
                admitting: BTreeSet::new(),
                settled: VecDeque::new(),
                cap: cap.max(1),
            }),
            changed: Condvar::new(),
            draining: AtomicBool::new(false),
            vfs,
            storage_down: AtomicBool::new(false),
            storage_detail: Mutex::new(String::new()),
            net: NetStats::default(),
            opts,
        });
        {
            let mut reg = lock(&shared.jobs);
            let mut adopt: Vec<String> = Vec::new();
            for dirent in std::fs::read_dir(&jobs_root)? {
                let dir = dirent?.path();
                let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
                    continue;
                };
                match adopt_one(&shared, &mut reg, &dir, &id) {
                    Ok(Some(id)) => adopt.push(id),
                    Ok(None) => {}
                    Err(e) => eprintln!("noc-serve: skipping {id}: {e}"),
                }
            }
            // Requeue bound-exempt: these jobs were accepted in a previous
            // life.
            for id in adopt {
                // A job the last process died while RUNNING parks as
                // CHECKPOINTED; QUEUED/CHECKPOINTED jobs requeue as-is.
                if reg.jobs.get(&id).is_some_and(|e| e.stage == Stage::Running) {
                    shared.transition(&mut reg, &id, Stage::Checkpointed, "adopted after crash");
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
    /// stage it is — including terminal, including evicted).
    ///
    /// Admission is decided under the registry lock, but the durable
    /// writes (four fsyncs) happen outside it, guarded by an *admitting*
    /// placeholder: status polls, worker claims and `Done` transitions of
    /// other jobs never queue behind a submission's disk I/O, while a
    /// second submit (or a cancel) of the **same** id waits for the first
    /// to settle — exactly one `202`, no journal clobbered.
    pub fn submit(&self, row: &BTreeMap<String, String>) -> Result<(JobStatus, bool), SubmitError> {
        let shared = &*self.shared;
        let spec = JobSpec::parse(row).map_err(SubmitError::Invalid)?;
        let id = spec.digest().map_err(SubmitError::Invalid)?;
        let dir = shared.job_dir(&id);
        let slot = {
            let mut reg = shared.locked_with(&id);
            if shared.draining.load(Ordering::Relaxed) {
                return Err(SubmitError::Draining);
            }
            if shared.is_degraded() {
                return Err(SubmitError::StorageDegraded(
                    lock(&shared.storage_detail).clone(),
                ));
            }
            if let Some(e) = reg.jobs.get(&id) {
                // A dedupe hit is the idempotency escape channel at work: a
                // retrying client resubmitted something already admitted.
                shared.net.dedupe_hits.incr();
                return Ok((shared.status_of(&id, e), false));
            }
            // Queue capacity is reserved before any byte is written: a
            // shed submission leaves no directory behind.
            let slot = shared.queue.reserve().map_err(SubmitError::Busy)?;
            reg.admitting.insert(id.clone());
            slot
        };
        let admitted = match shared.write_acceptance(&dir, &id, &spec) {
            Ok(()) => {
                let progress = Arc::new(Progress::default());
                progress
                    .total
                    .store(spec.to_job(&dir, 1).total_units(), Ordering::Relaxed);
                Ok(Entry {
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
                })
            }
            Err(e) => {
                // Undo while the placeholder still keeps the id to
                // ourselves.
                let _ = std::fs::remove_dir_all(&dir);
                Err(e)
            }
        };
        // Settle or roll back. The id reaches the workers only now, with
        // both artifacts durable and the entry resident; a rolled-back
        // slot is released by its drop.
        let mut reg = lock(&shared.jobs);
        reg.admitting.remove(&id);
        shared.changed.notify_all();
        let entry = admitted?;
        let status = shared.status_of(&id, &entry);
        reg.insert(id.clone(), entry);
        slot.publish(id);
        Ok((status, true))
    }

    /// Snapshot of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let reg = self.shared.locked_with(id);
        reg.jobs.get(id).map(|e| self.shared.status_of(id, e))
    }

    /// [`Service::status`] as a long-poll: returns as soon as the job is
    /// terminal, `stop` is set (the HTTP front end shutting down — it calls
    /// [`Service::wake_waiters`] after setting it), the service drains, or
    /// `patience` runs out — with the current row, whatever stage it shows.
    pub fn status_when_terminal(
        &self,
        id: &str,
        patience: Duration,
        stop: &AtomicBool,
    ) -> Option<JobStatus> {
        let shared = &*self.shared;
        let deadline = Instant::now() + patience;
        let mut reg = lock(&shared.jobs);
        loop {
            reg = shared.resolve(reg, id);
            let status = shared.status_of(id, reg.jobs.get(id)?);
            let left = deadline.saturating_duration_since(Instant::now());
            if status.stage.is_terminal()
                || left.is_zero()
                || stop.load(Ordering::SeqCst)
                || shared.draining.load(Ordering::Relaxed)
            {
                return Some(status);
            }
            reg = shared
                .changed
                .wait_timeout(reg, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Wakes every long-poll so it re-reads its stop flag. Taking the lock
    /// first closes the window in which a waiter has read the flag but not
    /// yet parked.
    pub fn wake_waiters(&self) {
        drop(lock(&self.shared.jobs));
        self.shared.changed.notify_all();
    }

    /// Snapshot of every job, id-ordered: the resident ones, plus every
    /// evicted one read back from its journals (without displacing the
    /// resident window).
    pub fn list(&self) -> Vec<JobStatus> {
        let shared = &*self.shared;
        let mut rows: BTreeMap<String, JobStatus> = lock(&shared.jobs)
            .jobs
            .iter()
            .map(|(id, e)| (id.clone(), shared.status_of(id, e)))
            .collect();
        let on_disk = std::fs::read_dir(shared.opts.data_dir.join("jobs"));
        for dir in on_disk.into_iter().flatten().flatten().map(|d| d.path()) {
            let Some(id) = dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if rows.contains_key(id) {
                continue;
            }
            // Under the lock, like every other reader of a live journal.
            let reg = lock(&shared.jobs);
            let status = match reg.jobs.get(id) {
                Some(e) => shared.status_of(id, e),
                None if reg.admitting.contains(id) => continue,
                None => match read_entry(shared, &dir, id) {
                    Ok(e) => shared.status_of(id, &e),
                    Err(_) => continue,
                },
            };
            rows.insert(id.to_string(), status);
        }
        rows.into_values().collect()
    }

    /// The job's unit journal, for the rows endpoint.
    pub fn rows_path(&self, id: &str) -> Option<PathBuf> {
        let reg = self.shared.locked_with(id);
        reg.jobs
            .contains_key(id)
            .then(|| self.shared.job_dir(id).join("rows.ckpt.jsonl"))
    }

    /// Cancels a job: immediate for parked jobs, observed at the next unit
    /// boundary for running ones. `Err` carries the terminal stage when
    /// there is nothing left to cancel.
    pub fn cancel(&self, id: &str) -> Result<JobStatus, Option<Stage>> {
        let mut reg = self.shared.locked_with(id);
        let Some(e) = reg.jobs.get_mut(id) else {
            return Err(None);
        };
        if e.stage.is_terminal() {
            return Err(Some(e.stage));
        }
        e.user_cancelled = true;
        e.token.cancel();
        if matches!(e.stage, Stage::Queued | Stage::Checkpointed) {
            e.error = Some("cancelled by client".into());
            self.shared
                .transition(&mut reg, id, Stage::Cancelled, "cancelled while parked");
        }
        reg.jobs
            .get(id)
            .map(|e| self.shared.status_of(id, e))
            .ok_or(None)
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
            let reg = lock(&self.shared.jobs);
            for e in reg.jobs.values() {
                if e.stage == Stage::Running {
                    e.token.cancel();
                }
            }
        }
        // Long-polls end with whatever row their job shows now.
        self.shared.changed.notify_all();
        let handles: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Makes one job resident from its journals — at boot, and whenever a
/// lookup misses an evicted job. Returns the id when the job must be
/// requeued (non-terminal), `None` when it rests.
fn adopt_one(
    shared: &Shared,
    reg: &mut Registry,
    dir: &Path,
    id: &str,
) -> Result<Option<String>, String> {
    let entry = read_entry(shared, dir, id)?;
    let requeue = !entry.stage.is_terminal();
    reg.insert(id.to_string(), entry);
    Ok(requeue.then(|| id.to_string()))
}

/// Rebuilds one job's registry entry from its journals.
///
/// `state.jsonl` gets the same open-time [`repair`] as a row journal: a
/// torn or bit-rotted record is quarantined to `state.jsonl.quarantine`,
/// counted (`repaired_lines` / `corrupt_lines` in the status row) and
/// compacted out of the journal, so repeated restarts do not re-count the
/// same damage. A compaction that fails never blocks adoption. Pre-CRC
/// lines are accepted as legacy when they still parse.
fn read_entry(shared: &Shared, dir: &Path, id: &str) -> Result<Entry, String> {
    let spec_line = shared
        .vfs
        .read_to_string(&dir.join("spec.json"))
        .map_err(|e| format!("unreadable spec.json: {e}"))?;
    let row = jsonio::parse_flat(spec_line.trim()).ok_or("corrupt spec.json")?;
    let spec = JobSpec::parse(&row)?;
    // Replay the believable transitions, validating each edge; illegal
    // edges end the believable history.
    let mut stage = Stage::Queued;
    let mut attempts = 0u32;
    let mut error = None;
    let mut summary = None;
    let (state, _) = repair(&*shared.vfs, &dir.join("state.jsonl"));
    // The first believable line is the QUEUED acceptance record, not a
    // transition.
    for row in state.rows.iter().skip(1) {
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
    let progress = Arc::new(Progress::default());
    progress
        .total
        .store(spec.to_job(dir, 1).total_units(), Ordering::Relaxed);
    progress.repaired.store(state.torn, Ordering::Relaxed);
    progress.corrupt.store(state.corrupt, Ordering::Relaxed);
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
    Ok(Entry {
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
    })
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
            let mut reg = lock(&shared.jobs);
            reg.jobs
                .iter_mut()
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
        let mut reg = shared.locked_with(id);
        let Some(e) = reg.jobs.get_mut(id) else {
            return;
        };
        if !matches!(e.stage, Stage::Queued | Stage::Checkpointed) {
            return; // cancelled (or settled) while queued
        }
        e.attempts += 1;
        let verb = if e.stage == Stage::Queued {
            "start"
        } else {
            "resume"
        };
        let started = *e.started.get_or_insert_with(Instant::now);
        if let Some(ms) = e.spec.deadline_ms {
            e.token.set_deadline(started + Duration::from_millis(ms));
        }
        let claim = (
            e.spec.clone(),
            e.token.clone(),
            Arc::clone(&e.progress),
            e.attempts,
        );
        let detail = format!("{verb} attempt {}", claim.3);
        shared.transition(&mut reg, id, Stage::Running, &detail);
        claim
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
    let mut reg = lock(&shared.jobs);
    let Some(e) = reg.jobs.get_mut(id) else {
        return;
    };
    match result {
        Ok(Ok(report)) => {
            e.progress
                .repaired
                .fetch_add(report.repaired_lines, Ordering::Relaxed);
            e.progress
                .corrupt
                .fetch_add(report.corrupt_lines, Ordering::Relaxed);
            e.summary = Some(report.summary.clone());
            shared.transition(&mut reg, id, Stage::Done, &report.summary);
        }
        Ok(Err(JobError::Failed(err))) => {
            // Deterministic job failure: retrying cannot help.
            e.error = Some(err.clone());
            shared.transition(&mut reg, id, Stage::Failed, &err);
        }
        Ok(Err(JobError::Interrupted(reason))) => {
            if reason == rayon::CancelReason::StorageDegraded {
                // The job's journal stopped accepting writes: park with
                // every completed row intact (nothing is lost — the units
                // that could not journal re-execute after the heal) and
                // flip the service read-only. The probe write requeues it.
                e.parked_by_storage = true;
                shared.transition(&mut reg, id, Stage::Checkpointed, "parked by storage fault");
                shared.mark_degraded(&format!("job {id}: persistent journal write failure"));
            } else if reason == rayon::CancelReason::DeadlineExceeded {
                let msg = format!("deadline exceeded ({} ms)", e.spec.deadline_ms.unwrap_or(0));
                e.error = Some(msg.clone());
                shared.transition(&mut reg, id, Stage::Failed, &msg);
            } else if e.user_cancelled {
                e.error = Some("cancelled by client".into());
                shared.transition(&mut reg, id, Stage::Cancelled, "cancelled by client");
            } else {
                // Drain: park with progress journaled; the next boot
                // adopts and resumes.
                shared.transition(&mut reg, id, Stage::Checkpointed, "parked by drain");
            }
        }
        Err(panic_msg) => {
            let attempts = e.attempts;
            if attempts >= shared.opts.max_attempts {
                let quarantine = dir.join("quarantine.json");
                let body = JsonObj::new()
                    .str_field("schema", "noc-serve-quarantine-v1")
                    .str_field("id", id)
                    .u64_field("attempts", u64::from(attempts))
                    .str_field("panic", &panic_msg)
                    .str_field("dumps", &dumps.display().to_string())
                    .finish();
                // Atomic: a half-written black box is worse than none.
                let _ = shared
                    .vfs
                    .write_atomic(&quarantine, format!("{body}\n").as_bytes());
                let msg = format!("quarantined after {attempts} attempts: {panic_msg}");
                e.error = Some(msg.clone());
                e.quarantine = Some(quarantine);
                shared.transition(&mut reg, id, Stage::Checkpointed, "panicked");
                shared.transition(&mut reg, id, Stage::Failed, &msg);
            } else {
                shared.transition(
                    &mut reg,
                    id,
                    Stage::Checkpointed,
                    &format!("panicked on attempt {attempts}: {panic_msg}"),
                );
                drop(reg);
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
            let reg = lock(&shared.jobs);
            if reg
                .jobs
                .get(id)
                .is_none_or(|e| e.stage != Stage::Checkpointed)
            {
                return; // cancelled (or otherwise settled) while parked
            }
        }
        let step = remaining.min(10);
        std::thread::sleep(Duration::from_millis(step));
        remaining -= step;
    }
    let reg = lock(&shared.jobs);
    if reg
        .jobs
        .get(id)
        .is_some_and(|e| e.stage == Stage::Checkpointed)
    {
        shared.queue.requeue(id.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is a bounded cache over `jobs/<id>/`: after more jobs
    /// than the window holds, the oldest are gone from memory and every
    /// lookup of one still answers — from disk, as after a restart.
    #[test]
    fn settled_jobs_are_evicted_and_still_answer_from_disk() {
        const CAP: usize = 4;
        let dir = std::env::temp_dir().join(format!("noc_serve_evict_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = ServeOpts::new(&dir);
        opts.workers = 1;
        opts.batch_width = 1;
        let service = Service::open_with_window(opts, noc_store::active(), CAP).unwrap();
        let spec = |seed: usize| {
            let line = format!(
                r#"{{"kind": "sweep", "schemes": "SEEC", "transients": "0.0", "cycles": "500", "seed": "{seed}"}}"#
            );
            jsonio::parse_flat(&line).unwrap()
        };
        let never = AtomicBool::new(false);
        let mut ids = Vec::new();
        for seed in 0..CAP + 8 {
            let (status, created) = service.submit(&spec(seed)).unwrap();
            assert!(created);
            let done = service
                .status_when_terminal(&status.id, Duration::from_secs(60), &never)
                .unwrap();
            assert_eq!(done.stage, Stage::Done, "{:?}", done.error);
            ids.push(status.id);
        }
        let resident = |id: &str| lock(&service.shared.jobs).jobs.contains_key(id);
        {
            let reg = lock(&service.shared.jobs);
            assert_eq!(reg.jobs.len(), CAP, "only the window stays resident");
            assert_eq!(reg.settled.len(), CAP);
        }
        let oldest = &ids[0];
        assert!(!resident(oldest) && resident(&ids[CAP + 7]));

        // list() is complete and displaces nothing.
        assert_eq!(service.list().len(), CAP + 8);
        assert!(!resident(oldest));

        // Each lookup of the evicted job re-adopts it from its journals.
        let status = service.status(oldest).expect("answers from disk");
        assert_eq!(status.stage, Stage::Done);
        assert!(status.summary.is_some());
        assert!(
            resident(oldest) && !resident(&ids[1]),
            "oldest-settled goes first"
        );
        let rows = std::fs::read_to_string(service.rows_path(&ids[1]).unwrap()).unwrap();
        assert_eq!(rows.lines().count(), 1);
        let hits = service.net().dedupe_hits.get();
        let (again, created) = service.submit(&spec(2)).unwrap();
        assert!(!created, "an evicted job still dedupes");
        assert_eq!(
            (again.id.as_str(), again.stage),
            (ids[2].as_str(), Stage::Done)
        );
        assert_eq!(service.net().dedupe_hits.get(), hits + 1);
        assert_eq!(service.cancel(&ids[3]).unwrap_err(), Some(Stage::Done));
        // Only a well-formed id reaches the filesystem.
        assert!(service.status(&format!("../jobs/{}", ids[4])).is_none());
        assert!(lock(&service.shared.jobs).jobs.len() <= CAP);
        assert_eq!(service.list().len(), CAP + 8);
        service.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
