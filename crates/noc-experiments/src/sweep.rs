//! Crash-resilient fault-sweep runner: checkpointed, panic-isolated,
//! watchdog-escalated.
//!
//! A sweep is a list of [`FaultPoint`]s (scheme × traffic × fault scenario).
//! Each point is executed under [`rayon::catch_panic`]: a panicking
//! datapoint — an injected fault wedging the network, an assertion, a bug —
//! is retried once and then recorded as a `"status": "failed"` row instead
//! of killing the whole sweep. Completed points are appended to a
//! [`Checkpoint`] (`results/*.ckpt.jsonl`), keyed by an FNV digest of the
//! full design point, so a restarted sweep re-executes only the missing
//! points and a finished checkpoint is byte-identical whether or not the
//! run was interrupted.
//!
//! Before a point is built, [`admit`] — the one admission rule, shared with
//! the runner and the chaos loop — decides whether it may run at all; a
//! refused point becomes a row whose `status` and `reason` are the
//! refusal's (`unroutable`, `escape-severed`, `uncertified`,
//! `recovery-uncertified`), never a simulation.
//!
//! While a point runs, `run_watched` (the chaos loop's too) samples the
//! network every `WATCHDOG_PERIOD` cycles; if nothing moves for
//! [`watchdog::DEFAULT_STUCK_THRESHOLD`] cycles the runner escalates: it
//! captures a black-box dump (`dump_wedge`) to
//! `results/blackbox_<key>.json` and panics with the dump path — which the
//! isolation layer turns into a failed row pointing at the evidence.

use crate::jsonio::{self, JsonObj};
use crate::runner::{admit, Refusal, Scheme};
use noc_sim::{watchdog, LockstepBatch, ShapeKey, Sim};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::fault::fnv1a;
use noc_types::{FaultConfig, NetConfig, RecoveryConfig};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cycles between watchdog samples while a run executes, sweep point or
/// chaos case. Small enough to catch a wedge promptly, large enough to be
/// free next to the simulation.
pub(crate) const WATCHDOG_PERIOD: u64 = 256;

/// Default lockstep batch width: how many shape-compatible points one rayon
/// task drives through a shared [`LockstepBatch`]. Overridden by the
/// `NOC_BATCH_WIDTH` environment variable; `1` disables batching (every
/// point runs the scalar path, exactly the pre-batching runner).
const DEFAULT_BATCH_WIDTH: usize = 4;

/// Reads and validates `NOC_BATCH_WIDTH` with the same rules as
/// `NOC_THREADS`: unset/empty means "use the default" (`Ok(None)`); any
/// non-empty value must be an integer ≥ 1, and `0` or garbage is an
/// **error**, never a silent fallback. Binaries validate this eagerly at
/// startup via [`crate::cli::args`] (exit status 2 on a bad value), and
/// `noc-serve` refuses to boot on one.
///
/// Width precedence (documented, never silent):
///
/// 1. an explicit width passed through [`run_sweep_with_width`] (tests and
///    the job service) wins;
/// 2. otherwise the `NOC_BATCH_WIDTH` environment variable;
/// 3. otherwise [`DEFAULT_BATCH_WIDTH`]. `1` disables batching.
pub fn env_batch_width() -> Result<Option<usize>, String> {
    rayon::parse_threads_env(
        "NOC_BATCH_WIDTH",
        std::env::var("NOC_BATCH_WIDTH").ok().as_deref(),
    )
}

/// The effective batch width for [`run_sweep`]: `NOC_BATCH_WIDTH` when
/// set, else [`DEFAULT_BATCH_WIDTH`]. Panics (loudly, with the validation
/// message) on a garbage value — binaries catch that case before any work
/// starts by validating in [`crate::cli::args`].
fn batch_width() -> usize {
    match env_batch_width() {
        Ok(w) => w.unwrap_or(DEFAULT_BATCH_WIDTH),
        Err(e) => panic!("invalid batch configuration: {e}"),
    }
}

/// One datapoint of a fault sweep.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Series tag grouping points into output curves ("transient",
    /// "dead-links", ...).
    pub series: &'static str,
    pub scheme: Scheme,
    pub k: u8,
    pub vcs: u8,
    pub pattern: TrafficPattern,
    /// Offered load in packets per node per cycle.
    pub rate: f64,
    pub cycles: u64,
    pub seed: u64,
    pub fault: FaultConfig,
    /// Runtime recovery arming for this point. Disabled by default; when
    /// armed, the point may run scenarios the static certifier rejects —
    /// provided the recovery channel itself certifies (see
    /// [`noc_verify::certify_recovery`]).
    pub recovery: RecoveryConfig,
}

impl FaultPoint {
    /// A small, fast design point: 4×4 mesh, 2 VCs, uniform-random traffic
    /// at a light load, short injection window, transient fault rate as
    /// given. Smoke tests and `noc-serve` quick jobs build on this.
    pub fn quick(series: &'static str, scheme: Scheme, transient: f64) -> FaultPoint {
        FaultPoint {
            series,
            scheme,
            k: 4,
            vcs: 2,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            cycles: 3_000,
            seed: 0xA11CE,
            fault: FaultConfig::transient(transient),
            recovery: RecoveryConfig::default(),
        }
    }

    /// The network configuration this point simulates.
    pub fn config(&self) -> NetConfig {
        self.scheme
            .configure(NetConfig::synth(self.k, self.vcs))
            .with_seed(self.seed)
            .with_fault(self.fault.clone())
            .with_recovery(self.recovery.clone())
    }

    /// Short human identifier, also the match target for
    /// `NOC_SWEEP_PANIC_KEY` fault injection.
    pub fn ident(&self) -> String {
        format!(
            "{}:{}:{}:{:.4}",
            self.series,
            self.scheme.label(),
            self.pattern.label(),
            self.rate
        )
    }

    /// Stable checkpoint key: see [`run_key`].
    pub fn key(&self) -> String {
        run_key(
            self.scheme,
            self.pattern,
            self.rate,
            self.cycles,
            self.seed,
            &self.config(),
        )
    }
}

/// The one content address of a simulated run, shared by sweep points and
/// chaos cases: FNV-1a over every knob that changes the result — scheme,
/// traffic, seed and the full config digest (which itself covers the fault
/// scenario, schedule and recovery arming).
pub(crate) fn run_key(
    scheme: Scheme,
    pattern: TrafficPattern,
    rate: f64,
    cycles: u64,
    seed: u64,
    cfg: &NetConfig,
) -> String {
    let s = format!(
        "{}|{}|{:016x}|{cycles}|{seed}|{:016x}",
        scheme.label(),
        pattern.label(),
        rate.to_bits(),
        cfg.digest(),
    );
    format!("{:016x}", fnv1a(s.as_bytes()))
}

/// The quarantine side file for a journal: `<journal>.quarantine`, holding
/// the raw bytes of every bad line the loader dropped, for post-mortems.
pub(crate) fn quarantine_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("journal");
    path.with_file_name(format!("{name}.quarantine"))
}

/// Verdict of the journal reader on one line.
pub enum LoadedLine<'a> {
    /// Skipped silently: a blank line left behind by the append-recovery
    /// protocol (see [`noc_store::append_sealed`]).
    Blank,
    /// A good row (sealed-and-verified, or legacy pre-CRC): its payload,
    /// trailer stripped, and its fields.
    Row(&'a str, BTreeMap<String, String>),
    /// CRC/trailer damage: a sealed record that fails verification, or a
    /// verified payload that is not flat JSON.
    Corrupt,
    /// No trailer and not parseable: the torn tail of a killed writer.
    Torn,
}

/// The one line check: the seal first, then the flat-JSON parse. Every
/// reader of a sealed journal — [`repair`], [`Checkpoint::rows`], the
/// client's row verification, chaos replay — classifies through here, so
/// a bad record is *never* parsed as data on any path.
pub fn load_line(line: &str) -> LoadedLine<'_> {
    if line.is_empty() {
        return LoadedLine::Blank;
    }
    let (payload, damaged) = match noc_store::open_line(line) {
        noc_store::LineCheck::Sealed(payload) => (payload, LoadedLine::Corrupt),
        noc_store::LineCheck::Legacy(payload) => (payload, LoadedLine::Torn),
        noc_store::LineCheck::Corrupt => return LoadedLine::Corrupt,
    };
    match jsonio::parse_flat(payload) {
        Some(row) => LoadedLine::Row(payload, row),
        None => damaged,
    }
}

/// What [`repair`] found in one journal.
#[derive(Debug, Default)]
pub struct Repaired {
    /// The good rows, in journal order.
    pub rows: Vec<BTreeMap<String, String>>,
    /// Torn lines dropped: no trailer and unparseable.
    pub torn: usize,
    /// Corrupt lines dropped: a failed seal, or a sealed payload that is
    /// not flat JSON.
    pub corrupt: usize,
}

/// The open-time repair of a resumable journal (sweep and chaos
/// checkpoints, the service's `state.jsonl`): every line goes through
/// [`load_line`]; the dropped lines' raw bytes are appended to
/// `<journal>.quarantine` (best effort — a failing quarantine must not
/// block recovery); and when anything was dropped or blank the journal is
/// rewritten atomically with exactly its good lines, byte-for-byte, so a
/// crash *here* leaves the old or the new journal, never a hybrid, and a
/// reopen counts nothing twice. A missing journal is an empty one. The
/// compaction's outcome comes back beside the findings for the caller to
/// weigh.
pub fn repair(vfs: &dyn noc_store::Vfs, path: &Path) -> (Repaired, std::io::Result<()>) {
    let mut found = Repaired::default();
    let Ok(text) = vfs.read_to_string(path) else {
        return (found, Ok(()));
    };
    let (mut kept, mut bad, mut blank) = (String::new(), String::new(), false);
    for line in text.lines() {
        match load_line(line) {
            LoadedLine::Blank => blank = true,
            LoadedLine::Row(_, row) => {
                found.rows.push(row);
                kept.push_str(line);
                kept.push('\n');
            }
            dropped => {
                if matches!(dropped, LoadedLine::Torn) {
                    found.torn += 1;
                } else {
                    found.corrupt += 1;
                }
                bad.push_str(line);
                bad.push('\n');
            }
        }
    }
    if bad.is_empty() && !blank {
        return (found, Ok(()));
    }
    let quarantine = quarantine_path(path);
    if !bad.is_empty() {
        if let Ok(mut q) = vfs.open_append(&quarantine) {
            let _ = q.append(bad.as_bytes());
        }
        eprintln!(
            "journal {}: dropped {} torn and {} corrupt line(s), quarantined to {}",
            path.display(),
            found.torn,
            found.corrupt,
            quarantine.display(),
        );
    }
    let compacted = vfs.write_atomic(path, kept.as_bytes());
    (found, compacted)
}

/// Append-only record of completed datapoints (`*.ckpt.jsonl`): one flat
/// JSON object per line, sealed with a CRC32 trailer
/// ([`noc_store::seal_line`]), each carrying a `"key"` field. Bad lines —
/// the torn tail of a killed writer, or a CRC-failed record from a lying
/// disk — are **detected, counted, quarantined** (raw bytes appended to
/// `<journal>.quarantine`) **and dropped** on load, never parsed as data
/// and never fatal: the affected point simply re-executes on resume, and
/// the journal is compacted in place (atomic write-temp-then-rename via
/// the [`noc_store::Vfs`]) so a resumed checkpoint ends up byte-identical
/// to an uninterrupted run's, garbage included-out. Rows from pre-CRC
/// journals (no trailer) still load.
pub struct Checkpoint {
    path: PathBuf,
    vfs: Arc<dyn noc_store::Vfs>,
    done: HashSet<String>,
    log: Mutex<Box<dyn noc_store::AppendLog>>,
    torn_dropped: usize,
    corrupt_dropped: usize,
    write_failed: AtomicBool,
}

impl Checkpoint {
    /// Opens through the process-wide [`noc_store::active`] Vfs.
    pub fn open(path: &Path) -> std::io::Result<Checkpoint> {
        Checkpoint::open_with_vfs(path, noc_store::active())
    }

    /// Opens (creating parents as needed) and loads the set of completed
    /// keys from any existing rows, repairing the journal: torn and
    /// corrupt lines are quarantined + compacted away (counted in
    /// [`Checkpoint::torn_dropped`] / [`Checkpoint::corrupt_dropped`]) and
    /// their points re-execute.
    pub fn open_with_vfs(path: &Path, vfs: Arc<dyn noc_store::Vfs>) -> std::io::Result<Checkpoint> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                vfs.create_dir_all(parent)?;
            }
        }
        // A journal whose repair cannot land is not resumed from.
        let (found, compacted) = repair(&*vfs, path);
        compacted?;
        let done = found
            .rows
            .into_iter()
            .filter_map(|mut r| r.remove("key"))
            .collect();
        let log = vfs.open_append(path)?;
        Ok(Checkpoint {
            path: path.to_path_buf(),
            vfs,
            done,
            log: Mutex::new(log),
            torn_dropped: found.torn,
            corrupt_dropped: found.corrupt,
            write_failed: AtomicBool::new(false),
        })
    }

    /// Torn (unterminated, trailerless) lines dropped at open time.
    pub fn torn_dropped(&self) -> usize {
        self.torn_dropped
    }

    /// CRC-failed lines dropped at open time.
    pub fn corrupt_dropped(&self) -> usize {
        self.corrupt_dropped
    }

    /// Total bad lines repaired away at open time (torn + corrupt).
    pub fn repaired_lines(&self) -> usize {
        self.torn_dropped + self.corrupt_dropped
    }

    /// True once a [`Checkpoint::record`] exhausted its write retries: the
    /// journal can no longer persist rows and the run should park rather
    /// than continue unpersisted.
    pub fn write_failed(&self) -> bool {
        self.write_failed.load(Ordering::SeqCst)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The storage layer this journal writes through, for callers that
    /// persist sibling artifacts (repro files) next to the rows.
    pub fn vfs(&self) -> Arc<dyn noc_store::Vfs> {
        Arc::clone(&self.vfs)
    }

    /// True when a row for `key` was already recorded (including failed and
    /// skipped rows — a deterministic failure is not worth re-running on
    /// every resume; delete the checkpoint to retry from scratch).
    pub fn is_done(&self, key: &str) -> bool {
        self.done.contains(key)
    }

    /// Number of rows loaded at open time.
    pub fn done_count(&self) -> usize {
        self.done.len()
    }

    /// Appends one sealed row through [`noc_store::append_sealed`]; returns
    /// whether the row is durably in the journal. A fragment a failed
    /// attempt left behind is quarantined and compacted away at the next
    /// open. When every retry fails the checkpoint latches
    /// [`Checkpoint::write_failed`] and the row is dropped (its point stays
    /// missing and re-executes once storage recovers).
    #[must_use = "a false return means the row was NOT persisted"]
    pub fn record(&self, line: &str) -> bool {
        let mut log = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match noc_store::append_sealed(&mut **log, line) {
            Ok(()) => true,
            Err(e) => {
                self.write_failed.store(true, Ordering::SeqCst);
                eprintln!(
                    "checkpoint {}: write failed after retries ({e}); \
                     parking — the row will re-execute once storage recovers",
                    self.path.display()
                );
                false
            }
        }
    }

    /// Re-reads every good row from disk (used to build the final tables,
    /// so a resumed run reports previously-completed points too). Bad
    /// lines are skipped — same classifier as the loader, so corruption
    /// that appears *after* open never reaches a parser either.
    pub fn rows(&self) -> Vec<BTreeMap<String, String>> {
        let Ok(text) = self.vfs.read_to_string(&self.path) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| match load_line(line) {
                LoadedLine::Row(_, row) => Some(row),
                LoadedLine::Blank | LoadedLine::Corrupt | LoadedLine::Torn => None,
            })
            .collect()
    }
}

/// Live progress of one [`run_sweep`] invocation, delivered to the
/// [`SweepCtx::progress`] callback after every recorded row.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepProgress {
    /// Rows present for this sweep so far (resumed + recorded this run).
    pub done: usize,
    /// Total points in the sweep.
    pub total: usize,
    /// `"status": "failed"` rows recorded this run.
    pub failed: usize,
}

/// Execution context for a service-driven sweep: a cooperative
/// cancellation token observed at sweep-point granularity (between points,
/// and between watchdog slices inside a point), plus an optional progress
/// callback. A point that observes cancellation mid-flight is abandoned
/// *without* a checkpoint row — it stays missing and re-executes on the
/// next resume, which is what keeps a cancelled-then-resumed sweep
/// byte-identical to an uninterrupted one.
pub struct SweepCtx<'a> {
    pub cancel: &'a rayon::CancelToken,
    pub progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
}

/// How a single execution attempt ended (when it did not panic).
enum PointRun {
    /// Simulated to completion.
    Done(Box<noc_sim::Stats>),
    /// Refused by [`admit`]; the refusal goes into the row verbatim.
    Skipped(Refusal),
    /// Abandoned mid-run by a fired cancellation token: no row.
    Interrupted,
}

/// Admits a point through [`admit`] and builds its simulation — identical
/// on the scalar and batched paths, so their results are too.
fn admitted_sim(p: &FaultPoint) -> Result<Sim, Refusal> {
    assert!(
        !p.scheme.is_deflection(),
        "fault sweeps drive VC-router schemes only"
    );
    let cfg = p.config();
    admit(p.scheme, &cfg)?;
    let wl = SyntheticWorkload::new(p.pattern, p.rate, cfg.cols, cfg.rows, cfg.warmup, p.seed);
    let mech = p.scheme.mechanism(&cfg);
    let mut sim = Sim::new(cfg, Box::new(wl), mech);
    sim.net.enable_flight_recorder(64);
    Ok(sim)
}

/// The `NOC_SWEEP_PANIC_KEY` test hook: the needle, when it names `p`.
fn panic_injected(p: &FaultPoint) -> Option<String> {
    let needle = std::env::var("NOC_SWEEP_PANIC_KEY").ok()?;
    let hit = !needle.is_empty() && (p.ident().contains(&needle) || p.key().contains(&needle));
    hit.then_some(needle)
}

/// What a watchdog-sliced run advances: one simulation, or a lockstep
/// batch of them.
pub(crate) trait Lanes {
    fn advance(&mut self, cycles: u64);
    fn lanes(&self) -> &[Sim];
}

impl Lanes for Sim {
    fn advance(&mut self, cycles: u64) {
        self.run(cycles);
    }
    fn lanes(&self) -> &[Sim] {
        std::slice::from_ref(self)
    }
}

impl Lanes for LockstepBatch {
    fn advance(&mut self, cycles: u64) {
        self.run(cycles);
    }
    fn lanes(&self) -> &[Sim] {
        LockstepBatch::lanes(self)
    }
}

/// Why [`run_watched`] stopped short.
pub(crate) enum Halt {
    /// The lane at this index made no progress for
    /// [`watchdog::DEFAULT_STUCK_THRESHOLD`] cycles.
    Wedged(usize),
    /// The cancellation check fired.
    Cancelled,
}

/// The one watchdog-sliced run, for sweep points (scalar and batched) and
/// chaos cases: advances `run` by `cycles` in [`WATCHDOG_PERIOD`] slices
/// and, after every slice, stops at the first wedged lane — a sustained
/// stall escalates instead of spinning to the cycle budget — and then at a
/// fired `cancelled`.
pub(crate) fn run_watched(
    run: &mut impl Lanes,
    cycles: u64,
    cancelled: impl Fn() -> bool,
) -> Result<(), Halt> {
    let stuck = |s: &Sim| watchdog::looks_stuck(&s.net, watchdog::DEFAULT_STUCK_THRESHOLD);
    let mut remaining = cycles;
    while remaining > 0 {
        let slice = WATCHDOG_PERIOD.min(remaining);
        run.advance(slice);
        remaining -= slice;
        if let Some(lane) = run.lanes().iter().position(stuck) {
            return Err(Halt::Wedged(lane));
        }
        if cancelled() {
            return Err(Halt::Cancelled);
        }
    }
    Ok(())
}

/// Where a run's black box goes: `<dump_dir>/blackbox_<key>.json`.
pub(crate) fn blackbox_path(dump_dir: &Path, key: &str) -> PathBuf {
    dump_dir.join(format!("blackbox_{key}.json"))
}

/// The one black-box dump of a wedged run: captures `sim` (per-VC
/// occupancy, blocked heads, wait-for witness, mechanism state, last switch
/// traversals) to [`blackbox_path`]. Returns the wedge's detail (`no
/// progress for <threshold> cycles at cycle <now>`) and the dump's path, or
/// why it is not on disk.
pub(crate) fn dump_wedge(
    sim: &Sim,
    scheme: Scheme,
    key: &str,
    dump_dir: &Path,
) -> (String, Result<PathBuf, String>) {
    let bb = watchdog::BlackBox::capture(&sim.net, &scheme.label(), &sim.mech.debug_state());
    let path = blackbox_path(dump_dir, key);
    let dump = match bb.write(&path) {
        Ok(()) => Ok(path),
        Err(e) => Err(format!(
            "black-box dump failed to write to {}: {e}",
            path.display()
        )),
    };
    let stuck = watchdog::DEFAULT_STUCK_THRESHOLD;
    let detail = format!("no progress for {stuck} cycles at cycle {}", sim.net.cycle);
    (detail, dump)
}

/// Escalates a wedged point: dumps its black box and panics with the path
/// (the isolation layer turns this into a failed row).
fn escalate_wedge(p: &FaultPoint, sim: &Sim, dump_dir: &Path) -> ! {
    let (detail, dump) = dump_wedge(sim, p.scheme, &p.key(), dump_dir);
    let where_ = dump.map_or_else(
        |e| e,
        |path| format!("black-box dump at {}", path.display()),
    );
    panic!("point {} wedged: {detail} — {where_}", p.ident());
}

/// Executes one datapoint. May panic — on a wedged network (after writing
/// the black-box dump), on an injected `NOC_SWEEP_PANIC_KEY` match, or on
/// any simulator bug; the caller isolates it. A fired cancellation token
/// abandons the point between watchdog slices.
fn execute_point(p: &FaultPoint, dump_dir: &Path, ctx: Option<&SweepCtx>) -> PointRun {
    if let Some(needle) = panic_injected(p) {
        panic!(
            "injected test panic (NOC_SWEEP_PANIC_KEY={needle}) for point {}",
            p.ident()
        );
    }
    let cancelled = || ctx.is_some_and(|c| c.cancel.is_cancelled());
    if cancelled() {
        return PointRun::Interrupted;
    }
    let mut sim = match admitted_sim(p) {
        Ok(sim) => sim,
        Err(refusal) => return PointRun::Skipped(refusal),
    };
    match run_watched(&mut sim, p.cycles, cancelled) {
        Ok(()) => PointRun::Done(Box::new(sim.finish().clone())),
        Err(Halt::Wedged(_)) => escalate_wedge(p, &sim, dump_dir),
        Err(Halt::Cancelled) => PointRun::Interrupted,
    }
}

/// Shared row prefix: identity first (key/series/scheme/...), then the
/// outcome fields. Field order is fixed so identical results render
/// byte-identical lines.
fn row_base(p: &FaultPoint, status: &str) -> JsonObj {
    JsonObj::new()
        .str_field("key", &p.key())
        .str_field("series", p.series)
        .str_field("scheme", &p.scheme.label())
        .str_field("pattern", p.pattern.label())
        .u64_field("k", u64::from(p.k))
        .u64_field("vcs", u64::from(p.vcs))
        .f64_field("rate", p.rate, 4)
        .f64_field("transient", p.fault.transient_rate, 6)
        .u64_field(
            "dead_links",
            p.fault.dead_links.len() as u64 + u64::from(p.fault.random_dead_links),
        )
        .u64_field("fault_seed", p.fault.fault_seed)
        .str_field("recovery", &p.recovery.canonical())
        .u64_field("cycles", p.cycles)
        .u64_field("seed", p.seed)
        .str_field("status", status)
}

/// Renders the checkpoint row for a completed simulation. A run that only
/// finished because the drain channel rescued wedged packets is reported as
/// `"recovered"`, not `"ok"` — same data, different confidence.
fn render_done(p: &FaultPoint, s: &noc_sim::Stats) -> String {
    let nodes = usize::from(p.k) * usize::from(p.k);
    let retx_overhead = if s.link_flit_hops > 0 {
        s.retransmitted_flits as f64 / s.link_flit_hops as f64
    } else {
        0.0
    };
    let status = if s.drain_recoveries > 0 {
        "recovered"
    } else {
        "ok"
    };
    let pct = |q: f64| s.percentile_latency_all(q).unwrap_or(0);
    row_base(p, status)
        .f64_field("avg_latency", s.avg_total_latency(), 3)
        .u64_field("p50_latency", pct(50.0))
        .u64_field("p95_latency", pct(95.0))
        .u64_field("p99_latency", pct(99.0))
        .f64_field("throughput", s.throughput(nodes), 6)
        .u64_field("ejected_packets", s.ejected_packets)
        .u64_field("corrupted_flits", s.corrupted_flits)
        .u64_field("retransmitted_flits", s.retransmitted_flits)
        .u64_field("link_acks", s.link_acks)
        .u64_field("link_nacks", s.link_nacks)
        .u64_field("recovery_events", s.recovery_events)
        .u64_field("drain_recoveries", s.drain_recoveries)
        .u64_field("recovery_victim_hops", s.recovery_victim_hops)
        .u64_field("recovery_cycles_lost", s.recovery_cycles_lost)
        .u64_field("e2e_retransmits", s.e2e_retransmits)
        .u64_field("e2e_duplicates_dropped", s.e2e_duplicates_dropped)
        .u64_field("e2e_abandoned", s.e2e_abandoned)
        .f64_field("retx_overhead", retx_overhead, 6)
        .finish()
}

/// Renders the checkpoint row for a failed or skipped point.
fn render_status(p: &FaultPoint, status: &str, reason: &str) -> String {
    row_base(p, status).str_field("reason", reason).finish()
}

/// Executes one point with panic isolation: a first panic is retried once
/// (to shed one-off environmental noise), a second one becomes a
/// `"status": "failed"` row. When the watchdog escalation left a black-box
/// dump for this point, the failed row carries its path under `"blackbox"`,
/// so post-mortem tooling can go from checkpoint straight to evidence.
/// Returns the rendered row and whether it failed; `None` when the point
/// was abandoned by cancellation (no row — the point stays missing).
fn run_isolated(p: &FaultPoint, dump_dir: &Path, ctx: Option<&SweepCtx>) -> Option<(String, bool)> {
    let attempt = || rayon::catch_panic(|| execute_point(p, dump_dir, ctx));
    let outcome = attempt().or_else(|_first| attempt());
    match outcome {
        Ok(PointRun::Done(stats)) => Some((render_done(p, &stats), false)),
        Ok(PointRun::Skipped(r)) => Some((render_status(p, r.status, &r.reason), false)),
        Ok(PointRun::Interrupted) => None,
        Err(msg) => {
            let mut row = row_base(p, "failed").str_field("reason", &msg);
            let dump = blackbox_path(dump_dir, &p.key());
            if dump.is_file() {
                row = row.str_field("blackbox", &dump.display().to_string());
            }
            Some((row.finish(), true))
        }
    }
}

/// Partitions `todo` into lockstep-compatible chunks of at most `width`
/// points: equal [`ShapeKey`] (the structural config fields the batch
/// executor shares) and equal cycle budget (so one watchdog-sliced loop
/// drives the whole chunk). Width 1 degenerates to one chunk per point —
/// the scalar runner.
fn chunk_compatible<'a>(todo: &[&'a FaultPoint], width: usize) -> Vec<Vec<&'a FaultPoint>> {
    if width <= 1 {
        return todo.iter().map(|p| vec![*p]).collect();
    }
    let mut groups: BTreeMap<(u64, u64), Vec<&FaultPoint>> = BTreeMap::new();
    for &p in todo {
        let key = (ShapeKey::of(&p.config()).digest(), p.cycles);
        groups.entry(key).or_default().push(p);
    }
    groups
        .into_values()
        .flat_map(|g| {
            g.chunks(width)
                .map(<[&FaultPoint]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Executes a compatible chunk through one [`LockstepBatch`]. Refused
/// points become status rows without a lane; the rest run in lockstep
/// under the same [`run_watched`] as the scalar path. May panic (a wedged
/// lane, a simulator bug) — the caller falls back to per-point isolation,
/// which reproduces the scalar outcome for every point in the chunk. A fired
/// cancellation token abandons every in-flight lane (`None` entries — no
/// rows; the points stay missing).
fn execute_chunk_batched(
    chunk: &[&FaultPoint],
    dump_dir: &Path,
    ctx: Option<&SweepCtx>,
) -> Vec<Option<(String, bool)>> {
    let mut rows: Vec<Option<(String, bool)>> = (0..chunk.len()).map(|_| None).collect();
    let mut lanes = Vec::new();
    let mut lane_points = Vec::new();
    for (i, p) in chunk.iter().enumerate() {
        match admitted_sim(p) {
            Err(r) => rows[i] = Some((render_status(p, r.status, &r.reason), false)),
            Ok(sim) => {
                lanes.push(sim);
                lane_points.push(i);
            }
        }
    }
    if !lanes.is_empty() {
        let mut batch = LockstepBatch::new(lanes);
        let cycles = chunk[lane_points[0]].cycles;
        match run_watched(&mut batch, cycles, || {
            ctx.is_some_and(|c| c.cancel.is_cancelled())
        }) {
            Ok(()) => {}
            Err(Halt::Wedged(lane)) => {
                escalate_wedge(chunk[lane_points[lane]], &batch.lanes()[lane], dump_dir)
            }
            Err(Halt::Cancelled) => return rows,
        }
        for (lane, &i) in batch.lanes_mut().iter_mut().zip(&lane_points) {
            let stats = lane.finish().clone();
            rows[i] = Some((render_done(chunk[i], &stats), false));
        }
    }
    rows
}

/// Runs one chunk with the same isolation contract as [`run_isolated`]:
/// any panic on the batched path demotes the whole chunk to per-point
/// scalar execution, whose own retry/failed-row semantics then apply. The
/// `NOC_SWEEP_PANIC_KEY` injection hook targets individual points, so a
/// chunk containing a match routes through the scalar path up front.
/// `None` entries are points abandoned by cancellation.
fn run_chunk(
    chunk: &[&FaultPoint],
    dump_dir: &Path,
    ctx: Option<&SweepCtx>,
) -> Vec<Option<(String, bool)>> {
    let scalar = |chunk: &[&FaultPoint]| -> Vec<Option<(String, bool)>> {
        chunk
            .iter()
            .map(|p| run_isolated(p, dump_dir, ctx))
            .collect()
    };
    if chunk.len() == 1 {
        return scalar(chunk);
    }
    if chunk.iter().any(|p| panic_injected(p).is_some()) {
        return scalar(chunk);
    }
    match rayon::catch_panic(|| execute_chunk_batched(chunk, dump_dir, ctx)) {
        Ok(rows) => rows,
        Err(_) => scalar(chunk),
    }
}

/// Summary of one [`run_sweep`] invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOutcome {
    /// Points that recorded a row this run (completed, refused by
    /// [`admit`], or failed).
    pub executed: usize,
    /// Points already present in the checkpoint and not re-run.
    pub resumed: usize,
    /// Points left untouched because of a `max_points` cap.
    pub deferred: usize,
    /// Points recorded as `"status": "failed"` this run.
    pub failed: usize,
    /// Points abandoned without a row by a fired cancellation token (they
    /// stay missing and re-execute on the next resume).
    pub interrupted: usize,
}

/// Runs every point of `points` that the checkpoint does not already hold,
/// recording each row as it completes. Missing points are first grouped
/// into lockstep-compatible chunks ([`chunk_compatible`], width from
/// `NOC_BATCH_WIDTH`), then the chunks execute in parallel — batching
/// trades rayon fan-out granularity for the shared per-cycle skeleton, and
/// per-lane results are byte-identical to scalar runs (the
/// `batch_differential` test pins this). `max_points` caps how many
/// missing points this invocation executes (the rest stay missing — the
/// mechanism behind CI's interrupted-then-resumed sweep test).
pub fn run_sweep(
    points: &[FaultPoint],
    ckpt: &Checkpoint,
    max_points: Option<usize>,
    dump_dir: &Path,
) -> SweepOutcome {
    run_sweep_with_width(points, ckpt, max_points, dump_dir, batch_width())
}

/// Checkpoint rows by their `"key"`.
pub type RowsByKey = BTreeMap<String, BTreeMap<String, String>>;

/// The figure drivers' `run`: executes (or resumes) `points` against
/// `ckpt` with black-box dumps next to the checkpoint (`results/` for a
/// bare file name), then returns every row the checkpoint now holds — so
/// a resumed sweep's tables include the points an earlier run completed.
pub(crate) fn run_sweep_keyed(
    points: &[FaultPoint],
    ckpt: &Checkpoint,
    max_points: Option<usize>,
) -> (RowsByKey, SweepOutcome) {
    let dump_dir = ckpt
        .path()
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("results"), Path::to_path_buf);
    let outcome = run_sweep(points, ckpt, max_points, &dump_dir);
    let rows = ckpt
        .rows()
        .into_iter()
        .filter_map(|r| r.get("key").cloned().map(|k| (k, r)))
        .collect();
    (rows, outcome)
}

/// A table cell from a row that may be missing: the field, else `-`.
pub(crate) fn cell(row: Option<&BTreeMap<String, String>>, field: &str) -> String {
    row.and_then(|r| r.get(field))
        .cloned()
        .unwrap_or_else(|| "-".into())
}

/// The row's `reason` as a table cell, cut to 48 bytes plus `…`.
pub(crate) fn reason_cell(row: Option<&BTreeMap<String, String>>) -> String {
    let mut reason = cell(row, "reason");
    if reason.len() > 48 {
        reason.truncate(48);
        reason.push('…');
    }
    reason
}

/// [`run_sweep`] with an explicit lockstep batch width (tests use this to
/// avoid racing on the process environment).
pub fn run_sweep_with_width(
    points: &[FaultPoint],
    ckpt: &Checkpoint,
    max_points: Option<usize>,
    dump_dir: &Path,
    width: usize,
) -> SweepOutcome {
    run_sweep_ctx(points, ckpt, max_points, dump_dir, width, None)
}

/// The full-control entry point behind [`run_sweep`]: explicit lockstep
/// width plus an optional [`SweepCtx`] carrying a cooperative cancellation
/// token and a progress callback. This is what the `noc-serve` job service
/// drives: cancellation (explicit or deadline) stops the sweep at point
/// granularity — chunks not yet claimed never start, in-flight points are
/// abandoned between watchdog slices without recording a row — and the
/// progress callback fires after every recorded row.
pub fn run_sweep_ctx(
    points: &[FaultPoint],
    ckpt: &Checkpoint,
    max_points: Option<usize>,
    dump_dir: &Path,
    width: usize,
    ctx: Option<&SweepCtx>,
) -> SweepOutcome {
    let todo: Vec<&FaultPoint> = points.iter().filter(|p| !ckpt.is_done(&p.key())).collect();
    let resumed = points.len() - todo.len();
    let missing = todo.len();
    let todo: Vec<&FaultPoint> = match max_points {
        Some(n) => todo.into_iter().take(n).collect(),
        None => todo,
    };
    let deferred = missing - todo.len();
    let attempted = todo.len();
    let failed = AtomicUsize::new(0);
    let recorded = AtomicUsize::new(0);
    let total = points.len();
    let chunks = chunk_compatible(&todo, width);
    // A quiet local token keeps the cancellable executor on one code path
    // whether or not a context was supplied.
    let quiet = rayon::CancelToken::new();
    let token = ctx.map_or(&quiet, |c| c.cancel);
    rayon::for_each_cancellable(chunks, token, |chunk: Vec<&FaultPoint>| {
        // A journal that can no longer persist rows parks the sweep:
        // chunks not yet started are abandoned (their points stay missing
        // and re-execute once storage recovers) rather than simulated into
        // rows that would be lost.
        if ckpt.write_failed() {
            return;
        }
        for row in run_chunk(&chunk, dump_dir, ctx) {
            let Some((row, was_failure)) = row else {
                continue;
            };
            if !ckpt.record(&row) {
                // Not persisted: the point stays missing. Stop recording
                // this chunk; the guard above stops the rest of the sweep.
                return;
            }
            let done_now = recorded.fetch_add(1, Ordering::Relaxed) + 1;
            if was_failure {
                failed.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(cb) = ctx.and_then(|c| c.progress) {
                cb(SweepProgress {
                    done: resumed + done_now,
                    total,
                    failed: failed.load(Ordering::Relaxed),
                });
            }
        }
    });
    let recorded = recorded.load(Ordering::Relaxed);
    SweepOutcome {
        executed: recorded,
        resumed,
        deferred,
        failed: failed.load(Ordering::Relaxed),
        interrupted: attempted - recorded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Direction, NodeId};

    fn point(scheme: Scheme, transient: f64) -> FaultPoint {
        FaultPoint {
            series: "test",
            scheme,
            k: 4,
            vcs: 4,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            cycles: 3_000,
            seed: 0xA11CE,
            fault: FaultConfig::transient(transient),
            recovery: RecoveryConfig::default(),
        }
    }

    /// `NOC_SWEEP_PANIC_KEY` is process-global; tests that set it must not
    /// overlap or they would observe each other's needle.
    static PANIC_KEY_LOCK: Mutex<()> = Mutex::new(());

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seec_sweep_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn keys_are_stable_and_distinguish_points() {
        let a = point(Scheme::seec(), 0.01);
        assert_eq!(a.key(), a.key());
        assert_ne!(a.key(), point(Scheme::seec(), 0.02).key());
        assert_ne!(a.key(), point(Scheme::mseec(), 0.01).key());
        let mut b = a.clone();
        b.seed ^= 1;
        assert_ne!(a.key(), b.key());
        // Arming recovery changes the design point, hence the key.
        let mut c = a.clone();
        c.recovery = RecoveryConfig::drain();
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn torn_final_line_is_dropped_at_every_byte_offset() {
        // Simulate `kill -9` mid-write: truncate a two-row journal at every
        // byte offset inside the final line (plus the missing-newline case)
        // and require the loader to (a) parse as "1 done, 1 torn" for every
        // strict prefix, (b) parse as "2 done, 0 torn" only for the intact
        // line, and (c) compact the journal so a reopen is clean.
        let dir = tmpdir("torn_offsets");
        let path = dir.join("torn.ckpt.jsonl");
        let row1 = JsonObj::new()
            .str_field("key", "aaaa")
            .str_field("status", "ok")
            .finish();
        let row2 = JsonObj::new()
            .str_field("key", "bbbb")
            .str_field("status", "ok")
            .str_field("reason", "has } and \" and \\ inside")
            .finish();
        let full = format!("{row1}\n{row2}\n");
        let last_start = full.len() - row2.len() - 1;
        for cut in 0..=row2.len() {
            let truncated = &full[..last_start + cut];
            std::fs::write(&path, truncated).unwrap();
            let ckpt = Checkpoint::open(&path).unwrap();
            if cut == row2.len() {
                // Complete line, only the trailing newline lost: a valid row.
                assert_eq!(ckpt.done_count(), 2, "cut={cut}");
                assert_eq!(ckpt.torn_dropped(), 0, "cut={cut}");
            } else if cut == 0 {
                // Torn exactly at the line boundary: nothing to drop.
                assert_eq!(ckpt.done_count(), 1, "cut={cut}");
                assert_eq!(ckpt.torn_dropped(), 0, "cut={cut}");
            } else {
                assert_eq!(ckpt.done_count(), 1, "cut={cut}: {truncated:?}");
                assert_eq!(ckpt.torn_dropped(), 1, "cut={cut}: {truncated:?}");
            }
            assert!(ckpt.is_done("aaaa"));
            drop(ckpt);
            // The journal was compacted: reopening drops nothing.
            let again = Checkpoint::open(&path).unwrap();
            assert_eq!(again.torn_dropped(), 0, "cut={cut}: repair not sticky");
            assert_eq!(
                again.done_count(),
                if cut == row2.len() { 2 } else { 1 },
                "cut={cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_line_point_reexecutes_and_matches_uninterrupted() {
        // End-to-end satellite check: tear the final checkpoint line, resume,
        // and require the repaired + resumed journal to hold exactly the row
        // set of an uninterrupted run.
        let dir = tmpdir("torn_resume");
        let path = dir.join("t.ckpt.jsonl");
        let points = vec![point(Scheme::seec(), 0.0), point(Scheme::mseec(), 0.0)];
        let ckpt = Checkpoint::open(&path).unwrap();
        run_sweep(&points, &ckpt, None, &dir);
        drop(ckpt);
        // Tear the last row mid-line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        // A tear inside the CRC trailer classifies as corrupt, one before
        // the trailer as torn; either way exactly one line was repaired.
        assert_eq!(ckpt.repaired_lines(), 1);
        let o = run_sweep(&points, &ckpt, None, &dir);
        assert_eq!((o.executed, o.resumed), (1, 1), "torn point re-executes");
        // Same sorted line set as an uninterrupted run.
        let uckpt = Checkpoint::open(&dir.join("u.ckpt.jsonl")).unwrap();
        run_sweep(&points, &uckpt, None, &dir);
        let sorted = |p: &Path| {
            let mut ls: Vec<String> = std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect();
            ls.sort();
            ls
        };
        assert_eq!(sorted(&path), sorted(uckpt.path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_single_byte_flip_in_any_record_is_detected_and_quarantined() {
        // The CRC satellite, end-to-end: flip every byte of every sealed
        // record in a real journal (one at a time) and require the loader
        // to drop exactly that record — detected, counted, quarantined —
        // and never load a row with altered bytes.
        let dir = tmpdir("flip");
        let path = dir.join("f.ckpt.jsonl");
        let ckpt = Checkpoint::open(&path).unwrap();
        assert!(ckpt.record(
            &JsonObj::new()
                .str_field("key", "aaaa")
                .str_field("status", "ok")
                .finish()
        ));
        assert!(ckpt.record(
            &JsonObj::new()
                .str_field("key", "bbbb")
                .u64_field("cycles", 42)
                .finish()
        ));
        drop(ckpt);
        let pristine = std::fs::read_to_string(&path).unwrap();
        let newline_at: Vec<usize> = pristine
            .bytes()
            .enumerate()
            .filter_map(|(i, b)| (b == b'\n').then_some(i))
            .collect();
        for i in 0..pristine.len() {
            if newline_at.contains(&i) {
                continue; // flipping the separator merges lines: below
            }
            for flip in [0x01u8, 0x20, 0x80] {
                let mut bytes = pristine.clone().into_bytes();
                bytes[i] ^= flip;
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue;
                };
                std::fs::write(&path, &mutated).unwrap();
                let _ = std::fs::remove_file(path.with_file_name("f.ckpt.jsonl.quarantine"));
                let ckpt = Checkpoint::open(&path).unwrap();
                assert_eq!(
                    ckpt.repaired_lines(),
                    1,
                    "flip at {i} (^{flip:#x}) not detected: {mutated:?}"
                );
                assert_eq!(ckpt.done_count(), 1, "flip at {i}");
                // The loaded row is the untouched one, byte-for-byte.
                let rows = ckpt.rows();
                assert_eq!(rows.len(), 1, "flip at {i}");
                // The dropped bytes are quarantined for post-mortems.
                let q = std::fs::read_to_string(path.with_file_name("f.ckpt.jsonl.quarantine"))
                    .unwrap();
                assert_eq!(q.lines().count(), 1, "flip at {i}");
                // Repair is sticky: a reopen is clean and both-rows short.
                drop(ckpt);
                let again = Checkpoint::open(&path).unwrap();
                assert_eq!(again.repaired_lines(), 0, "flip at {i}: repair not sticky");
            }
        }
        // A flipped newline merges two sealed records; the merged line has
        // a valid trailer only for the second half's CRC over the whole —
        // which cannot match — so the line drops and BOTH rows re-execute.
        let mut bytes = pristine.clone().into_bytes();
        bytes[newline_at[0]] ^= 0x01;
        std::fs::write(&path, String::from_utf8(bytes).unwrap()).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.repaired_lines(), 1);
        assert_eq!(ckpt.done_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_reexecutes_and_matches_uninterrupted() {
        // Resume-after-corruption: flip one payload byte of a finished
        // sweep journal, reopen (repairs + quarantines), re-run — the
        // journal must match an uninterrupted run's, line for line.
        let dir = tmpdir("corrupt_resume");
        let path = dir.join("c.ckpt.jsonl");
        let points = vec![point(Scheme::seec(), 0.0), point(Scheme::mseec(), 0.0)];
        let ckpt = Checkpoint::open(&path).unwrap();
        run_sweep(&points, &ckpt, None, &dir);
        drop(ckpt);
        // Flip a byte in the middle of the first record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.corrupt_dropped(), 1, "payload flip must fail the CRC");
        let o = run_sweep(&points, &ckpt, None, &dir);
        assert_eq!((o.executed, o.resumed), (1, 1), "corrupt point re-executes");
        let uckpt = Checkpoint::open(&dir.join("u.ckpt.jsonl")).unwrap();
        run_sweep(&points, &uckpt, None, &dir);
        let sorted = |p: &Path| {
            let mut ls: Vec<String> = std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect();
            ls.sort();
            ls
        };
        assert_eq!(sorted(&path), sorted(uckpt.path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_failure_parks_the_sweep_with_rows_intact() {
        // A disk that dies mid-sweep: the first record lands, the second
        // hits a stuck disk. The sweep must park (points stay missing),
        // never spin, and a later run on healthy storage must complete to
        // the uninterrupted row set.
        let dir = tmpdir("stuck_sweep");
        let path = dir.join("s.ckpt.jsonl");
        let points = vec![point(Scheme::seec(), 0.0), point(Scheme::mseec(), 0.0)];
        let vfs: std::sync::Arc<dyn noc_store::Vfs> =
            std::sync::Arc::new(noc_store::FaultVfs::new(
                noc_store::FaultPlan::default().with_event(1, noc_store::FaultKind::Stuck),
            ));
        let ckpt = Checkpoint::open_with_vfs(&path, vfs).unwrap();
        let o = run_sweep_with_width(&points, &ckpt, None, &dir, 1);
        assert!(ckpt.write_failed(), "stuck disk must latch write_failed");
        assert_eq!(o.executed + o.interrupted, 2);
        assert!(
            o.interrupted >= 1,
            "unpersisted points must count interrupted"
        );
        drop(ckpt);
        // Storage recovers: the parked points re-execute and the journal
        // matches an uninterrupted run's.
        let ckpt = Checkpoint::open(&path).unwrap();
        let o = run_sweep(&points, &ckpt, None, &dir);
        assert_eq!(o.executed + o.resumed, 2);
        assert!(!ckpt.write_failed());
        let uckpt = Checkpoint::open(&dir.join("u.ckpt.jsonl")).unwrap();
        run_sweep(&points, &uckpt, None, &dir);
        let sorted = |p: &Path| {
            let mut ls: Vec<String> = std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect();
            ls.sort();
            ls
        };
        assert_eq!(sorted(&path), sorted(uckpt.path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_width_env_is_validated_not_silently_defaulted() {
        // Validation is pure (no process-global env mutation in tests):
        // exercise the shared parser with NOC_BATCH_WIDTH's name.
        let p = |v: Option<&str>| rayon::parse_threads_env("NOC_BATCH_WIDTH", v);
        assert_eq!(p(None), Ok(None));
        assert_eq!(p(Some("")), Ok(None));
        assert_eq!(p(Some("4")), Ok(Some(4)));
        assert_eq!(p(Some(" 8 ")), Ok(Some(8)));
        let zero = p(Some("0")).unwrap_err();
        assert!(zero.contains("NOC_BATCH_WIDTH"), "{zero}");
        assert!(zero.contains("at least 1"), "{zero}");
        let junk = p(Some("wide")).unwrap_err();
        assert!(junk.contains("not a positive integer"), "{junk}");
        assert!(p(Some("-1")).is_err());
        assert!(p(Some("2.5")).is_err());
    }

    #[test]
    fn cancelled_sweep_abandons_missing_points_without_rows() {
        let dir = tmpdir("cancelled");
        let ckpt = Checkpoint::open(&dir.join("c.ckpt.jsonl")).unwrap();
        let points = vec![
            point(Scheme::seec(), 0.0),
            point(Scheme::seec(), 0.01),
            point(Scheme::mseec(), 0.0),
        ];
        let token = rayon::CancelToken::new();
        token.cancel();
        let ctx = SweepCtx {
            cancel: &token,
            progress: None,
        };
        let o = run_sweep_ctx(&points, &ckpt, None, &dir, 1, Some(&ctx));
        assert_eq!(o.executed, 0);
        assert_eq!(o.interrupted, 3);
        assert_eq!(ckpt.rows().len(), 0, "no rows for abandoned points");
        // Resuming with a quiet token completes everything and matches an
        // uninterrupted run.
        let ckpt = Checkpoint::open(&dir.join("c.ckpt.jsonl")).unwrap();
        let o = run_sweep(&points, &ckpt, None, &dir);
        assert_eq!((o.executed, o.interrupted), (3, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_token_interrupts_and_progress_reports_rows() {
        use std::sync::atomic::AtomicUsize;
        let dir = tmpdir("deadline");
        let ckpt = Checkpoint::open(&dir.join("d.ckpt.jsonl")).unwrap();
        let points = vec![point(Scheme::seec(), 0.0), point(Scheme::mseec(), 0.0)];
        let token = rayon::CancelToken::new();
        let seen = AtomicUsize::new(0);
        let cb = |p: SweepProgress| {
            seen.store(p.done, Ordering::Relaxed);
            assert_eq!(p.total, 2);
        };
        let ctx = SweepCtx {
            cancel: &token,
            progress: Some(&cb),
        };
        let o = run_sweep_ctx(&points, &ckpt, None, &dir, 1, Some(&ctx));
        assert_eq!((o.executed, o.interrupted), (2, 0));
        assert_eq!(seen.load(Ordering::Relaxed), 2, "progress saw both rows");
        // An already-expired deadline interrupts a fresh sweep immediately.
        let token = rayon::CancelToken::new();
        token.set_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let ctx = SweepCtx {
            cancel: &token,
            progress: None,
        };
        let ckpt2 = Checkpoint::open(&dir.join("d2.ckpt.jsonl")).unwrap();
        let o = run_sweep_ctx(&points, &ckpt2, None, &dir, 1, Some(&ctx));
        assert_eq!((o.executed, o.interrupted), (0, 2));
        assert_eq!(token.reason(), Some(rayon::CancelReason::DeadlineExceeded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_checkpoints_and_resumes_only_missing_points() {
        let dir = tmpdir("resume");
        let ckpt_path = dir.join("sweep.ckpt.jsonl");
        let points = vec![
            point(Scheme::seec(), 0.0),
            point(Scheme::seec(), 0.01),
            point(Scheme::mseec(), 0.0),
        ];
        // First run: capped at 2 points.
        let ckpt = Checkpoint::open(&ckpt_path).unwrap();
        let o1 = run_sweep(&points, &ckpt, Some(2), &dir);
        assert_eq!((o1.executed, o1.resumed, o1.deferred), (2, 0, 1));
        // Resume: only the missing point runs.
        let ckpt = Checkpoint::open(&ckpt_path).unwrap();
        assert_eq!(ckpt.done_count(), 2);
        let o2 = run_sweep(&points, &ckpt, None, &dir);
        assert_eq!((o2.executed, o2.resumed, o2.deferred), (1, 2, 0));
        // The resumed checkpoint holds the same row set as an uninterrupted
        // run of the same sweep.
        let uckpt = Checkpoint::open(&dir.join("uninterrupted.ckpt.jsonl")).unwrap();
        run_sweep(&points, &uckpt, None, &dir);
        let sorted = |c: &Checkpoint| {
            let mut rows: Vec<String> = c.rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        let resumed = Checkpoint::open(&ckpt_path).unwrap();
        assert_eq!(sorted(&resumed), sorted(&uckpt));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ok_rows_carry_the_fault_metrics() {
        let dir = tmpdir("metrics");
        let ckpt = Checkpoint::open(&dir.join("m.ckpt.jsonl")).unwrap();
        run_sweep(&[point(Scheme::seec(), 0.05)], &ckpt, None, &dir);
        let rows = ckpt.rows();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r["status"], "ok");
        assert!(r["avg_latency"].parse::<f64>().unwrap() > 0.0);
        assert!(
            r["retransmitted_flits"].parse::<u64>().unwrap() > 0,
            "5% corruption must force retransmissions: {r:?}"
        );
        // Tail-latency and recovery columns are always present; a healthy
        // run has nonzero percentiles and zero recoveries.
        let p50 = r["p50_latency"].parse::<u64>().unwrap();
        let p99 = r["p99_latency"].parse::<u64>().unwrap();
        assert!(p50 > 0 && p99 >= p50, "p50={p50} p99={p99}");
        assert_eq!(r["drain_recoveries"], "0");
        assert_eq!(r["e2e_retransmits"], "0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misarmed_recovery_is_skipped_with_a_reason() {
        // A drain threshold at/above the watchdog's panic threshold can
        // never fire before the runner escalates — the recovery certifier
        // refuses it and the sweep records a status row instead of running.
        let dir = tmpdir("recovery_uncert");
        let ckpt = Checkpoint::open(&dir.join("r.ckpt.jsonl")).unwrap();
        let mut p = point(Scheme::seec(), 0.0);
        p.recovery = RecoveryConfig::drain().with_stuck_threshold(1_000_000);
        let o = run_sweep(&[p], &ckpt, None, &dir);
        assert_eq!(o.failed, 0);
        let rows = ckpt.rows();
        assert_eq!(rows[0]["status"], "recovery-uncertified");
        assert!(rows[0]["reason"].contains("recovery"), "{rows:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rows_point_at_their_blackbox_dump() {
        // Pre-plant a dump file under the point's deterministic name; an
        // injected panic must then produce a failed row referencing it.
        let _guard = PANIC_KEY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = tmpdir("blackbox_link");
        let ckpt_path = dir.join("b.ckpt.jsonl");
        let mut bad = point(Scheme::seec(), 0.0);
        bad.series = "blackbox-link-test";
        let dump = dir.join(format!("blackbox_{}.json", bad.key()));
        std::fs::write(&dump, "{\"schema\": \"noc-blackbox-v1\"}").unwrap();
        std::env::set_var("NOC_SWEEP_PANIC_KEY", "blackbox-link-test");
        let ckpt = Checkpoint::open(&ckpt_path).unwrap();
        let o = run_sweep(&[bad], &ckpt, None, &dir);
        std::env::remove_var("NOC_SWEEP_PANIC_KEY");
        assert_eq!(o.failed, 1);
        let rows = ckpt.rows();
        assert_eq!(rows[0]["status"], "failed");
        assert_eq!(rows[0]["blackbox"], dump.display().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unroutable_scenarios_become_status_rows_not_panics() {
        let dir = tmpdir("unroutable");
        let ckpt = Checkpoint::open(&dir.join("u.ckpt.jsonl")).unwrap();
        let mut p = point(Scheme::seec(), 0.0);
        // Sever corner node 0 entirely: unroutable.
        p.fault = FaultConfig::default().with_dead_links(vec![
            (NodeId(0), Direction::East),
            (NodeId(0), Direction::South),
        ]);
        let o = run_sweep(&[p], &ckpt, None, &dir);
        assert_eq!(o.failed, 0);
        let rows = ckpt.rows();
        assert_eq!(rows[0]["status"], "unroutable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn severed_escape_is_skipped_for_duato_schemes() {
        let dir = tmpdir("severed");
        let ckpt = Checkpoint::open(&dir.join("s.ckpt.jsonl")).unwrap();
        let mut p = point(Scheme::escape(), 0.0);
        p.fault = FaultConfig::default().with_dead_links(vec![(NodeId(1), Direction::East)]);
        let o = run_sweep(&[p], &ckpt, None, &dir);
        assert_eq!(o.failed, 0);
        assert_eq!(ckpt.rows()[0]["status"], "escape-severed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_point_is_recorded_as_failed_and_not_rerun() {
        // The injection hook is env-driven; isolate it in a child test by
        // matching a series tag no other test uses.
        let _guard = PANIC_KEY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = tmpdir("panic");
        let ckpt_path = dir.join("p.ckpt.jsonl");
        let mut bad = point(Scheme::seec(), 0.0);
        bad.series = "panic-injection-test";
        let good = point(Scheme::mseec(), 0.0);
        std::env::set_var("NOC_SWEEP_PANIC_KEY", "panic-injection-test");
        let ckpt = Checkpoint::open(&ckpt_path).unwrap();
        let o = run_sweep(&[bad.clone(), good], &ckpt, None, &dir);
        std::env::remove_var("NOC_SWEEP_PANIC_KEY");
        assert_eq!(o.executed, 2);
        assert_eq!(o.failed, 1, "the injected panic must be recorded");
        let rows = Checkpoint::open(&ckpt_path).unwrap().rows();
        assert_eq!(rows.len(), 2, "the healthy point must still complete");
        let failed: Vec<_> = rows.iter().filter(|r| r["status"] == "failed").collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0]["reason"].contains("injected test panic"));
        // A resumed run re-executes nothing: the failure is checkpointed.
        let ckpt = Checkpoint::open(&ckpt_path).unwrap();
        let o2 = run_sweep(&[bad, point(Scheme::mseec(), 0.0)], &ckpt, None, &dir);
        assert_eq!((o2.executed, o2.resumed), (0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
