//! `noc-chaos`: seeded chaos cases with differential oracles and
//! delta-debugging minimization.
//!
//! The engine (PRs 3–5) can kill and heal links mid-run; this module
//! *searches* the scheme × pattern × rate × mesh × schedule space for the
//! wedges nobody hand-seeded. A [`CaseGen`] draws random [`ChaosCase`]s from
//! one seed, [`precheck`] applies the same certification gate as the fault
//! sweep (per *epoch*, via [`noc_verify::certify_schedule`]), and
//! [`run_case`] executes each survivor under four differential oracles:
//!
//! * **conservation** — with e2e recovery armed, every injected packet must
//!   eject; without it, the flits that never arrive must equal the engine's
//!   `chaos_purged_flits` accounting exactly (loss is allowed, unaccounted
//!   loss is not);
//! * **exactly-once** — no packet id is delivered twice;
//! * **watchdog-clean** — a sustained stall escalates to a black-box dump
//!   (`blackbox_<key>.json`, schema `noc-blackbox-v1`) instead of a hang;
//! * **determinism** — a passing case is replayed and both runs must produce
//!   the same delivery digest (the engine is bit-reproducible per seed; the
//!   CI smoke additionally diffs whole-process reruns).
//!
//! A failing case is shrunk by [`minimize`] — greedy event removal, then
//! rate, cycle, mesh and VC reduction, to a fixed point that still fails the
//! *same* oracle — and written as a one-line replayable JSON repro next to
//! its black-box dump. [`replay`] re-runs a repro and compares the failure
//! signature byte-for-byte.
//!
//! There is one case loop, and it is not here: the soak (`noc_chaos`) is
//! [`crate::job::SimJob::Chaos`] under a deadline, journaling to a
//! [`Checkpoint`] (resume by key, torn-line repair, quarantine) through
//! the one per-case step in this module, `record_case`.

use crate::jsonio::{self, JsonObj};
use crate::runner::Scheme;
use crate::sweep::{run_key, Checkpoint};
use noc_sim::stats::DeliveredPacket;
use noc_sim::workload::Workload;
use noc_sim::{watchdog, Sim, Stats};
use noc_traffic::{SyntheticWorkload, TrafficPattern};
use noc_types::fault::fnv1a;
use noc_types::{
    BaseRouting, Cycle, Direction, FaultAction, FaultConfig, FaultEvent, FaultSchedule, NetConfig,
    NodeId, Packet, RecoveryConfig, SchemeKind,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Cycles between watchdog samples while a case runs (same cadence as the
/// fault sweep).
const WATCHDOG_PERIOD: u64 = 256;

/// Repro/row schema tag, bumped on any field change.
const REPRO_SCHEMA: &str = "noc-chaos-repro-v1";

// ---------------------------------------------------------------------------
// Case description + flat-JSON round trip
// ---------------------------------------------------------------------------

/// One point of the chaos search space. Plain data: everything needed to
/// replay the run bit-for-bit is in here (the engine adds no hidden state).
#[derive(Clone, Debug)]
pub struct ChaosCase {
    pub scheme: Scheme,
    pub k: u8,
    pub vcs: u8,
    pub pattern: TrafficPattern,
    /// Offered load in packets per node per cycle.
    pub rate: f64,
    /// Injection window; the run then drains with sources silenced.
    pub cycles: u64,
    pub seed: u64,
    pub schedule: FaultSchedule,
    pub recovery: RecoveryConfig,
}

impl ChaosCase {
    /// The network configuration this case simulates. Warmup is zeroed so
    /// the harness-side ledger covers every packet of the run.
    pub fn config(&self) -> NetConfig {
        let mut cfg = self
            .scheme
            .configure(NetConfig::synth(self.k, self.vcs))
            .with_seed(self.seed)
            .with_fault(FaultConfig::default().with_schedule(self.schedule.clone()))
            .with_recovery(self.recovery.clone());
        cfg.warmup = 0;
        cfg
    }

    /// Stable case key, the same content address a sweep point gets (see
    /// [`run_key`]); the config digest folds in the schedule and recovery
    /// canonicals.
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

    /// Appends the case's own fields to a row builder (shared by log rows
    /// and repro files, so both render identically).
    fn fields(&self, obj: JsonObj) -> JsonObj {
        obj.str_field("key", &self.key())
            .str_field("scheme", &self.scheme.label())
            .u64_field("k", u64::from(self.k))
            .u64_field("vcs", u64::from(self.vcs))
            .str_field("pattern", self.pattern.label())
            .f64_field("rate", self.rate, 6)
            .u64_field("cycles", self.cycles)
            .u64_field("seed", self.seed)
            .str_field("events", &self.schedule.canonical())
            .str_field("recovery", &self.recovery.canonical())
    }

    /// Parses a case back out of a flat row (a repro file or a log row).
    pub fn from_row(row: &std::collections::BTreeMap<String, String>) -> Result<ChaosCase, String> {
        let get = |k: &str| -> Result<&String, String> {
            row.get(k)
                .ok_or_else(|| format!("repro missing field '{k}'"))
        };
        let int = |k: &str| -> Result<u64, String> {
            get(k)?.parse().map_err(|e| format!("field '{k}': {e}"))
        };
        let scheme = get("scheme")?;
        Ok(ChaosCase {
            scheme: Scheme::from_label(scheme)
                .ok_or_else(|| format!("unknown scheme label '{scheme}'"))?,
            k: u8::try_from(int("k")?).map_err(|e| format!("field 'k': {e}"))?,
            vcs: u8::try_from(int("vcs")?).map_err(|e| format!("field 'vcs': {e}"))?,
            pattern: TrafficPattern::from_label(get("pattern")?)?,
            rate: get("rate")?
                .parse()
                .map_err(|e| format!("field 'rate': {e}"))?,
            cycles: int("cycles")?,
            seed: int("seed")?,
            schedule: FaultSchedule::from_canonical(get("events")?)?,
            recovery: RecoveryConfig::from_canonical(get("recovery")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Which oracle a case failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Flits vanished beyond the engine's own purge accounting (or at all,
    /// with e2e recovery armed).
    Lost,
    /// A packet id was delivered more than once.
    Duplicated,
    /// The watchdog saw no progress for its threshold; black box captured.
    Wedged,
    /// The network failed to drain after sources went silent.
    DrainStall,
    /// End-to-end recovery gave up on a packet (`e2e_abandoned > 0`).
    Abandoned,
    /// Two runs of the same case produced different delivery digests.
    NonDeterministic,
    /// The simulator panicked (assertion, invariant, bug).
    Panicked,
}

impl FailureKind {
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Lost => "lost",
            FailureKind::Duplicated => "duplicated",
            FailureKind::Wedged => "wedged",
            FailureKind::DrainStall => "drain-stall",
            FailureKind::Abandoned => "abandoned",
            FailureKind::NonDeterministic => "non-deterministic",
            FailureKind::Panicked => "panicked",
        }
    }
}

/// A failed oracle, with a *deterministic* detail string (no paths, no
/// timestamps — the detail is part of the replay signature).
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub detail: String,
    /// Black-box dump, when the watchdog escalated.
    pub blackbox: Option<PathBuf>,
}

/// A passing run's evidence.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Chained FNV digest over the delivery stream and the final counters.
    pub digest: u64,
    pub delivered: u64,
    pub purged_flits: u64,
    /// Short re-certification verdict per schedule event, in timeline order
    /// (also written into `Stats::epochs[..].recert`).
    pub recert: Vec<String>,
    /// Final statistics with the recert column filled in.
    pub stats: Box<Stats>,
}

/// Outcome of [`run_case`].
#[derive(Debug)]
pub enum CaseOutcome {
    Pass(PassReport),
    /// The case was loaded past its saturation point: the drain kept making
    /// delivery progress but the source backlog was not shrinking, so the
    /// oracles cannot settle inside the budget. Counted as a skip, not a
    /// failure — nothing is wrong except the offered load.
    Saturated(String),
    Fail(Failure),
}

/// Internal result of a single [`run_once`] execution.
enum RunStop {
    Saturated(String),
    Fail(Failure),
}

impl From<Failure> for RunStop {
    fn from(f: Failure) -> Self {
        RunStop::Fail(f)
    }
}

/// Harness-side ledger: every injected id (with its flit length) and every
/// delivery, hashed in arrival order.
#[derive(Default)]
struct Tally {
    injected: HashMap<u64, u8>,
    delivered: HashMap<u64, u32>,
    deliveries: u64,
    digest: u64,
}

impl Tally {
    /// Ids injected but never delivered, with the flit total they carried.
    fn lost(&self) -> (u64, u64) {
        let mut ids = 0u64;
        let mut flits = 0u64;
        for (id, len) in &self.injected {
            if !self.delivered.contains_key(id) {
                ids += 1;
                flits += u64::from(*len);
            }
        }
        (ids, flits)
    }

    fn duplicated(&self) -> u64 {
        self.delivered.values().filter(|&&n| n > 1).count() as u64
    }

    fn all_delivered(&self) -> bool {
        self.delivered.len() == self.injected.len()
    }
}

fn chain(h: u64, bytes: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + bytes.len());
    buf.extend_from_slice(&h.to_le_bytes());
    buf.extend_from_slice(bytes);
    fnv1a(&buf)
}

/// Open-loop source wrapper: delegates to [`SyntheticWorkload`] until
/// `stop_at`, then goes silent so the network can drain; records every
/// injection and delivery in the shared [`Tally`].
struct Driver {
    inner: SyntheticWorkload,
    stop_at: Cycle,
    tally: Rc<RefCell<Tally>>,
}

impl Workload for Driver {
    fn generate(&mut self, cycle: Cycle, inject: &mut dyn FnMut(NodeId, Packet)) {
        if cycle >= self.stop_at {
            return;
        }
        let tally = &self.tally;
        let mut hook = |n: NodeId, p: Packet| {
            tally.borrow_mut().injected.insert(p.id.0, p.len_flits);
            inject(n, p);
        };
        self.inner.generate(cycle, &mut hook);
    }

    fn deliver(&mut self, _cycle: Cycle, p: &DeliveredPacket) -> bool {
        let mut t = self.tally.borrow_mut();
        *t.delivered.entry(p.id.0).or_insert(0) += 1;
        t.deliveries += 1;
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&p.id.0.to_le_bytes());
        bytes[8..].copy_from_slice(&p.eject.to_le_bytes());
        t.digest = chain(t.digest, &bytes);
        true
    }
}

/// True when nothing is queued, flying, or half-injected anywhere.
fn network_idle(net: &noc_sim::network::Network) -> bool {
    net.flits_in_network() == 0
        && net.nics.iter().map(noc_sim::Nic::backlog).sum::<usize>() == 0
        && net
            .nics
            .iter()
            .flat_map(|n| n.ejection.iter())
            .map(|e| e.buf.len())
            .sum::<usize>()
            == 0
        && net.inbox_nic.iter().map(noc_sim::Inbox::len).sum::<usize>() == 0
        && net.nics.iter().all(|n| n.inj_active.is_none())
}

/// One full simulation of `case`: injection window, drain window, oracles.
/// Returns the pass evidence or the first oracle violation. May panic on a
/// simulator bug — [`run_case`] isolates that into [`FailureKind::Panicked`].
fn run_once(case: &ChaosCase, dump_dir: &Path) -> Result<PassReport, RunStop> {
    let cfg = case.config();
    let tally = Rc::new(RefCell::new(Tally::default()));
    let wl = Driver {
        inner: SyntheticWorkload::new(
            case.pattern,
            case.rate,
            cfg.cols,
            cfg.rows,
            cfg.warmup,
            case.seed,
        ),
        stop_at: case.cycles,
        tally: tally.clone(),
    };
    let mech = case.scheme.mechanism(&cfg);
    let mut sim = Sim::new(cfg.clone(), Box::new(wl), mech);
    sim.net.enable_flight_recorder(64);

    let check_wedge = |sim: &mut Sim| -> Result<(), Failure> {
        if !watchdog::looks_stuck(&sim.net, watchdog::DEFAULT_STUCK_THRESHOLD) {
            return Ok(());
        }
        let bb =
            watchdog::BlackBox::capture(&sim.net, &case.scheme.label(), &sim.mech.debug_state());
        let path = dump_dir.join(format!("blackbox_{}.json", case.key()));
        let blackbox = bb.write(&path).ok().map(|()| path);
        Err(Failure {
            kind: FailureKind::Wedged,
            detail: format!(
                "no progress for {} cycles at cycle {}",
                watchdog::DEFAULT_STUCK_THRESHOLD,
                sim.net.cycle
            ),
            blackbox,
        })
    };

    // Injection window.
    let mut remaining = case.cycles;
    while remaining > 0 {
        let slice = WATCHDOG_PERIOD.min(remaining);
        sim.run(slice);
        remaining -= slice;
        check_wedge(&mut sim)?;
    }

    // Drain window: sources silent. The budget is deliberately generous —
    // a case injected past its saturation point legitimately needs many
    // thousands of cycles to clear its NIC backlogs, and the wedge check
    // already catches genuine no-progress stalls long before the cap. With
    // e2e armed, an abandoned packet ends the wait immediately (the network
    // goes idle but `all_delivered` would never come true).
    let e2e_armed = case.recovery.enabled && case.recovery.e2e_timeout > 0;
    let drain_budget = 200_000u64.max(8 * case.recovery.e2e_timeout);
    // Saturation probe: if well into the drain the network is still
    // delivering but the source backlog is not shrinking, the case was
    // loaded past its collapse point and would legitimately take millions
    // of cycles to clear (recovery drains are serialized). That is a skip,
    // not a bug — `DrainStall` is reserved for genuine no-progress.
    const SATURATION_PROBE: u64 = 60_000;
    let nic_backlog = |net: &noc_sim::network::Network| -> u64 {
        net.nics.iter().map(|n| n.backlog() as u64).sum()
    };
    let backlog0 = nic_backlog(&sim.net);
    let delivered0 = tally.borrow().deliveries;
    let mut spent = 0u64;
    let mut settled = false;
    while spent < drain_budget {
        sim.run(WATCHDOG_PERIOD);
        spent += WATCHDOG_PERIOD;
        check_wedge(&mut sim)?;
        if e2e_armed && sim.net.stats.e2e_abandoned > 0 {
            break;
        }
        let done = if e2e_armed {
            tally.borrow().all_delivered()
        } else {
            network_idle(&sim.net)
        };
        if done {
            // One grace slice so late duplicates would still be observed.
            sim.run(WATCHDOG_PERIOD);
            check_wedge(&mut sim)?;
            settled = true;
            break;
        }
        if spent >= SATURATION_PROBE
            && tally.borrow().deliveries > delivered0
            && nic_backlog(&sim.net) >= backlog0
        {
            return Err(RunStop::Saturated(format!(
                "source backlog not shrinking after {spent} drain cycles \
                 ({backlog0} packets queued when sources stopped)"
            )));
        }
    }
    let drain_progressing = tally.borrow().deliveries > delivered0;

    let mut stats = Box::new(sim.finish().clone());

    // Fill the epoch trace's recert column from the static per-epoch
    // certifier: engine epochs and schedule certifications share the
    // `cycle:code:node[:dir]` action key.
    let mut recert = Vec::new();
    if let Ok(certs) = noc_verify::certify_schedule(&cfg) {
        for c in &certs {
            recert.push(c.short_verdict().to_string());
        }
        for ep in &mut stats.epochs {
            if let Some(c) = certs.iter().find(|c| c.action == ep.action) {
                ep.recert = Some(c.short_verdict().to_string());
            }
        }
    }

    let t = tally.borrow();
    let (lost_ids, lost_flits) = t.lost();
    let dups = t.duplicated();
    let fail = |kind: FailureKind, detail: String| {
        Err(RunStop::Fail(Failure {
            kind,
            detail,
            blackbox: None,
        }))
    };

    if dups > 0 {
        return fail(
            FailureKind::Duplicated,
            format!("{dups} packet ids delivered more than once"),
        );
    }
    if e2e_armed && stats.e2e_abandoned > 0 {
        return fail(
            FailureKind::Abandoned,
            format!("e2e recovery abandoned {} packets", stats.e2e_abandoned),
        );
    }
    // An unfinished drain pre-empts the loss oracles: packets still queued
    // at the budget cap are stranded, not lost, and claiming "lost" would
    // misdirect the debugging. If deliveries were still advancing at the
    // cap the case is merely past saturation — skip it instead.
    if !settled {
        if drain_progressing {
            return Err(RunStop::Saturated(format!(
                "still delivering at the {drain_budget}-cycle drain cap \
                 (load past saturation, backlog clearing too slowly)"
            )));
        }
        return fail(
            FailureKind::DrainStall,
            format!("network failed to drain within {drain_budget} cycles after sources stopped"),
        );
    }
    if e2e_armed {
        if lost_ids > 0 {
            return fail(
                FailureKind::Lost,
                format!("{lost_ids} packets ({lost_flits} flits) never delivered with e2e armed"),
            );
        }
    } else if lost_flits != stats.chaos_purged_flits {
        return fail(
            FailureKind::Lost,
            format!(
                "{lost_flits} flits missing but chaos purge accounts for {} \
                 ({lost_ids} packets lost)",
                stats.chaos_purged_flits
            ),
        );
    }

    let mut digest = t.digest;
    for counter in [
        t.deliveries,
        stats.chaos_epochs,
        stats.chaos_purged_flits,
        stats.e2e_retransmits,
        stats.e2e_duplicates_dropped,
        stats.ejected_flits_all,
    ] {
        digest = chain(digest, &counter.to_le_bytes());
    }
    Ok(PassReport {
        digest,
        delivered: t.deliveries,
        purged_flits: stats.chaos_purged_flits,
        recert,
        stats,
    })
}

/// First line of a panic payload, for deterministic failure details.
fn first_line(msg: &str) -> String {
    msg.lines().next().unwrap_or("").to_string()
}

/// Executes `case` under panic isolation and the determinism oracle: a
/// passing run is executed a second time and both delivery digests must
/// match. The black-box dump (if any) lands in `dump_dir`.
pub fn run_case(case: &ChaosCase, dump_dir: &Path) -> CaseOutcome {
    let attempt = || rayon::catch_panic(|| run_once(case, dump_dir));
    let first = match attempt() {
        Ok(r) => r,
        Err(msg) => {
            let dump = dump_dir.join(format!("blackbox_{}.json", case.key()));
            return CaseOutcome::Fail(Failure {
                kind: FailureKind::Panicked,
                detail: first_line(&msg),
                blackbox: dump.is_file().then_some(dump),
            });
        }
    };
    let report = match first {
        Ok(rep) => rep,
        // A saturated case is skipped without the determinism double-run:
        // nothing about it is suspect, it just cannot settle in budget.
        Err(RunStop::Saturated(why)) => return CaseOutcome::Saturated(why),
        Err(RunStop::Fail(f)) => return CaseOutcome::Fail(f),
    };
    match attempt() {
        Ok(Ok(rep2)) if rep2.digest == report.digest => CaseOutcome::Pass(report),
        Ok(Ok(rep2)) => CaseOutcome::Fail(Failure {
            kind: FailureKind::NonDeterministic,
            detail: format!(
                "delivery digests diverge across identical runs: {:016x} vs {:016x}",
                report.digest, rep2.digest
            ),
            blackbox: None,
        }),
        Ok(Err(RunStop::Saturated(why))) => CaseOutcome::Fail(Failure {
            kind: FailureKind::NonDeterministic,
            detail: format!("first run passed, identical second run saturated: {why}"),
            blackbox: None,
        }),
        Ok(Err(RunStop::Fail(f))) => CaseOutcome::Fail(Failure {
            kind: FailureKind::NonDeterministic,
            detail: format!(
                "first run passed, identical second run failed: {}",
                f.detail
            ),
            blackbox: f.blackbox,
        }),
        Err(msg) => CaseOutcome::Fail(Failure {
            kind: FailureKind::NonDeterministic,
            detail: format!(
                "first run passed, identical second run panicked: {}",
                first_line(&msg)
            ),
            blackbox: None,
        }),
    }
}

// ---------------------------------------------------------------------------
// Certification gate (generator-side)
// ---------------------------------------------------------------------------

/// The same refusal policy as the fault sweep, applied per epoch: schemes
/// whose deadlock freedom is a static property (XY/WF/TFC/EscapeVc) must
/// keep a certificate through *every* epoch of the schedule unless a
/// certified recovery channel is armed; unroutable epochs need recovery
/// (the purge + e2e path) to be survivable. Returns the skip reason.
pub fn precheck(case: &ChaosCase) -> Result<(), String> {
    let cfg = case.config();
    let static_kind = matches!(
        case.scheme.kind(),
        SchemeKind::None | SchemeKind::EscapeVc | SchemeKind::Tfc
    );
    let armed = case.recovery.enabled;
    if static_kind && !armed {
        let report = noc_verify::certify(&cfg);
        if !report.certified() {
            return Err(format!(
                "uncertified: {} holds no healthy-state certificate and recovery is unarmed",
                case.scheme.label()
            ));
        }
    }
    let epochs = noc_verify::certify_schedule(&cfg)?;
    for e in &epochs {
        if !e.report.routing.routable() && !armed {
            return Err(format!(
                "unroutable epoch {} with recovery unarmed",
                e.action
            ));
        }
        if static_kind && !armed && !e.report.routing.certified() {
            return Err(format!(
                "uncertified epoch {} ({}) with recovery unarmed",
                e.action,
                e.short_verdict()
            ));
        }
    }
    if case.recovery.any() {
        let rec = noc_verify::certify_recovery(&cfg);
        if !rec.certified() {
            return Err("recovery channel itself failed certification".to_string());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Seeded case generator
// ---------------------------------------------------------------------------

/// Which slice of the design space to draw from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GenPool {
    /// Mechanism-free schemes, link flaps only: the every-push smoke set.
    Smoke,
    /// Adds SEEC/mSEEC mechanisms and router flaps: the nightly soak set.
    Full,
}

/// Deterministic random case stream: same seed, same cases, forever.
pub struct CaseGen {
    rng: SmallRng,
    pool: GenPool,
}

impl CaseGen {
    pub fn new(seed: u64, pool: GenPool) -> CaseGen {
        CaseGen {
            rng: SmallRng::seed_from_u64(seed),
            pool,
        }
    }

    /// Draws the next structurally-valid case (schedule validated against
    /// the mesh; certification gating is [`precheck`]'s separate job).
    pub fn next_case(&mut self) -> ChaosCase {
        loop {
            let case = self.draw();
            let cfg = case.config();
            if cfg.fault.validate(cfg.cols, cfg.rows).is_ok() {
                return case;
            }
        }
    }

    /// A random physical link named from a node with a valid neighbour in
    /// that direction.
    fn random_link(&mut self, k: u8) -> (NodeId, Direction) {
        let k16 = u16::from(k);
        if self.rng.gen_bool(0.5) {
            let x = self.rng.gen_range(0..k16 - 1);
            let y = self.rng.gen_range(0..k16);
            (NodeId(y * k16 + x), Direction::East)
        } else {
            let x = self.rng.gen_range(0..k16);
            let y = self.rng.gen_range(0..k16 - 1);
            (NodeId(y * k16 + x), Direction::South)
        }
    }

    fn draw(&mut self) -> ChaosCase {
        let schemes: &[Scheme] = match self.pool {
            GenPool::Smoke => &[
                Scheme::Xy,
                Scheme::WestFirst,
                Scheme::EscapeVc {
                    normal: BaseRouting::AdaptiveMinimal,
                },
                Scheme::Adaptive,
            ],
            GenPool::Full => &[
                Scheme::Xy,
                Scheme::WestFirst,
                Scheme::EscapeVc {
                    normal: BaseRouting::AdaptiveMinimal,
                },
                Scheme::Adaptive,
                Scheme::Seec {
                    routing: BaseRouting::AdaptiveMinimal,
                },
                Scheme::MSeec {
                    routing: BaseRouting::AdaptiveMinimal,
                },
            ],
        };
        let patterns = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Transpose,
            TrafficPattern::Tornado,
            TrafficPattern::Shuffle,
        ];
        let scheme = schemes[self.rng.gen_range(0..schemes.len())];
        let pattern = patterns[self.rng.gen_range(0..patterns.len())];
        // Smoke keeps the mesh at 4×4 so the per-push CI run stays fast.
        let ks: &[u8] = if self.pool == GenPool::Smoke {
            &[4, 4]
        } else {
            &[4, 4, 6, 8]
        };
        let k = ks[self.rng.gen_range(0..ks.len())];
        let vcs = if self.rng.gen_bool(0.5) { 2 } else { 4 };
        // Quantized so the 6-decimal row rendering round-trips exactly.
        let rate = f64::from(self.rng.gen_range(20u32..101)) / 1000.0;
        let cycles = [4_000u64, 6_000, 8_000][self.rng.gen_range(0..3usize)];
        let seed = self.rng.next_u64();

        // Every case ends fully healed: each disturbance is a kill/heal pair
        // finishing well before the drain window, on distinct hardware.
        let disturbances = 1 + usize::from(self.rng.gen_bool(0.4));
        let mut schedule = FaultSchedule::none();
        let mut used: Vec<(NodeId, Direction)> = Vec::new();
        for _ in 0..disturbances {
            let kill_at: u64 = self.rng.gen_range(200..cycles / 2);
            let down: u64 = self.rng.gen_range(200..1_200);
            let heal_at = (kill_at + down).min(cycles - 1_000);
            if heal_at <= kill_at {
                continue;
            }
            if self.pool == GenPool::Full && self.rng.gen_bool(0.2) && schedule.is_empty() {
                // Router flap, alone (link events under a dead router are
                // invalid, so routers never share a schedule here).
                let node = NodeId(self.rng.gen_range(0..u16::from(k) * u16::from(k)));
                schedule = FaultSchedule::new(vec![
                    FaultEvent {
                        at: kill_at,
                        action: FaultAction::KillRouter(node),
                    },
                    FaultEvent {
                        at: heal_at,
                        action: FaultAction::HealRouter(node),
                    },
                ]);
                break;
            }
            let (node, dir) = self.random_link(k);
            if used.contains(&(node, dir)) {
                continue;
            }
            used.push((node, dir));
            schedule = schedule.merged(FaultSchedule::link_flap(node, dir, kill_at, heal_at));
        }

        // Recovery is always armed in generated cases: drain + generous e2e
        // turns every survivable schedule into an exactly-once obligation the
        // oracles can check exactly. (Unarmed accounting is covered by the
        // engine's own test suite and by hand-built cases.)
        let recovery = RecoveryConfig::drain().with_e2e(600, 50);

        ChaosCase {
            scheme,
            k,
            vcs,
            pattern,
            rate,
            cycles,
            seed,
            schedule,
            recovery,
        }
    }
}

// ---------------------------------------------------------------------------
// Delta-debugging minimization
// ---------------------------------------------------------------------------

/// Shrinks a failing case to a fixed point that still fails the *same*
/// oracle: greedy single-event removal (schedule validity pruned first),
/// then rate halving, cycle halving, mesh shrink to 4×4, and VC halving.
/// `max_runs` caps the number of candidate executions.
pub fn minimize(
    case: &ChaosCase,
    kind: FailureKind,
    dump_dir: &Path,
    max_runs: usize,
) -> ChaosCase {
    fn still_fails(
        cand: &ChaosCase,
        kind: FailureKind,
        dump_dir: &Path,
        runs: &mut usize,
        max_runs: usize,
    ) -> bool {
        if *runs >= max_runs {
            return false;
        }
        let cfg = cand.config();
        if cfg.fault.validate(cfg.cols, cfg.rows).is_err() {
            return false;
        }
        *runs += 1;
        matches!(run_case(cand, dump_dir), CaseOutcome::Fail(f) if f.kind == kind)
    }

    let mut best = case.clone();
    let mut runs = 0usize;
    loop {
        let mut improved = false;

        // 1. Drop schedule events one at a time, scanning from the back: in
        // a kill/heal chain only tail removals keep the state machine valid
        // (anything else heals a live link or kills a dead one), so the
        // backward scan peels the whole tail in a single pass. Invalid
        // removals are rejected by validation without costing a run.
        let mut i = best.schedule.events.len();
        while i > 0 {
            i -= 1;
            let mut cand = best.clone();
            cand.schedule.events.remove(i);
            if still_fails(&cand, kind, dump_dir, &mut runs, max_runs) {
                best = cand;
                improved = true;
            }
        }

        // 2. Halve the offered load to its own fixed point, quantized to the
        // row rendering's 6 decimals so the repro round-trips exactly.
        while best.rate > 0.02 {
            let micro = ((best.rate * 1e6).round() as u64) / 2;
            let mut cand = best.clone();
            cand.rate = micro as f64 / 1e6;
            if still_fails(&cand, kind, dump_dir, &mut runs, max_runs) {
                best = cand;
                improved = true;
            } else {
                break;
            }
        }

        // 3. Halve the injection window to its own fixed point (keeping
        // every event inside it with room for the watchdog to trip).
        loop {
            let floor = best.schedule.last_event_cycle().unwrap_or(0)
                + 2 * watchdog::DEFAULT_STUCK_THRESHOLD;
            if best.cycles / 2 < floor.max(2_048) {
                break;
            }
            let mut cand = best.clone();
            cand.cycles /= 2;
            if still_fails(&cand, kind, dump_dir, &mut runs, max_runs) {
                best = cand;
                improved = true;
            } else {
                break;
            }
        }

        // 4. Shrink the mesh (events naming off-mesh nodes fail validation).
        if best.k > 4 {
            let mut cand = best.clone();
            cand.k = 4;
            if still_fails(&cand, kind, dump_dir, &mut runs, max_runs) {
                best = cand;
                improved = true;
            }
        }

        // 5. Halve the VC count (Duato schemes need 2+ VCs to even build).
        let vc_floor = if case.scheme.kind() == SchemeKind::EscapeVc {
            2
        } else {
            1
        };
        if best.vcs / 2 >= vc_floor {
            let mut cand = best.clone();
            cand.vcs /= 2;
            if still_fails(&cand, kind, dump_dir, &mut runs, max_runs) {
                best = cand;
                improved = true;
            }
        }

        if !improved || runs >= max_runs {
            return best;
        }
    }
}

// ---------------------------------------------------------------------------
// Repro files + replay
// ---------------------------------------------------------------------------

/// Renders the deterministic failure signature of (case, failure): the repro
/// row without the digest field. Byte-identical across replays by
/// construction — every field is either case data or a deterministic detail.
fn failure_signature(case: &ChaosCase, f: &Failure) -> String {
    case.fields(JsonObj::new().str_field("schema", REPRO_SCHEMA))
        .str_field("expect_status", f.kind.label())
        .str_field("expect_detail", &f.detail)
        .finish()
}

/// Renders the full one-line repro document: signature fields plus the FNV
/// digest over the signature itself.
pub fn repro_line(case: &ChaosCase, f: &Failure) -> String {
    let digest = fnv1a(failure_signature(case, f).as_bytes());
    case.fields(JsonObj::new().str_field("schema", REPRO_SCHEMA))
        .str_field("expect_status", f.kind.label())
        .str_field("expect_detail", &f.detail)
        .str_field("expect_digest", &format!("{digest:016x}"))
        .finish()
}

/// Re-runs a repro file and checks the failure reproduces **byte-identically**:
/// the file's signature must hash to its recorded digest (integrity), and the
/// fresh run's signature must equal the recorded one exactly.
pub fn replay(path: &Path, dump_dir: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let line = text
        .lines()
        .next()
        .ok_or_else(|| format!("{} is empty", path.display()))?;
    // Accept both sealed (CRC-trailered) and plain repro lines; a sealed
    // line whose CRC fails is corruption, reported as such rather than as
    // a parse error.
    let line = match noc_store::open_line(line) {
        noc_store::LineCheck::Sealed(payload) => payload,
        noc_store::LineCheck::Legacy(l) => l,
        noc_store::LineCheck::Corrupt => {
            return Err(format!(
                "{} failed its CRC check (torn or corrupt record)",
                path.display()
            ))
        }
    };
    let row = jsonio::parse_flat(line)
        .ok_or_else(|| format!("{} is not a flat repro row", path.display()))?;
    let case = ChaosCase::from_row(&row)?;
    let want_status = row
        .get("expect_status")
        .ok_or("repro missing expect_status")?;
    let want_detail = row
        .get("expect_detail")
        .ok_or("repro missing expect_detail")?;
    let want_digest = row
        .get("expect_digest")
        .ok_or("repro missing expect_digest")?;

    // Integrity: the recorded digest must match the recorded fields.
    let recorded = failure_signature(
        &case,
        &Failure {
            kind: kind_from_label(want_status)?,
            detail: want_detail.clone(),
            blackbox: None,
        },
    );
    let recorded_digest = format!("{:016x}", fnv1a(recorded.as_bytes()));
    if &recorded_digest != want_digest {
        return Err(format!(
            "repro file is internally inconsistent: recorded digest {want_digest}, \
             fields hash to {recorded_digest} (file edited?)"
        ));
    }

    match run_case(&case, dump_dir) {
        CaseOutcome::Pass(_) => Err(format!(
            "case no longer fails (expected {want_status}: {want_detail})"
        )),
        CaseOutcome::Saturated(why) => Err(format!(
            "case saturated instead of failing (expected {want_status}: {want_detail}) — {why}"
        )),
        CaseOutcome::Fail(f) => {
            let got = failure_signature(&case, &f);
            if got == recorded {
                Ok(format!(
                    "reproduced byte-identically: {} — {}",
                    f.kind.label(),
                    f.detail
                ))
            } else {
                Err(format!(
                    "failure differs from the recording:\n  recorded: {recorded}\n  replayed: {got}"
                ))
            }
        }
    }
}

fn kind_from_label(label: &str) -> Result<FailureKind, String> {
    for k in [
        FailureKind::Lost,
        FailureKind::Duplicated,
        FailureKind::Wedged,
        FailureKind::DrainStall,
        FailureKind::Abandoned,
        FailureKind::NonDeterministic,
        FailureKind::Panicked,
    ] {
        if k.label() == label {
            return Ok(k);
        }
    }
    Err(format!("unknown failure kind '{label}'"))
}

// ---------------------------------------------------------------------------
// One journaled case
// ---------------------------------------------------------------------------

/// The chaos loop's per-case step: executes one case and journals its one
/// row. `gate` is the case's [`precheck`] verdict (a refusal becomes a
/// `skipped` row); otherwise [`run_case`], and a failure is [`minimize`]d,
/// the minimized case re-run to record *its* exact failure (details shift
/// as a case shrinks), and written atomically as
/// `dump_dir/repro_<key>.json` before the row that names it.
///
/// Returns whether the case failed an oracle once its row is durably in
/// `ckpt`; `None` when the repro or the row did not persist — no row then
/// points at a missing file, and the case re-executes on resume.
pub(crate) fn record_case(
    case: &ChaosCase,
    gate: Result<(), String>,
    ckpt: &Checkpoint,
    dump_dir: &Path,
) -> Option<bool> {
    let base = case.fields(JsonObj::new());
    let (row, failed) = match gate.map(|()| run_case(case, dump_dir)) {
        Err(reason) => (
            base.str_field("status", "skipped")
                .str_field("reason", &reason),
            false,
        ),
        Ok(CaseOutcome::Pass(rep)) => (
            base.str_field("status", "pass")
                .u64_field("delivered", rep.delivered)
                .u64_field("purged_flits", rep.purged_flits)
                .str_field("recert", &rep.recert.join(">"))
                .str_field("digest", &format!("{:016x}", rep.digest)),
            false,
        ),
        Ok(CaseOutcome::Saturated(why)) => (
            base.str_field("status", "saturated")
                .str_field("reason", &why),
            false,
        ),
        Ok(CaseOutcome::Fail(first)) => {
            let small = minimize(case, first.kind, dump_dir, 40);
            let last = match run_case(&small, dump_dir) {
                CaseOutcome::Fail(f) => f,
                // Flaky shrink (should not happen: minimize only accepts
                // reproducing candidates) — keep the original failure.
                CaseOutcome::Pass(_) | CaseOutcome::Saturated(_) => first,
            };
            let repro = dump_dir.join(format!("repro_{}.json", small.key()));
            let line = repro_line(&small, &last) + "\n";
            ckpt.vfs().write_atomic(&repro, line.as_bytes()).ok()?;
            let mut r = base
                .str_field("status", last.kind.label())
                .str_field("reason", &last.detail)
                .str_field("repro", &repro.display().to_string())
                .u64_field("minimized_events", small.schedule.len() as u64);
            if let Some(bb) = &last.blackbox {
                r = r.str_field("blackbox", &bb.display().to_string());
            }
            (r, true)
        }
    };
    ckpt.record(&row.finish()).then_some(failed)
}

// ---------------------------------------------------------------------------
// Acceptance-criteria cases (also used by the quick smoke binary)
// ---------------------------------------------------------------------------

/// The issue's escape-flap acceptance case: a kill+heal flap on an
/// escape-path link of a Duato configuration, e2e recovery armed. Must pass
/// every oracle with a two-epoch recert trace.
pub fn escape_flap_case() -> ChaosCase {
    ChaosCase {
        scheme: Scheme::EscapeVc {
            normal: BaseRouting::AdaptiveMinimal,
        },
        k: 4,
        vcs: 4,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.06,
        cycles: 6_000,
        seed: 21,
        schedule: FaultSchedule::link_flap(NodeId(5), Direction::East, 300, 1_500),
        recovery: RecoveryConfig::drain().with_e2e(800, 50),
    }
}

/// The issue's intentionally-wedged acceptance case: fully-adaptive minimal
/// routing, single VC, recovery unarmed, saturating load — the statically
/// deadlockable configuration the paper motivates SEEC with — plus a
/// deliberately noisy 6-event flap train for the minimizer to strip.
pub fn wedged_adaptive_case() -> ChaosCase {
    ChaosCase {
        scheme: Scheme::Adaptive,
        k: 4,
        vcs: 1,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.30,
        cycles: 12_000,
        seed: 0xA11CE,
        schedule: FaultSchedule::flap_train(NodeId(5), Direction::East, 400, 300, 500, 3),
        recovery: RecoveryConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seec_chaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn cases_round_trip_through_flat_json() {
        for case in [
            escape_flap_case(),
            wedged_adaptive_case(),
            CaseGen::new(7, GenPool::Full).next_case(),
        ] {
            let line = case.fields(JsonObj::new()).finish();
            let row = jsonio::parse_flat(&line).expect("case row must parse");
            let back = ChaosCase::from_row(&row).expect("case must deserialize");
            assert_eq!(
                line,
                back.fields(JsonObj::new()).finish(),
                "round trip must be byte-identical"
            );
            assert_eq!(case.key(), back.key());
        }
    }

    #[test]
    fn generator_is_deterministic_and_structurally_valid() {
        let mut a = CaseGen::new(0xC4A05, GenPool::Full);
        let mut b = CaseGen::new(0xC4A05, GenPool::Full);
        for _ in 0..20 {
            let ca = a.next_case();
            let cb = b.next_case();
            assert_eq!(
                ca.fields(JsonObj::new()).finish(),
                cb.fields(JsonObj::new()).finish()
            );
            let cfg = ca.config();
            cfg.fault
                .validate(cfg.cols, cfg.rows)
                .expect("generated schedule must validate");
            assert!(!ca.schedule.is_empty(), "every case carries a disturbance");
            assert!(
                ca.schedule.last_event_cycle().unwrap() < ca.cycles,
                "schedule must finish inside the injection window"
            );
        }
    }

    #[test]
    fn escape_flap_acceptance_passes_with_full_recert_trace() {
        let dir = tmpdir("escape_flap");
        let case = escape_flap_case();
        precheck(&case).expect("armed escape flap must pass the gate");
        match run_case(&case, &dir) {
            CaseOutcome::Pass(rep) => {
                assert!(rep.delivered > 100, "run too light: {}", rep.delivered);
                // Re-certification at each event: the kill epoch severs the
                // west-first escape path (honestly reported), the heal epoch
                // restores the Duato certificate.
                assert_eq!(rep.recert, vec!["escape-severed", "escape"]);
                assert_eq!(rep.stats.epochs.len(), 2);
                for ep in &rep.stats.epochs {
                    assert!(ep.recert.is_some(), "epoch trace missing recert");
                }
                assert_eq!(rep.stats.e2e_abandoned, 0);
            }
            CaseOutcome::Saturated(why) => panic!("escape flap saturated: {why}"),
            CaseOutcome::Fail(f) => panic!("escape flap failed: {} — {}", f.kind.label(), f.detail),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_labels_are_named_in_from_row_errors() {
        let line = escape_flap_case().fields(JsonObj::new()).finish();
        let row = jsonio::parse_flat(&line).unwrap();
        for (field, value, want) in [
            (
                "scheme",
                "EscVC-bogus",
                "unknown scheme label 'EscVC-bogus'",
            ),
            ("pattern", "spiral", "unknown pattern label 'spiral'"),
            (
                "events",
                "1:kl",
                "bad schedule event '1:kl': too few fields",
            ),
            ("recovery", "re", "bad recovery field 're'"),
        ] {
            let mut bad = row.clone();
            bad.insert(field.into(), value.into());
            assert_eq!(ChaosCase::from_row(&bad).unwrap_err(), want, "{field}");
        }
    }

    #[test]
    fn wedged_adaptive_minimizes_to_two_events_and_replays_byte_identically() {
        let dir = tmpdir("wedge");
        let case = wedged_adaptive_case();
        assert!(
            precheck(&case).is_err(),
            "the wedge case must be exactly what the gate refuses"
        );
        // Forced past the gate: the loop's failure branch, end to end.
        let ckpt = Checkpoint::open(&dir.join("chaos.jsonl")).unwrap();
        assert_eq!(record_case(&case, Ok(()), &ckpt, &dir), Some(true));
        let rows = ckpt.rows();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row["key"], case.key());
        assert_eq!(row["status"], "wedged");
        assert!(
            row.get("blackbox").is_some_and(|p| Path::new(p).is_file()),
            "wedge must leave a black-box dump: {row:?}"
        );
        let events: usize = row["minimized_events"].parse().unwrap();
        assert!(events <= 2, "minimizer left {events} schedule events");

        let repro = PathBuf::from(&row["repro"]);
        let text = std::fs::read_to_string(&repro).expect("repro file exists");
        let small = ChaosCase::from_row(&jsonio::parse_flat(text.trim_end()).unwrap()).unwrap();
        assert_eq!(repro, dir.join(format!("repro_{}.json", small.key())));
        assert_eq!(small.schedule.len(), events);
        assert!(small.cycles <= case.cycles);
        let verdict = replay(&repro, &dir).expect("repro must replay byte-identically");
        assert!(verdict.contains("byte-identically"), "{verdict}");

        // A tampered repro is caught by the integrity hash, not replayed.
        let tampered = std::fs::read_to_string(&repro)
            .unwrap()
            .replace("no progress", "no  progress");
        let bad = dir.join("tampered.json");
        std::fs::write(&bad, tampered).unwrap();
        assert!(replay(&bad, &dir)
            .unwrap_err()
            .contains("internally inconsistent"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_repro_that_fails_to_write_leaves_no_row() {
        let dir = tmpdir("repro_eio");
        // The repro's atomic write is the journal Vfs's first counted op.
        let vfs: std::sync::Arc<dyn noc_store::Vfs> =
            std::sync::Arc::new(noc_store::FaultVfs::new(
                noc_store::FaultPlan::default().with_event(0, noc_store::FaultKind::Eio),
            ));
        let ckpt = Checkpoint::open_with_vfs(&dir.join("chaos.jsonl"), vfs).unwrap();
        let case = wedged_adaptive_case();
        assert_eq!(record_case(&case, Ok(()), &ckpt, &dir), None);
        assert!(ckpt.rows().is_empty(), "no row may name a missing repro");
        assert!(!std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with("repro_")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smoke_soak_is_green_and_logged() {
        let dir = tmpdir("soak");
        let job = crate::job::SimJob::Chaos {
            seed: 0xC4A05,
            cases: 3,
            pool: GenPool::Smoke,
            log: dir.join("chaos.jsonl"),
        };
        let token = rayon::CancelToken::new();
        token.set_deadline(std::time::Instant::now() + std::time::Duration::from_secs(600));
        let report = job
            .run(&crate::job::JobCtx {
                cancel: &token,
                progress: None,
                dump_dir: &dir,
                vfs: None,
            })
            .unwrap();
        assert_eq!(report.done, 3);
        assert_eq!(report.failed, 0, "smoke pool must stay green: {report:?}");
        let rows: Vec<_> = std::fs::read_to_string(dir.join("chaos.jsonl"))
            .unwrap()
            .lines()
            .filter_map(|l| match noc_store::open_line(l) {
                noc_store::LineCheck::Sealed(p) => jsonio::parse_flat(p),
                noc_store::LineCheck::Legacy(_) | noc_store::LineCheck::Corrupt => {
                    panic!("soak rows must be sealed: {l:?}")
                }
            })
            .collect();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r["status"] == "pass" || r["status"] == "skipped", "{r:?}");
        }
        assert!(
            rows.iter().any(|r| r["status"] == "pass"),
            "at least one generated case must actually run: {rows:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
