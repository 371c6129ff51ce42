//! bench11: one layered benchmark of the simulator, the sweep runner and
//! the job service. See `README.md` beside this crate for the glossary of
//! workloads and metrics; `BENCHMARK.json` at the repository root is the
//! manifest `tests/manifest.rs` holds this crate to.

#![forbid(unsafe_code)]

mod engine;
pub mod inputs;
pub mod metrics;
mod probes;
pub mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use inputs::Scale;
use metrics::{Outcome, Value, END_TO_END, PER_LAYER};
use noc_experiments::jsonio::JsonObj;

/// Environment knobs that change what the program under test does. Set
/// for the harness they are an error; the `noc_serve` child never sees
/// them.
pub const ENV_KNOBS: [&str; 8] = [
    "NOC_THREADS",
    "NOC_BATCH_WIDTH",
    "NOC_VFS_FAULT_SCHEDULE",
    "NOC_VFS_FAULT_SEED",
    "NOC_NET_FAULT_SCHEDULE",
    "NOC_NET_FAULT_SEED",
    "NOC_ALLOW_UNVERIFIED",
    "NOC_SWEEP_PANIC_KEY",
];

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;
pub const DEFAULT_SEED: u64 = 11;

/// Everything a workload run is parameterised by.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrunken inputs: proves the harness, measures nothing.
    pub quick: bool,
    pub scale: Scale,
    /// Load-generating threads and sweep threads: `min(2, nproc)`.
    pub threads: usize,
    pub out: PathBuf,
    pub serve_bin: PathBuf,
    /// Process start, for `setup_s`.
    pub started: Instant,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A scratch directory under `--out`, removed on drop — also when a check
/// failed or a panic is unwinding.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(root: &Path, tag: &str) -> TempDir {
        let dir = root.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Calls `pass(traced)` — it returns its own wall seconds — until the
/// next pass would overrun `seconds`, and at least twice. A traced run
/// alternates plain and traced passes, at least two of each, so the
/// tracing overhead is read off pairs made under the same conditions.
pub fn repeat_for(seconds: f64, trace: bool, mut pass: impl FnMut(bool) -> f64) {
    let t0 = Instant::now();
    let least = if trace { 4 } else { 2 };
    let mut longest = 0.0_f64;
    for n in 0.. {
        longest = longest.max(pass(trace && n % 2 == 1));
        if n + 1 >= least && t0.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB. 0 where `/proc` does not say.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts read off the workload's own warm-up pass. A workload whose
/// public boundary does not expose one (result rows carry only
/// `ejected_packets`) reports it as 0.
pub const BODY_COUNTS: [&str; 8] = [
    "noc-sim.ejected_packets",
    "noc-sim.link_flit_hops",
    "noc-sim.sum_total_latency",
    "noc-sim.skipped_cycles",
    "seec.ff_packets",
    "seec.sideband_hops",
    "noc-baselines.probe_hops",
    "noc-baselines.forced_moves",
];

pub fn run_one(workload: &'static str, run: &Run) -> bool {
    let mut out = Outcome::default();
    match workload {
        "sweep-grid" => sweep::run(run, &mut out),
        "serve-jobs" => serve::run(run, &mut out),
        engine => engine::run(engine, run, &mut out),
    }
    let defs: &[metrics::MetricDef] = if run.trace {
        let spans = std::mem::take(&mut out.spans);
        std::fs::write(
            report::trace_file(&run.out, workload),
            trace::render(workload, &spans),
        )
        .expect("write trace.json");
        for (name, (n, _, own)) in trace::summary(&spans) {
            out.note(
                &format!("self_ms.{name}"),
                Value {
                    n: n as usize,
                    ..Value::one(own)
                },
                "ms",
            );
        }
        probes::run(run, &mut out);
        for name in BODY_COUNTS {
            out.metrics.entry(name).or_insert(Value::one(0.0));
        }
        out.set(
            "bench.sim_digest48",
            Value::one((out.sim_digest & 0xffff_ffff_ffff) as f64),
        );
        &PER_LAYER
    } else {
        &END_TO_END
    };
    // A value may be `null` (no second core to measure a ratio on), but
    // every name must have been reported.
    for def in defs {
        out.check(out.metrics.contains_key(def.name), || {
            format!("{} was not measured", def.name)
        });
    }
    out.attempted = out.attempted.max(1);
    out.print(workload, defs);
    let head = JsonObj::new()
        .str_field("workload", workload)
        .u64_field("seed", run.seed)
        .raw_field("seconds", &run.seconds.to_string())
        .raw_field("trace", &run.trace.to_string())
        .raw_field("quick", &run.quick.to_string())
        .u64_field("threads", run.threads as u64)
        .u64_field("nproc", nproc() as u64);
    std::fs::write(
        report::result_file(&run.out, workload, run.trace),
        out.render_file(head, defs),
    )
    .expect("write result file");
    println!("{}", out.result_line(defs));
    out.correct()
}
