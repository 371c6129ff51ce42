//! Shared command-line handling for the experiment binaries.

use std::path::{Path, PathBuf};
use std::process::exit;

use crate::site_sweep::SiteSweepReport;
use crate::sweep::{run_sweep_keyed, Checkpoint, FaultPoint, RowsByKey};
use crate::table::FigTable;

/// Reads the process arguments (program name dropped), applies the
/// `--threads N` / `--threads=N` flag to the sweep executor, and returns
/// the remaining arguments for the binary's own flags.
///
/// Thread-count precedence (documented, never silent):
///
/// 1. `--threads N` on the command line wins;
/// 2. otherwise the `NOC_THREADS` environment variable;
/// 3. otherwise one thread per available core.
///
/// The environment value is validated *eagerly* here, even when `--threads`
/// overrides it: `NOC_THREADS=0` or a non-numeric value is a configuration
/// error and aborts with exit status 2 rather than being silently replaced
/// by a default. When both knobs are set and disagree, a note is printed so
/// the override is visible. `--threads 1` forces strictly sequential sweeps.
/// Results are identical for any thread count — the executor only changes
/// wall-clock time.
/// Batch-width precedence (documented, never silent), mirroring the thread
/// knob:
///
/// 1. an explicit width passed to `run_sweep_with_width` wins;
/// 2. otherwise the `NOC_BATCH_WIDTH` environment variable;
/// 3. otherwise the default width (4 lanes).
///
/// Like `NOC_THREADS`, the variable is validated *eagerly* on startup:
/// `NOC_BATCH_WIDTH=0` or a non-numeric value aborts with exit status 2
/// instead of silently falling back to the default mid-run. Results are
/// identical for any width — batching only changes wall-clock time.
///
/// The fault knobs are validated the same way (see [`validate_env`]).
pub fn args() -> Vec<String> {
    let env = validate_env().threads;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let n = if a == "--threads" {
            argv.next()
        } else {
            a.strip_prefix("--threads=").map(str::to_string)
        };
        match n {
            Some(n) => match n.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    if let Some(env_n) = env {
                        if env_n != n {
                            eprintln!("note: --threads {n} overrides NOC_THREADS={env_n}");
                        }
                    }
                    rayon::set_num_threads(n);
                }
                _ => {
                    eprintln!("--threads expects a positive integer, got {n:?}");
                    exit(2);
                }
            },
            None => rest.push(a),
        }
    }
    rest
}

/// What [`validate_env`] read from the two tuning knobs (`None`: unset).
pub struct EnvKnobs {
    /// `NOC_THREADS`.
    pub threads: Option<usize>,
    /// `NOC_BATCH_WIDTH`.
    pub batch_width: Option<usize>,
}

/// The single eager gate on the environment, for every binary: garbage in
/// `NOC_THREADS`, `NOC_BATCH_WIDTH`, `NOC_VFS_FAULT_SCHEDULE` /
/// `NOC_VFS_FAULT_SEED` or `NOC_NET_FAULT_SCHEDULE` / `NOC_NET_FAULT_SEED`
/// prints the error and exits with status 2 before any file or socket is
/// opened — never a silent fallback to a default or to a fault-free layer
/// (a soak that silently stopped injecting would report vacuous green).
/// All six are checked even by binaries that never touch a layer: a
/// typo'd knob should fail loudly, not be ignored by the one binary that
/// happens not to read it. Unset means default / no fault injection.
pub fn validate_env() -> EnvKnobs {
    fn check() -> Result<EnvKnobs, String> {
        let knobs = EnvKnobs {
            threads: rayon::env_threads()?,
            batch_width: crate::sweep::env_batch_width()?,
        };
        noc_store::FaultPlan::from_process_env()?;
        noc_net::NetFaultPlan::from_process_env()?;
        Ok(knobs)
    }
    check().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    })
}

/// The body of the `fault_sweep` / `recovery_sweep` binaries, which differ
/// only in their `points` and the `tables` they render from the rows:
///
/// ```text
/// <name> [--quick] [--ckpt <path>] [--max-points <N>] [--threads <N>]
/// ```
///
/// Completed datapoints append to the checkpoint (default
/// `results/<name>[_quick].ckpt.jsonl`); re-running with the same
/// checkpoint executes only the missing points. `--max-points` caps how
/// many missing points this invocation runs — CI uses it to simulate an
/// interrupted sweep, then resumes and diffs against an uninterrupted run.
pub fn sweep_main(
    name: &str,
    points: fn(bool) -> Vec<FaultPoint>,
    tables: fn(&[FaultPoint], &RowsByKey) -> Vec<FigTable>,
) {
    let mut quick = false;
    let mut ckpt_path: Option<PathBuf> = None;
    let mut max_points: Option<usize> = None;
    let mut it = args().into_iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str, inline: Option<String>| {
            inline.or_else(|| it.next()).unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                exit(2);
            })
        };
        if a == "--quick" {
            quick = true;
        } else if a == "--ckpt" || a.starts_with("--ckpt=") {
            let v = value("--ckpt", a.strip_prefix("--ckpt=").map(str::to_string));
            ckpt_path = Some(PathBuf::from(v));
        } else if a == "--max-points" || a.starts_with("--max-points=") {
            let v = value(
                "--max-points",
                a.strip_prefix("--max-points=").map(str::to_string),
            );
            match v.parse::<usize>() {
                Ok(n) => max_points = Some(n),
                Err(_) => {
                    eprintln!("--max-points expects a non-negative integer, got {v:?}");
                    exit(2);
                }
            }
        } else {
            eprintln!("unknown argument {a:?}");
            eprintln!("usage: {name} [--quick] [--ckpt <path>] [--max-points <N>] [--threads <N>]");
            exit(2);
        }
    }
    let path = ckpt_path.unwrap_or_else(|| {
        let quick = if quick { "_quick" } else { "" };
        PathBuf::from(format!("results/{name}{quick}.ckpt.jsonl"))
    });
    let ckpt = match Checkpoint::open(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open checkpoint {}: {e}", path.display());
            exit(1);
        }
    };
    let pts = points(quick);
    let (rows, outcome) = run_sweep_keyed(&pts, &ckpt, max_points);
    for t in &tables(&pts, &rows) {
        println!("{t}");
        if let Ok(csv) = t.save_csv("results/csv") {
            println!("wrote {csv}");
        }
    }
    println!(
        "sweep: {} executed, {} resumed from checkpoint, {} deferred, {} failed ({})",
        outcome.executed,
        outcome.resumed,
        outcome.deferred,
        outcome.failed,
        ckpt.path().display()
    );
    if outcome.deferred > 0 {
        println!("re-run without --max-points to execute the remaining points");
    }
}

/// The body of the `storage_chaos` / `network_chaos` soak binaries:
///
/// ```text
/// <name> [--out DIR] [--max-sites N]
/// ```
///
/// `args` are the binary's own arguments, the environment already through
/// [`validate_env`]. `run(out_dir, max_sites)` is the soak (default output
/// directory `target/<name>`; `--max-sites` time-boxes the sweep for CI);
/// `summary` words what it counted. Exit status 0 when every combination
/// matched the reference, 1 when any diverged (each leaves a repro file
/// naming the exact schedule to replay) or the harness failed, 2 on bad
/// flags.
pub fn soak_main(
    name: &str,
    args: &[String],
    run: impl FnOnce(&Path, Option<u64>) -> std::io::Result<SiteSweepReport>,
    summary: impl FnOnce(&SiteSweepReport) -> String,
) {
    let mut out_dir = PathBuf::from(format!("target/{name}"));
    let mut max_sites: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(val("--out")),
            "--max-sites" => {
                max_sites = Some(val("--max-sites").parse().unwrap_or_else(|_| {
                    eprintln!("bad value for --max-sites");
                    exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: {name} [--out DIR] [--max-sites N]");
                return;
            }
            other => {
                eprintln!("unknown flag '{other}' (see --help)");
                exit(2);
            }
        }
    }

    let label = name.replace('_', "-");
    let report = match run(&out_dir, max_sites) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{label}: harness error: {e}");
            exit(1);
        }
    };
    println!(
        "{label}: {}, {} divergence(s) — report {}",
        summary(&report),
        report.divergences.len(),
        out_dir.join(format!("{name}.json")).display(),
    );
    for d in &report.divergences {
        let side = if d.side.is_empty() {
            String::new()
        } else {
            format!(" on the {} side", d.side)
        };
        eprintln!(
            "  DIVERGED{side} at op {} ({}=\"{}\"): {}",
            d.site, report.env, d.schedule, d.detail
        );
    }
    if !report.all_match() {
        exit(1);
    }
}
