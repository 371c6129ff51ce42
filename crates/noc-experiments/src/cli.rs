//! Shared command-line handling for the experiment binaries.

use std::collections::BTreeMap;
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
///
/// `NOC_BATCH_WIDTH` (precedence in [`crate::sweep::env_batch_width`]) and
/// the fault knobs are validated the same way (see [`validate_env`]).
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

/// The one reader of the experiment binaries' own flags (what is left
/// after [`args`], or any other argument list). `accepted` lists every flag
/// the binary documents: a bare name (`--quick`) or a name and its value
/// (`--ckpt PATH`, also given as `--ckpt=PATH`). Returns the flags given,
/// each with its value (empty for a bare flag). Anything else — an unknown
/// argument, a missing value, a value that is itself a flag — prints the
/// reason and the [`usage`] line and exits 2 before any work, so a typo'd
/// `--quick` never starts a full sweep.
pub fn flags(
    name: &str,
    args: impl IntoIterator<Item = String>,
    accepted: &[&str],
) -> BTreeMap<String, String> {
    let mut given = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (a.as_str(), None),
        };
        let Some(spec) = accepted.iter().find(|s| s.split(' ').next() == Some(flag)) else {
            refuse(name, accepted, &format!("unknown argument {a:?}"));
        };
        let value = if spec.contains(' ') {
            let value = inline
                .or_else(|| it.next())
                .filter(|v| !v.starts_with("--"));
            value.unwrap_or_else(|| refuse(name, accepted, &format!("{flag} requires a value")))
        } else if inline.is_some() {
            refuse(name, accepted, &format!("{flag} takes no value"));
        } else {
            String::new()
        };
        given.insert(flag.to_string(), value);
    }
    given
}

/// `usage: <name> [<flag>]...` for the `accepted` list of [`flags`].
pub fn usage(name: &str, accepted: &[&str]) -> String {
    let list: String = accepted.iter().map(|f| format!(" [{f}]")).collect();
    format!("usage: {name}{list}")
}

/// Prints why the arguments were refused and the usage line; exits 2.
pub fn refuse(name: &str, accepted: &[&str], why: &str) -> ! {
    eprintln!("{why}\n{}", usage(name, accepted));
    exit(2)
}

/// The flags of the table binaries that take only `--quick` (the reduced
/// sweeps) and `--threads N`, through [`flags`]: whether `--quick` was given.
pub fn quick(name: &str) -> bool {
    flags(name, args(), &["--quick", "--threads N"]).contains_key("--quick")
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
/// <name> [--quick] [--ckpt PATH] [--max-points N] [--threads N]
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
    let accepted = ["--quick", "--ckpt PATH", "--max-points N", "--threads N"];
    let given = flags(name, args(), &accepted);
    let quick = given.contains_key("--quick");
    let max_points = given.get("--max-points").map(|n| {
        let why = format!("--max-points expects a non-negative integer, got {n:?}");
        n.parse::<usize>()
            .unwrap_or_else(|_| refuse(name, &accepted, &why))
    });
    let path = given.get("--ckpt").map_or_else(
        || {
            let quick = if quick { "_quick" } else { "" };
            PathBuf::from(format!("results/{name}{quick}.ckpt.jsonl"))
        },
        PathBuf::from,
    );
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
    let accepted = ["--out DIR", "--max-sites N", "--help"];
    let given = flags(name, args.iter().cloned(), &accepted);
    if given.contains_key("--help") {
        println!("{}", usage(name, &accepted));
        return;
    }
    let out_dir = given
        .get("--out")
        .map_or_else(|| format!("target/{name}"), String::clone);
    let out_dir = PathBuf::from(out_dir);
    let max_sites = given.get("--max-sites").map(|n| {
        n.parse::<u64>()
            .unwrap_or_else(|_| refuse(name, &accepted, "bad value for --max-sites"))
    });

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
