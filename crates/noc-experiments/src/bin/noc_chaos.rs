//! `noc-chaos`: time-boxed differential chaos soak over randomized fault
//! schedules, with delta-debugged repros.
//!
//! ```text
//! noc_chaos [--budget 300s] [--seed N] [--cases N] [--out DIR] [--full]
//! noc_chaos --quick              # deterministic smoke set (CI, every push)
//! noc_chaos --replay FILE.json   # re-run a minimized repro byte-for-byte
//! ```
//!
//! The soak is the chaos job (`SimJob::Chaos`) under a `--budget`
//! deadline: cases come from one seed, and each appends one row to
//! `<out>/chaos.jsonl`, a checkpoint keyed by case. Re-running into the
//! same `--out` resumes — recorded cases are skipped, never re-appended.
//! `--quick` defaults the seed, the smoke pool and 8 cases; an explicit
//! `--seed` or `--cases` still wins, and `--full` contradicts it (exit 2).
//!
//! The summary tallies every row of the log. Exit status is 0 when no row
//! failed an oracle (skipped cases — refused by the certification gate or
//! saturated — do not fail the run), 1 when any did or a replay did not
//! reproduce, 2 on bad flags. Failures leave a minimized
//! `repro_<key>.json` and, for wedges, a `blackbox_<key>.json` next to the
//! log.

use noc_experiments::chaos::{replay, GenPool};
use noc_experiments::{cli, Checkpoint, JobCtx, JobError, SimJob};
use rayon::{CancelReason, CancelToken};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parses `300`, `300s`, or `5m` into a duration.
fn parse_budget(s: &str) -> Result<Duration, String> {
    let (num, mult) = match s.strip_suffix('m') {
        Some(n) => (n, 60),
        None => (s.strip_suffix('s').unwrap_or(s), 1),
    };
    num.parse::<u64>()
        .map(|n| Duration::from_secs(n * mult))
        .map_err(|_| format!("bad --budget '{s}' (want e.g. 300s or 5m)"))
}

const NAME: &str = "noc_chaos";

fn main() {
    let accepted = [
        "--budget 300s",
        "--seed N",
        "--cases N",
        "--out DIR",
        "--quick",
        "--full",
        "--replay FILE",
        "--threads N",
        "--help",
    ];
    let given = cli::flags(NAME, cli::args(), &accepted);
    if given.contains_key("--help") {
        println!("{}", cli::usage(NAME, &accepted));
        return;
    }
    let number = |flag: &str| -> Option<u64> {
        let bad = |s: &String| format!("bad value for {flag}: '{s}'");
        let parse = |s: &String| {
            s.parse()
                .unwrap_or_else(|_| cli::refuse(NAME, &accepted, &bad(s)))
        };
        given.get(flag).map(parse)
    };
    let seed = number("--seed");
    let max_cases = number("--cases").map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let budget = given
        .get("--budget")
        .map_or(Ok(Duration::from_secs(300)), |b| parse_budget(b));
    let budget = budget.unwrap_or_else(|e| cli::refuse(NAME, &accepted, &e));
    let out_dir = PathBuf::from(given.get("--out").map_or("target/chaos", String::as_str));
    let replay_path = given.get("--replay").map(PathBuf::from);
    let (quick, full) = (given.contains_key("--quick"), given.contains_key("--full"));

    if quick && full {
        eprintln!("--quick runs the smoke pool; it cannot be combined with --full");
        std::process::exit(2);
    }

    if let Some(path) = replay_path {
        match replay(&path, &out_dir) {
            Ok(msg) => println!("replay {}: {msg}", path.display()),
            Err(e) => {
                eprintln!("replay {}: FAILED — {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

    // `--quick` is the deterministic smoke set: fixed seed, mechanism-free
    // pool, 8 cases. Running it twice must produce identical logs.
    let seed = seed.unwrap_or(if quick { 0x5EEC_0001 } else { 0x5EEC_C4A0 });
    let pool = if quick { GenPool::Smoke } else { GenPool::Full };
    let log = out_dir.join("chaos.jsonl");
    let job = SimJob::Chaos {
        seed,
        cases: max_cases.or(quick.then_some(8)).unwrap_or(usize::MAX),
        pool,
        log: log.clone(),
    };
    let token = CancelToken::new();
    if let Some(at) = Instant::now().checked_add(budget) {
        token.set_deadline(at);
    }
    let ctx = JobCtx {
        cancel: &token,
        progress: None,
        dump_dir: &out_dir,
        vfs: None,
    };
    match job.run(&ctx) {
        // The budget running out is how a time-boxed soak ends.
        Ok(_) | Err(JobError::Interrupted(CancelReason::DeadlineExceeded)) => {}
        Err(e) => {
            eprintln!("soak failed: {e}");
            std::process::exit(1);
        }
    }

    let rows = match Checkpoint::open(&log) {
        Ok(ckpt) => ckpt.rows(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", log.display());
            std::process::exit(1);
        }
    };
    let count = |status: &str| {
        let is = |r: &&BTreeMap<String, String>| r.get("status").is_some_and(|s| s == status);
        rows.iter().filter(is).count()
    };
    let passed = count("pass");
    let skipped = count("skipped") + count("saturated");
    let failed = rows.len() - passed - skipped;
    println!(
        "noc-chaos: {} cases — {passed} passed, {skipped} skipped, {failed} failed \
         (seed {seed:#x}, log {})",
        rows.len(),
        log.display(),
    );
    for repro in rows.iter().filter_map(|r| r.get("repro")) {
        println!("  minimized repro: {repro}");
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
