//! Exhaustive bounded model checking of the deadlock-freedom matrix, and
//! the differential cross-check against the CDG certifier.
//!
//! ```text
//! model_check                       # the scheme matrix on small meshes
//! model_check --differential        # cross-certify against noc-verify
//! model_check --scheme adaptive --trace   # print the witness trace
//! model_check --mesh 3x3 --scheme xy --inflight 2
//! ```
//!
//! Exit status is nonzero on any expectation mismatch or differential
//! disagreement, so CI can gate on it directly.

use noc_experiments::cli;
use noc_model::{check, ModelConfig, Scheme, Verdict};

const NAME: &str = "model_check";

const ACCEPTED: [&str; 8] = [
    "--differential",
    "--scheme NAME",
    "--mesh CxR",
    "--vcs N",
    "--inflight N",
    "--trace",
    "--no-symmetry",
    "--threads N",
];

fn main() {
    let given = cli::flags(NAME, cli::args(), &ACCEPTED);
    let refuse = |why: &str| -> ! { cli::refuse(NAME, &ACCEPTED, why) };
    let count = |flag: &str, v: &str| -> u8 {
        v.parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| refuse(&format!("bad value for {flag}: '{v}'")))
    };
    let symmetry = !given.contains_key("--no-symmetry");
    let want_trace = given.contains_key("--trace");

    if given.contains_key("--differential") {
        std::process::exit(run_differential());
    }

    let Some(name) = given.get("--scheme") else {
        if let Some(flag) = ["--mesh", "--vcs", "--inflight"]
            .into_iter()
            .find(|f| given.contains_key(*f))
        {
            refuse(&format!("{flag} applies only with --scheme"));
        }
        std::process::exit(run_matrix(symmetry, want_trace));
    };
    let Some(scheme) = Scheme::parse(name) else {
        refuse(&format!("unknown scheme: {name}"));
    };
    let mut cfg = ModelConfig::small(scheme);
    cfg.symmetry = symmetry;
    if let Some(mesh) = given.get("--mesh") {
        let Some((c, r)) = mesh.split_once('x') else {
            refuse(&format!("--mesh takes CxR, e.g. 3x3, not '{mesh}'"));
        };
        cfg.cols = count("--mesh", c);
        cfg.rows = count("--mesh", r);
    }
    if let Some(v) = given.get("--vcs") {
        cfg.vcs = count("--vcs", v);
    }
    if let Some(p) = given.get("--inflight") {
        cfg.max_inflight = count("--inflight", p);
    }
    let r = check(&cfg);
    println!("{}", r.summary());
    if want_trace {
        if let Verdict::DeadlockReachable { trace } = &r.verdict {
            println!("witness trace:\n{}", trace.render());
        }
    }
}

/// Every scheme in the matrix against its expected small-mesh verdict.
fn run_matrix(symmetry: bool, want_trace: bool) -> i32 {
    println!("== bounded model checking: scheme matrix ==");
    let mut failures = 0;
    for (scheme, expect_free) in Scheme::MATRIX {
        let mut cfg = ModelConfig::small(scheme);
        cfg.symmetry = symmetry;
        let r = check(&cfg);
        let ok = matches!(r.verdict, Verdict::DeadlockFree) == expect_free
            && !matches!(r.verdict, Verdict::LivelockSuspect { .. });
        println!("{} {}", if ok { "ok  " } else { "FAIL" }, r.summary());
        if let (true, Verdict::DeadlockReachable { trace }) = (want_trace, &r.verdict) {
            println!("{}", trace.render());
        }
        if !ok {
            failures += 1;
        }
    }
    // The lasso detector must itself be validated: RandomWalk livelocks.
    let mut rw = ModelConfig::small(Scheme::RandomWalk);
    rw.symmetry = symmetry;
    rw.max_inflight = 1;
    let r = check(&rw);
    let ok = matches!(r.verdict, Verdict::LivelockSuspect { .. });
    println!("{} {}", if ok { "ok  " } else { "FAIL" }, r.summary());
    if !ok {
        failures += 1;
    }
    println!(
        "{}",
        if failures == 0 {
            "all verdicts match expectations".to_string()
        } else {
            format!("{failures} verdict(s) off expectation")
        }
    );
    i32::from(failures != 0)
}

/// Cross-certification against the CDG certifier's shared matrix.
fn run_differential() -> i32 {
    println!("== differential: model checker vs CDG certifier ==");
    let report = noc_model::run_differential();
    for row in &report.rows {
        let verdicts = format!(
            "cdg={} model={:?}",
            if row.cdg_certified {
                "certified"
            } else {
                "deadlockable"
            },
            row.reach
        );
        match &row.disagreement {
            None => println!(
                "ok    {:<10} {:<40} ({} states)",
                row.scheme.label(),
                verdicts,
                row.states
            ),
            Some(why) => println!("SPLIT {:<10} {verdicts}\n      {why}", row.scheme.label()),
        }
    }
    let n = report.disagreements();
    println!(
        "{}",
        if n == 0 {
            "analyzers agree on every configuration".to_string()
        } else {
            format!("{n} disagreement(s)")
        }
    );
    i32::from(n != 0)
}
