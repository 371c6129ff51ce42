//! The bench11 command line.
//!
//! ```text
//! bench11 --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! bench11 [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! bench11 compare A/report.json B/report.json
//! ```
//!
//! The first form runs one workload and prints, as its last line, the
//! result object of the benchmark contract. The second runs every
//! workload, each in a process of its own, and writes `report.json`.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use bench11::inputs::{Scale, WORKLOADS};
use bench11::{nproc, report, run_one, Run, DEFAULT_SEED, ENV_KNOBS, RUN_SECONDS};

fn usage(why: &str) -> ! {
    eprintln!(
        "bench11: {why}\n\
         usage: bench11 [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n\
         \x20      bench11 compare A/report.json B/report.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    exit(2);
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            usage("compare takes two report.json paths");
        };
        match report::compare(a, b) {
            Ok(true) => exit(0),
            Ok(false) => exit(1),
            Err(why) => usage(&why),
        }
    }

    let mut workload: Option<&'static str> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match WORKLOADS.iter().find(|w| *w == val) {
                Some(w) => workload = Some(w),
                None => usage(&format!("unknown workload {val:?}")),
            },
            "--seed" => match val.parse() {
                Ok(n) => seed = n,
                Err(_) => usage(&format!("--seed {val:?} is not an unsigned integer")),
            },
            "--seconds" => match val.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 60.0 => seconds = s,
                _ => usage(&format!("--seconds {val:?} is not in (0, 60]")),
            },
            "--trace" => match val.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => usage(&format!("--trace {val:?} is not 0 or 1")),
            },
            "--out" => out = Some(PathBuf::from(val)),
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    // The environment must not change what is measured.
    for knob in ENV_KNOBS {
        if std::env::var_os(knob).is_some() {
            usage(&format!("{knob} is set; unset it to run the benchmark"));
        }
    }

    // bench11 and noc_serve are built into one target directory.
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("binary lives in a directory");
    let out = out.unwrap_or_else(|| bin_dir.join("../bench11"));
    std::fs::create_dir_all(&out).expect("create --out");
    let run = Run {
        seed,
        seconds,
        trace,
        quick,
        scale: if quick { Scale::quick() } else { Scale::full() },
        threads: nproc().min(2),
        out: out.canonicalize().expect("resolve --out"),
        serve_bin: bin_dir.join("noc_serve"),
        started,
    };
    match workload {
        Some(w) => exit(i32::from(!run_one(w, &run))),
        None => exit(i32::from(!report::run_all(&run))),
    }
}
