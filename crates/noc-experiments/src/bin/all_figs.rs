//! Regenerates every table and figure (EXPERIMENTS.md source). Pass
//! `--quick` for reduced sweeps, `--threads N` to bound the sweep executor
//! (default: `NOC_THREADS` or all cores) and `--csv <dir>` to also dump
//! each table as CSV. Cheap artifacts print first; each fig-8 panel prints
//! as soon as it is computed; progress marks go to stderr. Any other
//! argument exits 2 before anything runs.

use noc_experiments::figs;
use noc_experiments::FigTable;
use noc_traffic::TrafficPattern;
use std::io::Write;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let accepted = ["--quick", "--csv DIR", "--threads N"];
    let flags = noc_experiments::cli::flags("all_figs", noc_experiments::cli::args(), &accepted);
    let quick = flags.contains_key("--quick");
    let emit = |t: FigTable| {
        println!("{t}");
        std::io::stdout().flush().ok();
        if let Some(dir) = flags.get("--csv") {
            match t.save_csv(dir) {
                Ok(p) => eprintln!("wrote {p}"),
                Err(e) => eprintln!("csv error: {e}"),
            }
        }
    };
    let mark = |name: &str| eprintln!("[{:>7.1}s] start {name}", t0.elapsed().as_secs_f64());

    // Cheap, single-table artifacts first.
    mark("fig07");
    emit(figs::fig07::run());
    mark("table1");
    emit(figs::table1::run(quick));
    mark("table3");
    emit(figs::table3::run(quick));
    mark("footnote4");
    emit(figs::footnote4::run(quick));
    mark("ablation");
    emit(figs::ablation::run(quick));
    mark("fig11");
    emit(figs::fig11::run(quick));
    mark("fig10");
    for t in figs::fig10::run(quick) {
        emit(t);
    }
    mark("fig13");
    emit(figs::fig13::run(quick));
    mark("fig12");
    for t in figs::fig12::run(quick) {
        emit(t);
    }
    mark("fig09");
    for t in figs::fig09::run(quick) {
        emit(t);
    }
    mark("fig14");
    for t in figs::fig14::run(quick) {
        emit(t);
    }
    mark("fig15");
    emit(figs::fig15::run(quick));

    // Fig 8 last: the heaviest sweep, one panel at a time.
    let sizes: &[u8] = if quick { &[4] } else { &[4, 8] };
    for &k in sizes {
        for pattern in TrafficPattern::PAPER {
            mark(&format!("fig08 {} {k}x{k}", pattern.label()));
            emit(figs::fig08::panel(pattern, k, quick));
        }
    }
    if !quick {
        mark("fig08 uniform_random 16x16");
        emit(figs::fig08::panel(TrafficPattern::UniformRandom, 16, false));
    }
    mark("done");
}
