//! The remaining heavy artifacts, bounded: Figs 14, 15, and the core Fig 8
//! panels. Emits in the same format as `all_figs` (appendable to its output).

use noc_experiments::figs;
use noc_traffic::TrafficPattern;
use std::io::Write;

fn main() {
    noc_experiments::cli::flags("finals", noc_experiments::cli::args(), &["--threads N"]);
    let emit = |t: noc_experiments::FigTable| {
        println!("{t}");
        std::io::stdout().flush().ok();
    };
    eprintln!("fig14...");
    for t in figs::fig14::run(false) {
        emit(t);
    }
    eprintln!("fig15...");
    emit(figs::fig15::run(false));
    for pattern in TrafficPattern::PAPER {
        eprintln!("fig08 {} 4x4...", pattern.label());
        emit(figs::fig08::panel(pattern, 4, false));
    }
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
        eprintln!("fig08 {} 8x8...", pattern.label());
        emit(figs::fig08::panel(pattern, 8, false));
    }
    eprintln!("finals done");
}
