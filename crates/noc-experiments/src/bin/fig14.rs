//! Regenerates Fig 14 (application latency and runtime).
fn main() {
    let quick = noc_experiments::cli::quick("fig14");
    for t in noc_experiments::figs::fig14::run(quick) {
        println!("{t}");
    }
}
