//! Regenerates Fig 15 (application tail latency).
fn main() {
    let quick = noc_experiments::cli::quick("fig15");
    println!("{}", noc_experiments::figs::fig15::run(quick));
}
