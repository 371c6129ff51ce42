//! Regenerates Fig 10 (FF share and latency breakdown).
fn main() {
    let quick = noc_experiments::cli::quick("fig10");
    for t in noc_experiments::figs::fig10::run(quick) {
        println!("{t}");
    }
}
