//! Regenerates Fig 12 (routing-algorithm comparison).
fn main() {
    let quick = noc_experiments::cli::quick("fig12");
    for t in noc_experiments::figs::fig12::run(quick) {
        println!("{t}");
    }
}
