//! Regenerates Fig 8 (latency vs injection rate). Pass `--quick` for a
//! reduced sweep.
fn main() {
    let quick = noc_experiments::cli::quick("fig08");
    for t in noc_experiments::figs::fig08::run(quick) {
        println!("{t}");
    }
}
