//! Regenerates Fig 13 (SEEC 2 VCs vs escape VC with more VCs).
fn main() {
    let quick = noc_experiments::cli::quick("fig13");
    println!("{}", noc_experiments::figs::fig13::run(quick));
}
