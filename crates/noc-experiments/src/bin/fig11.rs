//! Regenerates Fig 11 (link energy, normalized to West-first).
fn main() {
    let quick = noc_experiments::cli::quick("fig11");
    println!("{}", noc_experiments::figs::fig11::run(quick));
}
