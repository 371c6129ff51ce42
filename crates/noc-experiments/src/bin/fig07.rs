//! Regenerates Fig 7 (router area breakdown).
fn main() {
    noc_experiments::cli::flags("fig07", noc_experiments::cli::args(), &["--threads N"]);
    println!("{}", noc_experiments::figs::fig07::run());
}
