//! Regenerates Fig 9 (saturation throughput). Pass `--quick` for a reduced
//! sweep, `--threads N` to bound the sweep executor.
fn main() {
    let quick = noc_experiments::cli::quick("fig09");
    for t in noc_experiments::figs::fig09::run(quick) {
        println!("{t}");
    }
}
