//! Regenerates the measured counterpart of Table 1.
fn main() {
    let quick = noc_experiments::cli::quick("table1");
    println!("{}", noc_experiments::figs::table1::run(quick));
}
