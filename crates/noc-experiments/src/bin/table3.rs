//! Regenerates Table 3's measured counterpart (seek cost scaling).
fn main() {
    let quick = noc_experiments::cli::quick("table3");
    println!("{}", noc_experiments::figs::table3::run(quick));
}
