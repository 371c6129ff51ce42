//! §4.4.1 ablation: subactive resolution cost below saturation.
fn main() {
    let quick = noc_experiments::cli::quick("ablation");
    println!("{}", noc_experiments::figs::ablation::run(quick));
}
