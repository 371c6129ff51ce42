//! Reproduces footnote 4: TFC's bypass gain vs router pipeline depth.
fn main() {
    let quick = noc_experiments::cli::quick("footnote4");
    println!("{}", noc_experiments::figs::footnote4::run(quick));
}
