//! Golden pin for the load-sweep figures: the rendered `--quick` tables of
//! Fig 8 (every panel), Fig 12 (both patterns) and Fig 10a. Each figure's
//! tables are joined as the binary prints them and hashed (FNV-1a) against
//! a value recorded before the sweeps shared one scheduling path. Never
//! regenerate: a mismatch means a figure's numbers, rows or layout moved.
//! The tables print on mismatch.

use noc_experiments::figs::{fig08, fig10, fig12};
use noc_experiments::FigTable;
use noc_types::fault::fnv1a;

const FIG08_FNV: u64 = 0x6204_e0ec_d795_6c4a;
const FIG12_FNV: u64 = 0x2b93_1fb4_f45c_a072;
const FIG10A_FNV: u64 = 0x0f09_e0bf_1634_7ab3;

fn render(tables: &[FigTable]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

#[test]
fn load_sweep_figures_are_pinned() {
    let figures = [
        ("fig08", render(&fig08::run(true)), FIG08_FNV),
        ("fig12", render(&fig12::run(true)), FIG12_FNV),
        ("fig10a", render(&[fig10::panel_a(true)]), FIG10A_FNV),
    ];
    let mut diverged = Vec::new();
    for (name, text, want) in &figures {
        let got = fnv1a(text.as_bytes());
        if got != *want {
            diverged.push(format!(
                "{name}: fnv {got:#018x}, pinned {want:#018x}\n{text}"
            ));
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}
