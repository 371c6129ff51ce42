//! Fig 13: SEEC/mSEEC with 2 VCs versus escape VC with growing VC counts —
//! FF paths emulate extra VCs without paying for them.

use crate::runner::{Scheme, SynthSpec};
use crate::saturation::{past_knee, saturation};
use crate::table::FigTable;
use noc_traffic::TrafficPattern;

/// Rows: escape VC at 2/4/8/12 VCs, SEEC and mSEEC at 2 VCs. Columns, per
/// pattern: the saturation throughput, then the throughput still accepted
/// at twice the knee (`@2x`). Cells are `median [min..max]` over the seeds.
pub fn run(quick: bool) -> FigTable {
    let (k, cycles) = if quick { (4u8, 6_000u64) } else { (8, 20_000) };
    let patterns = [TrafficPattern::UniformRandom, TrafficPattern::Transpose];
    let esc_vcs: &[u8] = if quick { &[2, 4] } else { &[2, 4, 8, 12] };
    let mut variants: Vec<(String, Scheme, u8)> = esc_vcs
        .iter()
        .map(|&v| (format!("eVC-{v}vc"), Scheme::escape(), v))
        .collect();
    variants.push(("SEEC-2vc".into(), Scheme::seec(), 2));
    variants.push(("mSEEC-2vc".into(), Scheme::mseec(), 2));

    let mut cols = vec!["variant".to_string()];
    for p in &patterns {
        cols.push(p.label().to_string());
        cols.push(format!("{}@2x", p.label()));
    }
    let colrefs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = FigTable::new(
        format!("Fig 13 — saturation throughput: SEEC/mSEEC (2 VCs) vs escape VC with more VCs ({k}x{k})"),
        &colrefs,
    )
    .with_note("paper: escape VC needs 8+ VCs to match/beat SEEC & mSEEC at 2");
    let points: Vec<SynthSpec> = variants
        .iter()
        .flat_map(|&(_, scheme, vcs)| {
            patterns
                .iter()
                .map(move |&p| SynthSpec::new(k, vcs, scheme, p, 0.0).with_cycles(cycles))
        })
        .collect();
    let sats = saturation(&points);
    let cells: Vec<String> = sats
        .iter()
        .zip(past_knee(&sats))
        .flat_map(|(sat, past)| [sat.throughput(), past])
        .collect();
    for ((label, _, _), row) in variants.into_iter().zip(cells.chunks(cols.len() - 1)) {
        let mut row = row.to_vec();
        row.insert(0, label);
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_vc_improves_with_more_vcs() {
        let t = run(true);
        let median = |cell: &str| cell.split(' ').next().unwrap().parse::<f64>().unwrap();
        let evc2 = median(&t.rows[0][1]);
        let evc4 = median(&t.rows[1][1]);
        assert!(
            evc4 >= 0.9 * evc2,
            "more VCs should not hurt escape VC: {evc2} → {evc4}"
        );
    }
}
