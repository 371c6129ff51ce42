//! Fig 9: saturation throughput for bit-rotation and transpose across mesh
//! sizes and VC counts.

use crate::runner::{Scheme, SynthSpec};
use crate::saturation::{saturation, Saturation};
use crate::table::FigTable;
use noc_traffic::TrafficPattern;

pub fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Xy,
        Scheme::WestFirst,
        Scheme::Spin,
        Scheme::Swap,
        Scheme::Drain,
        Scheme::seec(),
        Scheme::mseec(),
    ]
}

/// One pattern's table: rows = scheme, columns = (mesh, VCs) combinations,
/// cells = `median [min..max]` over the search's seeds.
pub fn panel(pattern: TrafficPattern, quick: bool) -> FigTable {
    let (sizes, vcs_list, cycles): (&[u8], &[u8], u64) = if quick {
        (&[4], &[2], 6_000)
    } else {
        (&[4, 8], &[1, 2, 4], 20_000)
    };
    let meshes: Vec<(u8, u8)> = sizes
        .iter()
        .flat_map(|&k| vcs_list.iter().map(move |&v| (k, v)))
        .collect();
    let mut cols = vec!["scheme".to_string()];
    cols.extend(meshes.iter().map(|(k, v)| format!("{k}x{k}/{v}vc")));
    let colrefs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = FigTable::new(
        format!("Fig 9 — saturation throughput, {}", pattern.label()),
        &colrefs,
    )
    .with_note("paper: mSEEC > SEEC > SWAP/DRAIN > SPIN > WF/XY; decreases with size");
    let list = schemes();
    let points: Vec<SynthSpec> = list
        .iter()
        .flat_map(|&s| {
            meshes
                .iter()
                .map(move |&(k, v)| SynthSpec::new(k, v, s, pattern, 0.0))
        })
        .map(|p| p.with_cycles(cycles))
        .collect();
    let sats = saturation(&points);
    for (s, row) in list.iter().zip(sats.chunks(meshes.len())) {
        let mut cells = vec![s.label()];
        cells.extend(row.iter().map(Saturation::throughput));
        t.push_row(cells);
    }
    t
}

pub fn run(quick: bool) -> Vec<FigTable> {
    [TrafficPattern::BitRotation, TrafficPattern::Transpose]
        .into_iter()
        .map(|p| panel(p, quick))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_produces_positive_saturation() {
        let t = panel(TrafficPattern::Transpose, true);
        assert_eq!(t.rows.len(), schemes().len());
        for row in &t.rows {
            let median: f64 = row[1].split(' ').next().unwrap().parse().unwrap();
            assert!(median > 0.0, "{}: zero saturation", row[0]);
        }
    }
}
