//! Load sweeps: the offered-load axis every throughput figure shares.
//! [`rate_table`] tabulates one statistic of a flat scheme × rate sweep
//! (Figs 8, 10a and 12); [`saturation`] searches the saturation throughput
//! of design points (Figs 9 and 13). DESIGN.md §1 (S17) states the knee rule
//! and the search.

use crate::runner::{run_synth, Scheme, SynthSpec};
use crate::table::{fmt_throughput, FigTable};
use noc_sim::Stats;
use rayon::prelude::*;

/// Every knee search runs once per seed (the first is `SynthSpec::new`'s).
const SEEDS: [u64; 3] = [0xA11CE, 0x5EED_0001, 0x5EED_0002];
/// Latency multiple of the zero-load latency that marks the knee.
const KNEE: f64 = 3.0;
/// Fraction of the zero-load acceptance share an unsaturated run keeps.
const SHARE: f64 = 0.85;
/// Bisection stops once the bracket is this fraction of its lower end.
const TOLERANCE: f64 = 0.02;
/// The zero-load rate, where the bracketing scan starts.
const ZERO_LOAD: f64 = 0.02;
/// The scan's step: 0.04 and 0.06 probe as often on 8x8, and 0.06 costs a
/// fifth fewer CPU-seconds on 4x4.
const SCAN_STEP: f64 = 0.06;
/// The scan gives up above this rate and reports the highest rate it found
/// unsaturated.
const SCAN_MAX: f64 = 1.0;

/// Tabulates one statistic of a flat scheme × offered-rate sweep: a row per
/// rate (`inj_rate`, then one cell per scheme, read off the run's stats by
/// `cell`). The |schemes|·|rates| runs share one parallel region.
pub fn rate_table(
    title: String,
    schemes: &[Scheme],
    rates: &[f64],
    spec: impl Fn(Scheme, f64) -> SynthSpec,
    cell: impl Fn(&Stats) -> String + Send + Sync,
) -> FigTable {
    let mut cols = vec!["inj_rate".to_string()];
    cols.extend(schemes.iter().map(|s| s.label()));
    let colrefs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = FigTable::new(title, &colrefs);
    let specs: Vec<SynthSpec> = schemes
        .iter()
        .flat_map(|&s| rates.iter().map(move |&r| (s, r)))
        .map(|(s, r)| spec(s, r))
        .collect();
    let cells: Vec<String> = specs
        .into_par_iter()
        .map(|sp| cell(&run_synth(sp)))
        .collect();
    for (i, &rate) in rates.iter().enumerate() {
        let mut row = vec![format!("{rate:.3}")];
        row.extend(cells.iter().skip(i).step_by(rates.len()).cloned());
        t.push_row(row);
    }
    t
}

/// The bracket-then-bisect knee search over `probe(rate) = (accepted,
/// average latency)`: an ascending scan from the zero-load rate until the
/// first saturated rate, then bisection until `hi − lo ≤ TOLERANCE × lo`.
/// Returns `(offered, accepted)` at the highest rate found unsaturated.
fn search(mut probe: impl FnMut(f64) -> (f64, f64)) -> (f64, f64) {
    let (acc0, lat0) = probe(ZERO_LOAD);
    let share0 = acc0 / ZERO_LOAD;
    let mut lo = (ZERO_LOAD, acc0);
    let mut hi: Option<f64> = None;
    while hi.is_none_or(|hi| hi - lo.0 > TOLERANCE * lo.0) {
        let rate = hi.map_or(lo.0 + SCAN_STEP, |hi| (lo.0 + hi) / 2.0);
        if rate > SCAN_MAX {
            break;
        }
        let (acc, lat) = probe(rate);
        if lat > 0.0 && lat <= KNEE * lat0 && acc >= SHARE * share0 * rate {
            lo = (rate, acc);
        } else {
            hi = Some(rate);
        }
    }
    lo
}

/// A design point's knee under each seed: the run at the highest offered
/// rate found unsaturated, and the rate it accepted.
#[derive(Clone, Debug)]
pub struct Saturation {
    knees: Vec<(SynthSpec, f64)>,
}

impl Saturation {
    /// The saturation throughput, `median [min..max]` over the seeds.
    pub fn throughput(&self) -> String {
        spread(self.knees.iter().map(|k| k.1).collect())
    }
}

/// Searches the saturation throughput of each design point (the search
/// sets `rate` and `seed`). The |points|·|seeds| searches share one
/// parallel region; each runs its probes in sequence.
pub fn saturation(points: &[SynthSpec]) -> Vec<Saturation> {
    let searches: Vec<SynthSpec> = points
        .iter()
        .flat_map(|&p| SEEDS.map(|seed| SynthSpec { seed, ..p }))
        .collect();
    let knees: Vec<(SynthSpec, f64)> = searches
        .into_par_iter()
        .map(|spec| {
            let (rate, accepted) = search(|rate| accepted_and_latency(SynthSpec { rate, ..spec }));
            (SynthSpec { rate, ..spec }, accepted)
        })
        .collect();
    knees
        .chunks(SEEDS.len())
        .map(|k| Saturation { knees: k.to_vec() })
        .collect()
}

/// The accepted throughput of each design point when every seed is offered
/// twice its own knee, `median [min..max]`: what still gets through once
/// the network is past saturation.
pub fn past_knee(sats: &[Saturation]) -> Vec<String> {
    let runs: Vec<SynthSpec> = sats
        .iter()
        .flat_map(|s| &s.knees)
        .map(|&(knee, _)| SynthSpec {
            rate: 2.0 * knee.rate,
            ..knee
        })
        .collect();
    let accepted: Vec<f64> = runs
        .into_par_iter()
        .map(|spec| accepted_and_latency(spec).0)
        .collect();
    accepted
        .chunks(SEEDS.len())
        .map(|a| spread(a.to_vec()))
        .collect()
}

fn accepted_and_latency(spec: SynthSpec) -> (f64, f64) {
    let s = run_synth(spec);
    let nodes = spec.k as usize * spec.k as usize;
    (s.throughput(nodes), s.avg_total_latency())
}

/// `median [min..max]` of per-seed values (no comma, so CSV-safe).
fn spread(mut v: Vec<f64>) -> String {
    v.sort_by(f64::total_cmp);
    let [lo, mid, hi] = [v[0], v[v.len() / 2], v[v.len() - 1]].map(fmt_throughput);
    format!("{mid} [{lo}..{hi}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic network that keeps `share` of the offered load and a flat
    /// latency up to `knee`, then stops accepting more and queues without
    /// bound.
    fn curve(knee: f64, share: f64) -> impl FnMut(f64) -> (f64, f64) {
        move |r| {
            if r <= knee {
                (share * r, 20.0)
            } else {
                (share * knee, 900.0)
            }
        }
    }

    #[test]
    fn knee_is_found_within_the_tolerance() {
        let (offered, accepted) = search(curve(0.087, 1.0));
        assert!(offered <= 0.087, "{offered} is past the knee");
        assert!((accepted - 0.087).abs() <= TOLERANCE * 0.087, "{accepted}");
    }

    #[test]
    fn knees_ten_percent_apart_print_different_values() {
        let cell = |knee: f64| spread(vec![search(curve(knee, 1.0)).1; SEEDS.len()]);
        assert_ne!(cell(0.087), cell(0.087 * 1.1));
    }

    #[test]
    fn a_pattern_with_silent_nodes_still_has_a_knee() {
        // Transpose on 4x4: 4 of 16 nodes never inject, so at most 0.75 of
        // the offered load is accepted at any rate.
        let (offered, accepted) = search(curve(0.074, 0.75));
        assert!((offered - 0.074).abs() <= TOLERANCE * 0.074, "{offered}");
        assert!((accepted - 0.75 * offered).abs() < 1e-12);
    }

    #[test]
    fn latency_past_three_times_zero_load_is_saturated() {
        // Full acceptance, but latency climbs linearly: 3x the zero-load 10
        // cycles is reached at 0.14.
        let (offered, _) = search(|r| (r, 10.0 + (r - ZERO_LOAD) * 2_000.0 / 12.0));
        assert!((offered - 0.14).abs() <= TOLERANCE * 0.14, "{offered}");
    }

    #[test]
    fn spread_prints_median_and_range_without_commas() {
        assert_eq!(spread(vec![0.3, 0.1, 0.2]), "0.2000 [0.1000..0.3000]");
    }
}
