//! Fig 10: (a) share of packets delivered via Free Flow as load rises;
//! (b) latency breakdown of FF vs regular packets (queued, buffered and
//! bufferless time).

use crate::runner::{run_synth, Scheme, SynthSpec};
use crate::saturation::rate_table;
use crate::table::{fmt_latency, fmt_ratio, FigTable};
use noc_traffic::TrafficPattern;

/// Panel (a): FF fraction vs injection rate, SEEC and mSEEC, UR on 8×8.
pub fn panel_a(quick: bool) -> FigTable {
    let (k, rates, cycles): (u8, Vec<f64>, u64) = if quick {
        (4, vec![0.05, 0.15, 0.30], 6_000)
    } else {
        (8, (1..=8).map(|i| i as f64 * 0.05).collect(), 20_000)
    };
    rate_table(
        format!("Fig 10a — fraction of received packets that used FF (uniform random, {k}x{k})"),
        &[Scheme::seec(), Scheme::mseec()],
        &rates,
        |s, r| SynthSpec::new(k, 4, s, TrafficPattern::UniformRandom, r).with_cycles(cycles),
        |s| fmt_ratio(s.ff_fraction()),
    )
    .with_note("paper: → ~100% for SEEC post-saturation, ~50% for mSEEC")
}

/// Panel (b): the latency split of FF packets (source queue, buffered,
/// bufferless) and the regular packets' network latency, at low and high
/// load, averaged over every post-warm-up delivery (DESIGN §6 item 7).
pub fn panel_b(quick: bool) -> FigTable {
    let (k, cycles) = if quick { (4, 6_000) } else { (8, 30_000) };
    let loads = [("low", 0.05), ("high", 0.14)];
    let mut t = FigTable::new(
        format!("Fig 10b — latency breakdown, SEEC, uniform random, {k}x{k}"),
        &[
            "load",
            "ff_queued",
            "ff_buffered",
            "ff_bufferless",
            "ff_total",
            "regular_total",
        ],
    )
    .with_note("paper: FF packets are *slower* overall (they were the blocked ones); bufferless part small");
    for (name, rate) in loads {
        let s = run_synth(
            SynthSpec::new(k, 4, Scheme::seec(), TrafficPattern::UniformRandom, rate)
                .with_cycles(cycles),
        );
        // A sum over no deliveries is 0, so the mean is 0 too.
        let mean = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
        let ff = [s.sum_ff_queued, s.sum_ff_buffered, s.sum_ff_bufferless]
            .map(|sum| mean(sum, s.ff_packets_all));
        let regular = s.ejected_packets_all - s.ff_packets_all;
        let mut row = vec![name.to_string()];
        row.extend(ff.map(fmt_latency));
        row.push(fmt_latency(ff.iter().sum()));
        row.push(fmt_latency(mean(s.sum_regular_latency, regular)));
        t.push_row(row);
    }
    t
}

pub fn run(quick: bool) -> Vec<FigTable> {
    vec![panel_a(quick), panel_b(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ff_fraction_grows_with_load() {
        let t = panel_a(true);
        let lo: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let hi: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        assert!(
            hi >= lo,
            "FF fraction should not shrink with load: {lo} → {hi}"
        );
        assert!(hi > 0.0, "no FF at high load?");
    }

    #[test]
    fn breakdown_rows_have_consistent_totals() {
        let t = panel_b(true);
        for row in &t.rows {
            let part = |i: usize| row[i].parse::<f64>().unwrap();
            assert!(
                (part(1) + part(2) + part(3) - part(4)).abs() < 0.2,
                "{row:?}"
            );
            assert!(part(4) > 0.0, "{row:?}: no FF delivery");
        }
    }
}
