//! Link / router energy model (Fig 11).
//!
//! Event-based: every counter in [`noc_sim::Stats`] maps to an energy cost
//! proportional to the bits toggled. Fig 11 plots *link* energy (average and
//! peak over any 1000-cycle window) normalized to West-first; the same
//! report also carries buffer energy for completeness.

use noc_sim::stats::{Stats, ACTIVITY_WINDOW};
use noc_types::NetConfig;

/// Energy per bit per link traversal (arbitrary units; only ratios matter).
const E_BIT_LINK: f64 = 1.0;
/// Energy per bit read+written through a VC buffer.
const E_BIT_BUFFER: f64 = 0.6;
/// SPIN probes are short control flits on the data links.
const PROBE_BITS: f64 = 64.0;
/// Seeker side-band width (§3.6: 10–16 bits; we charge the wide end).
const SEEKER_BITS: f64 = 16.0;
/// Lookahead side-band width (§3.6).
const LOOKAHEAD_BITS: f64 = 10.0;

/// Energy totals for one run.
#[derive(Clone, Copy, Debug)]
pub struct EnergyReport {
    /// Total data-link energy over the measurement phase.
    pub link_total: f64,
    /// Mean link energy per cycle.
    pub link_avg_per_cycle: f64,
    /// Peak link energy per cycle over the busiest 1000-cycle window.
    pub link_peak_per_cycle: f64,
    /// Side-band energy (seekers + lookaheads) — SEEC's overhead.
    pub sideband_total: f64,
    /// Buffer read/write energy (TFC bypasses credited).
    pub buffer_total: f64,
    /// Measurement-phase length.
    cycles: f64,
}

impl EnergyReport {
    /// Average link+sideband energy per cycle — what Fig 11 normalizes.
    pub fn avg_metric(&self) -> f64 {
        self.link_avg_per_cycle + self.sideband_per_cycle()
    }

    fn sideband_per_cycle(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.sideband_total / self.cycles
        }
    }
}

/// Builds the energy report for a finished run.
pub fn link_energy(stats: &Stats, cfg: &NetConfig) -> EnergyReport {
    let cycles = stats.end_cycle.saturating_sub(stats.measure_start).max(1) as f64;
    let w = cfg.link_width_bits as f64;
    let link_total =
        stats.link_flit_hops as f64 * w * E_BIT_LINK + stats.probe_hops as f64 * PROBE_BITS;
    let sideband_total =
        stats.sideband_hops as f64 * SEEKER_BITS + stats.lookahead_hops as f64 * LOOKAHEAD_BITS;
    let reads_writes = (stats.buffer_reads + stats.buffer_writes) as f64;
    let bypassed = 2.0 * stats.tfc_bypasses as f64;
    let buffer_total = (reads_writes - bypassed).max(0.0) * w * E_BIT_BUFFER;
    let link_peak_per_cycle =
        stats.peak_window_link_hops as f64 * w * E_BIT_LINK / ACTIVITY_WINDOW as f64;
    EnergyReport {
        link_total,
        link_avg_per_cycle: link_total / cycles,
        link_peak_per_cycle,
        sideband_total,
        buffer_total,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hops: u64, probes: u64, sideband: u64) -> Stats {
        let mut s = Stats::default();
        s.link_flit_hops = hops;
        s.probe_hops = probes;
        s.sideband_hops = sideband;
        s.lookahead_hops = sideband / 4;
        s.measure_start = 0;
        s.end_cycle = 10_000;
        s.peak_window_link_hops = hops / 5;
        s
    }

    fn cfg() -> NetConfig {
        NetConfig::synth(8, 2)
    }

    #[test]
    fn link_energy_scales_with_hops() {
        let a = link_energy(&stats(1000, 0, 0), &cfg());
        let b = link_energy(&stats(2000, 0, 0), &cfg());
        assert!((b.link_total / a.link_total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn probes_cost_half_a_flit() {
        let none = link_energy(&stats(1000, 0, 0), &cfg());
        let some = link_energy(&stats(1000, 1000, 0), &cfg());
        let delta = some.link_total - none.link_total;
        assert!((delta - 64_000.0).abs() < 1e-6);
    }

    #[test]
    fn seeker_sideband_is_cheap() {
        // §4.3: SEEC's overhead hovers below 1% — one seeker hop per cycle
        // against a 128-bit data network with meaningful utilization.
        let s = link_energy(&stats(100_000, 0, 10_000), &cfg());
        let overhead = s.sideband_total / s.link_total;
        assert!(overhead < 0.02, "sideband overhead {overhead}");
    }

    #[test]
    fn tfc_bypasses_reduce_buffer_energy() {
        let mut base = stats(1000, 0, 0);
        base.buffer_reads = 500;
        base.buffer_writes = 500;
        let plain = link_energy(&base, &cfg());
        base.tfc_bypasses = 100;
        let tfc = link_energy(&base, &cfg());
        assert!(tfc.buffer_total < plain.buffer_total);
    }
}
