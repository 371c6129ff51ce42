//! Everything the program under test is fed, generated from `--seed`.
//! Sizes are fixed per workload (see the README for why each was chosen);
//! `--quick` shrinks them for the manifest test and is not a measurement.

use noc_experiments::runner::{Scheme, SynthSpec};
use noc_experiments::sweep::FaultPoint;
use noc_traffic::TrafficPattern;
use noc_types::{FaultConfig, RecoveryConfig};

use crate::stats::derive_seed;

pub const WORKLOADS: [&str; 5] = [
    "engine-base",
    "engine-knee",
    "engine-sat",
    "sweep-grid",
    "serve-jobs",
];

/// Input sizes. `full()` is the benchmark; `quick()` only proves the
/// harness end to end.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub engine_cycles: u64,
    pub sweep_cycles: u64,
    pub sweep_patterns: usize,
    pub sweep_seeds: u64,
    /// Untimed warm-up jobs of `serve-jobs`, per client.
    pub warm_jobs: u64,
    /// Cycles per point of the per-scheme engine probe.
    pub probe_cycles: u64,
    /// Rows per `noc-store` probe.
    pub probe_rows: usize,
    /// Requests per HTTP probe.
    pub probe_requests: usize,
    /// Jobs per client of the serve probe session.
    pub probe_jobs: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            engine_cycles: 20_000,
            sweep_cycles: 6_000,
            sweep_patterns: 4,
            sweep_seeds: 3,
            warm_jobs: 5,
            probe_cycles: 4_000,
            probe_rows: 1_000,
            probe_requests: 25,
            probe_jobs: 8,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            engine_cycles: 600,
            sweep_cycles: 400,
            sweep_patterns: 1,
            sweep_seeds: 1,
            warm_jobs: 1,
            probe_cycles: 300,
            probe_rows: 50,
            probe_requests: 3,
            probe_jobs: 1,
        }
    }
}

/// One engine design point and the request id its spans carry.
pub struct EnginePoint {
    pub key: String,
    pub spec: SynthSpec,
}

fn engine_point(stream: &str, index: u64, seed: u64, mut spec: SynthSpec) -> EnginePoint {
    spec.seed = derive_seed(seed, stream, index);
    EnginePoint {
        key: format!(
            "{}/{}@{:.2}",
            spec.scheme.label(),
            spec.pattern.label(),
            spec.rate
        ),
        spec,
    }
}

/// The statically routed schemes (`NoMechanism` path) and the four whose
/// mechanism touches credits every cycle.
pub const BASE_SCHEMES: [Scheme; 3] = [
    Scheme::Xy,
    Scheme::WestFirst,
    Scheme::EscapeVc {
        normal: noc_types::BaseRouting::AdaptiveMinimal,
    },
];
pub const MECH_SCHEMES: [Scheme; 4] = [
    Scheme::Seec {
        routing: noc_types::BaseRouting::AdaptiveMinimal,
    },
    Scheme::MSeec {
        routing: noc_types::BaseRouting::AdaptiveMinimal,
    },
    Scheme::Spin,
    Scheme::Drain,
];

/// `engine-*`: 8x8 mesh, 2 VCs. Pre-knee rates for `base` and `knee`;
/// `sat` is past the knee (`uniform_random` deadlocks, transpose saturates
/// but flows).
pub fn engine_points(workload: &str, seed: u64, scale: &Scale) -> Vec<EnginePoint> {
    let (schemes, rates): (&[Scheme], [f64; 2]) = match workload {
        "engine-base" => (&BASE_SCHEMES, [0.07, 0.09]),
        "engine-knee" => (&MECH_SCHEMES, [0.07, 0.09]),
        "engine-sat" => (&MECH_SCHEMES, [0.10, 0.13]),
        other => unreachable!("not an engine workload: {other}"),
    };
    let patterns = [TrafficPattern::UniformRandom, TrafficPattern::Transpose];
    let mut points = Vec::new();
    for &scheme in schemes {
        for (pattern, rate) in patterns.into_iter().zip(rates) {
            let spec = SynthSpec::new(8, 2, scheme, pattern, rate).with_cycles(scale.engine_cycles);
            points.push(engine_point(workload, points.len() as u64, seed, spec));
        }
    }
    points
}

/// The per-scheme engine probe: every scheme of the three engine
/// workloads once, pre-knee `uniform_random`, short.
pub fn probe_engine_points(seed: u64, scale: &Scale) -> Vec<EnginePoint> {
    BASE_SCHEMES
        .iter()
        .chain(&MECH_SCHEMES)
        .enumerate()
        .map(|(i, &scheme)| {
            let spec = SynthSpec::new(8, 2, scheme, TrafficPattern::UniformRandom, 0.07)
                .with_cycles(scale.probe_cycles);
            engine_point("probe-engine", i as u64, seed, spec)
        })
        .collect()
}

/// `sweep-grid`: fig08's `--quick` panel shape (4x4, 4 VCs, 6,000 cycles,
/// rates 0.03..0.12) over six schemes, the paper's four patterns and three
/// seeds: 288 short points.
pub fn sweep_points(seed: u64, scale: &Scale) -> Vec<FaultPoint> {
    let schemes = [
        Scheme::Xy,
        Scheme::escape(),
        Scheme::Spin,
        Scheme::Drain,
        Scheme::seec(),
        Scheme::mseec(),
    ];
    let mut points = Vec::new();
    for scheme in schemes {
        for &pattern in &TrafficPattern::PAPER[..scale.sweep_patterns] {
            for rate in [0.03, 0.06, 0.09, 0.12] {
                for s in 0..scale.sweep_seeds {
                    points.push(FaultPoint {
                        series: "bench11",
                        scheme,
                        k: 4,
                        vcs: 4,
                        pattern,
                        rate,
                        cycles: scale.sweep_cycles,
                        seed: derive_seed(seed, "sweep-grid", s),
                        fault: FaultConfig::transient(0.0),
                        recovery: RecoveryConfig::default(),
                    });
                }
            }
        }
    }
    points
}

/// The sweep probes' sub-grid: the first pattern and seed of the grid.
pub fn probe_sweep_points(seed: u64, scale: &Scale) -> Vec<FaultPoint> {
    let first = derive_seed(seed, "sweep-grid", 0);
    sweep_points(seed, scale)
        .into_iter()
        .filter(|p| p.pattern == TrafficPattern::PAPER[0] && p.seed == first)
        .collect()
}

/// Simulated cycles of one `serve-jobs` job point; two points per job.
pub const JOB_CYCLES: u64 = 500;
pub const JOB_POINTS: u64 = 2;
pub const JOB_NODES: u64 = 16;

/// The `index`-th job spec of a stream: ~3 ms of simulation, unique by
/// seed so every submission is a new content address.
pub fn job_spec(seed: u64, stream: &str, index: u64) -> String {
    format!(
        "{{\"kind\": \"sweep\", \"schemes\": \"SEEC,mSEEC\", \"transients\": \"0.0\", \
         \"k\": \"4\", \"vcs\": \"2\", \"cycles\": \"{JOB_CYCLES}\", \"rate\": \"0.10\", \
         \"seed\": \"{}\"}}",
        derive_seed(seed, stream, index)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes_are_the_documented_ones() {
        let s = Scale::full();
        assert_eq!(engine_points("engine-base", 11, &s).len(), 6);
        assert_eq!(engine_points("engine-knee", 11, &s).len(), 8);
        assert_eq!(engine_points("engine-sat", 11, &s).len(), 8);
        assert_eq!(sweep_points(11, &s).len(), 288);
        assert_eq!(probe_sweep_points(11, &s).len(), 24);
        assert_eq!(probe_engine_points(11, &s).len(), 7);
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        let s = Scale::full();
        let keys =
            |seed| -> Vec<String> { sweep_points(seed, &s).iter().map(FaultPoint::key).collect() };
        assert_eq!(keys(11), keys(11));
        assert_ne!(keys(11), keys(12));
        assert_eq!(job_spec(11, "job", 3), job_spec(11, "job", 3));
        assert_ne!(job_spec(11, "job", 3), job_spec(11, "job", 4));
        let a = engine_points("engine-knee", 11, &s);
        let b = engine_points("engine-sat", 11, &s);
        assert_ne!(a[0].spec.seed, b[0].spec.seed);
        assert_eq!(a[0].key, "SEEC/uniform_random@0.07");
    }

    #[test]
    fn job_specs_parse_into_two_tiny_points() {
        let row = noc_experiments::jsonio::parse_flat(&job_spec(11, "job", 0)).expect("flat");
        let spec = noc_serve::JobSpec::parse(&row).expect("valid spec");
        let points = spec.points();
        assert_eq!(points.len() as u64, JOB_POINTS);
        assert!(points
            .iter()
            .all(|p| p.cycles == JOB_CYCLES && u64::from(p.k) * u64::from(p.k) == JOB_NODES));
    }
}
