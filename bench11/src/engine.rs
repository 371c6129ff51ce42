//! `engine-base`, `engine-knee`, `engine-sat`: `run_synth`, one thread,
//! and the per-scheme engine probe.

use std::collections::BTreeMap;
use std::time::Instant;

use noc_experiments::runner::{run_synth, SynthSpec};
use noc_sim::{Sim, Stats};
use noc_traffic::SyntheticWorkload;
use noc_types::{NetConfig, SchemeKind};

use crate::inputs::{engine_points, probe_engine_points, EnginePoint};
use crate::metrics::{Outcome, Value};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeat_for, Run};

fn node_cycles(spec: &SynthSpec) -> f64 {
    f64::from(spec.k) * f64::from(spec.k) * spec.cycles as f64
}

fn stats_digest(stats: &Stats) -> u64 {
    noc_store::fnv1a(format!("{stats:?}").as_bytes())
}

fn configure(spec: &SynthSpec) -> NetConfig {
    spec.scheme
        .configure(NetConfig::synth(spec.k, spec.vcs))
        .with_seed(spec.seed)
}

fn build(spec: &SynthSpec, cfg: NetConfig) -> Sim {
    let wl = SyntheticWorkload::new(
        spec.pattern,
        spec.rate,
        cfg.cols,
        cfg.rows,
        cfg.warmup,
        spec.seed,
    );
    let mech = spec.scheme.mechanism(&cfg);
    Sim::new(cfg, Box::new(wl), mech)
}

/// The public calls `run_synth` makes, one span each. Returns the stats
/// and the cycles the engine skipped (telemetry `run_synth` does not
/// return).
fn run_decomposed(p: &EnginePoint, tracer: &Tracer) -> (Stats, u64) {
    let spec = &p.spec;
    tracer.span("point", None, &p.key, |root| {
        let cfg = configure(spec);
        if matches!(
            spec.scheme.kind(),
            SchemeKind::None | SchemeKind::EscapeVc | SchemeKind::Tfc
        ) {
            let certified = tracer.span("noc-verify.certify", Some(root), &p.key, |_| {
                noc_verify::certify(&cfg).certified()
            });
            assert!(certified, "uncertified benchmark point {}", p.key);
        }
        let mut sim = tracer.span("noc-sim.build", Some(root), &p.key, |_| build(spec, cfg));
        tracer.span("noc-sim.run", Some(root), &p.key, |_| sim.run(spec.cycles));
        let stats = tracer.span("noc-sim.finish", Some(root), &p.key, |_| {
            sim.finish().clone()
        });
        (stats, sim.skipped_cycles)
    })
}

struct Pass {
    wall_s: f64,
    point_s: Vec<f64>,
    digest: u64,
    stats: Vec<Stats>,
    skipped: u64,
}

/// Every point once, in order. A panicking point is a failed operation.
fn pass(points: &[EnginePoint], tracer: Option<&Tracer>, out: &mut Outcome) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        point_s: Vec::new(),
        digest: 0,
        stats: Vec::new(),
        skipped: 0,
    };
    let mut digests = Vec::new();
    for point in points {
        out.attempted += 1;
        let t0 = Instant::now();
        let ran = rayon::catch_panic(|| match tracer {
            Some(t) => run_decomposed(point, t),
            None => (run_synth(point.spec), 0),
        });
        let dt = t0.elapsed().as_secs_f64();
        match ran {
            Ok((stats, skipped)) => {
                digests.extend(stats_digest(&stats).to_le_bytes());
                p.stats.push(stats);
                p.skipped += skipped;
            }
            Err(why) => out.fail(format!("point {} panicked: {why}", point.key)),
        }
        p.point_s.push(dt);
        p.wall_s += dt;
    }
    p.digest = noc_store::fnv1a(&digests);
    p
}

/// Millions of simulated node-cycles per host second over `idx`'s points,
/// given each point's wall seconds.
fn speed(points: &[EnginePoint], point_s: &[f64], idx: &[usize]) -> f64 {
    let work: f64 = idx.iter().map(|&i| node_cycles(&points[i].spec)).sum();
    let wall: f64 = idx.iter().map(|&i| point_s[i]).sum();
    work / wall / 1e6
}

pub fn run(workload: &'static str, run: &Run, out: &mut Outcome) {
    let points = engine_points(workload, run.seed, &run.scale);
    let all: Vec<usize> = (0..points.len()).collect();
    let tracer = Tracer::new();

    // Untimed warm-up pass: the reference every later pass must repeat.
    // In a traced run it goes through the decomposed calls, so the timed
    // `run_synth` passes also prove the two agree.
    let warm = pass(&points, run.trace.then_some(&tracer), out);
    out.sim_digest = warm.digest;
    let setup_s = run.started.elapsed().as_secs_f64();

    // Per pass, each point's wall seconds.
    let mut plain: Vec<Vec<f64>> = Vec::new();
    let mut traced: Vec<Vec<f64>> = Vec::new();
    repeat_for(run.seconds, run.trace, |with_trace| {
        let p = pass(&points, with_trace.then_some(&tracer), out);
        out.check(p.digest == warm.digest, || {
            format!(
                "pass digest {:016x} differs from the warm-up pass {:016x}",
                p.digest, warm.digest
            )
        });
        if with_trace { &mut traced } else { &mut plain }.push(p.point_s);
        p.wall_s
    });

    // The typical pass: every point at its median time over the passes.
    // A disturbance shorter than a pass then costs one sample of one
    // point, not a whole pass out of the four or five a run has room for.
    let typical = |passes: &[Vec<f64>]| -> Vec<f64> {
        (0..points.len())
            .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<f64>>()))
            .collect()
    };
    let point_s = typical(&plain);
    let pass_s: f64 = point_s.iter().sum();
    // The value is the typical pass's; the quartiles, the spread `compare`
    // reads, are those of the whole passes.
    let with_pass_spread = |typical: f64, per_pass: Vec<f64>| Value {
        value: Some(typical),
        ..Value::median_of(&per_pass)
    };
    if run.trace {
        out.set(
            "bench.trace_overhead_pct",
            Value::one((typical(&traced).iter().sum::<f64>() / pass_s - 1.0) * 100.0),
        );
        let sum = |f: fn(&Stats) -> u64| Value::one(warm.stats.iter().map(f).sum::<u64>() as f64);
        out.set("noc-sim.ejected_packets", sum(|s| s.ejected_packets));
        out.set("noc-sim.link_flit_hops", sum(|s| s.link_flit_hops));
        out.set("noc-sim.sum_total_latency", sum(|s| s.sum_total_latency));
        out.set("noc-sim.skipped_cycles", Value::one(warm.skipped as f64));
        out.set("seec.ff_packets", sum(|s| s.ff_packets));
        out.set("seec.sideband_hops", sum(|s| s.sideband_hops));
        out.set("noc-baselines.probe_hops", sum(|s| s.probe_hops));
        out.set("noc-baselines.forced_moves", sum(|s| s.forced_moves));
    } else {
        out.set("setup_s", Value::one(setup_s));
        out.set(
            "sim_mnode_cycles_per_s",
            with_pass_spread(
                speed(&points, &point_s, &all),
                plain.iter().map(|p| speed(&points, p, &all)).collect(),
            ),
        );
        out.set(
            "turnaround_p50_ms",
            with_pass_spread(
                pass_s * 1e3,
                plain.iter().map(|p| p.iter().sum::<f64>() * 1e3).collect(),
            ),
        );
        out.set("peak_rss_mb", Value::one(crate::peak_rss_mb("self")));
    }

    // This workload's own view: speed per scheme, host time per simulated
    // event, and the share of deliveries the mechanism made.
    let mut by_scheme: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        by_scheme.entry(p.spec.scheme.label()).or_default().push(i);
    }
    for (scheme, idx) in &by_scheme {
        out.note(
            &format!("{scheme}.mnode_cycles_per_s"),
            Value::one(speed(&points, &point_s, idx)),
            "Mnode-cycles/s",
        );
    }
    let hops: u64 = warm.stats.iter().map(|s| s.link_flit_hops).sum();
    let ejected: u64 = warm.stats.iter().map(|s| s.ejected_packets_all).sum();
    let ff: u64 = warm.stats.iter().map(|s| s.ff_packets_all).sum();
    if hops > 0 {
        out.note(
            "ns_per_flit_hop",
            Value::one(pass_s * 1e9 / hops as f64),
            "ns",
        );
    }
    if ejected > 0 {
        out.note(
            "ff_share_pct",
            Value::one(ff as f64 * 100.0 / ejected as f64),
            "%",
        );
    }
    out.spans = tracer.into_spans();
}

/// Per-scheme engine speed in isolation: each of the seven schemes once,
/// pre-knee, best of two short runs; plus construction cost.
pub fn probe(run: &Run, out: &mut Outcome) {
    let points = probe_engine_points(run.seed, &run.scale);
    let names = [
        "noc-sim.xy.mnode_cycles_per_s",
        "noc-sim.wf.mnode_cycles_per_s",
        "noc-sim.escvc.mnode_cycles_per_s",
        "seec.seec.mnode_cycles_per_s",
        "seec.mseec.mnode_cycles_per_s",
        "noc-baselines.spin.mnode_cycles_per_s",
        "noc-baselines.drain.mnode_cycles_per_s",
    ];
    let (mut wall_ns, mut hops) = (0.0, 0u64);
    for (point, name) in points.iter().zip(names) {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            let stats = std::hint::black_box(run_synth(point.spec));
            let dt = t0.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
            }
            wall_ns += dt * 1e9;
            hops += stats.link_flit_hops;
        }
        out.set(name, Value::one(node_cycles(&point.spec) / best / 1e6));
    }
    out.set(
        "noc-sim.ns_per_flit_hop",
        Value::one(wall_ns / hops.max(1) as f64),
    );

    let mut build_us = Vec::new();
    for _ in 0..5 {
        for point in &points {
            let cfg = configure(&point.spec);
            let t0 = Instant::now();
            std::hint::black_box(build(&point.spec, cfg));
            build_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.set("noc-sim.build_us", Value::median_of(&build_us));
}
