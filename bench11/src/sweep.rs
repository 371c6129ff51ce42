//! `sweep-grid`: the checkpointed sweep runner on a real-disk journal, and
//! the runner probes (batch width, per-point overhead, resume, threads).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use noc_experiments::runner::{run_synth, SynthSpec};
use noc_experiments::sweep::{
    run_sweep_ctx, run_sweep_with_width, Checkpoint, FaultPoint, SweepCtx, SweepProgress,
};

use crate::inputs::{probe_sweep_points, sweep_points};
use crate::metrics::{Outcome, Value};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeat_for, Run, TempDir};

/// The lockstep width the figure binaries and the service default to.
const WIDTH: usize = 4;

fn node_cycles(points: &[FaultPoint]) -> f64 {
    points
        .iter()
        .map(|p| f64::from(p.k) * f64::from(p.k) * p.cycles as f64)
        .sum()
}

/// FNV-1a over the result rows, sorted: journal order is completion
/// order, which threads decide; the set of rows is what must repeat.
pub fn rows_digest(rows: &[BTreeMap<String, String>]) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|(k, v)| format!("{k}={v}\x1f"))
                .collect::<String>()
        })
        .collect();
    lines.sort_unstable();
    noc_store::fnv1a(lines.join("\n").as_bytes())
}

struct Pass {
    wall_s: f64,
    rows: Vec<BTreeMap<String, String>>,
}

/// `Checkpoint::open` → run → `rows()` on a fresh journal under `dir`.
/// Traced, the same calls go through `run_sweep_ctx` so each recorded row
/// leaves a count event.
fn pass(
    points: &[FaultPoint],
    dir: &Path,
    width: usize,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let journal = dir.join("grid.ckpt.jsonl");
    let dumps = dir.join("dumps");
    out.attempted += points.len() as u64;
    let t0 = Instant::now();
    let (outcome, rows) = match tracer {
        None => {
            let ckpt = Checkpoint::open(&journal).expect("open a fresh journal");
            let outcome = run_sweep_with_width(points, &ckpt, None, &dumps, width);
            (outcome, ckpt.rows())
        }
        Some(t) => t.span("sweep.pass", None, "grid", |root| {
            let ckpt = t.span("sweep.ckpt_open", Some(root), "grid", |_| {
                Checkpoint::open(&journal).expect("open a fresh journal")
            });
            let outcome = t.span("sweep.run", Some(root), "grid", |run| {
                let cancel = rayon::CancelToken::new();
                let progress = |p: SweepProgress| {
                    t.count("sweep.row", Some(run), &format!("row-{}", p.done));
                };
                let ctx = SweepCtx {
                    cancel: &cancel,
                    progress: Some(&progress),
                };
                run_sweep_ctx(points, &ckpt, None, &dumps, width, Some(&ctx))
            });
            let rows = t.span("sweep.rows_read", Some(root), "grid", |_| ckpt.rows());
            (outcome, rows)
        }),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    out.check(
        outcome.executed == points.len() && rows.len() == points.len(),
        || {
            format!(
                "sweep recorded {} of {} points ({} rows read back)",
                outcome.executed,
                points.len(),
                rows.len()
            )
        },
    );
    for row in rows.iter().filter(|r| {
        !matches!(
            r.get("status").map(String::as_str),
            Some("ok" | "recovered")
        )
    }) {
        out.fail(format!("sweep row not ok: {row:?}"));
    }
    Pass { wall_s, rows }
}

fn sum_field(rows: &[BTreeMap<String, String>], field: &str) -> f64 {
    rows.iter()
        .filter_map(|r| r.get(field)?.parse::<f64>().ok())
        .sum()
}

pub fn run(run: &Run, out: &mut Outcome) {
    let points = sweep_points(run.seed, &run.scale);
    let work = node_cycles(&points);
    let tmp = TempDir::new(&run.out, "sweep");
    let tracer = Tracer::new();
    rayon::set_num_threads(run.threads);

    let warm = pass(&points, tmp.path(), WIDTH, None, out);
    let reference = rows_digest(&warm.rows);
    out.sim_digest = reference;
    let setup_s = run.started.elapsed().as_secs_f64();

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    repeat_for(run.seconds, run.trace, |with_trace| {
        let p = pass(
            &points,
            tmp.path(),
            WIDTH,
            with_trace.then_some(&tracer),
            out,
        );
        let digest = rows_digest(&p.rows);
        out.check(digest == reference, || {
            format!("pass digest {digest:016x} differs from the warm-up pass {reference:016x}")
        });
        if with_trace {
            traced.push(p.wall_s);
        } else {
            plain.push(p.wall_s);
        }
        p.wall_s
    });

    if run.trace {
        out.set(
            "bench.trace_overhead_pct",
            Value::one((median(&traced) / median(&plain) - 1.0) * 100.0),
        );
        out.set(
            "noc-sim.ejected_packets",
            Value::one(sum_field(&warm.rows, "ejected_packets")),
        );
    } else {
        let speeds: Vec<f64> = plain.iter().map(|s| work / s / 1e6).collect();
        let pass_ms: Vec<f64> = plain.iter().map(|s| s * 1e3).collect();
        out.set("setup_s", Value::one(setup_s));
        out.set("sim_mnode_cycles_per_s", Value::median_of(&speeds));
        out.set("turnaround_p50_ms", Value::median_of(&pass_ms));
        out.set("peak_rss_mb", Value::one(crate::peak_rss_mb("self")));
    }
    let pps: Vec<f64> = plain.iter().map(|s| points.len() as f64 / s).collect();
    out.note("sweep_points_per_s", Value::median_of(&pps), "1/s");
    out.spans = tracer.into_spans();
}

/// The same points through bare `run_synth`: what the runner adds is the
/// difference.
fn bare_pass(points: &[FaultPoint]) -> f64 {
    let t0 = Instant::now();
    for p in points {
        let mut spec =
            SynthSpec::new(p.k, p.vcs, p.scheme, p.pattern, p.rate).with_cycles(p.cycles);
        spec.seed = p.seed;
        std::hint::black_box(run_synth(spec));
    }
    t0.elapsed().as_secs_f64()
}

/// The runner in isolation on a 24-point slice of the grid: one thread at
/// width 1 and 4, a resume over the finished journal, the fixed work per
/// point, then all threads.
pub fn probe(run: &Run, out: &mut Outcome) {
    let points = probe_sweep_points(run.seed, &run.scale);
    let n = points.len() as f64;
    let tmp = TempDir::new(&run.out, "sweep-probe");
    let mut sweep =
        |points: &[FaultPoint], width: usize| pass(points, tmp.path(), width, None, out).wall_s;

    rayon::set_num_threads(1);
    let w1 = sweep(&points, 1);
    let w4 = sweep(&points, WIDTH);

    // Left in place by the width-4 pass: a complete journal to resume.
    let t0 = Instant::now();
    let ckpt = Checkpoint::open(&tmp.path().join("grid.ckpt.jsonl")).expect("reopen the journal");
    let resumed = run_sweep_with_width(&points, &ckpt, None, &tmp.path().join("dumps"), WIDTH);
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(ckpt);

    // Fixed work per point (gate, build, seal + append, hand-off): runner
    // minus bare `run_synth` on the same points a tenth as long, where
    // that difference is not lost in the noise of the simulation itself.
    let short: Vec<FaultPoint> = points
        .iter()
        .cloned()
        .map(|mut p| {
            p.cycles /= 10;
            p
        })
        .collect();
    let (mut swept, mut bare) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        swept.push(sweep(&short, 1));
        bare.push(bare_pass(&short));
    }

    // Best of three: on this kind of host the second core takes about a
    // second of parallel work to come up after a single-threaded stretch.
    rayon::set_num_threads(run.threads);
    let wt = (0..3)
        .map(|_| sweep(&points, WIDTH))
        .fold(f64::INFINITY, f64::min);

    out.check(
        resumed.resumed == points.len() && resumed.executed == 0,
        || format!("resume re-ran points: {resumed:?}"),
    );
    out.set("sweep.points_per_s_t1_w1", Value::one(n / w1));
    out.set("sweep.points_per_s_t1_w4", Value::one(n / w4));
    out.set("sweep.batch_speedup", Value::one(w1 / w4));
    out.set(
        "sweep.overhead_ms_per_point",
        Value::one((median(&swept) - median(&bare)) * 1e3 / n),
    );
    out.set("sweep.resume_ms", Value::one(resume_ms));
    // No second core, no claim about parallel speed-up.
    out.set(
        "rayon.parallel_efficiency",
        if run.threads > 1 {
            Value::one(w4 / wt / run.threads as f64)
        } else {
            Value::missing()
        },
    );
}
