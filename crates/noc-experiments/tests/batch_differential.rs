//! Lockstep-batched sweeps are byte-identical to scalar sweeps.
//!
//! The sweep runner groups missing points into shape-compatible chunks and
//! drives each chunk through one `noc_sim::LockstepBatch`. This test runs
//! the same mixed-scheme point set twice through the public runner — once
//! with a lockstep width of 4, once with width 1 (the pre-batching scalar
//! path) — and asserts the recorded checkpoint rows match byte for byte.
//! Any skew in per-lane cycle sequencing, RNG streams or stats accounting
//! shows up here as a row diff naming the diverging point.

use noc_experiments::runner::Scheme;
use noc_experiments::sweep::{run_sweep_with_width, Checkpoint, FaultPoint};
use noc_sim::ShapeKey;
use noc_traffic::TrafficPattern;
use noc_types::{FaultConfig, RecoveryConfig};
use std::collections::HashMap;
use std::path::PathBuf;

fn point(scheme: Scheme, rate: f64, transient: f64, seed: u64) -> FaultPoint {
    FaultPoint {
        series: "batch-diff",
        scheme,
        k: 4,
        vcs: 4,
        pattern: TrafficPattern::UniformRandom,
        rate,
        cycles: 2_000,
        seed,
        fault: FaultConfig::transient(transient),
        recovery: RecoveryConfig::default(),
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seec_batchdiff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn sorted_rows(ckpt: &Checkpoint) -> Vec<String> {
    let mut rows: Vec<String> = ckpt
        .rows()
        .iter()
        .map(|r| {
            // BTreeMap-backed rows render with stable field order.
            format!("{r:?}")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn batched_sweep_rows_match_scalar_sweep_byte_for_byte() {
    // Mixed schemes, rates, seeds and fault scenarios — the batch the
    // runner actually produces, mechanisms (SEEC, mSEEC) included.
    let points = vec![
        point(Scheme::Xy, 0.05, 0.0, 1),
        point(Scheme::WestFirst, 0.08, 0.0, 2),
        point(Scheme::Xy, 0.10, 0.01, 3),
        point(Scheme::seec(), 0.05, 0.0, 4),
        point(Scheme::seec(), 0.08, 0.01, 5),
        point(Scheme::mseec(), 0.05, 0.0, 6),
        point(Scheme::WestFirst, 0.05, 0.02, 7),
        point(Scheme::mseec(), 0.08, 0.02, 8),
    ];
    // The comparison only bites if the width-4 run really forms multi-lane
    // batches: assert the point set contains shape-compatible groups.
    let mut groups: HashMap<u64, usize> = HashMap::new();
    for p in &points {
        *groups
            .entry(ShapeKey::of(&p.config()).digest())
            .or_insert(0) += 1;
    }
    assert!(
        groups.values().any(|&n| n >= 2),
        "no two points share a shape — the batched path would degenerate \
         to scalar and this differential would test nothing"
    );

    let dir = tmpdir("rows");
    let batched = Checkpoint::open(&dir.join("batched.ckpt.jsonl")).unwrap();
    let outcome = run_sweep_with_width(&points, &batched, None, &dir, 4);
    assert_eq!(outcome.executed, points.len());
    assert_eq!(outcome.failed, 0);

    let scalar = Checkpoint::open(&dir.join("scalar.ckpt.jsonl")).unwrap();
    let outcome = run_sweep_with_width(&points, &scalar, None, &dir, 1);
    assert_eq!(outcome.executed, points.len());
    assert_eq!(outcome.failed, 0);

    let (b, s) = (sorted_rows(&batched), sorted_rows(&scalar));
    assert_eq!(b.len(), points.len());
    assert_eq!(b, s, "lockstep-batched sweep rows diverged from scalar");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_sweep_resumes_into_scalar_and_back() {
    // A sweep interrupted under one width must resume cleanly under
    // another: keys don't depend on the execution strategy.
    let points = vec![
        point(Scheme::Xy, 0.05, 0.0, 11),
        point(Scheme::Xy, 0.08, 0.0, 12),
        point(Scheme::WestFirst, 0.05, 0.01, 13),
        point(Scheme::seec(), 0.05, 0.0, 14),
    ];
    let dir = tmpdir("resume");
    let ckpt_path = dir.join("mixed.ckpt.jsonl");
    let ckpt = Checkpoint::open(&ckpt_path).unwrap();
    let o1 = run_sweep_with_width(&points, &ckpt, Some(2), &dir, 4);
    assert_eq!((o1.executed, o1.deferred), (2, 2));
    let ckpt = Checkpoint::open(&ckpt_path).unwrap();
    let o2 = run_sweep_with_width(&points, &ckpt, None, &dir, 1);
    assert_eq!((o2.executed, o2.resumed), (2, 2));

    let all_scalar = Checkpoint::open(&dir.join("ref.ckpt.jsonl")).unwrap();
    run_sweep_with_width(&points, &all_scalar, None, &dir, 1);
    let mixed = Checkpoint::open(&ckpt_path).unwrap();
    assert_eq!(sorted_rows(&mixed), sorted_rows(&all_scalar));
    let _ = std::fs::remove_dir_all(&dir);
}
