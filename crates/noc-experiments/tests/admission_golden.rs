//! Golden pin for the admission decisions: which simulated runs the
//! certification gate lets through, and what a refused sweep row says.
//! The decisions are read through public calls only, written as one
//! transcript line each, and the transcript is hashed (FNV-1a) against a
//! recorded value. Never regenerate: a mismatch means a run that used to
//! be admitted is now refused (or the other way round), or a refused sweep
//! row changed its status or reason. The transcript prints on mismatch.
//!
//! The corpus:
//!
//! * every `fault_sweep` and `recovery_sweep` point, quick and full;
//! * a matrix of seven schemes (XY, WF, TFC, `EscVC`, ADAPT, SEEC, `mSEEC`)
//!   × four start states (healthy, link `5:E` dead, two random dead links
//!   at fault seed `0xFA17`, router 5 dead) × three armings (unarmed,
//!   drain, drain + e2e), as sweep points;
//! * the same schemes and armings on a healthy start with no schedule, a
//!   `5:E` link flap or a router-5 flap, as chaos cases;
//! * `escape_flap_case`, `wedged_adaptive_case`, and the first 32 cases of
//!   each generator pool at seeds `0x5EEC_0001` and 2;
//! * `run_synth` for each scheme, and `run_app` for each scheme on one and
//!   on six `VNets`.
//!
//! Sweep points run through `run_sweep` at a 1-cycle budget (row status
//! and reason); chaos cases through the chaos gate (admitted or refused);
//! runner points through `run_synth` / `run_app` under `catch_panic`
//! (admitted or refused).

use noc_experiments::chaos::{escape_flap_case, wedged_adaptive_case};
use noc_experiments::figs::{fault_sweep, recovery_sweep};
use noc_experiments::{
    admit, run_app, run_sweep, run_synth, AppSpec, CaseGen, ChaosCase, Checkpoint, FaultPoint,
    GenPool, Scheme, SynthSpec,
};
use noc_traffic::TrafficPattern;
use noc_types::fault::fnv1a;
use noc_types::{
    Direction, FaultAction, FaultConfig, FaultEvent, FaultSchedule, NodeId, RecoveryConfig,
};
use std::collections::BTreeMap;

const TRANSCRIPT_FNV: u64 = 0x361c_2b9b_0c80_aea2;

const SCHEMES: [&str; 7] = ["XY", "WF", "TFC", "EscVC", "ADAPT", "SEEC", "mSEEC"];

fn schemes() -> impl Iterator<Item = Scheme> {
    SCHEMES.iter().map(|l| Scheme::from_label(l).unwrap())
}

/// Unarmed, drain, and drain + e2e.
fn armings() -> [RecoveryConfig; 3] {
    [
        RecoveryConfig::default(),
        RecoveryConfig::drain(),
        RecoveryConfig::drain().with_e2e(600, 50),
    ]
}

/// The chaos gate's decision on one case.
fn gate(case: &ChaosCase) -> &'static str {
    if admit(case.scheme, &case.config()).is_ok() {
        "admitted"
    } else {
        "refused"
    }
}

/// A runner call's decision: the gate refuses by panicking with a fixed
/// prefix; any other panic is recorded as such.
fn ran<T>(run: impl FnOnce() -> T) -> &'static str {
    match rayon::catch_panic(run) {
        Ok(_) => "admitted",
        Err(msg) if msg.contains("refusing to run uncertified configuration") => "refused",
        Err(_) => "panicked",
    }
}

fn matrix_points() -> Vec<FaultPoint> {
    let starts = [
        FaultConfig::default(),
        FaultConfig::default().with_dead_links(vec![(NodeId(5), Direction::East)]),
        FaultConfig::default()
            .with_random_dead_links(2)
            .with_fault_seed(0xFA17),
        FaultConfig::default().with_dead_routers(vec![NodeId(5)]),
    ];
    let mut out = Vec::new();
    for scheme in schemes() {
        for fault in &starts {
            for recovery in armings() {
                out.push(FaultPoint {
                    series: "matrix",
                    scheme,
                    k: 4,
                    vcs: 2,
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.05,
                    cycles: 1,
                    seed: 1,
                    fault: fault.clone(),
                    recovery,
                });
            }
        }
    }
    out
}

fn matrix_cases() -> Vec<ChaosCase> {
    let router_flap = FaultSchedule::new(vec![
        FaultEvent {
            at: 300,
            action: FaultAction::KillRouter(NodeId(5)),
        },
        FaultEvent {
            at: 1_500,
            action: FaultAction::HealRouter(NodeId(5)),
        },
    ]);
    let schedules = [
        FaultSchedule::none(),
        FaultSchedule::link_flap(NodeId(5), Direction::East, 300, 1_500),
        router_flap,
    ];
    let mut out = Vec::new();
    for scheme in schemes() {
        for schedule in &schedules {
            for recovery in armings() {
                out.push(ChaosCase {
                    scheme,
                    k: 4,
                    vcs: 2,
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.05,
                    cycles: 4_000,
                    seed: 1,
                    schedule: schedule.clone(),
                    recovery,
                });
            }
        }
    }
    out
}

fn sweep_lines(out: &mut Vec<String>) {
    let mut sets: Vec<(&str, Vec<FaultPoint>)> = Vec::new();
    for quick in [true, false] {
        let tag = if quick { "quick" } else { "full" };
        sets.push((tag, fault_sweep::points(quick)));
        sets.push((tag, recovery_sweep::points(quick)));
    }
    sets.push(("matrix", matrix_points()));
    for (_, points) in &mut sets {
        for p in points.iter_mut() {
            p.cycles = 1;
        }
    }
    let all: Vec<FaultPoint> = sets.iter().flat_map(|(_, p)| p.iter().cloned()).collect();

    let dir = std::env::temp_dir().join(format!("seec_admission_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = Checkpoint::open(&dir.join("admission.ckpt.jsonl")).unwrap();
    let outcome = run_sweep(&all, &ckpt, None, &dir);
    assert_eq!(outcome.failed, 0, "{outcome:?}");
    let rows: BTreeMap<String, BTreeMap<String, String>> = ckpt
        .rows()
        .into_iter()
        .map(|r| (r["key"].clone(), r))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    for (tag, points) in &sets {
        for p in points {
            let row = &rows[&p.key()];
            let reason = row.get("reason").map_or("-", String::as_str);
            out.push(format!(
                "sweep {tag} {} k={} vcs={} fault={} recovery={} -> {} | {reason}",
                p.ident(),
                p.k,
                p.vcs,
                p.fault.canonical(),
                p.recovery.canonical(),
                row["status"],
            ));
        }
    }
}

fn chaos_lines(out: &mut Vec<String>) {
    let mut cases = vec![
        ("escape_flap", escape_flap_case()),
        ("wedged_adaptive", wedged_adaptive_case()),
    ];
    for seed in [0x5EEC_0001u64, 2] {
        for pool in [GenPool::Smoke, GenPool::Full] {
            let mut gen = CaseGen::new(seed, pool);
            for _ in 0..32 {
                cases.push(("generated", gen.next_case()));
            }
        }
    }
    cases.extend(matrix_cases().into_iter().map(|c| ("matrix", c)));
    for (tag, case) in &cases {
        out.push(format!(
            "chaos {tag} {} {} events={} recovery={} -> {}",
            case.scheme.label(),
            case.key(),
            case.schedule.canonical(),
            case.recovery.canonical(),
            gate(case),
        ));
    }
}

fn runner_lines(out: &mut Vec<String>) {
    for scheme in schemes() {
        let spec = SynthSpec::new(4, 2, scheme, TrafficPattern::UniformRandom, 0.05).with_cycles(1);
        out.push(format!(
            "run_synth {} -> {}",
            scheme.label(),
            ran(|| run_synth(spec))
        ));
        for vnets in [1u8, 6] {
            let spec = AppSpec {
                k: 4,
                vnets,
                vcs: 2,
                scheme,
                app: noc_traffic::apps::APPS[0],
                txns_per_core: 1,
                max_cycles: 1,
                seed: 1,
            };
            out.push(format!(
                "run_app {} vnets={vnets} -> {}",
                scheme.label(),
                ran(|| run_app(spec))
            ));
        }
    }
}

#[test]
fn admission_decisions_are_pinned() {
    let mut lines = Vec::new();
    sweep_lines(&mut lines);
    chaos_lines(&mut lines);
    runner_lines(&mut lines);
    let transcript = lines.join("\n") + "\n";
    assert_eq!(
        fnv1a(transcript.as_bytes()),
        TRANSCRIPT_FNV,
        "{} decisions:\n{transcript}",
        lines.len()
    );
}
