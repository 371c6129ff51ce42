//! Golden pin for everything the certifier prints or answers: each
//! rendered report and `certified()` bit of the library entry points, the
//! `certify_schedule` epoch tags, and the stdout and exit status of the
//! CLI. The digests are FNV-1a over the concatenated text and were recorded
//! once; never regenerate them. A mismatch means a verdict, a count, a
//! witness or a rendered byte moved.

use noc_types::{
    BaseRouting, Direction, FaultAction, FaultConfig, FaultEvent, FaultSchedule, NetConfig, NodeId,
    RoutingAlgo,
};
use noc_verify::{certify, certify_degraded, certify_recovery, certify_schedule};
use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one report's rendering followed by its certified bit.
fn push(out: &mut String, rendered: &str, certified: bool) {
    out.push_str(rendered);
    out.push_str(if certified {
        "certified=1\n"
    } else {
        "certified=0\n"
    });
}

fn assert_digest(what: &str, text: &str, want: u64) {
    let got = fnv1a(text.as_bytes());
    assert_eq!(got, want, "{what}: digest {got:#018x} over\n{text}");
}

const ADAPTIVE: RoutingAlgo = RoutingAlgo::Uniform(BaseRouting::AdaptiveMinimal);
const XY: RoutingAlgo = RoutingAlgo::Uniform(BaseRouting::Xy);
const ESCAPE: RoutingAlgo = RoutingAlgo::EscapeVc {
    normal: BaseRouting::AdaptiveMinimal,
};

/// A 4x4 mesh with the CLI's defaults (one `VNet`, four VCs).
fn mesh4(routing: RoutingAlgo, fault: FaultConfig) -> NetConfig {
    NetConfig::synth(4, 4)
        .with_routing(routing)
        .with_fault(fault)
}

fn links(list: &[(u16, Direction)]) -> FaultConfig {
    FaultConfig::default().with_dead_links(list.iter().map(|&(n, d)| (NodeId(n), d)).collect())
}

#[test]
fn healthy_matrix_is_pinned() {
    let mut out = String::new();
    for row in noc_verify::matrix::all_configs() {
        let r = certify(&row.cfg);
        push(&mut out, &r.render(), r.certified());
    }
    assert_digest("certify over all_configs()", &out, 0x75ce_078d_f56c_f10a);
}

#[test]
fn recovery_matrix_is_pinned() {
    let mut out = String::new();
    for row in noc_verify::matrix::all_recovery_configs() {
        let r = certify_recovery(&row.cfg);
        push(&mut out, &r.render(), r.certified());
    }
    assert_digest(
        "certify_recovery over all_recovery_configs()",
        &out,
        0x5fc9_c0f2_108e_acbe,
    );
}

#[test]
fn degraded_reports_are_pinned() {
    let cases = [
        // A detour closes a cycle: minimal witness on the degraded CDG.
        mesh4(ADAPTIVE, links(&[(5, Direction::East)])),
        // West-first must cross 1→2; the escape layer is severed.
        mesh4(ESCAPE, links(&[(1, Direction::East)])),
        // The corner is cut off.
        mesh4(
            ADAPTIVE,
            links(&[(0, Direction::East), (0, Direction::South)]),
        ),
        mesh4(
            ADAPTIVE,
            FaultConfig::default().with_dead_routers(vec![NodeId(5)]),
        ),
        mesh4(XY, links(&[(5, Direction::East)])),
        mesh4(
            XY,
            FaultConfig::default()
                .with_random_dead_links(2)
                .with_fault_seed(0xFA17),
        ),
        // Transient-only: the degraded rendering of the healthy verdicts.
        mesh4(XY, FaultConfig::transient(0.01)),
        mesh4(ADAPTIVE, FaultConfig::transient(0.01)),
        mesh4(ESCAPE, FaultConfig::transient(0.01)),
    ];
    let mut out = String::new();
    for cfg in &cases {
        let r = certify_degraded(cfg);
        push(&mut out, &r.render(), r.certified());
    }
    assert_digest("certify_degraded cases", &out, 0x4ef9_af32_9fdc_0867);
}

#[test]
fn schedule_epochs_are_pinned() {
    let flap = mesh4(
        XY,
        FaultConfig::default().with_schedule(FaultSchedule::link_flap(
            NodeId(5),
            Direction::East,
            100,
            900,
        )),
    );
    let router = mesh4(
        ADAPTIVE,
        FaultConfig::default().with_schedule(FaultSchedule::new(vec![
            FaultEvent {
                at: 50,
                action: FaultAction::KillRouter(NodeId(5)),
            },
            FaultEvent {
                at: 500,
                action: FaultAction::HealRouter(NodeId(5)),
            },
        ])),
    );
    let mut tags = Vec::new();
    let mut out = String::new();
    for cfg in [&flap, &router] {
        for e in certify_schedule(cfg).expect("valid schedule") {
            tags.push(e.short_verdict());
            out.push_str(&e.action);
            out.push('\n');
            push(&mut out, &e.report.render(), e.report.certified());
        }
    }
    assert_eq!(
        tags,
        ["deadlockable", "acyclic", "deadlockable", "deadlockable"]
    );
    assert_digest("certify_schedule epochs", &out, 0x7e03_571d_9352_bec5);
}

/// Runs the CLI and returns (exit status, stdout).
fn cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_noc-verify"))
        .args(args)
        .output()
        .expect("run noc-verify");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn cli_all_configs_stdout_is_pinned() {
    let (code, stdout) = cli(&["--all-configs"]);
    assert_eq!(code, 0, "{stdout}");
    assert_digest("noc-verify --all-configs", &stdout, 0x5cf3_cb59_fc14_9fc1);
}

#[test]
fn cli_examples_are_pinned() {
    let runs: &[&[&str]] = &[
        &["--mesh", "8", "--routing", "xy"],
        &["--mesh", "8", "--routing", "escape"],
        &["--mesh", "4", "--routing", "adaptive"],
        &["--mesh", "8", "--recovery"],
        &[
            "--mesh",
            "4",
            "--routing",
            "adaptive",
            "--dead-links",
            "5:E",
        ],
        &["--mesh", "4", "--routing", "escape", "--dead-links", "1:E"],
        &["--mesh", "4", "--routing", "xy", "--dead-routers", "5"],
        &["--mesh", "4", "--random-dead", "2", "--recovery"],
    ];
    let mut out = String::new();
    for args in runs {
        let (code, stdout) = cli(args);
        out.push_str(&format!(
            "$ noc-verify {}\n{stdout}exit {code}\n",
            args.join(" ")
        ));
    }
    assert_digest("noc-verify examples", &out, 0xf06f_a386_42ed_6846);
}
