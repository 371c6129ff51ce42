//! Golden pins for the chaos soak, through the real binary: the log and the
//! stdout of a run are hashed (FNV-1a, with the output directory
//! normalised) and compared to recorded values. Never regenerate: a
//! mismatch means the soak's rows or its summary moved.
//!
//! * `--quick --cases 3` was recorded before the soak's case loop was
//!   folded into `SimJob::Chaos`.
//! * `--full --seed 2 --cases 8` was recorded before the validator, the
//!   certifier and the engine shared one fault timeline; two of its cases
//!   kill and heal a router (`1252:kr:3,2284:hr:3`, `275:kr:23,972:hr:23`).

use noc_types::fault::fnv1a;
use std::process::Command;

const LOG_FNV: u64 = 0x1f12_40e4_05e2_38ee;
const STDOUT_FNV: u64 = 0xa16c_b2cf_6ed7_6b38;

const FULL_LOG_FNV: u64 = 0x9600_146e_6cd6_de4d;
const FULL_STDOUT_FNV: u64 = 0xdec6_124e_7c7f_f5e7;

/// Runs `noc_chaos` with `args` into a fresh directory named by `tag` and
/// asserts the FNV-1a of its normalised log and stdout.
fn assert_pinned(tag: &str, args: &[&str], want: (u64, u64)) {
    let out = std::env::temp_dir().join(format!("seec_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let out_str = out.to_str().unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_noc_chaos"))
        .args(args)
        .args(["--out", out_str])
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    let normalise = |s: &str| s.replace(out_str, "<OUT>");
    let log = normalise(&std::fs::read_to_string(out.join("chaos.jsonl")).unwrap());
    let stdout = normalise(&String::from_utf8(run.stdout).unwrap());
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(
        (fnv1a(log.as_bytes()), fnv1a(stdout.as_bytes())),
        want,
        "log:\n{log}\nstdout:\n{stdout}"
    );
}

#[test]
fn quick_soak_log_and_stdout_are_pinned() {
    assert_pinned(
        "golden",
        &["--quick", "--cases", "3"],
        (LOG_FNV, STDOUT_FNV),
    );
}

#[test]
fn full_soak_with_router_kills_is_pinned() {
    assert_pinned(
        "golden_full",
        &["--full", "--seed", "2", "--cases", "8"],
        (FULL_LOG_FNV, FULL_STDOUT_FNV),
    );
}
