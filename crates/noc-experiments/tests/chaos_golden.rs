//! Golden pin for the chaos soak, through the real binary: the log and the
//! stdout of `noc_chaos --quick --cases 3` are hashed (FNV-1a, with the
//! output directory normalised) and compared to values recorded before the
//! soak's case loop was folded into `SimJob::Chaos`. Never regenerate: a
//! mismatch means the soak's rows or its summary moved.

use noc_types::fault::fnv1a;
use std::process::Command;

const LOG_FNV: u64 = 0x1f12_40e4_05e2_38ee;
const STDOUT_FNV: u64 = 0xa16c_b2cf_6ed7_6b38;

#[test]
fn quick_soak_log_and_stdout_are_pinned() {
    let out = std::env::temp_dir().join(format!("seec_chaos_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let out_str = out.to_str().unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_noc_chaos"))
        .args(["--quick", "--cases", "3", "--out", out_str])
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    let normalise = |s: &str| s.replace(out_str, "<OUT>");
    let log = normalise(&std::fs::read_to_string(out.join("chaos.jsonl")).unwrap());
    let stdout = normalise(&String::from_utf8(run.stdout).unwrap());
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(
        (fnv1a(log.as_bytes()), fnv1a(stdout.as_bytes())),
        (LOG_FNV, STDOUT_FNV),
        "log:\n{log}\nstdout:\n{stdout}"
    );
}
