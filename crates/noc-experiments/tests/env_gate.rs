//! The eager environment gate (`cli::args`), through a real binary: a
//! garbage fault knob — of either layer — exits 2 before any file is
//! written.

use std::process::Command;

#[test]
fn garbage_fault_knobs_exit_2_before_any_io() {
    let out_dir = std::env::temp_dir().join(format!("seec_env_gate_{}", std::process::id()));
    for (knob, value) in [
        ("NOC_VFS_FAULT_SCHEDULE", "nonsense"),
        ("NOC_VFS_FAULT_SEED", "-3"),
        ("NOC_NET_FAULT_SCHEDULE", "nonsense"),
        ("NOC_NET_FAULT_SEED", "-3"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_storage_chaos"))
            .args(["--out", out_dir.to_str().unwrap()])
            .env(knob, value)
            .output();
        assert_eq!(run.unwrap().status.code(), Some(2), "{knob}");
    }
    assert!(!out_dir.exists(), "a rejected soak must not write output");
}
