//! The eager environment gate, through the real binaries: a garbage fault
//! knob — of either layer — exits 2 before any socket or file is opened.

use std::process::Command;

#[test]
fn garbage_fault_knobs_exit_2_before_any_io() {
    let out_dir = std::env::temp_dir().join(format!("noc_env_gate_{}", std::process::id()));
    let out = out_dir.to_str().unwrap();
    // Port 1 refuses: ungated, `noc_submit` would retry and exit 1.
    let submit = ["--addr", "127.0.0.1:1", "healthz"];
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_noc_submit"), submit.as_slice()),
        (
            env!("CARGO_BIN_EXE_network_chaos"),
            ["--out", out].as_slice(),
        ),
    ] {
        for (knob, value) in [
            ("NOC_VFS_FAULT_SCHEDULE", "nonsense"),
            ("NOC_VFS_FAULT_SEED", "-3"),
            ("NOC_NET_FAULT_SCHEDULE", "nonsense"),
            ("NOC_NET_FAULT_SEED", "-3"),
        ] {
            let run = Command::new(bin).args(args).env(knob, value).output();
            assert_eq!(run.unwrap().status.code(), Some(2), "{bin} {knob}");
        }
    }
    assert!(!out_dir.exists(), "a rejected soak must not write output");
}
