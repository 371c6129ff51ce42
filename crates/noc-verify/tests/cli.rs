//! Argument errors exit 2 with a message and the usage text, never a panic.

use std::process::Command;

#[test]
fn out_of_range_faults_are_usage_errors() {
    for (args, names) in [
        (["--dead-links", "99:E"], "outside the 4x4 mesh"),
        (["--dead-links", "3:E"], "points off the edge"),
        (["--random-dead", "100"], "random dead links requested"),
        (["--dead-routers", "40"], "dead router 40 is outside"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_noc-verify"))
            .args(["--mesh", "4"])
            .args(args)
            .output()
            .expect("run noc-verify");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(
            stderr.starts_with("error: fault config: ") && stderr.contains(names),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}
