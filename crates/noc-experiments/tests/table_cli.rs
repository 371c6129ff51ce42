//! The table binaries' flags, through the real binaries: an argument a
//! binary does not document exits 2 with empty stdout before any table is
//! computed (a typo'd `--quick` used to start the full sweep).

use std::process::Command;

#[test]
fn undocumented_arguments_exit_2_before_any_work() {
    let fig07 = env!("CARGO_BIN_EXE_fig07");
    let fig08 = env!("CARGO_BIN_EXE_fig08");
    let all_figs = env!("CARGO_BIN_EXE_all_figs");
    for (bin, args) in [
        (fig07, &["--quik"][..]),
        (fig08, &["--quik"]),
        (fig07, &["--quick"]),
        (all_figs, &["--csv"]),
        (all_figs, &["--csv", "--quick"]),
    ] {
        let run = Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}
