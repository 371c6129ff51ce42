//! The table binaries' and `model_check`'s flags, through the real
//! binaries: an argument a binary does not document, or a value it cannot
//! use, exits 2 with empty stdout before any work (a typo'd `--quick` used
//! to start the full sweep, a typo'd `--differential` to run the matrix).

use std::process::Command;

#[test]
fn undocumented_arguments_exit_2_before_any_work() {
    let fig07 = env!("CARGO_BIN_EXE_fig07");
    let fig08 = env!("CARGO_BIN_EXE_fig08");
    let all_figs = env!("CARGO_BIN_EXE_all_figs");
    let model_check = env!("CARGO_BIN_EXE_model_check");
    for (bin, args) in [
        (fig07, &["--quik"][..]),
        (fig08, &["--quik"]),
        (fig07, &["--quick"]),
        (all_figs, &["--csv"]),
        (all_figs, &["--csv", "--quick"]),
        (model_check, &["--diferential"]),
        (model_check, &["--scheme"]),
        (model_check, &["--scheme", "xy", "--mesh"]),
        (model_check, &["--scheme", "bogus"]),
        (model_check, &["--scheme", "xy", "--mesh", "3xZ"]),
        (model_check, &["--scheme", "xy", "--mesh", "3"]),
        (model_check, &["--scheme", "xy", "--vcs", "abc"]),
        (model_check, &["--scheme", "xy", "--inflight", "x"]),
        (model_check, &["--mesh", "3x3"]),
        (model_check, &["--vcs", "2"]),
        (model_check, &["--inflight", "2"]),
    ] {
        let run = Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}
