//! `noc_chaos`'s flags and its resume, through the real binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn out_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seec_chaos_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn noc_chaos(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_noc_chaos"))
        .args(args)
        .args(["--out", out.to_str().unwrap()])
        .output()
        .unwrap()
}

#[test]
fn an_explicit_seed_overrides_the_quick_default() {
    let out = out_dir("seed");
    let run = noc_chaos(&["--quick", "--seed", "7", "--cases", "1"], &out);
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "{stdout}");
    assert!(stdout.contains("noc-chaos: 1 cases"), "{stdout}");
    assert!(stdout.contains("(seed 0x7,"), "{stdout}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn quick_and_full_contradict_and_exit_2_before_any_io() {
    let out = out_dir("conflict");
    let run = noc_chaos(&["--quick", "--full"], &out);
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
    assert!(!out.exists(), "a rejected soak must not write output");
}

#[test]
fn rerunning_into_the_same_out_resumes_without_appending() {
    let out = out_dir("resume");
    let first = noc_chaos(&["--quick", "--cases", "2"], &out);
    assert!(first.status.success());
    let log = std::fs::read(out.join("chaos.jsonl")).unwrap();
    let again = noc_chaos(&["--quick", "--cases", "2"], &out);
    assert!(again.status.success());
    assert_eq!(std::fs::read(out.join("chaos.jsonl")).unwrap(), log);
    assert_eq!(
        again.stdout, first.stdout,
        "summary must match the first run's"
    );
    let _ = std::fs::remove_dir_all(&out);
}
