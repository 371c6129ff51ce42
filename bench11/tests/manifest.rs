//! Holds `BENCHMARK.json` and the harness together: the manifest names
//! exactly the workloads and metrics the code defines, and a `--quick`
//! run of everything (each workload a second or two, not a measurement)
//! reports exactly those names.

use std::path::Path;
use std::process::Command;

use bench11::inputs::WORKLOADS;
use bench11::metrics::{MetricDef, END_TO_END, PER_LAYER};
use noc_experiments::jsonio::{parse_value, JsonValue};

fn manifest() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn strings(list: &JsonValue, key: &str) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get(key)
                .and_then(JsonValue::as_str)
                .expect(key)
                .to_string()
        })
        .collect()
}

fn keys(obj: &JsonValue) -> Vec<String> {
    match obj {
        JsonValue::Obj(m) => m.keys().cloned().collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn sorted(names: impl IntoIterator<Item = impl ToString>) -> Vec<String> {
    let mut v: Vec<String> = names.into_iter().map(|n| n.to_string()).collect();
    v.sort();
    v
}

#[test]
fn manifest_matches_the_metric_tables() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        m.get("run_seconds").and_then(JsonValue::as_f64),
        Some(bench11::RUN_SECONDS)
    );
    assert_eq!(
        strings(m.get("workloads").expect("workloads"), "name"),
        WORKLOADS
    );
    let check = |section: &str, defs: &[MetricDef], bounded: bool| {
        let listed = m.get(section).and_then(JsonValue::as_array).expect(section);
        assert_eq!(listed.len(), defs.len(), "{section}");
        for (entry, def) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(JsonValue::as_str).expect(k);
            assert_eq!(field("name"), def.name);
            assert_eq!(field("unit"), def.unit, "{}", def.name);
            assert_eq!(field("better"), def.better.label(), "{}", def.name);
            let bound = entry.get("bound").and_then(JsonValue::as_f64);
            assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn bad_arguments_and_environment_exit_2_before_any_work() {
    let run = |args: &[&str], env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench11"));
        cmd.args(args);
        for knob in bench11::ENV_KNOBS {
            cmd.env_remove(knob);
        }
        if let Some(knob) = env {
            cmd.env(knob, "1");
        }
        let out = cmd.output().expect("run bench11");
        assert!(out.stdout.is_empty(), "printed a result: {out:?}");
        out.status.code()
    };
    assert_eq!(run(&["--workload", "engine-bass"], None), Some(2));
    assert_eq!(
        run(&["--workload", "engine-base", "--seed", "x1"], None),
        Some(2)
    );
    assert_eq!(
        run(&["--workload", "engine-base", "--trace", "yes"], None),
        Some(2)
    );
    assert_eq!(run(&["--seconds", "0"], None), Some(2));
    assert_eq!(run(&["--frobnicate", "1"], None), Some(2));
    assert_eq!(run(&["compare", "only-one.json"], None), Some(2));
    for knob in bench11::ENV_KNOBS {
        assert_eq!(
            run(&["--workload", "engine-base"], Some(knob)),
            Some(2),
            "{knob}"
        );
    }
}

#[test]
fn quick_run_reports_exactly_the_manifest_names() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let run = |args: &[&str]| {
        let mut cmd = Command::new("bash");
        cmd.arg(here.join("run.sh"))
            .args(args)
            .arg("--out")
            .arg(&out);
        for knob in bench11::ENV_KNOBS {
            cmd.env_remove(knob);
        }
        cmd.output().expect("run bench11/run.sh")
    };

    // Every workload, untraced and traced, through the one command.
    let all = run(&["--quick", "--seconds", "1", "--trace", "1"]);
    assert!(
        all.status.success(),
        "{}",
        String::from_utf8_lossy(&all.stderr)
    );
    let report = std::fs::read_to_string(out.join("report.json")).expect("report.json");
    let report = parse_value(&report).expect("report.json is JSON");
    let workloads = report.get("workloads").expect("workloads");
    assert_eq!(keys(workloads), sorted(WORKLOADS));
    for w in WORKLOADS {
        for (side, defs) in [("untraced", &END_TO_END[..]), ("traced", &PER_LAYER[..])] {
            let run = workloads.get(w).and_then(|x| x.get(side)).expect(side);
            assert_eq!(
                run.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{w} {side}"
            );
            assert_eq!(
                run.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{w} {side}"
            );
            assert_eq!(
                keys(run.get("metrics").expect("metrics")),
                sorted(defs.iter().map(|d| d.name)),
                "{w} {side}"
            );
            assert!(run.get("sim_digest").and_then(JsonValue::as_str).is_some());
        }
        assert!(out.join(format!("{w}.trace.json")).is_file());
    }
    assert!(out.join("trace.json").is_file());

    // One workload the way the benchmark driver calls it: the last line
    // of stdout is the result object, with exactly the contract's keys.
    let one = run(&[
        "--workload",
        "serve-jobs",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(
        one.status.success(),
        "{}",
        String::from_utf8_lossy(&one.stderr)
    );
    let stdout = String::from_utf8(one.stdout).expect("utf-8");
    let result = parse_value(stdout.lines().last().expect("a last line")).expect("result JSON");
    assert_eq!(keys(&result), ["attempted", "correct", "failed", "metrics"]);
    let metrics = result.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), sorted(END_TO_END.iter().map(|d| d.name)));
    for def in &END_TO_END {
        let m = metrics.get(def.name).expect(def.name);
        assert_eq!(keys(m), ["unit", "value"]);
        assert!(m
            .get("value")
            .and_then(JsonValue::as_f64)
            .is_some_and(|v| v > 0.0));
    }

    // A report agrees with itself.
    let same = out.join("report.json");
    let same = same.to_str().expect("utf-8 path");
    let cmp = Command::new(env!("CARGO_BIN_EXE_bench11"))
        .args(["compare", same, same])
        .output()
        .expect("run compare");
    assert!(
        cmp.status.success(),
        "{}",
        String::from_utf8_lossy(&cmp.stdout)
    );
}
