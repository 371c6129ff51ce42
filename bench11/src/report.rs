//! Every workload in one go (`report.json`), and `bench11 compare`.

use std::path::Path;
use std::process::Command;

use noc_experiments::jsonio::{parse_value, JsonObj, JsonValue};

use crate::inputs::WORKLOADS;
use crate::metrics::{Better, END_TO_END};
use crate::Run;

/// First line of a tool's output, or "unknown" (the benchmark also runs
/// from checkouts that are not git repositories).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn result_file(out: &Path, workload: &str, trace: bool) -> std::path::PathBuf {
    out.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

pub fn trace_file(out: &Path, workload: &str) -> std::path::PathBuf {
    out.join(format!("{workload}.trace.json"))
}

/// Re-executes this binary once per workload (and once more, traced, with
/// `--trace 1`), so peak memory and set-up time belong to one workload
/// alone, then gathers the per-workload files into `report.json` and
/// `trace.json`. Returns whether every run was correct.
pub fn run_all(run: &Run) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    for workload in WORKLOADS {
        let mut sides = Vec::new();
        for trace in [false, true] {
            if trace && !run.trace {
                sides.push("null".to_string());
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &run.seed.to_string()])
                .args(["--seconds", &run.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&run.out);
            if run.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().expect("re-execute bench11");
            ok &= status.success();
            let file = std::fs::read_to_string(result_file(&run.out, workload, trace));
            ok &= file.is_ok();
            sides.push(file.unwrap_or_else(|_| "null".to_string()));
            if trace {
                if let Ok(t) = std::fs::read_to_string(trace_file(&run.out, workload)) {
                    traces.push(format!("\"{workload}\": {t}"));
                }
            }
        }
        workloads.push(format!(
            "\"{workload}\": {{\"untraced\": {}, \"traced\": {}}}",
            sides[0].trim_end(),
            sides[1].trim_end()
        ));
    }
    let report = JsonObj::new()
        .str_field("bench", "bench11")
        .u64_field("seed", run.seed)
        .raw_field("seconds", &run.seconds.to_string())
        .raw_field("quick", &run.quick.to_string())
        .u64_field("nproc", crate::nproc() as u64)
        .u64_field("threads", run.threads as u64)
        .str_field("rustc", &tool_line("rustc", &["-V"]))
        .str_field("commit", &tool_line("git", &["rev-parse", "HEAD"]))
        .raw_field("workloads", &format!("{{\n{}\n}}", workloads.join(",\n")))
        .finish();
    let path = run.out.join("report.json");
    std::fs::write(&path, report + "\n").expect("write report.json");
    println!("wrote {}", path.display());
    if run.trace {
        let path = run.out.join("trace.json");
        std::fs::write(&path, format!("{{\n{}\n}}\n", traces.join(",\n")))
            .expect("write trace.json");
        println!("wrote {}", path.display());
    }
    ok
}

/// One workload's run (`untraced` or `traced`) in a report, if it was made.
fn run_of<'a>(doc: &'a JsonValue, workload: &str, side: &str) -> Option<&'a JsonValue> {
    doc.get("workloads")?
        .get(workload)?
        .get(side)
        .filter(|w| !w.is_null())
}

/// A metric's median and the quartile distance of the run's own samples
/// over it.
fn median_and_spread(run: Option<&JsonValue>, metric: &str) -> Option<(f64, f64)> {
    let m = run?.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    Some((value, ((q3 - q1) / value).abs()))
}

/// One row per workload × end-to-end metric: both medians, the ratio with
/// its base, the bound, and a verdict. With equal seeds the simulated
/// statistics must also be identical. Returns whether B holds up.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse_value(&text).ok_or_else(|| format!("{p}: not a bench11 report"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:12} {:24} {:>14} {:>14} {:>16} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let pick = |doc| median_and_spread(run_of(doc, workload, "untraced"), def.name);
            let (Some((va, spread_a)), Some((vb, spread_b))) = (pick(&a), pick(&b)) else {
                println!("{workload:12} {:24} missing on one side", def.name);
                ok = false;
                continue;
            };
            let ratio = vb / va;
            let worse_by = match def.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let verdict = if worse_by > def.bound {
                ok = false;
                "regressed"
            } else if spread_a.max(spread_b) > def.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:12} {:24} {va:>14.4} {vb:>14.4} {ratio:>16.4} {:>5.0}%  {verdict}",
                def.name,
                def.bound * 100.0
            );
        }
    }

    let seed = |doc: &JsonValue| doc.get("seed").and_then(JsonValue::as_u64);
    if seed(&a) != seed(&b) {
        println!("seeds differ: simulated statistics not compared");
        return Ok(ok);
    }
    let mut same = true;
    for workload in WORKLOADS {
        for side in ["untraced", "traced"] {
            let (Some(ra), Some(rb)) = (run_of(&a, workload, side), run_of(&b, workload, side))
            else {
                continue;
            };
            // The digest, and the exact counts of the warm-up pass. (The
            // probe session's counters depend on poll timing.)
            let digest = |r: &JsonValue| r.get("sim_digest").cloned();
            let count = |r: &JsonValue, name| r.get("metrics")?.get(name)?.get("value").cloned();
            let mut differ = |what: &str, x: Option<JsonValue>, y: Option<JsonValue>| {
                if x != y {
                    println!("{workload} ({side}): {what} {x:?} became {y:?}");
                    same = false;
                }
            };
            differ("sim_digest", digest(ra), digest(rb));
            for name in crate::BODY_COUNTS {
                differ(name, count(ra, name), count(rb, name));
            }
        }
    }
    println!(
        "simulated statistics: {}",
        if same { "identical" } else { "DIFFERENT" }
    );
    Ok(ok && same)
}
