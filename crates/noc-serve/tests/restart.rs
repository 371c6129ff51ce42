//! End-to-end crash tolerance against the real `noc_serve` binary: submit
//! a sweep over HTTP, `kill -9` the server mid-run, restart it over the
//! same data dir, and require (a) the job to resume and finish, and (b)
//! the checkpoint rows to be identical — as a sorted set — to those of an
//! uninterrupted run of the same job.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("noc_serve_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Minimal HTTP/1.1 client: one request, one response, connection closed.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    // A server may answer an error mid-upload; keep reading regardless.
    let _ = stream.write_all(req.as_bytes());
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, payload)
}

/// Extracts a field (string or numeric) from a flat JSON row.
fn field(row: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let start = row.find(&needle)? + needle.len();
    let rest = &row[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        Some(quoted[..quoted.find('"')?].to_string())
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    }
}

/// Spawns the server over `data_dir` and waits for its address file.
/// The child leaks only on the assert-panic path, where the whole test
/// process is torn down anyway.
#[allow(clippy::zombie_processes)]
fn spawn_server(data_dir: &Path) -> (Child, String) {
    let addr_file = data_dir.join("addr.txt");
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .args([
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--workers",
            "1",
            "--retry-base-ms",
            "5",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                // The file is written after bind; the listener is live.
                return (child, addr);
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// The sweep under test: 8 points, each a second-scale simulation, so the
/// kill lands mid-job deterministically.
const SPEC: &str = r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0,0.005,0.01,0.05", "cycles": "8000", "seed": "77"}"#;

#[test]
fn kill_nine_mid_sweep_resumes_to_identical_rows() {
    // Reference: the same job, uninterrupted, through the service layer.
    let ref_dir = tmpdir("reference");
    let reference = {
        let mut opts = noc_serve::ServeOpts::new(&ref_dir);
        opts.workers = 1;
        opts.batch_width = 4;
        let service = noc_serve::Service::open(opts).unwrap();
        let row = noc_experiments::jsonio::parse_flat(SPEC).unwrap();
        let (status, _) = service.submit(&row).unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let s = service.status(&status.id).unwrap();
            if s.stage.is_terminal() {
                assert_eq!(s.stage, noc_serve::Stage::Done, "{:?}", s.error);
                break;
            }
            assert!(Instant::now() < deadline, "reference run stuck");
            std::thread::sleep(Duration::from_millis(20));
        }
        let rows = std::fs::read_to_string(service.rows_path(&status.id).unwrap()).unwrap();
        service.drain();
        (status.id, rows)
    };

    // Victim: same job via the real binary, killed with SIGKILL mid-run.
    let data_dir = tmpdir("victim");
    let (mut child, addr) = spawn_server(&data_dir);
    let (code, body) = request(&addr, "POST", "/jobs", SPEC);
    assert_eq!(code, 202, "{body}");
    let id = field(&body, "id").expect("job id");
    assert_eq!(id, reference.0, "same spec, same content address");

    // Wait until at least one checkpoint row is on disk, then kill -9.
    let rows_path = data_dir.join("jobs").join(&id).join("rows.ckpt.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let rows = std::fs::read_to_string(&rows_path).unwrap_or_default();
        let n = rows.lines().count();
        if (1..8).contains(&n) {
            break;
        }
        assert!(n < 8, "sweep finished before the kill; enlarge it");
        assert!(Instant::now() < deadline, "no progress before kill");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL"); // Child::kill is SIGKILL on unix
    let _ = child.wait();

    // Restart over the same data dir: the journal is adopted, the job
    // resumes (re-executing only missing points) and completes.
    let (mut child, addr) = spawn_server(&data_dir);
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        let (code, body) = request(&addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(code, 200, "{body}");
        let stage = field(&body, "stage").expect("stage");
        if ["done", "failed", "cancelled"].contains(&stage.as_str()) {
            break body;
        }
        assert!(Instant::now() < deadline, "resumed job stuck: {body}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(field(&status, "stage").as_deref(), Some("done"), "{status}");
    assert_eq!(field(&status, "done").as_deref(), Some("8"), "{status}");

    // The journal holds exactly the reference row set (sorted compare:
    // parallel workers may order rows differently between runs).
    let (code, resumed_rows) = request(&addr, "GET", &format!("/jobs/{id}/rows"), "");
    assert_eq!(code, 200);
    assert_eq!(
        sorted_lines(&resumed_rows),
        sorted_lines(&reference.1),
        "kill -9 + resume must reproduce the uninterrupted row set"
    );
    // And the on-disk journal agrees with what HTTP served.
    let on_disk = std::fs::read_to_string(&rows_path).unwrap();
    assert_eq!(sorted_lines(&on_disk), sorted_lines(&reference.1));

    // Graceful shutdown this time: drain over HTTP, then the process exits
    // on its own.
    let (code, _) = request(&addr, "POST", "/drain", "");
    assert_eq!(code, 202);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().unwrap() {
            Some(es) => {
                assert!(es.success(), "drained server must exit 0, got {es:?}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "server never exited after drain");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn http_surface_shed_dedupe_and_errors() {
    let data_dir = tmpdir("http");
    let (mut child, addr) = spawn_server(&data_dir);

    // healthz
    let (code, body) = request(&addr, "GET", "/healthz", "");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    // Bad spec → 400 naming the problem.
    let (code, body) = request(&addr, "POST", "/jobs", r#"{"kind": "warp"}"#);
    assert_eq!(code, 400);
    assert!(body.contains("unknown job kind"), "{body}");

    // Unknown job → 404; unknown route → 404.
    let (code, _) = request(&addr, "GET", "/jobs/feedfacefeedface", "");
    assert_eq!(code, 404);
    let (code, _) = request(&addr, "GET", "/nope", "");
    assert_eq!(code, 404);

    // Submit, then resubmit: 202 then 200 (dedupe).
    let spec = r#"{"kind": "chaos", "seed": "5", "cases": "1", "pool": "smoke"}"#;
    let (code, body) = request(&addr, "POST", "/jobs", spec);
    assert_eq!(code, 202, "{body}");
    let (code, body2) = request(&addr, "POST", "/jobs", spec);
    assert_eq!(code, 200, "{body2}");
    assert_eq!(field(&body, "id"), field(&body2, "id"));

    // Oversized body → 413.
    let huge = format!(
        r#"{{"kind": "sweep", "schemes": "{}"}}"#,
        "x".repeat(70 * 1024)
    );
    let (code, _) = request(&addr, "POST", "/jobs", &huge);
    assert_eq!(code, 413);

    child.kill().unwrap();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The eager environment gate: a garbage fault knob — of either layer —
/// is refused at boot with exit 2, before the data directory is touched.
#[test]
fn garbage_fault_knobs_exit_2_before_any_io() {
    let data_dir = tmpdir("env_gate").join("never_created");
    for (knob, value) in [
        ("NOC_VFS_FAULT_SCHEDULE", "nonsense"),
        ("NOC_VFS_FAULT_SEED", "-3"),
        ("NOC_NET_FAULT_SCHEDULE", "nonsense"),
        ("NOC_NET_FAULT_SEED", "-3"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
            .args(["--data-dir", data_dir.to_str().unwrap()])
            .env(knob, value)
            .output();
        assert_eq!(run.unwrap().status.code(), Some(2), "{knob}");
    }
    assert!(!data_dir.exists(), "a rejected boot must not create files");
}
