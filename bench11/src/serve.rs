//! `serve-jobs`: the real `noc_serve` binary driven by closed-loop
//! `noc_client::Client`s, and the service probes.
//!
//! Closed loop: each of the `T` clients sends its next request only after
//! the previous one completed, so a slower server receives less load.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use noc_client::{Client, ClientOpts};
use noc_experiments::jsonio;
use noc_experiments::sweep::{run_sweep_with_width, Checkpoint};
use noc_net::Transport;
use noc_serve::{JobSpec, ServeOpts, Service};

use crate::inputs::{job_spec, JOB_CYCLES, JOB_NODES, JOB_POINTS};
use crate::metrics::{Outcome, Value};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Run, TempDir, ENV_KNOBS};

const POLL: Duration = Duration::from_millis(2);
const JOB_BUDGET: Duration = Duration::from_secs(30);

/// One request over a hand-written socket: the bare HTTP round trip with
/// no client library in the way.
fn raw_request(addr: &str, method: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed response: {raw}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((code, body))
}

/// A running `noc_serve` child. Always reaped: drained on the good path,
/// killed and waited for on drop.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    /// Spawn → `addr.txt` → first `/healthz` 200.
    pub boot_ms: f64,
    /// Requests this handle sent that reached the listener.
    requests: AtomicU64,
}

impl Server {
    pub fn boot(bin: &Path, data_dir: &Path) -> Result<Server, String> {
        if !bin.is_file() {
            return Err(format!(
                "{} is missing: build it with `cargo build --release --offline -p noc-serve` \
                 into the same target directory as bench11 (bench11/run.sh does both)",
                bin.display()
            ));
        }
        let addr_file = data_dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--data-dir")
            .arg(data_dir)
            .args(["--workers", "2", "--queue-cap", "16"])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for knob in ENV_KNOBS {
            cmd.env_remove(knob);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            boot_ms: 0.0,
            requests: AtomicU64::new(0),
        };
        while t0.elapsed() < Duration::from_secs(20) {
            if server.addr.is_empty() {
                // Written atomically after bind, so never torn.
                server.addr = std::fs::read_to_string(&addr_file)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default();
            }
            if !server.addr.is_empty() && matches!(server.get("/healthz"), Ok((200, _))) {
                server.boot_ms = t0.elapsed().as_secs_f64() * 1e3;
                return Ok(server);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("noc_serve did not answer /healthz within 20 s".into())
    }

    fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        let resp = raw_request(&self.addr, "GET", path)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        Ok(resp)
    }

    fn healthz(&self) -> Result<BTreeMap<String, String>, String> {
        match self.get("/healthz") {
            Ok((200, body)) => jsonio::parse_flat(body.trim())
                .ok_or_else(|| format!("healthz is not flat JSON: {body}")),
            other => Err(format!("healthz failed: {other:?}")),
        }
    }

    fn counter(health: &BTreeMap<String, String>, name: &str) -> u64 {
        health.get(name).and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    fn peak_rss_mb(&self) -> f64 {
        let pid = self.child.as_ref().map_or(0, Child::id);
        crate::peak_rss_mb(&pid.to_string())
    }

    /// `POST /drain`, then wait for a clean exit.
    pub fn drain(mut self) -> Result<(), String> {
        raw_request(&self.addr, "POST", "/drain").map_err(|e| format!("POST /drain: {e}"))?;
        let mut child = self.child.take().expect("server is running");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("noc_serve exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(20) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => {
                    self.child = Some(child);
                    return Err(format!("noc_serve did not drain: {other:?}"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Timings of one job's life, in ms.
#[derive(Default)]
struct JobSample {
    traced: bool,
    turnaround: f64,
    submit: f64,
    ack_to_done: f64,
    rows_fetch: f64,
    dedupe: f64,
    status: f64,
    /// Status polls until DONE; counted only on the traced path
    /// (`await_terminal` does not say).
    polls: u64,
    rows: Vec<String>,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Where a traced job's spans hang: the tracer, the job's root span and
/// its request id (the job id).
type Trace<'a> = Option<(&'a Tracer, usize, &'a str)>;

fn spanned<T>(trace: Trace<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some((t, root, req)) => t.span(name, Some(root), req, |_| f()),
        None => f(),
    }
}

/// submit (202) → poll to DONE → verified rows: one turnaround. Then a
/// resubmit (200, same id) and one status of the DONE job. Traced, the
/// poll loop is `await_terminal`'s, written out so each poll is a span.
fn job_cycle(client: &Client, spec: &str, trace: Trace<'_>) -> Result<JobSample, String> {
    let mut s = JobSample {
        traced: trace.is_some(),
        ..JobSample::default()
    };
    let err = |what: &str, e: noc_client::ClientError| format!("{what}: {e}");
    let t0 = Instant::now();
    let (view, created) =
        spanned(trace, "client.submit", || client.submit(spec)).map_err(|e| err("submit", e))?;
    s.submit = ms(t0);
    if !created {
        return Err(format!("submit of a new spec was not a 202: {}", view.id));
    }
    let acked = Instant::now();
    let done = if trace.is_none() {
        client
            .await_terminal(&view.id, JOB_BUDGET, POLL)
            .map_err(|e| err("await_terminal", e))?
    } else {
        loop {
            s.polls += 1;
            let v = spanned(trace, "client.poll", || client.status(&view.id))
                .map_err(|e| err("poll", e))?;
            if v.is_terminal() {
                break v;
            }
            if acked.elapsed() > JOB_BUDGET {
                return Err(format!("job {} not terminal in {JOB_BUDGET:?}", view.id));
            }
            std::thread::sleep(POLL);
        }
    };
    s.ack_to_done = ms(acked);
    if done.stage != "done" {
        return Err(format!(
            "job {} ended {}: {:?}",
            view.id, done.stage, done.row
        ));
    }
    let fetch = Instant::now();
    s.rows = spanned(trace, "client.rows", || client.rows_verified(&view.id))
        .map_err(|e| err("rows", e))?;
    s.rows_fetch = ms(fetch);
    s.turnaround = ms(t0);
    if s.rows.len() as u64 != JOB_POINTS {
        return Err(format!("job {} returned {} rows", view.id, s.rows.len()));
    }
    // The journal is in completion order, which the server's threads decide.
    s.rows.sort_unstable();
    let again = Instant::now();
    let (dup, created) =
        spanned(trace, "client.dedupe", || client.submit(spec)).map_err(|e| err("resubmit", e))?;
    s.dedupe = ms(again);
    if created || dup.id != view.id {
        return Err(format!(
            "resubmit of {} was not a 200 on the same id",
            view.id
        ));
    }
    let ask = Instant::now();
    spanned(trace, "client.status", || client.status(&view.id)).map_err(|e| err("status", e))?;
    s.status = ms(ask);
    Ok(s)
}

/// The content address `noc_serve` will give the spec: the request id a
/// traced job's spans share.
fn job_id(spec: &str) -> String {
    jsonio::parse_flat(spec)
        .and_then(|row| JobSpec::parse(&row).ok()?.digest().ok())
        .unwrap_or_default()
}

/// The rows an in-process `run_sweep` of the spec's own points produces,
/// sorted (the journal is in completion order).
fn reference_rows(spec: &str, dir: &Path) -> Result<Vec<String>, String> {
    let row = jsonio::parse_flat(spec).ok_or("spec is not flat JSON")?;
    let points = JobSpec::parse(&row)?.points();
    let _ = std::fs::remove_dir_all(dir);
    let journal = dir.join("ref.ckpt.jsonl");
    let ckpt = Checkpoint::open(&journal).map_err(|e| e.to_string())?;
    run_sweep_with_width(&points, &ckpt, None, &dir.join("dumps"), 4);
    let text = std::fs::read_to_string(&journal).map_err(|e| e.to_string())?;
    let mut rows = noc_client::verify_rows(&text)?;
    rows.sort_unstable();
    Ok(rows)
}

enum Until {
    Jobs(u64),
    Deadline(Instant),
}

#[derive(Default)]
struct Session {
    samples: Vec<JobSample>,
    failures: Vec<String>,
    /// (spec, sorted rows) of the jobs to check against an in-process run
    /// once the clock has stopped.
    kept: Vec<(String, Vec<String>)>,
    wall_s: f64,
}

/// `threads` closed-loop clients, each submitting unique jobs of `stream`
/// until `until`. With `alternate`, odd jobs take the traced path.
fn session(
    addr: &str,
    run: &Run,
    stream: &str,
    until: &Until,
    tracer: Option<&Tracer>,
    alternate: bool,
) -> Session {
    let t0 = Instant::now();
    let parts: Vec<Session> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..run.threads as u64)
            .map(|c| {
                scope.spawn(move || {
                    let client = Client::with_transport(
                        addr,
                        ClientOpts::default(),
                        Transport::passthrough(),
                    );
                    let mut part = Session::default();
                    for i in 0.. {
                        match until {
                            Until::Jobs(n) if i >= *n => break,
                            Until::Deadline(at) if Instant::now() >= *at => break,
                            _ => {}
                        }
                        let spec = job_spec(run.seed, stream, c * 1_000_000 + i);
                        let cycle = match tracer.filter(|_| !alternate || i % 2 == 1) {
                            Some(t) => {
                                let id = job_id(&spec);
                                t.span("job", None, &id, |root| {
                                    job_cycle(&client, &spec, Some((t, root, &id)))
                                })
                            }
                            None => job_cycle(&client, &spec, None),
                        };
                        match cycle {
                            Ok(mut sample) => {
                                // Every job of a fixed-size session, every
                                // 10th of a time-boxed one.
                                if matches!(until, Until::Jobs(_)) || i % 10 == 0 {
                                    part.kept.push((spec, std::mem::take(&mut sample.rows)));
                                }
                                part.samples.push(sample);
                            }
                            Err(why) => part.failures.push(why),
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Session {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Session::default()
    };
    for part in parts {
        all.samples.extend(part.samples);
        all.failures.extend(part.failures);
        all.kept.extend(part.kept);
    }
    all
}

impl Session {
    /// Folds the session's operations and failures into `out` and checks
    /// the kept jobs byte for byte against in-process runs.
    fn settle(&mut self, dir: &Path, out: &mut Outcome) {
        out.attempted += (self.samples.len() + self.failures.len()) as u64;
        for why in self.failures.drain(..) {
            out.fail(why);
        }
        for (spec, rows) in &self.kept {
            match reference_rows(spec, dir) {
                Ok(reference) => out.check(*rows == reference, || {
                    format!(
                        "rows of {spec} differ from the in-process run:\n{rows:?}\n{reference:?}"
                    )
                }),
                Err(why) => out.fail(format!("reference run of {spec}: {why}")),
            }
        }
    }

    fn column(&self, traced: bool, f: fn(&JobSample) -> f64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect()
    }
}

pub fn run(run: &Run, out: &mut Outcome) {
    let tmp = TempDir::new(&run.out, "serve");
    let server = match Server::boot(&run.serve_bin, &tmp.path().join("data")) {
        Ok(s) => s,
        Err(why) => {
            out.fail(why);
            return;
        }
    };
    let tracer = Tracer::new();
    let reference_dir = tmp.path().join("reference");

    // Untimed warm-up jobs: a fixed set, so their rows are the digest a
    // later commit must reproduce.
    let mut warm = session(
        &server.addr,
        run,
        "warm",
        &Until::Jobs(run.scale.warm_jobs),
        None,
        false,
    );
    warm.kept.sort();
    out.sim_digest = noc_store::fnv1a(format!("{:?}", warm.kept).as_bytes());
    let setup_s = run.started.elapsed().as_secs_f64();

    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut timed = session(
        &server.addr,
        run,
        "job",
        &Until::Deadline(deadline),
        run.trace.then_some(&tracer),
        true,
    );

    let jobs = (warm.samples.len() + timed.samples.len()) as u64;
    match server.healthz() {
        Ok(h) => {
            out.check(Server::counter(&h, "connections_shed") == 0, || {
                format!("connections were shed: {h:?}")
            });
            out.check(Server::counter(&h, "dedupe_hits") == jobs, || {
                format!("{jobs} resubmits but {h:?}")
            });
        }
        Err(why) => out.fail(why),
    }
    let rss = server.peak_rss_mb();
    if let Err(why) = server.drain() {
        out.fail(why);
    }
    warm.settle(&reference_dir, out);
    timed.settle(&reference_dir, out);
    out.check(!timed.samples.is_empty(), || "no job completed".into());
    if timed.samples.is_empty() {
        return;
    }

    let turnaround = timed.column(false, |s| s.turnaround);
    let done = timed.samples.len() as f64;
    let jobs_per_s = done / timed.wall_s;
    if run.trace {
        let traced = timed.column(true, |s| s.turnaround);
        out.set(
            "bench.trace_overhead_pct",
            Value::one((median(&traced) / median(&turnaround) - 1.0) * 100.0),
        );
    } else {
        let work = (JOB_POINTS * JOB_NODES * JOB_CYCLES) as f64;
        out.set("setup_s", Value::one(setup_s));
        out.set(
            "sim_mnode_cycles_per_s",
            Value::one(jobs_per_s * work / 1e6),
        );
        out.set("turnaround_p50_ms", Value::median_of(&turnaround));
        out.set("peak_rss_mb", Value::one(rss));
    }

    // The names the issue gave this workload's own view.
    out.note("jobs_per_s", Value::one(jobs_per_s), "1/s");
    out.note("job_turnaround_p50_ms", Value::median_of(&turnaround), "ms");
    let p95 = percentile(&turnaround, 95.0).map_or(Value::missing(), |v| Value {
        n: turnaround.len(),
        ..Value::one(v)
    });
    out.note("job_turnaround_p95_ms", p95, "ms");
    for (name, f) in [
        ("request_p50_ms", (|s| s.status) as fn(&JobSample) -> f64),
        ("http_submit_p50_ms", |s| s.submit),
        ("ack_to_done_p50_ms", |s| s.ack_to_done),
        ("rows_p50_ms", |s| s.rows_fetch),
        ("dedupe_p50_ms", |s| s.dedupe),
    ] {
        out.note(name, Value::median_of(&timed.column(false, f)), "ms");
    }
    out.spans = tracer.into_spans();
}

/// The service layers in isolation: admission without HTTP (in-process
/// `Service`), HTTP without the client (raw socket), the client on top,
/// and a short closed-loop session against a freshly booted binary.
pub fn probe(run: &Run, out: &mut Outcome) {
    let tmp = TempDir::new(&run.out, "serve-probe");
    let n = run.scale.probe_requests;

    // In-process Service, no workers: submit is spec + journal writes and
    // nothing else; reopening the directory is adoption of `jobs` jobs.
    let jobs = 4 * run.scale.probe_jobs;
    let mut opts = ServeOpts::new(tmp.path().join("inproc"));
    opts.workers = 0;
    opts.queue_cap = jobs as usize;
    let service = Service::open(opts.clone()).expect("open in-process service");
    let mut submit_ms = Vec::new();
    let mut ids = Vec::new();
    for i in 0..jobs {
        let row = jsonio::parse_flat(&job_spec(run.seed, "inproc", i)).expect("flat spec");
        let t0 = Instant::now();
        match service.submit(&row) {
            Ok((status, true)) => ids.push(status.id),
            other => out.fail(format!("in-process submit: {other:?}")),
        }
        submit_ms.push(ms(t0));
    }
    let t0 = Instant::now();
    let reps = 50 * n;
    for i in 0..reps {
        std::hint::black_box(service.status(&ids[i % ids.len().max(1)]));
    }
    let status_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    service.drain();
    drop(service);
    let mut adopt_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let reopened = Service::open(opts.clone()).expect("reopen in-process service");
        adopt_ms.push(ms(t0));
        out.check(reopened.list().len() as u64 == jobs, || {
            format!("adopted {} of {jobs} jobs", reopened.list().len())
        });
        reopened.drain();
    }
    out.attempted += jobs;
    out.set("noc-serve.service_submit_ms", Value::median_of(&submit_ms));
    out.set("noc-serve.service_status_us", Value::one(status_us));
    out.set(
        "noc-serve.adopt_ms_per_100_jobs",
        Value::one(median(&adopt_ms) * 100.0 / jobs as f64),
    );

    // CRC verification of a rows payload, the client's per-row work.
    let payload: String = (0..run.scale.probe_rows)
        .map(|i| noc_store::seal_line(&probe_row(i)) + "\n")
        .collect();
    let t0 = Instant::now();
    let rows = noc_client::verify_rows(&payload).expect("sealed rows verify");
    out.set(
        "noc-client.verify_rows_ns_per_row",
        Value::one(t0.elapsed().as_secs_f64() * 1e9 / rows.len() as f64),
    );

    // Three boots on fresh directories (the first also pages the binary
    // in); the last server stays up for the HTTP probes.
    let mut boot_ms = Vec::new();
    let mut booted = None;
    for i in 0..3 {
        if let Some(Err(why)) = booted.take().map(Server::drain) {
            out.fail(why);
        }
        match Server::boot(&run.serve_bin, &tmp.path().join(format!("data-{i}"))) {
            Ok(s) => {
                boot_ms.push(s.boot_ms);
                booted = Some(s);
            }
            Err(why) => {
                out.fail(why);
                return;
            }
        }
    }
    let server = booted.expect("three boots");
    out.set("noc-serve.boot_ms", Value::median_of(&boot_ms));
    let mut healthz_ms = Vec::new();
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = server.get("/healthz");
        healthz_ms.push(ms(t0));
        out.check(matches!(resp, Ok((200, _))), || {
            format!("healthz: {resp:?}")
        });
    }
    out.set(
        "noc-serve.http_healthz_p50_ms",
        Value::median_of(&healthz_ms),
    );

    // Every poll counted, so requests issued are known exactly.
    let quiet = Tracer::new();
    let mut s = session(
        &server.addr,
        run,
        "probe",
        &Until::Jobs(run.scale.probe_jobs),
        Some(&quiet),
        false,
    );
    let mut issued: u64 = s.samples.iter().map(|j| 4 + j.polls).sum();
    s.settle(&tmp.path().join("reference"), out);
    for (name, f) in [
        (
            "noc-serve.http_submit_p50_ms",
            (|s| s.submit) as fn(&JobSample) -> f64,
        ),
        ("noc-serve.dedupe_p50_ms", |s| s.dedupe),
        ("noc-serve.rows_p50_ms", |s| s.rows_fetch),
        ("noc-serve.ack_to_done_p50_ms", |s| s.ack_to_done),
        ("noc-serve.polls_per_job", |s| s.polls as f64),
    ] {
        out.set(name, Value::median_of(&s.column(true, f)));
    }

    // The client library's own cost: its status call against the same GET
    // over a bare socket, alternating so both see the same server state.
    let client = Client::with_transport(
        &server.addr,
        ClientOpts::default(),
        Transport::passthrough(),
    );
    let id = client
        .submit(&job_spec(run.seed, "probe", 0))
        .map(|(view, _)| view.id)
        .unwrap_or_default();
    issued += 1;
    let (mut raw_ms, mut lib_ms) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = server.get(&format!("/jobs/{id}"));
        raw_ms.push(ms(t0));
        out.check(matches!(resp, Ok((200, _))), || {
            format!("raw status: {resp:?}")
        });
        let t0 = Instant::now();
        let view = client.status(&id);
        lib_ms.push(ms(t0));
        issued += 1;
        out.check(view.is_ok(), || format!("client status: {view:?}"));
    }
    out.set(
        "noc-client.overhead_us",
        Value::one((median(&lib_ms) - median(&raw_ms)) * 1e3),
    );

    match server.healthz() {
        Ok(h) => {
            let accepted = Server::counter(&h, "connections_accepted");
            issued += server.requests.load(Ordering::Relaxed);
            out.set(
                "noc-serve.connections_accepted",
                Value::one(accepted as f64),
            );
            out.set(
                "noc-serve.connections_shed",
                Value::one(Server::counter(&h, "connections_shed") as f64),
            );
            out.set(
                "noc-serve.dedupe_hits",
                Value::one(Server::counter(&h, "dedupe_hits") as f64),
            );
            out.set(
                "noc-client.retries",
                Value::one(accepted as f64 - issued as f64),
            );
        }
        Err(why) => out.fail(why),
    }
    if let Err(why) = server.drain() {
        out.fail(why);
    }
}

/// A result-row-shaped payload for the store and client probes.
pub fn probe_row(i: usize) -> String {
    jsonio::JsonObj::new()
        .str_field(
            "key",
            &format!("{:016x}", noc_store::fnv1a(&i.to_le_bytes())),
        )
        .str_field("series", "bench11")
        .str_field("scheme", "SEEC")
        .str_field("pattern", "uniform_random")
        .u64_field("k", 4)
        .f64_field("rate", 0.09, 4)
        .str_field("status", "ok")
        .f64_field("avg_latency", 23.417 + i as f64, 3)
        .u64_field("ejected_packets", 7_000 + i as u64)
        .f64_field("throughput", 0.089_731, 6)
        .finish()
}
