//! HTTP hardening tests: torn requests at every byte offset, slow-loris
//! deadlines, header caps, connection shedding, and the healthz network
//! counters — plus the event-driven path: an idle server answers without
//! a sleep, shutdown needs no client to notice it, `?wait_ms=` long-polls
//! end at the lifecycle edge, and an unreadable rows journal is a `503`,
//! not an empty `200`. All over real loopback sockets against the
//! in-process server; tears are produced the honest way — write a prefix,
//! close the socket — so the server sees exactly what a dead client
//! leaves behind.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use noc_net::{FaultNet, NetFaultPlan, Transport};
use noc_serve::{http, HttpOpts, ServeOpts, Service};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("noc_http_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// An in-process server on loopback. `workers: 0` unless asked — most of
/// these tests exercise admission, not execution.
struct Harness {
    addr: String,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Harness {
    fn start(tag: &str, http_opts: HttpOpts) -> Harness {
        Harness::start_with(tag, http_opts, 0, Transport::passthrough())
    }

    fn start_with(tag: &str, http_opts: HttpOpts, workers: usize, transport: Transport) -> Harness {
        let dir = tmpdir(tag);
        let mut opts = ServeOpts::new(&dir);
        opts.workers = workers;
        opts.queue_cap = 4;
        let service = Arc::new(Service::open(opts).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                http::serve_with(listener, &service, &shutdown, &http_opts, &transport);
            })
        };
        Harness {
            addr,
            service,
            shutdown,
            thread: Some(thread),
        }
    }
}

impl Harness {
    /// Flips the shutdown flag and returns how long `serve_with` took to
    /// notice and return.
    fn stop(&mut self) -> Duration {
        let t0 = Instant::now();
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        t0.elapsed()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.stop();
        self.service.drain();
    }
}

/// Sends raw bytes, returns the full raw response (empty when the server
/// hung up without answering).
fn raw_roundtrip(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).unwrap();
    let _ = s.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

/// The response body (everything after the header block).
fn body_of(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    text.split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string())
}

/// Submits `SPEC` and returns the job id.
fn submit_spec(addr: &str) -> String {
    let raw = raw_roundtrip(addr, &full_request("POST", "/jobs", SPEC));
    assert_eq!(status_code(&raw), Some(202));
    let row = noc_experiments::jsonio::parse_flat(body_of(&raw).trim()).expect("status row");
    row["id"].clone()
}

fn status_code(raw: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(raw);
    text.split_whitespace().nth(1).and_then(|c| c.parse().ok())
}

fn full_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const SPEC: &str = r#"{"kind": "sweep", "schemes": "SEEC", "transients": "0.0", "cycles": "2000"}"#;

/// A request torn at EVERY byte offset — including cuts inside the
/// request line, inside headers, and inside the body — never kills the
/// server: after all of them, a whole request still gets a clean answer
/// and the tears show up in the reset counter.
#[test]
fn torn_request_at_every_byte_offset_leaves_server_alive() {
    let h = Harness::start("torn_req", HttpOpts::default());
    let request = full_request("POST", "/jobs", SPEC);
    for cut in 1..request.len() {
        let mut s = TcpStream::connect(&h.addr).unwrap();
        s.write_all(&request[..cut]).unwrap();
        // The tear: the client dies mid-request.
        drop(s);
    }
    // The server took every tear and still serves.
    let raw = raw_roundtrip(&h.addr, &full_request("GET", "/healthz", ""));
    assert_eq!(status_code(&raw), Some(200));
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("\"connections_reset\""), "healthz: {text}");
    // Counts and flags are typed JSON, not strings.
    assert!(text.contains("\"queued\": 0,"), "healthz: {text}");
    assert!(text.contains("\"draining\": false,"), "healthz: {text}");
    // Most cuts die before a complete request; all of those are resets.
    assert!(
        h.service.net().reset.get() > 0,
        "no tear was counted as a reset"
    );
    // And a whole submission still works.
    let raw = raw_roundtrip(&h.addr, &full_request("POST", "/jobs", SPEC));
    assert_eq!(status_code(&raw), Some(202), "server damaged by tears");
}

/// A client that connects and trickles nothing is killed at the request
/// deadline with `408`, and the kill is counted.
#[test]
fn slow_loris_is_killed_at_the_deadline() {
    let h = Harness::start(
        "loris",
        HttpOpts {
            request_deadline_ms: 150,
            ..HttpOpts::default()
        },
    );
    let mut s = TcpStream::connect(&h.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A drip of header bytes, never finishing the request.
    s.write_all(b"POST /jobs HTTP/1.1\r\nHost: t").unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    assert_eq!(
        status_code(&out),
        Some(408),
        "{}",
        String::from_utf8_lossy(&out)
    );
    assert_eq!(h.service.net().deadline_kills.get(), 1);
}

/// An endless header line is refused at the cap with `431` — fixed-size
/// buffering, not unbounded growth.
#[test]
fn endless_header_line_is_refused_with_431() {
    let h = Harness::start(
        "longline",
        HttpOpts {
            max_header_line: 1024,
            ..HttpOpts::default()
        },
    );
    let mut req = b"GET /healthz HTTP/1.1\r\nX-Flood: ".to_vec();
    req.extend(std::iter::repeat_n(b'a', 8 * 1024));
    // No newline: the line would grow forever without the cap.
    let raw = raw_roundtrip(&h.addr, &req);
    assert_eq!(
        status_code(&raw),
        Some(431),
        "{}",
        String::from_utf8_lossy(&raw)
    );
    assert_eq!(h.service.net().header_rejects.get(), 1);

    // An over-long REQUEST line hits the same cap.
    let mut req = b"GET /".to_vec();
    req.extend(std::iter::repeat_n(b'x', 8 * 1024));
    let raw = raw_roundtrip(&h.addr, &req);
    assert_eq!(status_code(&raw), Some(431));
}

/// Too many header lines is also a `431`.
#[test]
fn too_many_headers_is_refused_with_431() {
    let h = Harness::start(
        "manyheads",
        HttpOpts {
            max_headers: 8,
            ..HttpOpts::default()
        },
    );
    let mut req = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..32 {
        req.push_str(&format!("X-H{i}: v\r\n"));
    }
    req.push_str("\r\n");
    let raw = raw_roundtrip(&h.addr, req.as_bytes());
    assert_eq!(status_code(&raw), Some(431));
    assert!(h.service.net().header_rejects.get() >= 1);
}

/// With the connection cap at zero every arrival is shed inline with
/// `503` + `Retry-After`, and the shed is counted.
#[test]
fn saturated_server_sheds_with_503_retry_after() {
    let h = Harness::start(
        "shed",
        HttpOpts {
            max_connections: 0,
            ..HttpOpts::default()
        },
    );
    let raw = raw_roundtrip(&h.addr, &full_request("GET", "/healthz", ""));
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(status_code(&raw), Some(503), "{text}");
    assert!(text.contains("Retry-After"), "{text}");
    assert!(h.service.net().shed.get() >= 1);
    assert!(h.service.net().accepted.get() >= 1);
}

/// A retried submission is absorbed by the content address as a `200`
/// dedupe, and the hit is visible in healthz — the counter soaks use to
/// prove the idempotency escape channel actually fired.
#[test]
fn resubmission_dedupes_and_counts_the_hit() {
    let h = Harness::start("dedupe", HttpOpts::default());
    let first = raw_roundtrip(&h.addr, &full_request("POST", "/jobs", SPEC));
    assert_eq!(status_code(&first), Some(202));
    let again = raw_roundtrip(&h.addr, &full_request("POST", "/jobs", SPEC));
    assert_eq!(status_code(&again), Some(200), "retry must dedupe");
    assert_eq!(h.service.net().dedupe_hits.get(), 1);
    let raw = raw_roundtrip(&h.addr, &full_request("GET", "/healthz", ""));
    assert!(
        String::from_utf8_lossy(&raw).contains("\"dedupe_hits\": 1"),
        "{}",
        String::from_utf8_lossy(&raw)
    );
}

/// An idle server answers in the time the work takes: no accept-loop
/// sleep sits in front of a request (the polling loop's floor was 20 ms).
#[test]
fn idle_server_answers_without_a_sleep() {
    let h = Harness::start("idle", HttpOpts::default());
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            // The next connection arrives at a listener that has gone idle.
            std::thread::sleep(Duration::from_millis(2));
            let t0 = Instant::now();
            let raw = raw_roundtrip(&h.addr, &full_request("GET", "/healthz", ""));
            assert_eq!(status_code(&raw), Some(200));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    assert!(ms[10] < 10.0, "median healthz round trip {:.2} ms", ms[10]);
}

/// The blocked accept loop notices the flag by itself — nobody has to
/// connect — and a parked long-poll does not hold the exit for its
/// patience: it is woken and answers with the row it has.
#[test]
fn shutdown_needs_no_client_and_wakes_long_polls() {
    let mut h = Harness::start("stop_idle", HttpOpts::default());
    std::thread::sleep(Duration::from_millis(50)); // parked in accept
    let took = h.stop();
    assert!(took < Duration::from_millis(250), "idle stop took {took:?}");

    let mut h = Harness::start("stop_waiter", HttpOpts::default());
    let id = submit_spec(&h.addr);
    let waiter = {
        let addr = h.addr.clone();
        let path = format!("/jobs/{id}?wait_ms=20000");
        std::thread::spawn(move || raw_roundtrip(&addr, &full_request("GET", &path, "")))
    };
    std::thread::sleep(Duration::from_millis(100)); // parked on the condvar
    let took = h.stop();
    assert!(took < Duration::from_millis(250), "stop took {took:?}");
    let raw = waiter.join().unwrap();
    assert_eq!(status_code(&raw), Some(200));
    assert!(body_of(&raw).contains("\"stage\": \"queued\""));
    // The wake-up connection is nobody's request.
    assert_eq!(h.service.net().accepted.get(), 2, "submit + long-poll");
}

/// `?wait_ms=` holds the request until the lifecycle edge, not until the
/// next poll: the row arrives within 50 ms of the job going DONE.
#[test]
fn long_poll_returns_at_the_done_edge() {
    let h = Harness::start_with(
        "wait_done",
        HttpOpts::default(),
        1,
        Transport::passthrough(),
    );
    let id = submit_spec(&h.addr);
    let waiter = {
        let addr = h.addr.clone();
        let path = format!("/jobs/{id}?wait_ms=20000");
        std::thread::spawn(move || {
            let raw = raw_roundtrip(&addr, &full_request("GET", &path, ""));
            (raw, Instant::now())
        })
    };
    // Observed at 1 ms granularity, so never earlier than the edge.
    let seen_done = loop {
        if h.service.status(&id).unwrap().stage.is_terminal() {
            break Instant::now();
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let (raw, answered) = waiter.join().unwrap();
    assert_eq!(status_code(&raw), Some(200));
    assert!(
        body_of(&raw).contains("\"stage\": \"done\""),
        "{}",
        body_of(&raw)
    );
    let late = answered.saturating_duration_since(seen_done);
    assert!(
        late < Duration::from_millis(50),
        "answered {late:?} after DONE"
    );
}

/// At timeout the long-poll answers with the current, non-terminal row;
/// a garbage `wait_ms` is no wait at all; and a parked request consumes
/// no fault-plan op index — the plan counts operations, not time.
#[test]
fn long_poll_times_out_with_the_current_row_and_burns_no_ops() {
    let net = FaultNet::new(NetFaultPlan::default());
    let h = Harness::start_with(
        "wait_timeout",
        HttpOpts::default(),
        0,
        Transport::faulted(Arc::clone(&net)),
    );
    let id = submit_spec(&h.addr);

    let t0 = Instant::now();
    let raw = raw_roundtrip(
        &h.addr,
        &full_request("GET", &format!("/jobs/{id}?wait_ms=abc"), ""),
    );
    assert_eq!(status_code(&raw), Some(200));
    assert!(t0.elapsed() < Duration::from_millis(150), "garbage waited");

    let t0 = Instant::now();
    let waiter = {
        let addr = h.addr.clone();
        let path = format!("/jobs/{id}?wait_ms=400");
        std::thread::spawn(move || raw_roundtrip(&addr, &full_request("GET", &path, "")))
    };
    std::thread::sleep(Duration::from_millis(150)); // request read, now parked
    let parked_at = net.ops();
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(net.ops(), parked_at, "a parked long-poll consumed plan ops");
    let raw = waiter.join().unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(400), "answered early");
    assert_eq!(status_code(&raw), Some(200));
    assert!(body_of(&raw).contains("\"stage\": \"queued\""));
    assert!(
        net.ops() > parked_at,
        "the answer is written through the plan"
    );
}

/// A rows journal that cannot be read is `503` + `Retry-After`, never a
/// `200` with an empty body that a client would verify as zero rows.
#[test]
fn unreadable_rows_journal_is_a_503_not_an_empty_200() {
    let h = Harness::start_with("rows_err", HttpOpts::default(), 1, Transport::passthrough());
    let id = submit_spec(&h.addr);
    let wait = format!("/jobs/{id}?wait_ms=20000");
    let raw = raw_roundtrip(&h.addr, &full_request("GET", &wait, ""));
    assert!(
        body_of(&raw).contains("\"stage\": \"done\""),
        "{}",
        body_of(&raw)
    );
    let rows_req = full_request("GET", &format!("/jobs/{id}/rows"), "");
    let good = raw_roundtrip(&h.addr, &rows_req);
    assert_eq!(status_code(&good), Some(200));
    assert_eq!(body_of(&good).lines().count(), 1);

    // Reading a directory fails with something other than NotFound.
    let journal = h.service.rows_path(&id).unwrap();
    let aside = journal.with_extension("aside");
    std::fs::rename(&journal, &aside).unwrap();
    std::fs::create_dir(&journal).unwrap();
    let bad = raw_roundtrip(&h.addr, &rows_req);
    let text = String::from_utf8_lossy(&bad);
    assert_eq!(status_code(&bad), Some(503), "{text}");
    assert!(text.contains("Retry-After"), "{text}");

    std::fs::remove_dir(&journal).unwrap();
    std::fs::rename(&aside, &journal).unwrap();
    assert_eq!(raw_roundtrip(&h.addr, &rows_req), good);
}
