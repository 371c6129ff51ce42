//! A deliberately tiny HTTP/1.1 server over `std::net` — no framework, no
//! async runtime, no external dependency. Thread-per-connection with a
//! per-connection total-request deadline; one request per connection
//! (`Connection: close`).
//!
//! Nothing on a request's path sleeps or polls. The accept loop **blocks**
//! in `accept`, so an idle server answers in the time the work takes; a
//! status request may **long-poll** (`?wait_ms=`) on the registry's
//! condvar, so a client learns of `DONE` at the edge instead of at its
//! next poll. The one timer left — a watcher thread that looks at the
//! shutdown flag every [`SHUTDOWN_POLL`] — sits beside the path, not on
//! it: when the flag flips it wakes the blocked `accept` with a loopback
//! connection, the loop exits, pending long-polls are woken to answer
//! with what they have, and every connection thread is joined.
//!
//! ```text
//! POST /jobs            submit (flat JSON body)  202 created / 200 dedupe
//!                       400 bad spec · 413 body too large
//!                       429 + Retry-After queue full · 503 draining
//!                       503 + Retry-After storage degraded (read-only)
//! GET  /jobs            every job, one JSON row per line
//! GET  /jobs/<id>       one job's status row            (404 unknown)
//! GET  /jobs/<id>?wait_ms=N   the same row, held until the job is
//!                       terminal, the server shuts down, or N ms pass
//!                       (N capped at 30 000; garbage N = no wait)
//! GET  /jobs/<id>/rows  the unit journal, as JSONL      (404 unknown)
//!                       503 + Retry-After journal unreadable
//! POST /jobs/<id>/cancel                                 (409 terminal)
//! GET  /healthz         liveness + queue depth + storage + net counters
//! POST /drain           begin graceful shutdown, 202
//! ```
//!
//! ## Admission hardening
//!
//! The accept loop is the service's outermost shed point, and every limit
//! is enforced *before* work is queued:
//!
//! * **bounded concurrency** — at most [`HttpOpts::max_connections`]
//!   in-flight connections, a parked long-poll included; the overflow
//!   connection gets an immediate `503` + `Retry-After` on the accept
//!   thread and is counted in `connections_shed`;
//! * **total-request deadline** — a connection has
//!   [`HttpOpts::request_deadline_ms`] to deliver its whole request
//!   (slow-loris defense): the socket read timeout is always the
//!   *remaining* deadline, so a stalled client costs one timed-out read,
//!   never an unbounded block, and is refused with `408`
//!   (`deadline_kills`);
//! * **bounded headers** — header lines are capped at
//!   [`HttpOpts::max_header_line`] bytes and [`HttpOpts::max_headers`]
//!   lines, refused with `431` (`header_rejects`) — an endless header
//!   line costs a fixed-size buffer, not unbounded memory;
//! * **tracked workers** — connection threads are reaped as they finish
//!   and joined when the accept loop exits, so a drain never abandons a
//!   worker mid-response.
//!
//! All traffic flows through a `noc_net::Transport`: passthrough in
//! production (one branch per op), a replayable fault plan under the
//! `NOC_NET_FAULT_*` knobs or in the network-chaos soak. The plan counts
//! operations, not time: a blocked accept, the shutdown wake-up connection
//! and a parked long-poll consume no op index.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use noc_experiments::jsonio;
use noc_net::{FaultStream, Transport};

use crate::service::{Service, SubmitError};

/// Largest accepted request body. Specs are small; anything bigger is a
/// client bug or abuse, refused with `413`.
const MAX_BODY: usize = 64 * 1024;

/// Longest a `?wait_ms=` long-poll is held. Above any sane client read
/// timeout's half (the client asks for `op_timeout_ms / 2`), below "a
/// connection slot is gone for good".
const MAX_WAIT_MS: u64 = 30_000;

/// How often the watcher thread looks at the shutdown flag — the bound on
/// how long a drain waits for the accept loop, and the only periodic timer
/// in this module.
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// Admission limits for the HTTP layer. Every knob sheds *early* — at
/// accept or header-parse time — so overload costs a refusal, not memory
/// or a hung worker.
#[derive(Clone, Debug)]
pub struct HttpOpts {
    /// In-flight connection cap; the overflow connection is shed with
    /// `503` + `Retry-After` on the accept thread.
    pub max_connections: usize,
    /// Total time a connection gets to deliver its request (slow-loris
    /// defense); expired connections are refused with `408`.
    pub request_deadline_ms: u64,
    /// Longest accepted request/header line, in bytes (`431` beyond).
    pub max_header_line: usize,
    /// Most header lines accepted per request (`431` beyond).
    pub max_headers: usize,
}

impl Default for HttpOpts {
    fn default() -> HttpOpts {
        HttpOpts {
            max_connections: 64,
            request_deadline_ms: 10_000,
            max_header_line: 8 * 1024,
            max_headers: 64,
        }
    }
}

/// Serves until `shutdown` flips true (SIGTERM/SIGINT or `POST /drain`),
/// with default limits over the process-wide transport (passthrough unless
/// the `NOC_NET_FAULT_*` knobs are set).
pub fn serve(listener: TcpListener, service: &Arc<Service>, shutdown: &Arc<AtomicBool>) {
    serve_with(
        listener,
        service,
        shutdown,
        &HttpOpts::default(),
        &Transport::from_env(),
    );
}

/// [`serve`] with explicit limits and transport (the chaos soak injects a
/// faulted transport here). The listener blocks; a watcher thread turns
/// the flag flipping into a loopback connection that unblocks it (dropped
/// before the fault plan or any counter sees it). Each accepted connection
/// is handled on a tracked thread, reaped as it finishes and joined before
/// returning — after pending long-polls have been woken.
pub fn serve_with(
    listener: TcpListener,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
    opts: &HttpOpts,
    transport: &Transport,
) {
    let listener = transport.listener(listener);
    let wake_addr = listener.local_addr();
    let exited = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            while !exited.load(Ordering::SeqCst) {
                if shutdown.load(Ordering::SeqCst) {
                    if let Ok(addr) = &wake_addr {
                        let _ = TcpStream::connect_timeout(addr, SHUTDOWN_POLL);
                    }
                }
                std::thread::park_timeout(SHUTDOWN_POLL);
            }
        });
        accept_loop(&listener, service, shutdown, opts);
        exited.store(true, Ordering::SeqCst);
        watcher.thread().unpark();
    });
}

fn accept_loop(
    listener: &noc_net::FaultListener,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
    opts: &HttpOpts,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        // Reap finished connection threads so the tracking list stays
        // proportional to live connections, not total served.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        match listener.accept_unless(shutdown) {
            Ok(None) => break, // the watcher's wake-up
            Ok(Some((stream, _))) => {
                service.net().accepted.incr();
                if live.load(Ordering::SeqCst) >= opts.max_connections {
                    // Shed inline on the accept thread: the response is a
                    // handful of bytes and spawning would defeat the cap.
                    service.net().shed.incr();
                    let _ = shed_response(stream);
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let conn_service = Arc::clone(service);
                let conn_shutdown = Arc::clone(shutdown);
                let conn_live = Arc::clone(&live);
                let conn_opts = opts.clone();
                let spawned = std::thread::Builder::new()
                    .name("noc-serve-conn".to_string())
                    .spawn(move || {
                        let _guard = LiveGuard(conn_live);
                        if handle(stream, &conn_service, &conn_shutdown, &conn_opts).is_err() {
                            conn_service.net().reset.incr();
                        }
                    });
                match spawned {
                    Ok(h) => handles.push(h),
                    Err(_) => {
                        // Spawn failure counts as a shed: the connection
                        // dies, the counter got its decrement via the
                        // guard never existing.
                        live.fetch_sub(1, Ordering::SeqCst);
                        service.net().shed.incr();
                    }
                }
            }
            Err(_) => {
                // A failed accept (injected or real) drops one pending
                // connection; the listener itself survives.
                service.net().reset.incr();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // A parked long-poll would otherwise hold its thread, and this join,
    // for the rest of its patience.
    service.wake_waiters();
    for h in handles {
        let _ = h.join();
    }
}

/// Decrements the live-connection gauge when the connection thread exits,
/// panics included.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The inline `503` for a shed connection.
fn shed_response(stream: FaultStream) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    respond_with(
        stream,
        503,
        "Service Unavailable",
        &[("Retry-After", "1")],
        &error_row("connection limit reached"),
    )
}

/// How reading a request can end before routing.
enum ReadEnd {
    /// The line/body arrived intact.
    Ok(String),
    /// The connection's total-request deadline expired (slow loris).
    Deadline,
    /// A header line exceeded the cap.
    TooLong,
    /// Clean EOF before the terminator — a torn request.
    Torn,
}

/// Reads one `\n`-terminated line with the line-length cap, under the
/// connection deadline. The socket read timeout is always the *remaining*
/// deadline, so a stalled peer costs exactly one timed-out read.
fn read_line_bounded(
    reader: &mut BufReader<FaultStream>,
    max_len: usize,
    deadline: Instant,
) -> io::Result<ReadEnd> {
    let mut line = Vec::new();
    loop {
        let Some(remaining) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            return Ok(ReadEnd::Deadline);
        };
        reader.get_ref().set_read_timeout(Some(remaining))?;
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(ReadEnd::Deadline)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(ReadEnd::Torn);
        }
        let (take, done) = match available.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (available.len(), false),
        };
        if line.len() + take > max_len {
            return Ok(ReadEnd::TooLong);
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if done {
            return Ok(ReadEnd::Ok(String::from_utf8_lossy(&line).into_owned()));
        }
    }
}

/// Reads exactly `len` body bytes under the connection deadline.
fn read_body_bounded(
    reader: &mut BufReader<FaultStream>,
    len: usize,
    deadline: Instant,
) -> io::Result<ReadEnd> {
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        let Some(remaining) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            return Ok(ReadEnd::Deadline);
        };
        reader.get_ref().set_read_timeout(Some(remaining))?;
        match reader.read(&mut body[got..]) {
            Ok(0) => return Ok(ReadEnd::Torn),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(ReadEnd::Deadline)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ReadEnd::Ok(String::from_utf8_lossy(&body).into_owned()))
}

fn handle(
    stream: FaultStream,
    service: &Service,
    shutdown: &AtomicBool,
    opts: &HttpOpts,
) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_millis(opts.request_deadline_ms.max(1));
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let line = match read_line_bounded(&mut reader, opts.max_header_line, deadline)? {
        ReadEnd::Ok(line) => line,
        ReadEnd::Deadline => return refuse_deadline(stream, service),
        ReadEnd::TooLong => return refuse_headers(stream, service, "request line too long"),
        ReadEnd::Torn => {
            service.net().reset.incr();
            return Ok(()); // nothing arrived worth answering
        }
    };
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return respond(
                stream,
                400,
                "Bad Request",
                r#"{"error": "malformed request line"}"#,
            )
        }
    };
    // Headers: only Content-Length matters to us, but every line is held
    // to the caps.
    let mut content_length = 0usize;
    let mut header_count = 0usize;
    loop {
        let h = match read_line_bounded(&mut reader, opts.max_header_line, deadline)? {
            ReadEnd::Ok(h) => h,
            ReadEnd::Deadline => return refuse_deadline(stream, service),
            ReadEnd::TooLong => return refuse_headers(stream, service, "header line too long"),
            ReadEnd::Torn => break, // EOF ends the header block
        };
        let h = h.trim();
        if h.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > opts.max_headers {
            return refuse_headers(stream, service, "too many headers");
        }
        if let Some(v) = h
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    if content_length > MAX_BODY {
        // Drain (bounded) before erroring so the client can finish its
        // write and read the 413 instead of tripping over a broken pipe.
        let mut remaining = content_length.min(1 << 20);
        let mut scratch = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(scratch.len());
            let n = match reader.read(&mut scratch[..take]) {
                Ok(n) => n,
                Err(_) => break,
            };
            if n == 0 {
                break;
            }
            remaining -= n;
        }
        return respond(
            stream,
            413,
            "Payload Too Large",
            r#"{"error": "body too large"}"#,
        );
    }
    let body = match read_body_bounded(&mut reader, content_length, deadline)? {
        ReadEnd::Ok(body) => body,
        ReadEnd::Deadline => return refuse_deadline(stream, service),
        ReadEnd::Torn => {
            // The request died inside its body: nothing was admitted, the
            // peer is gone — count the tear and hang up.
            service.net().reset.incr();
            return Ok(());
        }
        ReadEnd::TooLong => unreachable!("body reads have no line cap"),
    };
    let (path, query) = path.split_once('?').unwrap_or((&path, ""));
    route(stream, service, shutdown, &method, path, query, &body)
}

/// The `wait_ms` of a status request's query string, capped; absent or
/// garbage means "do not wait".
fn wait_of(query: &str) -> Duration {
    let ms = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("wait_ms="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_millis(ms.min(MAX_WAIT_MS))
}

fn refuse_deadline(stream: FaultStream, service: &Service) -> io::Result<()> {
    service.net().deadline_kills.incr();
    respond(
        stream,
        408,
        "Request Timeout",
        &error_row("request deadline exceeded"),
    )
}

fn refuse_headers(stream: FaultStream, service: &Service, why: &str) -> io::Result<()> {
    service.net().header_rejects.incr();
    respond(
        stream,
        431,
        "Request Header Fields Too Large",
        &error_row(why),
    )
}

fn route(
    stream: FaultStream,
    service: &Service,
    shutdown: &AtomicBool,
    method: &str,
    path: &str,
    query: &str,
    body: &str,
) -> io::Result<()> {
    match (method, path) {
        ("POST", "/jobs") => {
            let Some(row) = jsonio::parse_flat(body.trim()) else {
                return respond(
                    stream,
                    400,
                    "Bad Request",
                    r#"{"error": "body is not a flat JSON object"}"#,
                );
            };
            match service.submit(&row) {
                Ok((status, created)) => {
                    let (code, reason) = if created {
                        (202, "Accepted")
                    } else {
                        (200, "OK")
                    };
                    respond(stream, code, reason, &status.to_row())
                }
                Err(SubmitError::Invalid(e)) => respond(stream, 400, "Bad Request", &error_row(&e)),
                Err(SubmitError::Busy(full)) => respond_with(
                    stream,
                    429,
                    "Too Many Requests",
                    &[("Retry-After", &full.retry_after_s.to_string())],
                    &error_row("queue full"),
                ),
                Err(SubmitError::Draining) => {
                    respond(stream, 503, "Service Unavailable", &error_row("draining"))
                }
                Err(SubmitError::StorageDegraded(why)) => respond_with(
                    stream,
                    503,
                    "Service Unavailable",
                    &[("Retry-After", "5")],
                    &error_row(&format!("storage degraded (read-only): {why}")),
                ),
            }
        }
        ("GET", "/jobs") => {
            let rows: Vec<String> = service
                .list()
                .iter()
                .map(crate::service::JobStatus::to_row)
                .collect();
            respond(stream, 200, "OK", &rows.join("\n"))
        }
        ("GET", "/healthz") => {
            let degraded = service.storage_degraded();
            let net = service.net();
            let mut obj = jsonio::JsonObj::new()
                .str_field("status", if degraded { "degraded" } else { "ok" })
                .str_field("storage", if degraded { "read-only" } else { "ok" })
                .raw_field("draining", &service.is_draining().to_string())
                .u64_field("queued", service.queued() as u64)
                .u64_field("connections_accepted", net.accepted.get())
                .u64_field("connections_shed", net.shed.get())
                .u64_field("connections_reset", net.reset.get())
                .u64_field("deadline_kills", net.deadline_kills.get())
                .u64_field("header_rejects", net.header_rejects.get())
                .u64_field("dedupe_hits", net.dedupe_hits.get());
            if let Some(why) = service.storage_detail() {
                obj = obj.str_field("storage_detail", &why);
            }
            respond(stream, 200, "OK", &obj.finish())
        }
        ("POST", "/drain") => {
            shutdown.store(true, Ordering::SeqCst);
            respond(stream, 202, "Accepted", r#"{"status": "draining"}"#)
        }
        ("POST", p) if p.starts_with("/jobs/") && p.ends_with("/cancel") => {
            let id = &p["/jobs/".len()..p.len() - "/cancel".len()];
            match service.cancel(id) {
                Ok(status) => respond(stream, 200, "OK", &status.to_row()),
                Err(Some(stage)) => respond(
                    stream,
                    409,
                    "Conflict",
                    &error_row(&format!("job is terminal ({stage})")),
                ),
                Err(None) => respond(stream, 404, "Not Found", &error_row("unknown job")),
            }
        }
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/rows") => {
            let id = &p["/jobs/".len()..p.len() - "/rows".len()];
            match service.rows_path(id) {
                // A queued job has no journal yet: that is an empty row
                // set. Any other read failure is storage misbehaving, and
                // must not pass for "zero rows".
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => respond(stream, 200, "OK", &text),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => respond(stream, 200, "OK", ""),
                    Err(e) => respond_with(
                        stream,
                        503,
                        "Service Unavailable",
                        &[("Retry-After", "1")],
                        &error_row(&format!("cannot read rows: {e}")),
                    ),
                },
                None => respond(stream, 404, "Not Found", &error_row("unknown job")),
            }
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let id = &p["/jobs/".len()..];
            match service.status_when_terminal(id, wait_of(query), shutdown) {
                Some(status) => respond(stream, 200, "OK", &status.to_row()),
                None => respond(stream, 404, "Not Found", &error_row("unknown job")),
            }
        }
        _ => respond(stream, 404, "Not Found", &error_row("no such route")),
    }
}

fn error_row(msg: &str) -> String {
    noc_experiments::jsonio::JsonObj::new()
        .str_field("error", msg)
        .finish()
}

fn respond(stream: FaultStream, code: u16, reason: &str, body: &str) -> io::Result<()> {
    respond_with(stream, code, reason, &[], body)
}

fn respond_with(
    mut stream: FaultStream,
    code: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
