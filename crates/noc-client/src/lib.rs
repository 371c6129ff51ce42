//! `noc-client`: an idempotent, retrying client for the `noc-serve` job
//! service.
//!
//! The SEEC thesis applied to the network boundary: instead of assuming a
//! perfect transport, every call rides a cheap, always-available escape
//! channel — capped exponential backoff (`base_ms << (n-1)`, 64× cap, the
//! same discipline as the server's worker retry path) over safe
//! resubmission. Resubmitting a job is *always* safe because admission is
//! content-addressed: a retry after a torn response lands on the existing
//! job as a `200` dedupe hit, never a duplicate execution.
//!
//! Torn responses are detected two ways, both mandatory:
//!
//! * **length**: the server always sends `Content-Length`; a body that
//!   ends early is a tear, never trusted;
//! * **per-row CRC**: journal rows arrive CRC-sealed (`#c=<8hex>`), so a
//!   response cut *inside* a row line — or a row corrupted anywhere along
//!   the path — fails its seal and the fetch retries.
//!
//! All traffic flows through a `noc_net::Transport`, so the chaos soak can
//! replay scheduled faults against the client side of the conversation.

#![forbid(unsafe_code)]

pub mod soak;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::Duration;

use noc_experiments::jsonio;
use noc_experiments::sweep::{load_line, LoadedLine};
use noc_net::Transport;

/// Retry/backoff knobs.
#[derive(Clone, Debug)]
pub struct ClientOpts {
    /// Base backoff; the sleep before retry `n` is `base_ms << (n-1)`,
    /// capped at 64× the base.
    pub retry_base_ms: u64,
    /// Attempts per call before giving up.
    pub max_attempts: u32,
    /// Per-operation socket timeout (connect, read, write).
    pub op_timeout_ms: u64,
}

impl Default for ClientOpts {
    fn default() -> ClientOpts {
        ClientOpts {
            retry_base_ms: 50,
            max_attempts: 8,
            op_timeout_ms: 5_000,
        }
    }
}

/// Why a call failed *after* the retry budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The server answered with a non-retryable error status.
    Http(u16, String),
    /// A response failed torn/corrupt detection on the final attempt.
    Torn(String),
    /// Every attempt failed; the message is the last failure.
    GaveUp(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Http(code, body) => write!(f, "HTTP {code}: {body}"),
            ClientError::Torn(why) => write!(f, "torn response: {why}"),
            ClientError::GaveUp(last) => write!(f, "gave up after retries: {last}"),
        }
    }
}

/// One parsed HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub code: u16,
    /// `Retry-After` header, in milliseconds, when present.
    pub retry_after_ms: Option<u64>,
    /// The (length-verified) body.
    pub body: String,
}

/// Client view of one job's status row.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Content-address id.
    pub id: String,
    /// Stage label (`queued`/`running`/`checkpointed`/`done`/`failed`/
    /// `cancelled`).
    pub stage: String,
    /// Every field of the status row, for callers that need more.
    pub row: BTreeMap<String, String>,
}

impl JobView {
    fn parse(body: &str) -> Result<JobView, ClientError> {
        let row = jsonio::parse_flat(body.trim())
            .ok_or_else(|| ClientError::Torn(format!("status row is not flat JSON: {body}")))?;
        let id = row.get("id").cloned().unwrap_or_default();
        let stage = row.get("stage").cloned().unwrap_or_default();
        if id.is_empty() || stage.is_empty() {
            return Err(ClientError::Torn(format!(
                "status row missing id/stage: {body}"
            )));
        }
        Ok(JobView { id, stage, row })
    }

    /// True when the job can never change stage again.
    pub fn is_terminal(&self) -> bool {
        matches!(self.stage.as_str(), "done" | "failed" | "cancelled")
    }
}

/// The client: an address, retry knobs, and a transport.
pub struct Client {
    addr: String,
    opts: ClientOpts,
    transport: Transport,
}

impl Client {
    /// Client over the process-wide transport (passthrough unless the
    /// `NOC_NET_FAULT_*` knobs are set).
    #[must_use]
    pub fn new(addr: &str, opts: ClientOpts) -> Client {
        Client::with_transport(addr, opts, Transport::from_env())
    }

    /// Client over an explicit transport (the chaos soak injects faulted
    /// ones here).
    #[must_use]
    pub fn with_transport(addr: &str, opts: ClientOpts, transport: Transport) -> Client {
        Client {
            addr: addr.to_string(),
            opts,
            transport,
        }
    }

    /// One raw request/response over a fresh `Connection: close` socket.
    /// The error is a transport-level failure (retryable); a parsed
    /// response with any status code is `Ok`.
    fn one_request(&self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let timeout = Duration::from_millis(self.opts.op_timeout_ms.max(1));
        let mut stream = self
            .transport
            .connect(&self.addr, timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("socket setup: {e}"))?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("send request: {e}"))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("read response: {e}"))?;
        parse_response(&raw)
    }

    /// A request under the retry discipline. Retryable outcomes —
    /// transport failures, torn responses, `408`/`429`/`5xx` — back off
    /// `base_ms << (n-1)` (64× cap), stretched to any `Retry-After` the
    /// server sent (still under the cap, so soaks stay bounded). Other
    /// statuses return to the caller.
    pub fn request_with_retry(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Response, ClientError> {
        self.retrying(method, path, body, |resp| Ok(Ok(resp)))
    }

    /// The one retry loop. `settle` turns a non-retryable response into
    /// the call's answer, or into `Err(why)` when the response itself is
    /// damaged (a row that fails its seal) and the request must be retried.
    fn retrying<T>(
        &self,
        method: &str,
        path: &str,
        body: &str,
        settle: impl Fn(Response) -> Result<Result<T, ClientError>, String>,
    ) -> Result<T, ClientError> {
        let mut last = String::from("no attempts made");
        let mut retry_after_ms = None;
        for attempt in 1..=self.opts.max_attempts.max(1) {
            if attempt > 1 {
                let wait = self.backoff_ms(attempt - 1, retry_after_ms.take());
                std::thread::sleep(Duration::from_millis(wait));
            }
            match self.one_request(method, path, body) {
                Ok(resp) if retryable_status(resp.code) => {
                    last = format!(
                        "HTTP {} (retry-after {:?} ms): {}",
                        resp.code, resp.retry_after_ms, resp.body
                    );
                    retry_after_ms = resp.retry_after_ms;
                }
                Ok(resp) => match settle(resp) {
                    Ok(answer) => return answer,
                    Err(why) => last = why,
                },
                Err(e) => last = e,
            }
        }
        Err(ClientError::GaveUp(last))
    }

    /// The sleep before the retry following failed attempt `n` (1-based):
    /// [`noc_store::backoff`], stretched toward the server's `Retry-After`
    /// when one was sent (the backoff's own cap still wins).
    fn backoff_ms(&self, failed_attempt: u32, retry_after_ms: Option<u64>) -> u64 {
        let base = self.opts.retry_base_ms.max(1);
        let cap = noc_store::backoff(base, u32::MAX);
        let wait = noc_store::backoff(base, failed_attempt);
        wait.max(retry_after_ms.unwrap_or(0)).min(cap)
    }

    /// Submits a job spec (a flat JSON object). `true` means newly
    /// created (`202`); `false` means the content address deduped onto an
    /// existing job (`200`) — which is exactly what a retry after a torn
    /// response should see.
    pub fn submit(&self, spec_json: &str) -> Result<(JobView, bool), ClientError> {
        let resp = self.request_with_retry("POST", "/jobs", spec_json)?;
        match resp.code {
            202 => Ok((JobView::parse(&resp.body)?, true)),
            200 => Ok((JobView::parse(&resp.body)?, false)),
            code => Err(ClientError::Http(code, resp.body)),
        }
    }

    /// One job's status row.
    pub fn status(&self, id: &str) -> Result<JobView, ClientError> {
        self.status_at(&format!("/jobs/{id}"))
    }

    fn status_at(&self, path: &str) -> Result<JobView, ClientError> {
        let resp = self.request_with_retry("GET", path, "")?;
        match resp.code {
            200 => JobView::parse(&resp.body),
            code => Err(ClientError::Http(code, resp.body)),
        }
    }

    /// Requests cancellation. `Ok` is the post-cancel status row.
    pub fn cancel(&self, id: &str) -> Result<JobView, ClientError> {
        let resp = self.request_with_retry("POST", &format!("/jobs/{id}/cancel"), "")?;
        match resp.code {
            200 => JobView::parse(&resp.body),
            code => Err(ClientError::Http(code, resp.body)),
        }
    }

    /// The service health row (includes the network counters).
    pub fn healthz(&self) -> Result<BTreeMap<String, String>, ClientError> {
        let resp = self.request_with_retry("GET", "/healthz", "")?;
        if resp.code != 200 {
            return Err(ClientError::Http(resp.code, resp.body));
        }
        jsonio::parse_flat(resp.body.trim())
            .ok_or_else(|| ClientError::Torn(format!("healthz is not flat JSON: {}", resp.body)))
    }

    /// The job's result rows, **verified**: every line must pass its CRC
    /// seal (legacy unsealed lines must at least parse as flat JSON). A
    /// response cut inside a row line or corrupted in flight fails here
    /// and is retried like any other tear; the returned payloads have the
    /// seals stripped.
    pub fn rows_verified(&self, id: &str) -> Result<Vec<String>, ClientError> {
        self.retrying("GET", &format!("/jobs/{id}/rows"), "", |resp| {
            if resp.code != 200 {
                return Ok(Err(ClientError::Http(resp.code, resp.body)));
            }
            verify_rows(&resp.body)
                .map(Ok)
                .map_err(|why| format!("row verification failed: {why}"))
        })
    }

    /// Waits until the job is terminal, tolerating transient failures
    /// (each request has its own retry budget; a `GaveUp` one just asks
    /// again) up to `budget`. Each request is a long-poll — the server
    /// holds it until the job settles or `wait_ms` passes, so the answer
    /// arrives at the `DONE` edge, not at the next poll — asking for the
    /// remaining budget, at most half the socket timeout so a held
    /// request is never mistaken for a dead one. `poll` is only the pause
    /// after an answer that was not terminal.
    pub fn await_terminal(
        &self,
        id: &str,
        budget: Duration,
        poll: Duration,
    ) -> Result<JobView, ClientError> {
        let deadline = std::time::Instant::now() + budget;
        let mut last = ClientError::GaveUp("no polls completed".into());
        loop {
            let wait_ms = deadline
                .saturating_duration_since(std::time::Instant::now())
                .as_millis()
                .min(u128::from(self.opts.op_timeout_ms / 2));
            match self.status_at(&format!("/jobs/{id}?wait_ms={wait_ms}")) {
                Ok(view) if view.is_terminal() => return Ok(view),
                Ok(_) => {}
                Err(e @ ClientError::Http(..)) => return Err(e),
                Err(e) => last = e,
            }
            if std::time::Instant::now() >= deadline {
                return Err(ClientError::GaveUp(format!(
                    "job {id} not terminal within {budget:?} (last: {last})"
                )));
            }
            std::thread::sleep(poll);
        }
    }
}

/// Statuses worth retrying: admission shed (`429`, `503`), request
/// deadline (`408`), and server-side errors.
fn retryable_status(code: u16) -> bool {
    code == 408 || code == 429 || code >= 500
}

/// Verifies a JSONL rows payload line by line with the journal's own line
/// check ([`load_line`]): sealed rows must pass their CRC, legacy unsealed
/// rows must parse. Returns the payloads, seals stripped; `Err` names the
/// first offending line.
pub fn verify_rows(body: &str) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for (i, line) in body.lines().enumerate() {
        match load_line(line) {
            LoadedLine::Blank => {}
            LoadedLine::Row(payload, _) => rows.push(payload.to_string()),
            LoadedLine::Torn => {
                return Err(format!("line {} is neither sealed nor parseable", i + 1))
            }
            LoadedLine::Corrupt => return Err(format!("line {} failed its CRC seal", i + 1)),
        }
    }
    Ok(rows)
}

/// Parses one raw HTTP/1.1 response. Length verification happens here:
/// a body shorter than its `Content-Length` is a torn response and comes
/// back as `Err` (retryable), never as truncated data.
fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let text = String::from_utf8_lossy(raw);
    let Some(head_end) = text.find("\r\n\r\n") else {
        return Err(format!(
            "torn response: no header terminator in {} byte(s)",
            raw.len()
        ));
    };
    let (head, rest) = text.split_at(head_end);
    let body = &rest["\r\n\r\n".len()..];
    let mut lines = head.lines();
    let status = lines.next().unwrap_or_default();
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status}"))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after_ms = None;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let v = v.trim();
        match k.to_ascii_lowercase().as_str() {
            "content-length" => content_length = v.parse().ok(),
            "retry-after" => retry_after_ms = v.parse::<u64>().ok().map(|s| s * 1000),
            _ => {}
        }
    }
    if let Some(cl) = content_length {
        if body.len() < cl {
            return Err(format!(
                "torn response: body {} of {cl} byte(s)",
                body.len()
            ));
        }
    }
    Ok(Response {
        code,
        retry_after_ms,
        body: content_length.map_or_else(|| body.to_string(), |cl| body[..cl].to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_accepts_whole_and_rejects_torn() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        let resp = parse_response(raw).unwrap();
        assert_eq!((resp.code, resp.body.as_str()), (200, "hello"));
        // Cut anywhere: either no header terminator or a short body —
        // never a silently truncated Ok.
        for cut in 0..raw.len() {
            match parse_response(&raw[..cut]) {
                Ok(r) => assert_eq!(r.body, "hello", "cut at {cut} returned torn body"),
                Err(e) => assert!(e.contains("torn") || e.contains("malformed"), "{e}"),
            }
        }
    }

    #[test]
    fn parse_response_reads_retry_after() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.code, 429);
        assert_eq!(resp.retry_after_ms, Some(2000));
    }

    #[test]
    fn verify_rows_catches_any_single_flip() {
        let good = format!(
            "{}\n{}\n",
            noc_store::seal_line(r#"{"point": "a", "value": 1}"#),
            noc_store::seal_line(r#"{"point": "b", "value": 2}"#),
        );
        assert_eq!(verify_rows(&good).unwrap().len(), 2);
        let bytes = good.as_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x01;
            let Ok(text) = std::str::from_utf8(&bad) else {
                continue;
            };
            if text.as_bytes()[i] == b'\n' || bytes[i] == b'\n' {
                continue; // newline flips re-frame lines; covered by frame tests
            }
            assert!(
                verify_rows(text).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn backoff_follows_the_worker_discipline() {
        let client = Client::with_transport(
            "127.0.0.1:1",
            ClientOpts {
                retry_base_ms: 10,
                max_attempts: 12,
                op_timeout_ms: 100,
            },
            Transport::passthrough(),
        );
        // base << (n-1), capped at 64x.
        assert_eq!(client.backoff_ms(1, None), 10);
        assert_eq!(client.backoff_ms(2, None), 20);
        assert_eq!(client.backoff_ms(7, None), 640);
        assert_eq!(client.backoff_ms(11, None), 640);
        // Retry-After stretches the wait but never past the cap.
        assert_eq!(client.backoff_ms(1, Some(300)), 300);
        assert_eq!(client.backoff_ms(1, Some(5000)), 640);
        // A huge base saturates; it never wraps to a zero sleep.
        let base = 1 << 58;
        let huge = Client::with_transport(
            "127.0.0.1:1",
            ClientOpts {
                retry_base_ms: base,
                ..ClientOpts::default()
            },
            Transport::passthrough(),
        );
        for n in 1..12 {
            assert!(huge.backoff_ms(n, None) >= base, "attempt {n}");
        }
    }
}
