//! Client resilience tests against a *scripted* server: a listener that
//! plays back exact byte sequences — torn responses at every byte
//! offset, length-consistent truncations, bit-flipped rows — so every
//! detection path in the client is driven deterministically, without the
//! fault transport.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener};
use std::time::{Duration, Instant};

use noc_client::{verify_rows, Client, ClientError, ClientOpts};
use noc_net::Transport;

/// Serves the scripted responses, one connection each, then exits with
/// the instant each connection was accepted. Each connection's request is
/// read (best-effort) and discarded; the scripted bytes are written and the
/// socket closed — a response cut mid-flight is exactly a prefix script
/// entry.
fn script_server(responses: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<Vec<Instant>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut arrivals = Vec::new();
        for resp in responses {
            let Ok((mut s, _)) = listener.accept() else {
                return arrivals;
            };
            arrivals.push(Instant::now());
            s.set_read_timeout(Some(Duration::from_secs(5))).ok();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf); // the request; content irrelevant
            let _ = s.write_all(&resp);
            let _ = s.shutdown(Shutdown::Both);
        }
        arrivals
    });
    (addr, handle)
}

fn quick_client(addr: &str, attempts: u32) -> Client {
    Client::with_transport(
        addr,
        ClientOpts {
            retry_base_ms: 1,
            max_attempts: attempts,
            op_timeout_ms: 2_000,
        },
        Transport::passthrough(),
    )
}

fn http_200(body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn sealed_rows_body() -> String {
    format!(
        "{}\n{}\n",
        noc_store::seal_line(r#"{"point": "p0", "latency": 12}"#),
        noc_store::seal_line(r#"{"point": "p1", "latency": 34}"#),
    )
}

/// A response cut at EVERY byte offset — inside the status line, the
/// headers, and inside a row line — is detected and retried; the retry
/// converges on the whole response with the correct rows.
#[test]
fn torn_response_at_every_byte_offset_is_retried_to_convergence() {
    let body = sealed_rows_body();
    let whole = http_200(&body);
    let expect = verify_rows(&body).unwrap();
    for cut in 0..whole.len() {
        let (addr, server) = script_server(vec![whole[..cut].to_vec(), whole.clone()]);
        let client = quick_client(&addr, 4);
        let rows = client
            .rows_verified("job")
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(rows, expect, "cut at {cut} converged on wrong rows");
        server.join().unwrap();
    }
}

/// A truncation that *lies consistently* — Content-Length matches the
/// truncated body, so the length check passes — is still caught whenever
/// the cut lands inside a row line, because the row fails its CRC seal.
/// Two cut positions per row are undetectable by design and skipped: a
/// cut exactly at the line boundary (a shorter-but-valid journal) and a
/// cut exactly at the payload/trailer boundary (the line degrades to a
/// valid pre-CRC *legacy* row, accepted for old journals — the same
/// carve-out the frame-layer tests make).
#[test]
fn length_consistent_truncation_inside_a_row_fails_crc_and_retries() {
    let body = sealed_rows_body();
    let mut undetectable: Vec<usize> = Vec::new();
    let mut start = 0usize;
    for line in body.split_inclusive('\n') {
        // Cuts at the row boundary — either side of the newline.
        undetectable.push(start + line.len());
        undetectable.push(start + line.len() - 1);
        if let Some(at) = line.rfind("#c=") {
            undetectable.push(start + at); // cut degrades the seal to legacy
        }
        start += line.len();
    }
    let mut mid_line_cuts = 0;
    for cut in 1..body.len() {
        if undetectable.contains(&cut) {
            continue;
        }
        mid_line_cuts += 1;
        let truncated = http_200(&body[..cut]); // consistent Content-Length
        let (addr, server) = script_server(vec![truncated, http_200(&body)]);
        let client = quick_client(&addr, 4);
        let rows = client
            .rows_verified("job")
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(rows, verify_rows(&body).unwrap(), "cut at {cut}");
        server.join().unwrap();
    }
    assert!(
        mid_line_cuts > 50,
        "the sweep barely swept ({mid_line_cuts})"
    );
}

/// A single bit flip inside a row — valid length, valid JSON shape either
/// side — fails the CRC seal; the client refuses the poisoned payload and
/// converges on the clean retry.
#[test]
fn bit_flipped_row_is_refused_and_retried() {
    let body = sealed_rows_body();
    let mut poisoned = body.clone().into_bytes();
    let flip_at = body.find("12").unwrap(); // inside the first row's value
    poisoned[flip_at] ^= 0x01;
    let poisoned = String::from_utf8(poisoned).unwrap();
    let (addr, server) = script_server(vec![http_200(&poisoned), http_200(&body)]);
    let client = quick_client(&addr, 4);
    let rows = client.rows_verified("job").unwrap();
    assert_eq!(rows, verify_rows(&body).unwrap());
    server.join().unwrap();
}

/// When every attempt tears, the client gives up with the last failure —
/// it never fabricates or accepts partial data.
#[test]
fn exhausted_retries_give_up_without_partial_data() {
    let body = sealed_rows_body();
    let whole = http_200(&body);
    let torn = whole[..whole.len() / 2].to_vec();
    let (addr, server) = script_server(vec![torn.clone(), torn.clone(), torn]);
    let client = quick_client(&addr, 3);
    match client.rows_verified("job") {
        Err(ClientError::GaveUp(why)) => assert!(why.contains("torn"), "{why}"),
        other => panic!("expected GaveUp, got {other:?}"),
    }
    server.join().unwrap();
}

/// `submit` retried against a flaky server is idempotent end-to-end: the
/// torn first answer is retried and the dedupe `200` is surfaced as
/// `created = false`.
#[test]
fn submit_retry_lands_on_dedupe() {
    let status_row = r#"{"id": "abc123", "stage": "queued", "attempts": 0}"#;
    let whole_202 = format!(
        "HTTP/1.1 202 Accepted\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{status_row}",
        status_row.len()
    )
    .into_bytes();
    let dedupe_200 = http_200(status_row);
    // First answer tears mid-body (the job WAS admitted server-side);
    // the retry sees the dedupe.
    let torn = whole_202[..whole_202.len() - 10].to_vec();
    let (addr, server) = script_server(vec![torn, dedupe_200]);
    let client = quick_client(&addr, 4);
    let (view, created) = client.submit(r#"{"kind": "sweep"}"#).unwrap();
    assert!(!created, "retry after tear must surface the dedupe");
    assert_eq!(view.id, "abc123");
    server.join().unwrap();
}

/// 429 + Retry-After and 503 are retried; the client converges when the
/// server recovers.
#[test]
fn shed_statuses_are_retried() {
    let busy =
        b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n".to_vec();
    let unavailable = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n".to_vec();
    let ok = http_200(r#"{"id": "abc123", "stage": "done"}"#);
    let (addr, server) = script_server(vec![busy, unavailable, ok]);
    let client = quick_client(&addr, 5);
    let view = client.status("abc123").unwrap();
    assert_eq!(view.stage, "done");
    server.join().unwrap();
}

/// The server's unreadable-rows `503` carries `Retry-After: 1`: the rows
/// fetch waits that second out, not just its own 50 ms backoff, before it
/// asks again.
#[test]
fn rows_fetch_honours_retry_after() {
    let body = sealed_rows_body();
    let unreadable = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_vec();
    let (addr, server) = script_server(vec![unreadable, http_200(&body)]);
    let client = Client::with_transport(
        &addr,
        ClientOpts {
            retry_base_ms: 50,
            max_attempts: 3,
            op_timeout_ms: 5_000,
        },
        Transport::passthrough(),
    );
    assert_eq!(
        client.rows_verified("job").unwrap(),
        verify_rows(&body).unwrap()
    );
    let arrivals = server.join().unwrap();
    let gap = arrivals[1] - arrivals[0];
    assert!(gap >= Duration::from_millis(900), "retried after {gap:?}");
}
