//! The network-fault soak: every fault kind at every connection-op, on
//! both sides of the conversation.
//!
//! The network twin of the storage-chaos soak. A reference client→server
//! job run (in-process `noc-serve` over loopback) establishes the row set
//! every faulted run must reproduce. A probe run through fault-free
//! `FaultNet` instances counts the connection operations each side
//! performs. Then, for every (side × connection-op × fault kind)
//! combination, the same interaction runs with exactly that fault
//! injected, and the oracle requires the client to **converge**: the job
//! reaches DONE and the CRC-verified rows the client fetches are
//! byte-identical to the fault-free reference. Divergences emit the exact
//! `NOC_NET_FAULT_SCHEDULE` that replays them. The sweep itself — loop,
//! time box, repro and verdict files — is `noc_experiments::site_sweep`'s.
//!
//! Faults are injected on exactly one side per case so each side's op
//! sequence stays meaningful; the other side runs passthrough. Sticky
//! partitions pair a `heal` 12 ops later — the client's retries burn op
//! indices toward the heal, which is the escape-channel thesis in
//! miniature: keep paying a cheap retry and the rare pathology clears.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use noc_experiments::site_sweep::{self, reset_dir, Case, SiteSweep, SiteSweepReport};
use noc_net::{FaultNet, NetFaultKind, NetFaultPlan, Transport};
use noc_serve::{http, HttpOpts, ServeOpts, Service};

use crate::{Client, ClientError, ClientOpts};

/// The job every run submits: two sweep points so the row set has more
/// than one line for a tear to land inside, small enough that a full
/// (side × site × kind) product fits a CI time box. Rows are
/// deterministic, so byte-identity is a meaningful oracle.
const SOAK_SPEC: &str =
    r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0", "cycles": "2000"}"#;

/// Ops between a `partition` and its paired `heal`: enough retries to
/// prove stickiness, few enough that convergence stays fast.
const HEAL_AFTER_OPS: u64 = 12;

/// The fault kinds swept at every connection op. `partition` pairs a heal
/// [`HEAL_AFTER_OPS`] later; everything else is a single-op event.
fn kinds_under_test(site: u64) -> Vec<(&'static str, NetFaultPlan)> {
    let at = |kind| NetFaultPlan::default().with_event(site, kind);
    vec![
        ("reset", at(NetFaultKind::Reset)),
        ("torn", at(NetFaultKind::Torn(6))),
        ("slow", at(NetFaultKind::Slow(3))),
        ("acceptfail", at(NetFaultKind::AcceptFail)),
        (
            "partition",
            at(NetFaultKind::Partition).with_event(site + HEAL_AFTER_OPS, NetFaultKind::Heal),
        ),
    ]
}

/// An in-process `noc-serve` over loopback with an explicit transport.
struct TestServer {
    addr: String,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl TestServer {
    fn start(data_dir: &Path, transport: Transport) -> std::io::Result<TestServer> {
        let mut opts = ServeOpts::new(data_dir);
        opts.workers = 2;
        opts.queue_cap = 8;
        opts.retry_base_ms = 5;
        opts.max_attempts = 3;
        opts.batch_width = 1;
        let service = Arc::new(Service::open(opts)?);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let http_opts = HttpOpts {
            max_connections: 8,
            request_deadline_ms: 2_000,
            ..HttpOpts::default()
        };
        let thread = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("network-chaos-server".to_string())
                .spawn(move || {
                    http::serve_with(listener, &service, &shutdown, &http_opts, &transport);
                })?
        };
        Ok(TestServer {
            addr,
            service,
            shutdown,
            thread,
        })
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
        self.service.drain();
    }
}

/// What one converged interaction produced.
struct Outcome {
    /// CRC-verified row payloads, sorted — the byte set the oracle
    /// compares.
    rows: Vec<String>,
    /// `dedupe_hits` from the final healthz row.
    dedupe_hits: u64,
}

/// Retries `op` until it succeeds or `deadline` passes — convergence
/// despite faults is exactly what is under test.
fn until<T>(
    deadline: Instant,
    what: &str,
    mut op: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, String> {
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() >= deadline => return Err(format!("{what}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One full client→server interaction: submit (looping on the idempotent
/// resubmission path until admitted), await DONE, fetch verified rows,
/// read the final health row. Every step keeps retrying inside `budget` —
/// convergence despite faults is exactly what is under test.
fn run_interaction(
    data_dir: &Path,
    client_transport: Transport,
    server_transport: Transport,
    budget: Duration,
) -> Result<Outcome, String> {
    let server =
        TestServer::start(data_dir, server_transport).map_err(|e| format!("server start: {e}"))?;
    let client = Client::with_transport(
        &server.addr,
        ClientOpts {
            retry_base_ms: 10,
            max_attempts: 6,
            op_timeout_ms: 2_000,
        },
        client_transport,
    );
    let deadline = Instant::now() + budget;
    let outcome = (|| {
        // A retry after a fault may land as a 200 dedupe instead of a 202
        // — both mean the job is in.
        let (job, _created) = until(deadline, "submission never admitted", || {
            client.submit(SOAK_SPEC)
        })?;
        let view = until(deadline, "status never converged", || {
            let left = deadline.saturating_duration_since(Instant::now());
            client.await_terminal(&job.id, left, Duration::from_millis(20))
        })?;
        if view.stage != "done" {
            return Err(format!(
                "job converged to '{}' instead of done ({:?})",
                view.stage,
                view.row.get("error")
            ));
        }
        // A tear inside a row line fails CRC and retries.
        let mut rows = until(deadline, "rows never verified", || {
            client.rows_verified(&job.id)
        })?;
        rows.sort();
        let health = until(deadline, "healthz never answered", || client.healthz())?;
        let dedupe_hits = health
            .get("dedupe_hits")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Ok(Outcome { rows, dedupe_hits })
    })();
    server.stop();
    outcome
}

/// Runs the full soak under `out_dir` (per-case dirs are wiped on pass).
/// `max_sites` caps how many connection ops are swept per side (CI time
/// box; `None` sweeps all). Divergence repros land in
/// `out_dir/repro_<side>_site<N>_<kind>.json`, the verdict in
/// `out_dir/network_chaos.json`; the report's sites are (client, server)
/// and its tally counts dedupe hits — each one a client retry the content
/// address absorbed idempotently.
pub fn run_network_chaos(
    out_dir: &Path,
    max_sites: Option<u64>,
) -> std::io::Result<SiteSweepReport> {
    std::fs::create_dir_all(out_dir)?;
    let budget = Duration::from_secs(60);

    // Reference: the row set every faulted run must converge to.
    let ref_dir = out_dir.join("reference");
    reset_dir(&ref_dir)?;
    let reference = run_interaction(
        &ref_dir.join("data"),
        Transport::passthrough(),
        Transport::passthrough(),
        budget,
    )
    .map_err(|e| std::io::Error::other(format!("reference run failed: {e}")))?;
    assert!(
        reference.rows.len() >= 2,
        "reference run produced {} row(s); need ≥2 for the oracle to bite",
        reference.rows.len()
    );

    // Probe: count each side's connection ops by running fault-free
    // through the fault layer's op counters.
    let probe_dir = out_dir.join("probe");
    reset_dir(&probe_dir)?;
    let client_net = FaultNet::new(NetFaultPlan::default());
    let server_net = FaultNet::new(NetFaultPlan::default());
    let probe = run_interaction(
        &probe_dir.join("data"),
        Transport::faulted(Arc::clone(&client_net)),
        Transport::faulted(Arc::clone(&server_net)),
        budget,
    )
    .map_err(|e| std::io::Error::other(format!("probe run failed: {e}")))?;
    assert_eq!(
        probe.rows, reference.rows,
        "fault-free FaultNet run diverged from passthrough (transport not transparent)"
    );
    let client_sites = client_net.ops();
    let server_sites = server_net.ops();
    assert!(client_sites > 0, "probe counted no client connection ops");
    assert!(server_sites > 0, "probe counted no server connection ops");

    let sweep = SiteSweep {
        name: "network_chaos",
        groups: &[("client", client_sites), ("server", server_sites)],
        tally: "dedupe_hits",
    };
    let run_case = |side: &str, plan: NetFaultPlan, case_dir: &Path| {
        let faulted = Transport::faulted(FaultNet::new(plan));
        let (ct, st) = if side == "client" {
            (faulted, Transport::passthrough())
        } else {
            (Transport::passthrough(), faulted)
        };
        match run_interaction(&case_dir.join("data"), ct, st, budget) {
            Ok(o) => Case {
                tally: o.dedupe_hits,
                problem: (o.rows != reference.rows).then(|| {
                    format!(
                        "row set diverged: {} row(s) vs {} reference",
                        o.rows.len(),
                        reference.rows.len()
                    )
                }),
            },
            Err(e) => Case {
                tally: 0,
                problem: Some(e),
            },
        }
    };
    site_sweep::run(&sweep, out_dir, max_sites, kinds_under_test, run_case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seec_netchaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The first connection op on each side swept through every kind
    /// converges byte-identically. (CI sweeps more sites via the
    /// `network_chaos` binary; the in-tree test keeps tier-1 fast.)
    #[test]
    fn first_sites_converge_under_every_fault() {
        let dir = tmpdir("soak");
        let report = run_network_chaos(&dir, Some(1)).unwrap();
        assert!(report.sites.iter().all(|&n| n > 0), "{:?}", report.sites);
        assert_eq!(report.sites.len(), 2);
        assert_eq!(report.combos, 10);
        assert!(report.all_match(), "divergences: {:?}", report.divergences);
        let rep = std::fs::read_to_string(dir.join("network_chaos.json")).unwrap();
        let rep = site_sweep::parse_report(&rep).unwrap();
        assert_eq!(rep["verdict"], "pass");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
