//! `noc_submit`: the command-line client for a running `noc_serve`.
//!
//! ```text
//! noc_submit --addr HOST:PORT [--retry-base-ms MS] [--max-attempts N]
//!            [--timeout-ms MS] <command>
//!
//! commands:
//!   submit SPEC_JSON [--wait]   POST the spec; --wait polls to terminal
//!   status ID                   one status row
//!   rows ID                     CRC-verified result rows (seals stripped)
//!   cancel ID                   request cancellation
//!   healthz                     service health + network counters
//! ```
//!
//! Every call retries with capped exponential backoff
//! (`base_ms << (n-1)`, 64× cap); resubmission is always safe because the
//! server dedupes by content address — a retry after a torn response
//! lands on the existing job. The environment knobs are validated eagerly
//! (exit status 2 on garbage, the same gate as every other binary); the
//! network-fault knobs `NOC_NET_FAULT_SCHEDULE` / `NOC_NET_FAULT_SEED`,
//! when set, fault this client's own transport — the replay path for soak
//! divergences.
//!
//! Exit status: 0 success, 1 the call failed (or `--wait` ended in a
//! non-DONE terminal stage), 2 bad flags or environment.

use std::process::exit;
use std::time::Duration;

use noc_client::{Client, ClientError, ClientOpts};

fn usage() -> ! {
    eprintln!(
        "usage: noc_submit --addr HOST:PORT [--retry-base-ms MS] [--max-attempts N] \
         [--timeout-ms MS] (submit SPEC_JSON [--wait] | status ID | rows ID | \
         cancel ID | healthz)"
    );
    exit(2);
}

fn main() {
    // Eager validation: a garbage environment knob is a configuration
    // error before any socket opens.
    noc_experiments::cli::validate_env();

    let mut addr = None;
    let mut opts = ClientOpts::default();
    let mut command: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--addr" => addr = Some(val("--addr")),
            "--retry-base-ms" => {
                opts.retry_base_ms = val("--retry-base-ms").parse().unwrap_or_else(|_| usage());
            }
            "--max-attempts" => {
                opts.max_attempts = val("--max-attempts").parse().unwrap_or_else(|_| usage());
            }
            "--timeout-ms" => {
                opts.op_timeout_ms = val("--timeout-ms").parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            _ => command.push(a),
        }
    }
    let Some(addr) = addr else { usage() };
    let client = Client::new(&addr, opts);

    let outcome = match command.first().map(String::as_str) {
        Some("submit") => {
            let Some(spec) = command.get(1) else { usage() };
            let wait = command.iter().any(|a| a == "--wait");
            run_submit(&client, spec, wait)
        }
        Some("status") => {
            let Some(id) = command.get(1) else { usage() };
            client.status(id).map(|v| println!("{}", row_text(&v.row)))
        }
        Some("rows") => {
            let Some(id) = command.get(1) else { usage() };
            client.rows_verified(id).map(|rows| {
                for r in rows {
                    println!("{r}");
                }
            })
        }
        Some("cancel") => {
            let Some(id) = command.get(1) else { usage() };
            client.cancel(id).map(|v| println!("{}", row_text(&v.row)))
        }
        Some("healthz") => client.healthz().map(|h| println!("{}", row_text(&h))),
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("noc_submit: {e}");
        exit(1);
    }
}

fn run_submit(client: &Client, spec: &str, wait: bool) -> Result<(), ClientError> {
    let (view, created) = client.submit(spec)?;
    eprintln!(
        "noc_submit: {} job {}",
        if created { "created" } else { "deduped onto" },
        view.id
    );
    if !wait {
        println!("{}", row_text(&view.row));
        return Ok(());
    }
    let done = client.await_terminal(
        &view.id,
        Duration::from_secs(3600),
        Duration::from_millis(250),
    )?;
    println!("{}", row_text(&done.row));
    if done.stage != "done" {
        return Err(ClientError::Http(
            0,
            format!("job ended in stage '{}'", done.stage),
        ));
    }
    Ok(())
}

/// Re-renders a parsed flat row as one JSON line.
fn row_text(row: &std::collections::BTreeMap<String, String>) -> String {
    let mut obj = noc_experiments::jsonio::JsonObj::new();
    for (k, v) in row {
        obj = obj.str_field(k, v);
    }
    obj.finish()
}
