//! The `noc_serve` binary: bind, adopt journals, serve until SIGTERM /
//! SIGINT / `POST /drain`, then drain gracefully.
//!
//! ```text
//! noc_serve --data-dir DIR [--addr 127.0.0.1:0] [--workers N]
//!           [--queue-cap N] [--retry-base-ms MS] [--max-attempts N]
//!           [--max-conns N] [--request-deadline-ms MS]
//! ```
//!
//! Environment knobs are validated **eagerly** (exit status 2 on garbage,
//! matching the experiment binaries): `NOC_THREADS` (worker parallelism
//! inside a sweep), `NOC_BATCH_WIDTH` (lockstep lanes; precedence:
//! explicit service width > `NOC_BATCH_WIDTH` > default 4), the
//! storage-fault knobs `NOC_VFS_FAULT_SCHEDULE` / `NOC_VFS_FAULT_SEED`,
//! and the network-fault knobs `NOC_NET_FAULT_SCHEDULE` /
//! `NOC_NET_FAULT_SEED` (precedence for both pairs: explicit schedule
//! events win at their op index, the seed fills the rest; unset means no
//! fault injection).
//!
//! The bound address is printed to stdout **and** written (atomically:
//! temp + fsync + rename) to `DIR/addr.txt` so supervisors (and the
//! kill -9 restart tests) can find a port-0 listener without ever reading
//! a torn address.

use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use noc_serve::{http, HttpOpts, ServeOpts, Service};

fn usage() -> ! {
    eprintln!(
        "usage: noc_serve --data-dir DIR [--addr HOST:PORT] [--workers N] \
         [--queue-cap N] [--retry-base-ms MS] [--max-attempts N] \
         [--max-conns N] [--request-deadline-ms MS]"
    );
    exit(2);
}

fn main() {
    // Eager environment validation: a garbage knob is a configuration
    // error at boot, not a panic mid-job hours later.
    let batch_width = noc_experiments::cli::validate_env()
        .batch_width
        .unwrap_or(4);

    let mut addr = "127.0.0.1:0".to_string();
    let mut data_dir = None;
    let mut opts_workers = 2usize;
    let mut queue_cap = 16usize;
    let mut retry_base_ms = 50u64;
    let mut max_attempts = 3u32;
    let mut http_opts = HttpOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--addr" => addr = val("--addr"),
            "--data-dir" => data_dir = Some(val("--data-dir")),
            "--workers" => {
                opts_workers = val("--workers").parse().unwrap_or_else(|_| usage());
            }
            "--queue-cap" => {
                queue_cap = val("--queue-cap").parse().unwrap_or_else(|_| usage());
            }
            "--retry-base-ms" => {
                retry_base_ms = val("--retry-base-ms").parse().unwrap_or_else(|_| usage());
            }
            "--max-attempts" => {
                max_attempts = val("--max-attempts").parse().unwrap_or_else(|_| usage());
            }
            "--max-conns" => {
                http_opts.max_connections = val("--max-conns").parse().unwrap_or_else(|_| usage());
            }
            "--request-deadline-ms" => {
                http_opts.request_deadline_ms = val("--request-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let Some(data_dir) = data_dir else { usage() };

    let mut opts = ServeOpts::new(&data_dir);
    opts.workers = opts_workers;
    opts.queue_cap = queue_cap;
    opts.retry_base_ms = retry_base_ms;
    opts.max_attempts = max_attempts;
    opts.batch_width = batch_width;

    let service = match Service::open(opts) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: cannot open {data_dir}: {e}");
            exit(1);
        }
    };

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let bound = listener.local_addr().expect("bound addr");
    if let Err(e) = noc_store::active().write_atomic(
        &std::path::Path::new(&data_dir).join("addr.txt"),
        format!("{bound}\n").as_bytes(),
    ) {
        eprintln!("error: cannot record address: {e}");
        exit(1);
    }
    println!("noc-serve listening on {bound}");

    // Graceful drain on SIGTERM/SIGINT: the handler just flips the flag;
    // the accept loop observes it and returns.
    let shutdown = Arc::new(AtomicBool::new(false));
    for sig in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        if let Err(e) = signal_hook::flag::register(sig, Arc::clone(&shutdown)) {
            eprintln!("error: cannot install handler for signal {sig}: {e}");
            exit(1);
        }
    }

    http::serve_with(
        listener,
        &service,
        &shutdown,
        &http_opts,
        &noc_net::Transport::from_env(),
    );
    println!("noc-serve draining ({} queued)", service.queued());
    service.drain();
    println!("noc-serve drained");
}
