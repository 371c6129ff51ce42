//! `network_chaos`: every network fault at every connection-op, on both
//! sides, with a client-convergence oracle.
//!
//! ```text
//! network_chaos [--out DIR] [--max-sites N]
//! ```
//!
//! Runs a reference client→server job interaction (in-process `noc-serve`
//! over loopback), enumerates every connection operation each side
//! performs, then for each (side × connection-op × fault kind)
//! combination — reset, torn read/write, slow trickle, accept failure,
//! sticky partition with heal — injects exactly that fault and requires
//! the client to converge: job DONE, CRC-verified rows byte-identical to
//! the fault-free run. A divergence leaves
//! `repro_<side>_site<N>_<kind>.json` with the exact
//! `NOC_NET_FAULT_SCHEDULE`. Flags and exit status are `cli::soak_main`'s;
//! the environment is validated eagerly (exit 2), before any socket opens.

use noc_client::soak::run_network_chaos;
use noc_experiments::cli;

fn main() {
    cli::validate_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::soak_main("network_chaos", &args, run_network_chaos, |r| {
        format!(
            "{} client + {} server connection ops, {} combinations, {} dedupe hit(s) absorbed",
            r.sites[0], r.sites[1], r.combos, r.tally
        )
    });
}
