//! `storage_chaos`: every storage fault at every write site, with a
//! restart and a byte-identical-recovery oracle.
//!
//! ```text
//! storage_chaos [--out DIR] [--max-sites N]
//! ```
//!
//! Enumerates every write operation the reference workload performs (a
//! checkpointed quick sweep plus a whole-file summary artifact), then for
//! each (write op × fault kind) combination — ENOSPC, EIO, torn write,
//! failed rename, crash-after-partial-write — injects exactly that fault,
//! restarts on healthy storage, and asserts the recovered row set is
//! byte-identical to an uninterrupted run with every bad record counted
//! and quarantined. A divergence leaves `repro_site<N>_<kind>.json` with
//! the exact `NOC_VFS_FAULT_SCHEDULE`. Flags and exit status are
//! `cli::soak_main`'s; the environment is validated eagerly (exit 2).

use noc_experiments::{cli, run_storage_chaos};

fn main() {
    cli::soak_main("storage_chaos", &cli::args(), run_storage_chaos, |r| {
        format!(
            "{} write sites, {} combinations, {} bad line(s) detected+quarantined",
            r.sites[0], r.combos, r.tally
        )
    });
}
