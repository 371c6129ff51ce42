//! Runtime-recovery sweep with checkpoint/resume.
//!
//! ```text
//! recovery_sweep [--quick] [--ckpt <path>] [--max-points <N>] [--threads <N>]
//! ```
//!
//! Series one arms the drain + end-to-end recovery channel on a healthy
//! mesh (it must cost nothing); series two forces a deadlock on the ADAPT
//! baseline and shows the drain channel completing a run the static
//! certifier refuses to let run unprotected. Flags, checkpointing and
//! output are `cli::sweep_main`'s (default checkpoint
//! `results/recovery_sweep[_quick].ckpt.jsonl`).
use noc_experiments::{cli, figs::recovery_sweep};

fn main() {
    cli::sweep_main(
        "recovery_sweep",
        recovery_sweep::points,
        recovery_sweep::tables,
    );
}
