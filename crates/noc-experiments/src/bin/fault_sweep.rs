//! Fault-injection sweep with checkpoint/resume.
//!
//! ```text
//! fault_sweep [--quick] [--ckpt <path>] [--max-points <N>] [--threads <N>]
//! ```
//!
//! Flags, checkpointing and output are `cli::sweep_main`'s (default
//! checkpoint `results/fault_sweep[_quick].ckpt.jsonl`).
use noc_experiments::{cli, figs::fault_sweep};

fn main() {
    cli::sweep_main("fault_sweep", fault_sweep::points, fault_sweep::tables);
}
