//! Experiment harness reproducing every table and figure of the SEEC paper.
//!
//! Each `figs::figNN` module regenerates one artifact of the evaluation
//! section and returns a [`table::FigTable`] with the same rows/series the
//! paper plots; the `bin/` binaries print them (`cargo run --release -p
//! noc-experiments --bin fig08`).
//!
//! Absolute numbers come from this repo's from-scratch simulator, not the
//! authors' gem5 testbed; EXPERIMENTS.md records the shape comparison
//! (who wins, by how much, where crossovers fall) per figure.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod job;
pub mod jsonio;
pub mod runner;
pub mod saturation;
pub mod site_sweep;
pub mod storage_chaos;
pub mod sweep;
pub mod table;

pub mod figs {
    pub mod ablation;
    pub mod fault_sweep;
    pub mod fig07;
    pub mod fig08;
    pub mod fig09;
    pub mod fig10;
    pub mod fig11;
    pub mod fig12;
    pub mod fig13;
    pub mod fig14;
    pub mod fig15;
    pub mod footnote4;
    pub mod recovery_sweep;
    pub mod table1;
    pub mod table3;
}

pub use chaos::{
    minimize, replay, run_case, CaseGen, CaseOutcome, ChaosCase, FailureKind, GenPool,
};
pub use job::{JobCtx, JobError, JobProgress, JobReport, SimJob};
pub use runner::{admit, run_app, run_synth, AppSpec, Refusal, Scheme, SynthSpec};
pub use storage_chaos::run_storage_chaos;
pub use sweep::{run_sweep, Checkpoint, FaultPoint, SweepOutcome};
pub use table::FigTable;
