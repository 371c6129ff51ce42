//! The storage-fault soak: every fault kind at every write site.
//!
//! PR 8's smoke test proved "SIGKILL once, resume, byte-identical". This
//! module generalizes it to the storage layer: run a reference workload to
//! completion on honest storage, *enumerate every write operation* it
//! performs (a probe run through a fault-free [`FaultVfs`] counts them),
//! then for each (write op × fault kind) combination run the same workload
//! with exactly that fault injected, "restart" it on healthy storage, and
//! assert the recovered row set is **byte-identical** to the reference —
//! with every bad record the fault left behind detected, counted, and
//! quarantined, never parsed as data.
//!
//! The workload is the real persistence stack, not a mock: a quick fault
//! sweep journaling through [`Checkpoint`] (sealed rows, append-recovery,
//! repair-on-open) plus a whole-file summary artifact through
//! [`noc_store::Vfs::write_atomic`] — one representative of each write
//! class. Runs are single-threaded so op indices are deterministic and a
//! divergence repro (`<out>/repro_*.json`) pinpoints the exact
//! `NOC_VFS_FAULT_SCHEDULE` that reproduces it. The sweep itself — loop,
//! time box, repro and verdict files — is [`crate::site_sweep`]'s.

use std::path::Path;
use std::sync::Arc;

use crate::jsonio::JsonObj;
use crate::runner::Scheme;
use crate::site_sweep::{self, reset_dir, Case, SiteSweep, SiteSweepReport};
use crate::sweep::{load_line, quarantine_path, run_sweep_ctx, Checkpoint, FaultPoint, LoadedLine};
use noc_store::{FaultKind, FaultPlan, FaultVfs, StdVfs, Vfs};
use noc_types::fault::fnv1a;

/// The sweep points the workload journals. Small enough that the full
/// (site × kind) product stays inside a CI time box, diverse enough that
/// rows differ byte-wise (a swapped pair would be caught).
fn workload_points() -> Vec<FaultPoint> {
    vec![
        FaultPoint::quick("storage-chaos", Scheme::seec(), 0.0),
        FaultPoint::quick("storage-chaos", Scheme::mseec(), 0.0),
        FaultPoint::quick("storage-chaos", Scheme::seec(), 1e-5),
    ]
}

/// One run of the workload through `vfs`: open the journal, execute the
/// missing sweep points (width 1 — deterministic op order), publish the
/// summary artifact. Fault-induced errors are the point, so everything is
/// best-effort; the caller judges the artifacts, not the return codes.
fn run_workload(vfs: &Arc<dyn Vfs>, dir: &Path) {
    let Ok(ckpt) = Checkpoint::open_with_vfs(&dir.join("storage.ckpt.jsonl"), Arc::clone(vfs))
    else {
        return; // open itself faulted: the "crashed before doing anything" case
    };
    let points = workload_points();
    let _ = run_sweep_ctx(&points, &ckpt, None, dir, 1, None);
    // The whole-file artifact: content depends only on the final row set,
    // so an uninterrupted run and a resumed run publish identical bytes.
    let rows = sorted_payloads(vfs, &dir.join("storage.ckpt.jsonl"));
    let summary = JsonObj::new()
        .u64_field("rows", rows.len() as u64)
        .str_field("digest", &format!("{:016x}", digest_of(&rows)))
        .finish();
    let _ = vfs.write_atomic(&dir.join("summary.json"), format!("{summary}\n").as_bytes());
}

/// The journal's good rows as sorted unsealed payload lines — the byte-set
/// the oracle compares. Corrupt lines are *not* silently skipped here;
/// they are returned separately so the oracle can fail on any that survive
/// a repair.
fn journal_lines(vfs: &Arc<dyn Vfs>, path: &Path) -> (Vec<String>, usize) {
    let Ok(text) = vfs.read_to_string(path) else {
        return (Vec::new(), 0);
    };
    let mut payloads = Vec::new();
    let mut bad = 0usize;
    for line in text.lines() {
        match load_line(line) {
            LoadedLine::Blank => {}
            LoadedLine::Row(payload, _) => payloads.push(payload.to_string()),
            LoadedLine::Corrupt | LoadedLine::Torn => bad += 1,
        }
    }
    payloads.sort();
    (payloads, bad)
}

fn sorted_payloads(vfs: &Arc<dyn Vfs>, path: &Path) -> Vec<String> {
    journal_lines(vfs, path).0
}

fn digest_of(lines: &[String]) -> u64 {
    fnv1a(lines.join("\n").as_bytes())
}

/// The fault kinds swept at every site: the acceptance matrix's
/// {ENOSPC, EIO, torn write, crash-after-partial-write} plus a failed
/// publishing rename. "Crash" is a torn write followed by a stuck disk —
/// nothing after the tear lands, exactly like a dead process.
fn kinds_under_test(site: u64) -> Vec<(&'static str, FaultPlan)> {
    let at = |kind| FaultPlan::default().with_event(site, kind);
    vec![
        ("enospc", at(FaultKind::Enospc)),
        ("eio", at(FaultKind::Eio)),
        ("torn", at(FaultKind::Torn(7))),
        ("rename", at(FaultKind::RenameFail)),
        (
            "crash",
            at(FaultKind::Torn(7)).with_event(site + 1, FaultKind::Stuck),
        ),
    ]
}

/// Runs the full soak under `out_dir` (case directories are wiped on
/// pass). `max_sites` caps how many write sites are swept (CI time box;
/// `None` sweeps all). Divergence repros land in
/// `out_dir/repro_site<N>_<kind>.json`, the verdict in
/// `out_dir/storage_chaos.json`; the report's tally counts bad lines
/// detected + quarantined across all recoveries (evidence the detection
/// path actually fired, not that nothing ever tore).
pub fn run_storage_chaos(
    out_dir: &Path,
    max_sites: Option<u64>,
) -> std::io::Result<SiteSweepReport> {
    std::fs::create_dir_all(out_dir)?;
    let std_vfs: Arc<dyn Vfs> = Arc::new(StdVfs);

    // Reference: the uninterrupted row set every recovery must reproduce.
    let ref_dir = out_dir.join("reference");
    reset_dir(&ref_dir)?;
    run_workload(&std_vfs, &ref_dir);
    let (reference, ref_bad) = journal_lines(&std_vfs, &ref_dir.join("storage.ckpt.jsonl"));
    assert_eq!(ref_bad, 0, "reference run produced bad journal lines");
    assert!(!reference.is_empty(), "reference run journaled nothing");
    let ref_summary = std::fs::read_to_string(ref_dir.join("summary.json"))?;

    // Probe: count the write sites by running fault-free through the
    // fault layer's op counter.
    let probe = FaultVfs::new(FaultPlan::default());
    let probe_dir = out_dir.join("probe");
    reset_dir(&probe_dir)?;
    let probe_vfs: Arc<dyn Vfs> = Arc::new(probe.clone());
    run_workload(&probe_vfs, &probe_dir);
    let sites = probe.ops();
    assert!(sites > 0, "probe run performed no write operations");

    let sweep = SiteSweep {
        name: "storage_chaos",
        groups: &[("", sites)],
        tally: "quarantined",
    };
    let run_case = |_side: &str, plan: FaultPlan, case_dir: &Path| {
        // Faulted attempt: the fault fires mid-workload.
        let faulted: Arc<dyn Vfs> = Arc::new(FaultVfs::new(plan));
        run_workload(&faulted, case_dir);

        // Restart on healthy storage: open repairs + quarantines, the
        // missing points re-execute, the summary republishes.
        run_workload(&std_vfs, case_dir);

        // Oracle 1: recovered rows byte-identical to the reference.
        let journal = case_dir.join("storage.ckpt.jsonl");
        let (rows, bad) = journal_lines(&std_vfs, &journal);
        // Oracle 2: zero undetected corruptions — after recovery the
        // journal holds no bad lines (they were compacted away), and
        // whatever was dropped sits in the quarantine file.
        let quarantined = std_vfs
            .read_to_string(&quarantine_path(&journal))
            .map(|t| t.lines().filter(|l| !l.is_empty()).count())
            .unwrap_or(0);
        // Oracle 3: the whole-file artifact is the reference bytes —
        // never a torn or stale hybrid.
        let summary = std_vfs
            .read_to_string(&case_dir.join("summary.json"))
            .unwrap_or_default();

        let mut problems = Vec::new();
        if rows != reference {
            problems.push(format!(
                "row set diverged: {} rows vs {} reference (digest {:016x} vs {:016x})",
                rows.len(),
                reference.len(),
                digest_of(&rows),
                digest_of(&reference),
            ));
        }
        if bad != 0 {
            problems.push(format!(
                "{bad} bad line(s) survived recovery in the journal"
            ));
        }
        if summary != ref_summary {
            problems.push("summary.json differs from the reference artifact".to_string());
        }
        Case {
            tally: quarantined as u64,
            problem: (!problems.is_empty()).then(|| problems.join("; ")),
        }
    };
    site_sweep::run(&sweep, out_dir, max_sites, kinds_under_test, run_case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seec_stchaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// One full site swept through every kind recovers byte-identically.
    /// (CI sweeps all sites via the `storage_chaos` binary; the in-tree test
    /// keeps tier-1 fast by boxing to the first two sites, which cover
    /// both an append site and the journal-open path.)
    #[test]
    fn first_sites_recover_byte_identically_under_every_fault() {
        let dir = tmpdir("soak");
        let report = run_storage_chaos(&dir, Some(2)).unwrap();
        assert!(
            report.sites[0] >= 4,
            "expected ≥4 write sites, found {}",
            report.sites[0]
        );
        assert_eq!(report.combos, 10);
        assert!(report.all_match(), "divergences: {:?}", report.divergences);
        // The report artifact landed and parses.
        let rep = std::fs::read_to_string(dir.join("storage_chaos.json")).unwrap();
        let rep = site_sweep::parse_report(&rep).unwrap();
        assert_eq!(rep["verdict"], "pass");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
