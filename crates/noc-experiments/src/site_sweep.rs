//! The site-sweep soak driver: every fault kind at every operation site.
//!
//! The storage and network soaks share one shape. A reference run on an
//! honest layer fixes the result every faulted run must reproduce; a probe
//! run through a fault-free [`noc_store::Injector`] counts the operations
//! (the *sites*) the workload performs; then for every (group × site ×
//! kind) combination the workload runs with exactly that fault injected
//! and an oracle compares it to the reference. The reference, the probe,
//! the kinds and the oracle belong to each soak; this module owns the
//! rest, once: the loop, the `--max-sites` time box, per-case directories
//! (wiped on pass, kept on failure), and the two artifacts a soak leaves —
//!
//! * `repro_[<side>_]site<N>_<kind>.json` per divergence: `site`, `kind`,
//!   `schedule` (the canonical plan — set it in `env` to replay), `detail`,
//!   `dir`, plus `side` and `env` when the sweep has more than one side;
//! * `<name>.json`, the verdict: `sites` (or `<side>_sites` per side),
//!   `combos`, the soak's own tally, `divergences`, and `verdict`
//!   (`pass`/`fail`).

use std::collections::BTreeMap;
use std::path::Path;

use crate::jsonio::JsonObj;
use noc_store::{Kind, Plan, StdVfs, Vfs};

/// What one soak sweeps.
pub struct SiteSweep<'a> {
    /// Names the verdict file (`<name>.json`) and prefixes messages.
    pub name: &'a str,
    /// `(side, sites the probe counted)`, swept in order. A one-sided soak
    /// has a single group whose side is `""`.
    pub groups: &'a [(&'a str, u64)],
    /// Verdict-file name of the per-case tally (see [`Case::tally`]).
    pub tally: &'a str,
}

/// What running one (side × site × kind) combination found.
pub struct Case {
    /// Evidence the soak's detection path fired (quarantined lines, dedupe
    /// hits), summed into the report whether or not the case passed.
    pub tally: u64,
    /// `None` when the oracle held; otherwise what diverged.
    pub problem: Option<String>,
}

/// One combination that diverged from the reference, with everything
/// needed to replay it.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which side carried the fault plan (`""` in a one-sided soak).
    pub side: String,
    /// 0-based op index the fault hit.
    pub site: u64,
    /// Canonical fault schedule that reproduces the run.
    pub schedule: String,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// Summary of one [`run`] invocation.
#[derive(Clone, Debug)]
pub struct SiteSweepReport {
    /// The environment knob a repro's `schedule` goes into.
    pub env: &'static str,
    /// Sites the probe counted, per side in sweep order.
    pub sites: Vec<u64>,
    /// (side × site × kind) combinations executed.
    pub combos: usize,
    /// Sum of every case's [`Case::tally`].
    pub tally: u64,
    /// Combinations that diverged from the reference.
    pub divergences: Vec<Divergence>,
}

impl SiteSweepReport {
    /// True when every combination matched the reference.
    pub fn all_match(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs the sweep under `out_dir`. `max_sites` caps how many sites are
/// swept per side (CI time box; `None` sweeps all). `kinds(site)` lists
/// the `(name, plan)` pairs to inject at `site`; `run_case(side, plan,
/// case_dir)` runs the workload under `plan` in the fresh `case_dir` and
/// judges it.
pub fn run<K: Kind>(
    sweep: &SiteSweep,
    out_dir: &Path,
    max_sites: Option<u64>,
    kinds: impl Fn(u64) -> Vec<(&'static str, Plan<K>)>,
    mut run_case: impl FnMut(&str, Plan<K>, &Path) -> Case,
) -> std::io::Result<SiteSweepReport> {
    let mut report = SiteSweepReport {
        env: K::SCHEDULE_ENV,
        sites: sweep.groups.iter().map(|g| g.1).collect(),
        combos: 0,
        tally: 0,
        divergences: Vec::new(),
    };
    // "client_" in file names and field keys; nothing when one-sided.
    let prefix = |side: &str| match side {
        "" => String::new(),
        side => format!("{side}_"),
    };
    for &(side, sites) in sweep.groups {
        let side_ = prefix(side);
        let swept = max_sites.map_or(sites, |cap| sites.min(cap));
        if swept < sites {
            eprintln!(
                "{}: time box caps sweep at {swept} of {sites} {side_}sites",
                sweep.name
            );
        }
        for site in 0..swept {
            for (kind, plan) in kinds(site) {
                report.combos += 1;
                let case_dir = out_dir.join(format!("case_{side_}site{site}_{kind}"));
                reset_dir(&case_dir)?;
                let schedule = plan.canonical();
                let case = run_case(side, plan, &case_dir);
                report.tally += case.tally;
                let Some(detail) = case.problem else {
                    let _ = std::fs::remove_dir_all(&case_dir); // keep the tree small
                    continue;
                };
                let mut repro = JsonObj::new();
                if !side.is_empty() {
                    repro = repro.str_field("side", side).str_field("env", report.env);
                }
                let repro = repro
                    .u64_field("site", site)
                    .str_field("kind", kind)
                    .str_field("schedule", &schedule)
                    .str_field("detail", &detail)
                    .str_field("dir", &case_dir.display().to_string())
                    .finish();
                StdVfs.write_atomic(
                    &out_dir.join(format!("repro_{side_}site{site}_{kind}.json")),
                    format!("{repro}\n").as_bytes(),
                )?;
                report.divergences.push(Divergence {
                    side: side.to_string(),
                    site,
                    schedule,
                    detail,
                });
            }
        }
    }

    let mut verdict = JsonObj::new();
    for &(side, sites) in sweep.groups {
        verdict = verdict.u64_field(&format!("{}sites", prefix(side)), sites);
    }
    let verdict = verdict
        .u64_field("combos", report.combos as u64)
        .u64_field(sweep.tally, report.tally)
        .u64_field("divergences", report.divergences.len() as u64)
        .str_field("verdict", if report.all_match() { "pass" } else { "fail" })
        .finish();
    StdVfs.write_atomic(
        &out_dir.join(format!("{}.json", sweep.name)),
        format!("{verdict}\n").as_bytes(),
    )?;
    Ok(report)
}

/// Empties (creating as needed) a reference, probe or case directory.
pub fn reset_dir(dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
}

/// Parses a published verdict or repro file back (the smoke script and the
/// tests assert on it).
pub fn parse_report(text: &str) -> Option<BTreeMap<String, String>> {
    crate::jsonio::parse_flat(text.trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_net::{NetFaultKind, NetFaultPlan};

    fn map(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        let own = |(k, v): &(&str, &str)| (k.to_string(), v.to_string());
        pairs.iter().map(own).collect()
    }

    /// Drives the divergence path with a fake case runner that fails
    /// exactly (`side`, site 1, torn) under a `--max-sites 3` time box,
    /// and checks everything the driver owns: the cap, the tally, which
    /// case directories survive, and both artifacts field by field.
    fn fails_one(groups: &[(&str, u64)], side: &str, stem: &str, sided: &[(&str, &str)]) {
        let dir = std::env::temp_dir().join(format!("seec_sweep_{stem}_{}", std::process::id()));
        reset_dir(&dir).unwrap();
        let sweep = SiteSweep {
            name: "soak",
            groups,
            tally: "hits",
        };
        let kinds = |site| {
            let at = |kind| NetFaultPlan::default().with_event(site, kind);
            vec![
                ("reset", at(NetFaultKind::Reset)),
                ("torn", at(NetFaultKind::Torn(6))),
            ]
        };
        let report = run(&sweep, &dir, Some(3), kinds, |s, plan, case_dir| {
            std::fs::write(case_dir.join("evidence"), plan.canonical()).unwrap();
            let fails = s == side && plan.kind_at(1) == Some(NetFaultKind::Torn(6));
            Case {
                tally: 2,
                problem: fails.then(|| "row set diverged".to_string()),
            }
        })
        .unwrap();

        // The cap applies to each side separately; 2 kinds per site.
        let swept: u64 = groups.iter().map(|g| g.1.min(3)).sum();
        assert_eq!(report.combos as u64, swept * 2);
        assert_eq!(report.tally, swept * 4);
        assert_eq!(report.divergences.len(), 1);
        assert!(!report.all_match());

        // Passing case dirs are gone; the failing one is kept, intact.
        let kept = dir.join(format!("case_{stem}"));
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            [
                format!("case_{stem}"),
                format!("repro_{stem}.json"),
                "soak.json".to_string()
            ]
        );
        assert_eq!(
            std::fs::read_to_string(kept.join("evidence")).unwrap(),
            "1:torn@6"
        );

        let read =
            |file: &str| parse_report(&std::fs::read_to_string(dir.join(file)).unwrap()).unwrap();
        let mut repro = map(&[
            ("site", "1"),
            ("kind", "torn"),
            ("schedule", "1:torn@6"),
            ("detail", "row set diverged"),
            ("dir", &kept.display().to_string()),
        ]);
        repro.extend(map(sided));
        assert_eq!(read(&format!("repro_{stem}.json")), repro);

        let mut verdict = map(&[
            ("combos", &(swept * 2).to_string()),
            ("hits", &(swept * 4).to_string()),
            ("divergences", "1"),
            ("verdict", "fail"),
        ]);
        for (side, sites) in groups {
            let key = if side.is_empty() {
                "sites".to_string()
            } else {
                format!("{side}_sites")
            };
            verdict.insert(key, sites.to_string());
        }
        assert_eq!(read("soak.json"), verdict);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_two_sided_divergence_leaves_its_repro_and_a_fail_verdict() {
        fails_one(
            &[("client", 5), ("server", 2)],
            "server",
            "server_site1_torn",
            &[("side", "server"), ("env", "NOC_NET_FAULT_SCHEDULE")],
        );
    }

    /// A one-sided sweep names no side: `repro_site<N>_<kind>.json` without
    /// `side`/`env`, and a plain `sites` count in the verdict.
    #[test]
    fn a_one_sided_divergence_names_no_side() {
        fails_one(&[("", 4)], "", "site1_torn", &[]);
    }
}
