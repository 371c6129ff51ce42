//! Job specifications: what a client submits, how it is validated, and the
//! **content address** that dedupes resubmissions.
//!
//! A spec is a flat JSON object (the repo's `jsonio` dialect). The job id
//! is an FNV-1a digest over the *work* the spec describes — for sweeps,
//! the sorted point keys (themselves config digests); for chaos, the
//! generator knobs; for replays, the repro file's bytes. Knobs that do not
//! change the work — `deadline_ms`, and the `fail_attempts` test hook —
//! are deliberately excluded, so resubmitting the same sweep with a
//! different deadline lands on the same job instead of re-running it.

use std::collections::BTreeMap;
use std::path::PathBuf;

use noc_experiments::chaos::GenPool;
use noc_experiments::figs::fault_sweep;
use noc_experiments::jsonio::JsonObj;
use noc_experiments::sweep::FaultPoint;
use noc_experiments::{Scheme, SimJob};
use noc_types::fault::fnv1a;

/// What kind of work a job runs.
#[derive(Clone, Debug)]
pub enum SpecKind {
    /// A fault sweep over an explicit point set.
    Sweep { source: SweepSource },
    /// A chaos soak: `cases` generated cases from `seed`.
    Chaos {
        seed: u64,
        cases: usize,
        pool: GenPool,
    },
    /// Replay a recorded repro file.
    Replay { repro: PathBuf },
}

/// Where a sweep job's points come from.
#[derive(Clone, Debug)]
pub enum SweepSource {
    /// A named, repo-defined pool: `"fault-quick"` or `"fault-full"`.
    Pool(String),
    /// An explicit cross product of schemes × transient fault rates on a
    /// uniform-random 4×4-default mesh.
    Custom {
        schemes: Vec<Scheme>,
        transients: Vec<f64>,
        k: u8,
        vcs: u8,
        cycles: u64,
        seed: u64,
        rate: f64,
    },
}

/// A validated job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub kind: SpecKind,
    /// Wall-clock budget, measured from the first worker claim. Expiry is
    /// a terminal failure (no retry — time does not come back).
    pub deadline_ms: Option<u64>,
    /// Test hook: the worker panics on this many initial attempts before
    /// letting the job run. Excluded from the content address. Drives the
    /// retry/backoff/quarantine integration tests deterministically.
    pub fail_attempts: u32,
}

impl JobSpec {
    /// Parses and validates a submission row. Every error names the field.
    pub fn parse(row: &BTreeMap<String, String>) -> Result<JobSpec, String> {
        let kind = row
            .get("kind")
            .ok_or_else(|| "missing field 'kind'".to_string())?;
        let u64f = |k: &str, default: u64| -> Result<u64, String> {
            match row.get(k) {
                None => Ok(default),
                Some(v) => v.parse().map_err(|e| format!("field '{k}': {e}")),
            }
        };
        let u8f = |k: &str, default: u8| -> Result<u8, String> {
            u8::try_from(u64f(k, default.into())?).map_err(|e| format!("field '{k}': {e}"))
        };
        let kind = match kind.as_str() {
            "sweep" => {
                let source = if let Some(pool) = row.get("pool") {
                    match pool.as_str() {
                        "fault-quick" | "fault-full" => SweepSource::Pool(pool.clone()),
                        other => return Err(format!("unknown sweep pool '{other}'")),
                    }
                } else {
                    let schemes = row
                        .get("schemes")
                        .ok_or_else(|| "sweep needs 'pool' or 'schemes'".to_string())?
                        .split(',')
                        .map(|s| {
                            Scheme::from_label(s.trim())
                                .ok_or_else(|| format!("unknown scheme label '{}'", s.trim()))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let transients = row
                        .get("transients")
                        .map(String::as_str)
                        .unwrap_or("0.0")
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<f64>()
                                .map_err(|e| format!("field 'transients': {e}"))
                        })
                        .collect::<Result<Vec<f64>, _>>()?;
                    if schemes.is_empty() || transients.is_empty() {
                        return Err("sweep needs at least one scheme and transient".into());
                    }
                    SweepSource::Custom {
                        schemes,
                        transients,
                        k: u8f("k", 4)?,
                        vcs: u8f("vcs", 2)?,
                        cycles: u64f("cycles", 3_000)?,
                        seed: u64f("seed", 0xA11CE)?,
                        rate: match row.get("rate") {
                            None => 0.05,
                            Some(v) => v.parse().map_err(|e| format!("field 'rate': {e}"))?,
                        },
                    }
                };
                SpecKind::Sweep { source }
            }
            "chaos" => {
                let pool = match row.get("pool").map(String::as_str).unwrap_or("smoke") {
                    "smoke" => GenPool::Smoke,
                    "full" => GenPool::Full,
                    other => return Err(format!("unknown chaos pool '{other}'")),
                };
                let cases = u64f("cases", 4)? as usize;
                if cases == 0 {
                    return Err("field 'cases': must be at least 1".into());
                }
                SpecKind::Chaos {
                    seed: u64f("seed", 1)?,
                    cases,
                    pool,
                }
            }
            "replay" => {
                let repro = row
                    .get("repro")
                    .ok_or_else(|| "replay needs 'repro' (path)".to_string())?;
                SpecKind::Replay {
                    repro: PathBuf::from(repro),
                }
            }
            other => return Err(format!("unknown job kind '{other}'")),
        };
        let deadline_ms = match row.get("deadline_ms") {
            None => None,
            Some(v) => {
                let ms: u64 = v.parse().map_err(|e| format!("field 'deadline_ms': {e}"))?;
                if ms == 0 {
                    return Err("field 'deadline_ms': must be at least 1".into());
                }
                Some(ms)
            }
        };
        let spec = JobSpec {
            kind,
            deadline_ms,
            fail_attempts: u64f("fail_attempts", 0)? as u32,
        };
        spec.points().iter().try_for_each(admissible)?;
        Ok(spec)
    }

    /// Re-renders the spec as a flat row — `parse(to_row(s))` is identity.
    /// This is what `spec.json` persists for restart adoption.
    pub fn to_row(&self) -> String {
        let mut obj = JsonObj::new();
        match &self.kind {
            SpecKind::Sweep { source } => {
                obj = obj.str_field("kind", "sweep");
                match source {
                    SweepSource::Pool(p) => obj = obj.str_field("pool", p),
                    SweepSource::Custom {
                        schemes,
                        transients,
                        k,
                        vcs,
                        cycles,
                        seed,
                        rate,
                    } => {
                        let labels: Vec<String> = schemes.iter().map(|s| s.label()).collect();
                        let ts: Vec<String> = transients.iter().map(|t| format!("{t}")).collect();
                        obj = obj
                            .str_field("schemes", &labels.join(","))
                            .str_field("transients", &ts.join(","))
                            .u64_field("k", u64::from(*k))
                            .u64_field("vcs", u64::from(*vcs))
                            .u64_field("cycles", *cycles)
                            .u64_field("seed", *seed)
                            .f64_field("rate", *rate, 6);
                    }
                }
            }
            SpecKind::Chaos { seed, cases, pool } => {
                obj = obj
                    .str_field("kind", "chaos")
                    .u64_field("seed", *seed)
                    .u64_field("cases", *cases as u64)
                    .str_field(
                        "pool",
                        match pool {
                            GenPool::Smoke => "smoke",
                            GenPool::Full => "full",
                        },
                    );
            }
            SpecKind::Replay { repro } => {
                obj = obj
                    .str_field("kind", "replay")
                    .str_field("repro", &repro.display().to_string());
            }
        }
        if let Some(ms) = self.deadline_ms {
            obj = obj.u64_field("deadline_ms", ms);
        }
        if self.fail_attempts > 0 {
            obj = obj.u64_field("fail_attempts", u64::from(self.fail_attempts));
        }
        obj.finish()
    }

    /// The sweep points this spec expands to (empty for non-sweep jobs).
    pub fn points(&self) -> Vec<FaultPoint> {
        match &self.kind {
            SpecKind::Sweep { source } => match source {
                SweepSource::Pool(p) => fault_sweep::points(p == "fault-quick"),
                SweepSource::Custom {
                    schemes,
                    transients,
                    k,
                    vcs,
                    cycles,
                    seed,
                    rate,
                } => {
                    let mut pts = Vec::new();
                    for s in schemes {
                        for t in transients {
                            let mut p = FaultPoint::quick("serve", *s, *t);
                            p.k = *k;
                            p.vcs = *vcs;
                            p.cycles = *cycles;
                            p.seed = *seed;
                            p.rate = *rate;
                            pts.push(p);
                        }
                    }
                    pts
                }
            },
            _ => Vec::new(),
        }
    }

    /// Content address: the job id. Digest of the *work*, not the spec
    /// text — two spellings of the same point set collide (by design), and
    /// deadline/test knobs do not perturb it. Replay specs hash the repro
    /// file's bytes, so the file must exist at submission (`Err` names it).
    pub fn digest(&self) -> Result<String, String> {
        let canon = match &self.kind {
            SpecKind::Sweep { .. } => {
                let mut keys: Vec<String> = self.points().iter().map(FaultPoint::key).collect();
                keys.sort();
                format!("sweep|{}", keys.join("|"))
            }
            SpecKind::Chaos { seed, cases, pool } => {
                format!("chaos|{seed}|{cases}|{pool:?}")
            }
            SpecKind::Replay { repro } => {
                let bytes = std::fs::read(repro)
                    .map_err(|e| format!("cannot read repro {}: {e}", repro.display()))?;
                format!("replay|{:016x}", fnv1a(&bytes))
            }
        };
        Ok(format!("{:016x}", fnv1a(canon.as_bytes())))
    }

    /// Instantiates the runnable job, rooted in the job's directory:
    /// `rows.ckpt.jsonl` is the unit journal the resume contract rides on.
    /// `width` is the service-resolved lockstep batch width (the service
    /// reads `NOC_BATCH_WIDTH` once, eagerly, at boot).
    pub fn to_job(&self, job_dir: &std::path::Path, width: usize) -> SimJob {
        let rows = job_dir.join("rows.ckpt.jsonl");
        match &self.kind {
            SpecKind::Sweep { .. } => SimJob::Sweep {
                points: self.points(),
                ckpt: rows,
                width,
            },
            SpecKind::Chaos { seed, cases, pool } => SimJob::Chaos {
                seed: *seed,
                cases: *cases,
                pool: *pool,
                log: rows,
            },
            SpecKind::Replay { repro } => SimJob::Replay {
                repro: repro.clone(),
            },
        }
    }
}

/// The engine's own preconditions for one sweep point, checked at
/// submission: a point that fails one would only panic inside the engine
/// and end as a `failed` row. The error names the spec field.
fn admissible(p: &FaultPoint) -> Result<(), String> {
    if p.k < 2 {
        return Err(format!(
            "field 'k': a {0}x{0} mesh has fewer than 2 nodes",
            p.k
        ));
    }
    if p.vcs == 0 {
        return Err("field 'vcs': must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&p.rate) {
        return Err(format!(
            "field 'rate': {} is not a probability in [0, 1]",
            p.rate
        ));
    }
    p.config()
        .validate()
        .map_err(|e| format!("field 'transients': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_experiments::jsonio;

    fn parse_line(line: &str) -> BTreeMap<String, String> {
        jsonio::parse_flat(line).expect("valid row")
    }

    #[test]
    fn spec_row_round_trips() {
        for line in [
            r#"{"kind": "sweep", "pool": "fault-quick"}"#,
            r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0,0.01", "deadline_ms": "5000"}"#,
            r#"{"kind": "chaos", "seed": "9", "cases": "3", "pool": "smoke"}"#,
        ] {
            let spec = JobSpec::parse(&parse_line(line)).expect(line);
            let rendered = spec.to_row();
            let again = JobSpec::parse(&parse_line(&rendered)).expect(&rendered);
            assert_eq!(spec.digest().unwrap(), again.digest().unwrap(), "{line}");
            assert_eq!(spec.deadline_ms, again.deadline_ms);
            assert_eq!(spec.fail_attempts, again.fail_attempts);
        }
    }

    #[test]
    fn digest_is_content_addressed() {
        let base = JobSpec::parse(&parse_line(
            r#"{"kind": "sweep", "schemes": "SEEC", "transients": "0.0"}"#,
        ))
        .unwrap();
        // Deadline and the test hook do not perturb the address.
        let with_knobs = JobSpec::parse(&parse_line(
            r#"{"kind": "sweep", "schemes": "SEEC", "transients": "0.0", "deadline_ms": "100", "fail_attempts": "2"}"#,
        ))
        .unwrap();
        assert_eq!(base.digest().unwrap(), with_knobs.digest().unwrap());
        // The work does.
        let other = JobSpec::parse(&parse_line(
            r#"{"kind": "sweep", "schemes": "mSEEC", "transients": "0.0"}"#,
        ))
        .unwrap();
        assert_ne!(base.digest().unwrap(), other.digest().unwrap());
    }

    #[test]
    fn garbage_specs_name_the_broken_field() {
        for (line, needle) in [
            (r#"{"cases": "3"}"#, "kind"),
            (r#"{"kind": "warp"}"#, "unknown job kind"),
            (r#"{"kind": "sweep"}"#, "'pool' or 'schemes'"),
            (
                r#"{"kind": "sweep", "pool": "everything"}"#,
                "unknown sweep pool",
            ),
            (
                r#"{"kind": "sweep", "schemes": "SEEK"}"#,
                "unknown scheme label",
            ),
            (
                r#"{"kind": "sweep", "schemes": "SEEC", "transients": "lots"}"#,
                "transients",
            ),
            (r#"{"kind": "chaos", "cases": "0"}"#, "at least 1"),
            (
                r#"{"kind": "chaos", "pool": "tsunami"}"#,
                "unknown chaos pool",
            ),
            (r#"{"kind": "replay"}"#, "repro"),
            (r#"{"kind": "chaos", "deadline_ms": "0"}"#, "deadline_ms"),
        ] {
            let err = JobSpec::parse(&parse_line(line)).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn out_of_range_points_are_refused_naming_the_field() {
        for (field, value, needle) in [
            ("k", "260", "field 'k'"),
            ("vcs", "258", "field 'vcs'"),
            ("k", "0", "field 'k'"),
            ("k", "1", "field 'k'"),
            ("vcs", "0", "field 'vcs'"),
            ("rate", "NaN", "field 'rate'"),
            ("rate", "-1", "field 'rate'"),
            ("transients", "2.0", "field 'transients'"),
        ] {
            let line = format!(r#"{{"kind": "sweep", "schemes": "SEEC", "{field}": "{value}"}}"#);
            let err = JobSpec::parse(&parse_line(&line)).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        for (field, value) in [
            ("k", "2"),
            ("vcs", "1"),
            ("rate", "1"),
            ("transients", "1.0"),
        ] {
            let line = format!(r#"{{"kind": "sweep", "schemes": "SEEC", "{field}": "{value}"}}"#);
            assert!(JobSpec::parse(&parse_line(&line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn custom_sweep_expands_the_cross_product() {
        let spec = JobSpec::parse(&parse_line(
            r#"{"kind": "sweep", "schemes": "SEEC,mSEEC", "transients": "0.0,0.01,0.05", "cycles": "2000"}"#,
        ))
        .unwrap();
        let pts = spec.points();
        assert_eq!(pts.len(), 6);
        assert!(pts.iter().all(|p| p.cycles == 2_000));
    }
}
