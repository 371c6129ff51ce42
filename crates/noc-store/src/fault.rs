//! Scheduled storage-fault injection.
//!
//! [`FaultVfs`] wraps the production write paths with a deterministic,
//! replayable fault plan, the same discipline as the simulator's
//! `FaultSchedule`: every *write operation* (one `append` call or one
//! `write_atomic` call) consumes one op index from a process-wide counter,
//! and the plan decides what happens at that index. Reads are never
//! faulted — corruption detection on the read side is exercised by the
//! artifacts the faulted writes leave behind.
//!
//! The schedule grammar, the seed, their precedence and the sticky
//! `stuck`/`heal` latch are [`crate::plan`]'s; this module holds what is
//! storage's own: the [`FaultKind`] table (knobs `NOC_VFS_FAULT_SCHEDULE`
//! / `NOC_VFS_FAULT_SEED`) and what each kind does to a write.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;

use crate::plan::{no_arg, num_arg, Injector, Kind, Plan};
use crate::vfs::{atomic_write_steps, AppendLog, StdVfs, Vfs};

/// What happens to one write operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with "no space left on device" before writing anything.
    Enospc,
    /// Fail with an I/O error before writing anything.
    Eio,
    /// Write only the first `n` bytes, then fail: a torn write.
    Torn(u32),
    /// Sleep this many milliseconds, then write normally.
    Slow(u64),
    /// Stage the artifact fully but fail the publishing rename
    /// (whole-file writes; behaves like [`FaultKind::Eio`] on appends).
    RenameFail,
    /// From this op onward every write fails — a persistently broken disk
    /// — until a [`FaultKind::Heal`] event.
    Stuck,
    /// Clear a [`FaultKind::Stuck`] condition; this op then succeeds.
    Heal,
}

impl Kind for FaultKind {
    const SCHEDULE_ENV: &'static str = "NOC_VFS_FAULT_SCHEDULE";
    const SEED_ENV: &'static str = "NOC_VFS_FAULT_SEED";
    const STICKY: FaultKind = FaultKind::Stuck;
    const HEAL: FaultKind = FaultKind::Heal;

    fn parse(name: &str, arg: Option<&str>) -> Result<FaultKind, String> {
        let kind = match name {
            "torn" => return num_arg(name, arg, "bytes", "torn byte offset").map(FaultKind::Torn),
            "slow" => return num_arg(name, arg, "millis", "slow millis").map(FaultKind::Slow),
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            "rename" => FaultKind::RenameFail,
            "stuck" => FaultKind::Stuck,
            "heal" => FaultKind::Heal,
            other => {
                return Err(format!(
                    "unknown fault kind '{other}' \
                     (expected enospc|eio|torn@N|slow@MS|rename|stuck|heal)"
                ))
            }
        };
        no_arg(name, arg, kind)
    }

    fn canonical(self) -> String {
        match self {
            FaultKind::Enospc => "enospc".to_string(),
            FaultKind::Eio => "eio".to_string(),
            FaultKind::Torn(n) => format!("torn@{n}"),
            FaultKind::Slow(ms) => format!("slow@{ms}"),
            FaultKind::RenameFail => "rename".to_string(),
            FaultKind::Stuck => "stuck".to_string(),
            FaultKind::Heal => "heal".to_string(),
        }
    }

    fn draw(pick: u64, arg: u64) -> FaultKind {
        match pick {
            0 => FaultKind::Enospc,
            1 => FaultKind::Eio,
            2 => FaultKind::Torn((arg % 64) as u32),
            _ => FaultKind::Slow(1),
        }
    }
}

/// A storage fault plan: [`Plan`] over [`FaultKind`].
pub type FaultPlan = Plan<FaultKind>;

fn enospc(op: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!("injected ENOSPC at write op {op}"),
    )
}

fn eio(op: u64) -> io::Error {
    io::Error::other(format!("injected EIO at write op {op}"))
}

fn stuck_err(op: u64) -> io::Error {
    io::Error::other(format!("injected persistent write failure at op {op}"))
}

/// A [`Vfs`] that injects the plan's faults into every write operation.
#[derive(Clone, Debug)]
pub struct FaultVfs {
    state: Arc<Injector<FaultKind>>,
}

impl FaultVfs {
    /// Wraps the production write paths with `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            state: Injector::new(plan),
        }
    }

    /// Write operations performed so far (the next op index). A probe run
    /// reads this to enumerate the write sites a workload touches.
    pub fn ops(&self) -> u64 {
        self.state.ops()
    }
}

struct FaultAppend {
    inner: Box<dyn AppendLog>,
    state: Arc<Injector<FaultKind>>,
}

impl AppendLog for FaultAppend {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let (op, kind) = self.state.next_op();
        match kind {
            // next_op maps Heal to None, so the Heal arm is unreachable;
            // folding it in here keeps the match exhaustive regardless.
            None | Some(FaultKind::Heal) => self.inner.append(data),
            Some(FaultKind::Slow(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.append(data)
            }
            Some(FaultKind::Torn(n)) => {
                let cut = (n as usize).min(data.len());
                // The torn prefix really lands in the journal; the caller
                // sees an error with bytes-written unknown.
                let _ = self.inner.append(&data[..cut]);
                Err(eio(op))
            }
            Some(FaultKind::Enospc) => Err(enospc(op)),
            Some(FaultKind::Stuck) => Err(stuck_err(op)),
            Some(FaultKind::Eio | FaultKind::RenameFail) => Err(eio(op)),
        }
    }
}

impl Vfs for FaultVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        StdVfs.read_to_string(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let (op, kind) = self.state.next_op();
        match kind {
            // Heal is unreachable here (next_op maps it to None).
            None | Some(FaultKind::Heal) => StdVfs.write_atomic(path, data),
            Some(FaultKind::Slow(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                StdVfs.write_atomic(path, data)
            }
            Some(FaultKind::Enospc) => Err(enospc(op)),
            Some(FaultKind::Eio) => Err(eio(op)),
            Some(FaultKind::Stuck) => Err(stuck_err(op)),
            Some(FaultKind::Torn(n)) => {
                // The tear hits the *temp* file; the target must never see
                // a partial artifact. atomic_write_steps removes the temp
                // and surfaces the error.
                let cut = (n as usize).min(data.len());
                atomic_write_steps(
                    path,
                    data,
                    &|f, d| {
                        f.write_all(&d[..cut])?;
                        Err(eio(op))
                    },
                    true,
                )
            }
            Some(FaultKind::RenameFail) => {
                atomic_write_steps(path, data, &|f, d| f.write_all(d), false)
            }
        }
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendLog>> {
        let inner = StdVfs.open_append(path)?;
        Ok(Box::new(FaultAppend {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("noc_fault_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The storage kind table: every name parses and prints back, `@arg`
    /// is accepted exactly on `torn` and `slow`, and the error names the
    /// storage alternatives.
    #[test]
    fn kind_table() {
        for (name, takes_arg) in [
            ("enospc", false),
            ("eio", false),
            ("torn", true),
            ("slow", true),
            ("rename", false),
            ("stuck", false),
            ("heal", false),
        ] {
            let (bare, with_arg) = (format!("3:{name}"), format!("3:{name}@12"));
            let (good, bad) = if takes_arg {
                (with_arg, bare)
            } else {
                (bare, with_arg)
            };
            let plan = FaultPlan::parse_schedule(&good).unwrap();
            assert_eq!(plan.canonical(), good);
            assert!(FaultPlan::parse_schedule(&bad).is_err(), "{bad}");
        }
        assert_eq!(
            FaultPlan::parse_schedule("3:whatever").unwrap_err(),
            "unknown fault kind 'whatever' \
             (expected enospc|eio|torn@N|slow@MS|rename|stuck|heal)"
        );
    }

    #[test]
    fn torn_append_leaves_a_real_prefix() {
        let dir = tmpdir("torn");
        let path = dir.join("j.jsonl");
        let vfs = FaultVfs::new(FaultPlan::default().with_event(1, FaultKind::Torn(4)));
        let mut log = vfs.open_append(&path).unwrap();
        log.append(b"first line\n").unwrap();
        let err = log.append(b"second line\n").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        log.append(b"third line\n").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "first line\nsecothird line\n"
        );
        assert_eq!(vfs.ops(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_atomic_write_never_publishes_partial_content() {
        let dir = tmpdir("atomic");
        let path = dir.join("artifact.json");
        let vfs = FaultVfs::new(
            FaultPlan::default()
                .with_event(1, FaultKind::Torn(3))
                .with_event(2, FaultKind::RenameFail)
                .with_event(3, FaultKind::Enospc),
        );
        vfs.write_atomic(&path, b"good").unwrap();
        for _ in 0..3 {
            let _ = vfs.write_atomic(&path, b"evil").unwrap_err();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "good");
        }
        // No temp-file litter either.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // ENOSPC is distinguishable for operators.
        let err = FaultVfs::new(FaultPlan::default().with_event(0, FaultKind::Enospc))
            .write_atomic(&path, b"x")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stuck_persists_until_heal() {
        let dir = tmpdir("stuck");
        let path = dir.join("a.txt");
        let vfs = FaultVfs::new(
            FaultPlan::default()
                .with_event(1, FaultKind::Stuck)
                .with_event(4, FaultKind::Heal),
        );
        vfs.write_atomic(&path, b"0").unwrap(); // op 0
        let _ = vfs.write_atomic(&path, b"1").unwrap_err(); // op 1: goes stuck
        let _ = vfs.write_atomic(&path, b"2").unwrap_err(); // op 2: still stuck
        let _ = vfs.write_atomic(&path, b"3").unwrap_err(); // op 3: still stuck
        vfs.write_atomic(&path, b"4").unwrap(); // op 4: heal succeeds
        vfs.write_atomic(&path, b"5").unwrap(); // op 5: healthy again
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "5");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
