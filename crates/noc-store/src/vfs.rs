//! The virtual filesystem the persistence paths write through.
//!
//! [`StdVfs`] is the production implementation: whole-file artifacts are
//! written to a temp file, fsync'd, atomically renamed into place, and the
//! containing directory is fsync'd (Linux) so the rename itself is durable.
//! Appends (`*.jsonl` journals) are `write_all` + flush per record.
//!
//! [`crate::FaultVfs`] wraps the same operations with scheduled fault
//! injection; [`active`] picks between them from the `NOC_VFS_FAULT_*`
//! environment knobs once per process.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An open append-only journal handle.
pub trait AppendLog: Send {
    /// Appends `data` (`write_all` + flush). On error the number of bytes
    /// that actually landed is unknown — journal writers go through
    /// [`append_sealed`], whose retries resync on a newline, never by
    /// blindly re-appending.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
}

/// The filesystem operations every persistence path goes through.
pub trait Vfs: Send + Sync {
    /// Reads a whole file to a string.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Writes a whole-file artifact atomically: temp file in the same
    /// directory, `write_all`, fsync, rename over `path`, directory fsync.
    /// A crash at any point leaves either the old file or the new one —
    /// never a torn hybrid.
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Opens (creating as needed) an append-only journal.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendLog>>;

    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The production [`Vfs`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

/// Unique-per-call temp-file suffix so concurrent atomic writers of the
/// same artifact never collide on the temp name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temp-file path `write_atomic` stages into, visible so fault tests
/// can assert a failed rename left the target untouched.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.tmp.{}.{seq}", std::process::id()))
}

/// Fsync the directory containing `path` so a just-performed rename is
/// durable (Linux semantics). Errors are reported: an undurable rename is
/// a storage fault, not a detail.
fn fsync_parent(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// The shared atomic-write sequence, also used by [`crate::FaultVfs`] with
/// fault hooks at the write and rename steps.
pub(crate) fn atomic_write_steps(
    path: &Path,
    data: &[u8],
    write_hook: &dyn Fn(&mut std::fs::File, &[u8]) -> io::Result<()>,
    rename_ok: bool,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_path(path);
    let staged = (|| -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        write_hook(&mut f, data)?;
        f.sync_all()
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if !rename_ok {
        let _ = std::fs::remove_file(&tmp);
        return Err(io::Error::other(format!(
            "injected rename failure publishing {}",
            path.display()
        )));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_parent(path)
}

struct StdAppend {
    file: std::fs::File,
}

impl AppendLog for StdAppend {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)?;
        self.file.flush()
    }
}

impl Vfs for StdVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        atomic_write_steps(path, data, &|f, d| f.write_all(d), true)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendLog>> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdAppend { file }))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// The workspace's one backoff formula: milliseconds to wait after
/// `failed_attempts` consecutive failures (1-based) — `base << (n-1)`,
/// capped at 64× the base, saturating instead of wrapping for huge bases.
#[must_use]
pub fn backoff(base: u64, failed_attempts: u32) -> u64 {
    base.saturating_mul(1 << failed_attempts.saturating_sub(1).min(6))
}

/// Attempts [`append_sealed`] makes before it surfaces the error.
const APPEND_ATTEMPTS: u32 = 3;

/// [`backoff`] base, in milliseconds, between [`append_sealed`] attempts.
const APPEND_BACKOFF_MS: u64 = 5;

/// The one sealed journal append: seals `payload` with
/// [`crate::seal_line`] and appends it as one line, making up to three
/// attempts with the capped [`backoff`] between them. After a failed
/// append the bytes that landed are unknown, so every retry starts with a
/// newline: a stray partial fragment becomes its own line, which its seal
/// exposes at the next open, and readers skip the blank lines the resyncs
/// leave. Returns the last error when every attempt failed; what that
/// means (park the run, degrade the service) is the caller's policy.
pub fn append_sealed(log: &mut dyn AppendLog, payload: &str) -> io::Result<()> {
    let framed = format!("\n{}\n", crate::seal_line(payload));
    let mut data = &framed[1..];
    for failed in 1..APPEND_ATTEMPTS {
        if log.append(data.as_bytes()).is_ok() {
            return Ok(());
        }
        let wait = backoff(APPEND_BACKOFF_MS, failed);
        std::thread::sleep(std::time::Duration::from_millis(wait));
        data = &framed;
    }
    log.append(data.as_bytes())
}

static ACTIVE: OnceLock<Arc<dyn Vfs>> = OnceLock::new();

/// The process-wide [`Vfs`], chosen once from the environment:
/// [`crate::FaultVfs`] when `NOC_VFS_FAULT_SCHEDULE` or
/// `NOC_VFS_FAULT_SEED` is set (binaries validate both eagerly and exit 2
/// on garbage), [`StdVfs`] otherwise. Tests that need a specific fault
/// plan construct their own `FaultVfs` and pass it explicitly instead.
pub fn active() -> Arc<dyn Vfs> {
    Arc::clone(ACTIVE.get_or_init(|| {
        match crate::FaultPlan::from_process_env() {
            Ok(Some(plan)) => Arc::new(crate::FaultVfs::new(plan)),
            Ok(None) => Arc::new(StdVfs),
            // Binaries validate eagerly at startup; reaching this panic
            // means a library consumer skipped that gate.
            Err(e) => panic!("invalid storage-fault configuration: {e}"),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("noc_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmpdir("atomic");
        let path = dir.join("artifact.json");
        let vfs = StdVfs;
        vfs.write_atomic(&path, b"first\n").unwrap();
        assert_eq!(vfs.read_to_string(&path).unwrap(), "first\n");
        vfs.write_atomic(&path, b"second\n").unwrap();
        assert_eq!(vfs.read_to_string(&path).unwrap(), "second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_creates_parent_directories() {
        let dir = tmpdir("parents");
        let path = dir.join("a/b/c.json");
        StdVfs.write_atomic(&path, b"x").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_log_accumulates_records() {
        let dir = tmpdir("append");
        let path = dir.join("j.jsonl");
        let vfs = StdVfs;
        let mut log = vfs.open_append(&path).unwrap();
        log.append(b"one\n").unwrap();
        log.append(b"two\n").unwrap();
        drop(log);
        // Re-opening appends, never truncates.
        let mut log = vfs.open_append(&path).unwrap();
        log.append(b"three\n").unwrap();
        assert_eq!(vfs.read_to_string(&path).unwrap(), "one\ntwo\nthree\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_doubles_to_a_64x_cap_and_saturates() {
        assert_eq!(
            [0, 1, 2, 3, 7, 8, u32::MAX].map(|n| backoff(10, n)),
            [10, 10, 20, 40, 640, 640, 640]
        );
        assert_eq!(backoff(u64::MAX, 7), u64::MAX);
        for base in [0, 1, 1 << 58, u64::MAX] {
            for n in 1..12 {
                assert!(backoff(base, n) >= base, "backoff({base}, {n})");
            }
        }
    }

    /// A log whose first `fail` appends land `torn` bytes and then fail.
    struct Flaky {
        fail: u32,
        torn: usize,
        landed: Vec<u8>,
        calls: u32,
    }

    impl AppendLog for Flaky {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.calls += 1;
            if self.calls <= self.fail {
                self.landed
                    .extend_from_slice(&data[..self.torn.min(data.len())]);
                return Err(io::Error::other(format!("boom {}", self.calls)));
            }
            self.landed.extend_from_slice(data);
            Ok(())
        }
    }

    #[test]
    fn retry_backs_off_and_surfaces_the_last_error() {
        // Two torn attempts, then a clean one: each retry leads with a
        // newline, so both fragments end up on lines of their own.
        let sealed = crate::seal_line("{\"a\": 1}");
        let mut log = Flaky {
            fail: 2,
            torn: 4,
            landed: Vec::new(),
            calls: 0,
        };
        append_sealed(&mut log, "{\"a\": 1}").unwrap();
        assert_eq!(log.calls, 3);
        let landed = String::from_utf8(log.landed).unwrap();
        assert_eq!(
            landed,
            format!("{}\n{}\n{sealed}\n", &sealed[..4], &sealed[..3])
        );
        let mut dead = Flaky {
            fail: u32::MAX,
            torn: 0,
            landed: Vec::new(),
            calls: 0,
        };
        let err = append_sealed(&mut dead, "{}").unwrap_err();
        assert_eq!((dead.calls, err.to_string()), (3, "boom 3".to_string()));
    }
}
