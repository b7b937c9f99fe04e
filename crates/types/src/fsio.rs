//! Durable, atomic file writes.
//!
//! Every on-disk artifact that must survive a crash — the run journal
//! above all — is written through this module's single primitive:
//! write a sibling `*.tmp` file, `fsync` it, atomically `rename` it over the
//! destination, then `fsync` the directory so the rename itself is durable.
//! A reader therefore sees either the complete previous file or the
//! complete new file, never a torn mixture.
//!
//! # Failure injection
//!
//! Crash-safety claims are only as good as their tests, so the module has a
//! built-in, always-compiled fault hook: [`inject_failure`] arms a
//! thread-local one-shot [`FailPoint`] that makes the *next* matching I/O
//! step fail exactly the way a power loss at that instant would look
//! (half-written tmp file, unsynced data, missing rename). Production code
//! never arms it; tests use it to prove the journal writer either completes
//! atomically or leaves the previous state readable.

use std::cell::Cell;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Suffix used for in-progress temporary files; anything with this suffix
/// left beside a destination is garbage from an interrupted write and may
/// be reaped.
pub const TMP_SUFFIX: &str = ".tmp";

/// A point in the durable-write sequence where an injected failure strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// The data write is cut short: only a prefix of the bytes reaches the
    /// tmp file, which is left behind (a crash mid-`write`).
    ShortWrite,
    /// The tmp file's `fsync` fails after a complete write (a crash after
    /// `write` but before durability).
    Fsync,
    /// The atomic `rename` fails after a durable tmp write (a crash between
    /// `fsync` and `rename`).
    Rename,
}

thread_local! {
    static ARMED: Cell<Option<FailPoint>> = const { Cell::new(None) };
}

/// Arm (or with `None`, disarm) a one-shot injected failure for the current
/// thread. The next [`atomic_write`] on this thread that reaches the armed
/// point fails there and disarms the hook.
pub fn inject_failure(point: Option<FailPoint>) {
    ARMED.with(|a| a.set(point));
}

/// Whether a failure is currently armed on this thread (test helper).
pub fn failure_armed() -> bool {
    ARMED.with(|a| a.get()).is_some()
}

fn trip(point: FailPoint) -> bool {
    ARMED.with(|a| {
        if a.get() == Some(point) {
            a.set(None);
            true
        } else {
            false
        }
    })
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected I/O failure: {what}"))
}

/// The sibling temporary path used while writing `path`: the same file name
/// with [`TMP_SUFFIX`] appended.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        // An empty parent means "current directory"; skip rather than fail.
        if !dir.as_os_str().is_empty() {
            fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Durably replace `path` with `bytes`: tmp write, `fsync`, atomic
/// `rename`, directory `fsync`. On any failure (real or injected) the
/// previous contents of `path`, if any, are untouched.
///
/// # Errors
/// Propagates the underlying I/O error; an injected failure surfaces as an
/// error whose message names the fail point.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut f = fs::File::create(&tmp)?;
    if trip(FailPoint::ShortWrite) {
        // Model a crash mid-write: a torn tmp file stays on disk.
        f.write_all(&bytes[..bytes.len() / 2])?;
        let _ = f.sync_all();
        return Err(injected("short write"));
    }
    f.write_all(bytes)?;
    if trip(FailPoint::Fsync) {
        return Err(injected("fsync"));
    }
    f.sync_all()?;
    drop(f);
    if trip(FailPoint::Rename) {
        return Err(injected("rename"));
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mcgpu_fsio_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let d = tdir("replace");
        let p = d.join("state.bin");
        atomic_write(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        atomic_write(&p, b"second-longer").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second-longer");
        assert!(!tmp_path(&p).exists(), "tmp must be renamed away");
    }

    #[test]
    fn short_write_leaves_previous_state_and_torn_tmp() {
        let d = tdir("short");
        let p = d.join("state.bin");
        atomic_write(&p, b"good old state").unwrap();
        inject_failure(Some(FailPoint::ShortWrite));
        let err = atomic_write(&p, b"new state that dies").unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert_eq!(fs::read(&p).unwrap(), b"good old state");
        let torn = fs::read(tmp_path(&p)).unwrap();
        assert!(torn.len() < b"new state that dies".len());
        assert!(!failure_armed(), "one-shot hook disarms itself");
        // A later retry succeeds and clears the torn tmp.
        atomic_write(&p, b"new state that lives").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"new state that lives");
    }

    #[test]
    fn fsync_and_rename_failures_keep_previous_state() {
        let d = tdir("fsync");
        let p = d.join("state.bin");
        atomic_write(&p, b"v1").unwrap();
        for point in [FailPoint::Fsync, FailPoint::Rename] {
            inject_failure(Some(point));
            assert!(atomic_write(&p, b"v2").is_err());
            assert_eq!(fs::read(&p).unwrap(), b"v1", "{point:?}");
        }
        inject_failure(None);
        atomic_write(&p, b"v2").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"v2");
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("/x/y/run.jsonl")),
            Path::new("/x/y/run.jsonl.tmp")
        );
    }
}
