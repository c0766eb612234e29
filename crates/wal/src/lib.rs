//! Crash-safe persistence for resumable DSE sweeps.
//!
//! [`Journal`] is an append-only *write-ahead* line file: the pattern
//! that makes `kill -9` of a long sweep recoverable. Its one user is
//! `GpuPlanner::sweep`. The first line is a caller-supplied header
//! that fingerprints the campaign; every completed unit of work
//! appends exactly one `\n`-terminated record line, fsynced before
//! the append returns. Opening an existing journal validates the
//! header, returns every *complete* record line, and **repairs a torn
//! tail**: a final line without a trailing newline is the signature of
//! a process killed mid-write, so it is truncated away (the unit of
//! work it described simply re-runs) instead of corrupting subsequent
//! appends. The journal as written is the campaign's record; nothing
//! rewrites it.
//!
//! Every failure carries the path and the operation that failed
//! ([`WalError`]), so campaign-level errors can report *which* file
//! broke and *how* instead of a bare I/O message.
//!
//! # Crash model
//!
//! The guarantees target the POSIX crash model the property suites
//! simulate by truncating files at arbitrary byte offsets: appends may
//! tear mid-line (repaired on open), and a header may tear before its
//! newline (the journal restarts empty — nothing after a torn header
//! can exist, since records are only appended after the header is
//! synced).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The file operation a [`WalError`] failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Creating the file (first open of a fresh journal).
    Create,
    /// Opening an existing file for append.
    Open,
    /// Reading the file's contents.
    Read,
    /// Appending a record line.
    Append,
    /// Flushing buffered writes to the OS / device (`fsync`).
    Sync,
    /// Truncating a torn tail during open-time repair.
    Repair,
}

impl WalOp {
    /// Stable lowercase name for reports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            WalOp::Create => "create",
            WalOp::Open => "open",
            WalOp::Read => "read",
            WalOp::Append => "append",
            WalOp::Sync => "sync",
            WalOp::Repair => "repair",
        }
    }
}

impl fmt::Display for WalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failed journal operation, carrying the offending path
/// and the operation so campaign errors stay actionable.
#[derive(Debug)]
pub struct WalError {
    /// The file the operation targeted.
    pub path: PathBuf,
    /// What was being done.
    pub op: WalOp,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl WalError {
    fn new(path: &Path, op: WalOp, source: std::io::Error) -> Self {
        Self {
            path: path.to_path_buf(),
            op,
            source,
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed on {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// An append-only write-ahead line journal with a validated header.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens (or creates) the journal at `path` with the given
    /// campaign `header` line (no trailing newline).
    ///
    /// Returns the journal and the complete record lines recovered
    /// from an existing file (empty for a fresh one). A torn final
    /// record line is truncated away; a torn header (a file with no
    /// newline at all) is treated as a fresh journal, because records
    /// are only ever appended after the header line was synced.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] on I/O failure, or a `Header` mismatch
    /// (as an [`std::io::ErrorKind::InvalidData`] error) when the file
    /// carries a *complete* header for a different campaign — that is
    /// a caller mistake, not a crash artifact, so it is never silently
    /// overwritten.
    pub fn open(path: &Path, header: &str) -> Result<(Self, Vec<String>), WalError> {
        if !path.exists() {
            return Ok((Self::create(path, header)?, Vec::new()));
        }
        let bytes = std::fs::read(path).map_err(|e| WalError::new(path, WalOp::Read, e))?;
        // A torn header: no newline anywhere. Nothing can follow it,
        // so restart the journal from scratch.
        let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
            return Ok((Self::create(path, header)?, Vec::new()));
        };
        let found = String::from_utf8_lossy(&bytes[..header_end]);
        if found != header {
            return Err(WalError::new(
                path,
                WalOp::Open,
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journal header {found:?} does not match campaign {header:?}"),
                ),
            ));
        }
        // Complete records end in '\n'; anything after the last
        // newline is a torn tail from a killed append.
        let valid_len = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(bytes.len(), |p| p + 1);
        let records = String::from_utf8_lossy(&bytes[header_end + 1..valid_len])
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect();
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| WalError::new(path, WalOp::Open, e))?;
        if valid_len < bytes.len() {
            file.set_len(valid_len as u64)
                .map_err(|e| WalError::new(path, WalOp::Repair, e))?;
        }
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
            },
            records,
        ))
    }

    fn create(path: &Path, header: &str) -> Result<Self, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| WalError::new(path, WalOp::Create, e))?;
        writeln!(file, "{header}").map_err(|e| WalError::new(path, WalOp::Append, e))?;
        file.sync_data()
            .map_err(|e| WalError::new(path, WalOp::Sync, e))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record line (must not contain `\n`) and syncs it.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] on write or sync failure.
    pub fn append(&mut self, line: &str) -> Result<(), WalError> {
        debug_assert!(!line.contains('\n'), "journal records are single lines");
        writeln!(self.file, "{line}").map_err(|e| WalError::new(&self.path, WalOp::Append, e))?;
        self.file
            .sync_data()
            .map_err(|e| WalError::new(&self.path, WalOp::Sync, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("ggpu_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn fresh_journal_writes_header_and_records() {
        let path = scratch("fresh");
        let (mut j, records) = Journal::open(&path, "hdr v1 seed=7").unwrap();
        assert!(records.is_empty());
        j.append("r 1").unwrap();
        j.append("r 2").unwrap();
        drop(j);
        let (_, records) = Journal::open(&path, "hdr v1 seed=7").unwrap();
        assert_eq!(records, vec!["r 1", "r 2"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_repaired_and_appends_stay_whole() {
        let path = scratch("torn");
        {
            let (mut j, _) = Journal::open(&path, "hdr").unwrap();
            j.append("complete 1").unwrap();
            j.append("complete 2").unwrap();
        }
        // Simulate a kill mid-append: chop the file inside the last
        // line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let (mut j, records) = Journal::open(&path, "hdr").unwrap();
        assert_eq!(records, vec!["complete 1"], "torn line dropped");
        j.append("complete 2 again").unwrap();
        drop(j);
        let (_, records) = Journal::open(&path, "hdr").unwrap();
        assert_eq!(records, vec!["complete 1", "complete 2 again"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_restarts_fresh() {
        let path = scratch("torn_header");
        std::fs::write(&path, "hdr v1 se").unwrap();
        let (_, records) = Journal::open(&path, "hdr v1 seed=9").unwrap();
        assert!(records.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "hdr v1 seed=9\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_foreign_header_is_refused() {
        let path = scratch("foreign");
        std::fs::write(&path, "other campaign\nr 1\n").unwrap();
        let err = Journal::open(&path, "mine").unwrap_err();
        assert_eq!(err.op, WalOp::Open);
        assert_eq!(err.path, path);
        assert!(err.to_string().contains("does not match"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn errors_carry_path_and_operation() {
        let dir = std::env::temp_dir().join(format!("ggpu_wal_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Opening a directory as a journal fails with a typed error.
        let err = Journal::open(&dir, "hdr").unwrap_err();
        assert_eq!(err.path, dir);
        assert!(matches!(err.op, WalOp::Read | WalOp::Create));
        assert!(err.to_string().contains(&dir.display().to_string()));
        let _ = std::fs::remove_dir(&dir);
    }
}
