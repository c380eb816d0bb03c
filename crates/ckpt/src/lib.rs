//! # mbrpa-ckpt
//!
//! Crash-safe checkpoint/restart for long RPA runs.
//!
//! Production RPA calculations spend thousands of CPU-seconds per
//! quadrature frequency while the state needed to resume is compact: the
//! `n_d × n_eig` warm-start eigenvector block, the accumulated energy, and
//! the per-frequency report summaries. This crate journals that state at
//! every frequency boundary so a crash loses at most one frequency of
//! work.
//!
//! Three layers, std-only:
//!
//! * [`crc32`] — the IEEE CRC32 used to detect truncation and bit rot,
//! * [`codec`] — a versioned binary snapshot format (magic, format
//!   version, config fingerprint, frequency index, warm-start block,
//!   accumulated energy, per-frequency summaries) framed by a trailing
//!   checksum; decoding is bit-exact for every `f64`,
//! * [`store`] — a two-slot atomic store: each save writes a temp file,
//!   fsyncs, renames over the **older** slot, and fsyncs the directory, so
//!   one valid snapshot always survives a mid-write crash. Loading decodes
//!   both slots, rejects any that fail the checksum, and returns the valid
//!   snapshot with the highest write sequence — falling back to the older
//!   slot when the newest is torn or corrupt.
//!
//! The crate knows nothing about RPA configuration semantics: the caller
//! supplies an opaque `fingerprint` (a hash of everything that must match
//! for a resume to be bit-for-bit correct) and checks it on load.

#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod store;

use std::fmt;

pub use codec::{
    decode_snapshot, encode_snapshot, IterRow, OmegaSummary, Snapshot, FORMAT_VERSION, MAGIC,
};
pub use crc32::crc32;
pub use store::{valid_namespace_id, write_atomic, CheckpointStore, LoadedSnapshot, Slot};

/// Errors reading, writing, or validating snapshots.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The snapshot bytes are not a valid snapshot (bad magic, truncated,
    /// failed checksum, or malformed payload).
    Corrupt {
        /// What was wrong.
        reason: String,
    },
    /// The snapshot has a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CkptError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint format version {found} (this build reads {})",
                    FORMAT_VERSION
                )
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

pub(crate) fn corrupt(reason: impl Into<String>) -> CkptError {
    CkptError::Corrupt {
        reason: reason.into(),
    }
}
