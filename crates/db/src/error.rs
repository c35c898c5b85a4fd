//! Error type of the database crate.

use std::error::Error;
use std::fmt;

/// Errors produced while decoding snapshots or querying the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The binary snapshot stream is malformed.
    Decode {
        /// Byte offset (relative to the containing message) of the failure.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The snapshot was written under a newer, breaking schema version.
    /// (Additive changes never bump the version — decoders skip unknown
    /// fields — so a higher version means the layout itself changed.)
    UnsupportedSchema {
        /// The version found in the snapshot.
        found: u32,
        /// The highest version this library understands.
        supported: u32,
    },
    /// A query referenced a microarchitecture the database has no records
    /// for.
    UnknownUarch {
        /// The requested name.
        name: String,
    },
    /// A wire query plan could not be parsed (unknown or duplicate
    /// parameter, malformed value or percent-escape). Strict by design:
    /// silently skipping a misspelled filter would return — and cache —
    /// the wrong result set.
    Plan {
        /// Human-readable description.
        message: String,
    },
    /// The segment image is malformed (bad magic, truncated header,
    /// out-of-range section offsets, inconsistent section sizes, …).
    /// Corruption is always reported as this error — segment validation
    /// never panics.
    Segment {
        /// Byte offset of the failure within the image.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error while reading or writing a segment or snapshot file.
    Io {
        /// The failing path.
        path: String,
        /// The underlying error, stringified (kept as a string so the
        /// error type stays `Clone + PartialEq`).
        message: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Decode { offset, message } => {
                write!(f, "binary snapshot decode error at byte {offset}: {message}")
            }
            DbError::UnsupportedSchema { found, supported } => {
                write!(
                    f,
                    "snapshot schema version {found} is newer than the supported version \
                     {supported}; upgrade this library to read it"
                )
            }
            DbError::UnknownUarch { name } => {
                write!(f, "no records for microarchitecture {name:?}")
            }
            DbError::Plan { message } => {
                write!(f, "query plan parse error: {message}")
            }
            DbError::Segment { offset, message } => {
                write!(f, "segment validation error at byte {offset}: {message}")
            }
            DbError::Io { path, message } => {
                write!(f, "I/O error on {path}: {message}")
            }
        }
    }
}

impl Error for DbError {}
