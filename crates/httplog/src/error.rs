//! Crate-wide typed error for log IO.
//!
//! The codecs keep their own precise error types
//! ([`TextDecodeError`],
//! [`ColumnarError`]);
//! [`HttplogError`] is the union the text-log readers, the columnar shard
//! directories and the spool manifests propagate, so callers can
//! distinguish "the disk failed" from "the record is malformed" without
//! string matching.

use crate::codec::columnar::ColumnarError;
use crate::codec::text::TextDecodeError;
use crate::manifest::ManifestError;
use std::fmt;
use std::io;

/// Error produced by [`codec::text::scan`](crate::codec::text::scan)
/// and [`shard`](crate::shard) operations.
#[derive(Debug)]
pub enum HttplogError {
    /// An underlying IO operation failed.
    Io(io::Error),
    /// A text-format line failed to decode.
    TextDecode(TextDecodeError),
    /// A columnar shard failed to read or write (see
    /// [`codec::columnar`](crate::codec::columnar)).
    Columnar(ColumnarError),
    /// A spool manifest is missing, malformed, or disagrees with the
    /// shard directory (see [`manifest`](crate::manifest)).
    Manifest(ManifestError),
}

impl HttplogError {
    /// True when the input itself (not the environment) is at fault: a
    /// malformed record, shard or manifest.
    pub fn is_data_error(&self) -> bool {
        match self {
            Self::TextDecode(_) => true,
            Self::Columnar(e) => e.is_data_error(),
            Self::Manifest(e) => e.is_data_error(),
            Self::Io(_) => false,
        }
    }
}

impl fmt::Display for HttplogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::TextDecode(e) => write!(f, "text decode error: {e}"),
            Self::Columnar(e) => write!(f, "columnar shard error: {e}"),
            Self::Manifest(e) => write!(f, "spool manifest error: {e}"),
        }
    }
}

impl std::error::Error for HttplogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::TextDecode(e) => Some(e),
            Self::Columnar(e) => Some(e),
            Self::Manifest(e) => Some(e),
        }
    }
}

impl From<io::Error> for HttplogError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<TextDecodeError> for HttplogError {
    fn from(e: TextDecodeError) -> Self {
        Self::TextDecode(e)
    }
}

/// Columnar I/O failures surface as [`HttplogError::Io`] so environmental
/// and data faults stay distinguishable at this level too.
impl From<ColumnarError> for HttplogError {
    fn from(e: ColumnarError) -> Self {
        match e {
            ColumnarError::Io(inner) => Self::Io(inner),
            other => Self::Columnar(other),
        }
    }
}

/// Manifest I/O failures surface as [`HttplogError::Io`], like columnar
/// ones; everything else stays a (data-level) manifest error.
impl From<ManifestError> for HttplogError {
    fn from(e: ManifestError) -> Self {
        match e {
            ManifestError::Io(inner) => Self::Io(inner),
            other => Self::Manifest(other),
        }
    }
}

/// Lossy downgrade for callers living in `io::Result` land: IO errors keep
/// their kind, every data error becomes [`io::ErrorKind::InvalidData`].
impl From<HttplogError> for io::Error {
    fn from(e: HttplogError) -> Self {
        match e {
            HttplogError::Io(inner) => inner,
            HttplogError::TextDecode(_) | HttplogError::Columnar(_) | HttplogError::Manifest(_) => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// One value of every variant, with whether it is a data error and the
    /// `io::Error` kind it downgrades to.
    fn every_variant() -> Vec<(HttplogError, bool, io::ErrorKind)> {
        use io::ErrorKind::{InvalidData, PermissionDenied};
        vec![
            (
                io::Error::new(PermissionDenied, "nope").into(),
                false,
                PermissionDenied,
            ),
            (
                TextDecodeError::MissingField { field: "object" }.into(),
                true,
                InvalidData,
            ),
            (
                ColumnarError::Corrupt { what: "magic" }.into(),
                true,
                InvalidData,
            ),
            (ManifestError::Incomplete.into(), true, InvalidData),
        ]
    }

    #[test]
    fn display_and_source_chain() {
        for (e, data, _) in every_variant() {
            assert_eq!(e.is_data_error(), data, "{e}");
            assert!(e.source().is_some(), "{e}");
            match &e {
                HttplogError::Io(inner) => assert!(e.to_string().contains(&inner.to_string())),
                HttplogError::TextDecode(_) => assert!(e.to_string().contains("object")),
                HttplogError::Columnar(_) => assert!(e.to_string().contains("magic")),
                HttplogError::Manifest(_) => assert!(e.to_string().contains("manifest")),
            }
        }
    }

    #[test]
    fn downgrade_to_io_error_keeps_kind() {
        for (e, _, kind) in every_variant() {
            let message = e.to_string();
            let downgraded: io::Error = e.into();
            assert_eq!(downgraded.kind(), kind, "{message}");
        }
    }

    #[test]
    fn io_flavoured_columnar_and_manifest_errors_become_io() {
        let columnar = HttplogError::from(ColumnarError::Io(io::Error::other("disk")));
        assert!(matches!(columnar, HttplogError::Io(_)));
        let manifest = HttplogError::from(ManifestError::Io(io::Error::other("disk")));
        assert!(matches!(manifest, HttplogError::Io(_)));
    }
}
