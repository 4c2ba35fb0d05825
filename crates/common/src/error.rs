//! The workspace-wide error type.

use std::fmt;

/// Convenient alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors surfaced by the Neutrino reproduction.
///
/// Protocol state machines are written so that *expected* protocol events
/// (e.g. "UE must re-attach") are modeled as ordinary outputs, not errors;
/// `Error` is reserved for genuine misuse or corruption (malformed wire
/// bytes, schema violations, exhausted resources).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Wire bytes could not be decoded under the selected codec.
    Codec {
        /// Codec that rejected the input (e.g. `"asn1-per"`).
        codec: &'static str,
        /// Human-readable cause.
        detail: String,
    },
    /// A value violated the schema it was encoded or validated against.
    Schema(String),
    /// A resource limit (queue depth, log size, ring capacity) was exceeded.
    Exhausted(String),
    /// A configuration value is inconsistent or out of range.
    Config(String),
    /// An I/O error from a real-time driver, captured as a string so the
    /// error type stays `Clone + Eq`.
    Io(String),
}

impl Error {
    /// Constructs a codec error.
    pub fn codec(codec: &'static str, detail: impl Into<String>) -> Self {
        Error::Codec {
            codec,
            detail: detail.into(),
        }
    }

    /// Constructs a schema violation error.
    pub fn schema(detail: impl Into<String>) -> Self {
        Error::Schema(detail.into())
    }

    /// Constructs a resource-exhaustion error.
    pub fn exhausted(detail: impl Into<String>) -> Self {
        Error::Exhausted(detail.into())
    }

    /// Constructs a configuration error.
    pub fn config(detail: impl Into<String>) -> Self {
        Error::Config(detail.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec { codec, detail } => write!(f, "codec error ({codec}): {detail}"),
            Error::Schema(d) => write!(f, "schema violation: {d}"),
            Error::Exhausted(d) => write!(f, "resource exhausted: {d}"),
            Error::Config(d) => write!(f, "configuration error: {d}"),
            Error::Io(d) => write!(f, "i/o error: {d}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::codec("asn1-per", "length determinant overflow");
        assert_eq!(
            e.to_string(),
            "codec error (asn1-per): length determinant overflow"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
    }
}
