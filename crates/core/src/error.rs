//! Error type for the DeepLens core.

use std::fmt;

/// Errors surfaced by the DeepLens core library.
#[derive(Debug, Clone)]
pub enum DlError {
    /// Underlying codec failure.
    Codec(deeplens_codec::CodecError),
    /// A pipeline failed type validation (§4.2).
    TypeError(String),
    /// A named collection or index does not exist.
    NotFound(String),
    /// An operator was invoked on incompatible patch data (e.g. a similarity
    /// join over patches with no features).
    SchemaMismatch(String),
    /// An index of the wrong kind was supplied for an operation.
    WrongIndex {
        /// What the operation needed.
        expected: &'static str,
        /// What it got.
        actual: &'static str,
    },
    /// A write collided with existing catalog state (e.g. materializing a
    /// collection under a name that already exists via a no-clobber API).
    Conflict(String),
}

impl fmt::Display for DlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlError::Codec(e) => write!(f, "codec: {e}"),
            DlError::TypeError(msg) => write!(f, "type error: {msg}"),
            DlError::NotFound(name) => write!(f, "not found: {name}"),
            DlError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            DlError::WrongIndex { expected, actual } => {
                write!(f, "wrong index kind: expected {expected}, got {actual}")
            }
            DlError::Conflict(msg) => write!(f, "conflict: {msg}"),
        }
    }
}

impl std::error::Error for DlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DlError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<deeplens_codec::CodecError> for DlError {
    fn from(e: deeplens_codec::CodecError) -> Self {
        DlError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DlError::NotFound("traffic".into());
        assert!(e.to_string().contains("traffic"));
        let s: DlError = deeplens_codec::CodecError::UnexpectedEof.into();
        assert!(std::error::Error::source(&s).is_some());
        let w = DlError::WrongIndex {
            expected: "ball",
            actual: "hash",
        };
        assert!(w.to_string().contains("ball"));
    }
}
