//! Error type for the storage engine.

use std::fmt;
use std::io;
use std::sync::Arc;

/// Errors produced by the storage engine.
#[derive(Debug, Clone)]
pub enum StorageError {
    /// Underlying file I/O failed. Wrapped in `Arc` so the error stays `Clone`.
    Io(Arc<io::Error>),
    /// A page checksum did not verify on read.
    ChecksumMismatch {
        /// The page whose checksum failed.
        page_id: u32,
    },
    /// A page id past the end of the file was requested.
    PageOutOfBounds {
        /// The requested page.
        page_id: u32,
        /// Number of pages in the file.
        page_count: u32,
    },
    /// The database file header is not a DeepLens storage file.
    BadHeader(String),
    /// A key or value exceeds what the access method can store.
    EntryTooLarge {
        /// Size of the offending entry in bytes.
        size: usize,
        /// Maximum supported size.
        max: usize,
    },
    /// An access-method invariant was violated (indicates a bug or a corrupt file).
    Corrupt(String),
    /// A caller-supplied parameter is invalid for the requested operation.
    InvalidArgument(String),
    /// A frame's dimensions do not match the layout's fixed raster shape.
    DimensionMismatch {
        /// Width the layout was created with.
        expected_w: u32,
        /// Height the layout was created with.
        expected_h: u32,
        /// Width of the offending frame.
        got_w: u32,
        /// Height of the offending frame.
        got_h: u32,
        /// Frame number of the offending frame.
        frame_no: u64,
    },
    /// Decoding a stored video/image payload failed.
    Codec(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::ChecksumMismatch { page_id } => {
                write!(f, "checksum mismatch on page {page_id}")
            }
            StorageError::PageOutOfBounds {
                page_id,
                page_count,
            } => {
                write!(
                    f,
                    "page {page_id} out of bounds (file has {page_count} pages)"
                )
            }
            StorageError::BadHeader(msg) => write!(f, "bad storage header: {msg}"),
            StorageError::EntryTooLarge { size, max } => {
                write!(f, "entry of {size} bytes exceeds maximum {max}")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt structure: {msg}"),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            StorageError::DimensionMismatch {
                expected_w,
                expected_h,
                got_w,
                got_h,
                frame_no,
            } => {
                write!(
                    f,
                    "frame {frame_no} is {got_w}x{got_h} but the layout stores \
                     {expected_w}x{expected_h} rasters"
                )
            }
            StorageError::Codec(msg) => write!(f, "codec failure: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(Arc::new(e))
    }
}

impl From<deeplens_codec::CodecError> for StorageError {
    fn from(e: deeplens_codec::CodecError) -> Self {
        StorageError::Codec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_conversion_preserves_source() {
        let e: StorageError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_variants() {
        assert!(StorageError::ChecksumMismatch { page_id: 7 }
            .to_string()
            .contains('7'));
        assert!(StorageError::EntryTooLarge { size: 10, max: 5 }
            .to_string()
            .contains("10"));
    }
}
