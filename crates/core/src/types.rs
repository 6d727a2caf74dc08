//! The pipeline type system (§4.2).
//!
//! DeepLens types every stage of an ETL pipeline: the kind of payload, the
//! fixed input resolution neural networks demand, and the feature dimension.
//! [`crate::etl::Pipeline::validate`] checks each stage against its upstream
//! schema ([`PatchSchema::validate_into`]), so a featurizer fed features or a
//! network fed the wrong resolution is a type error caught before any frame
//! is decoded.

use crate::{DlError, Result};

/// Kind of patch payload a stage produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// Raw pixel patches.
    Pixels,
    /// Feature vectors.
    Features,
    /// Metadata-only patches.
    Empty,
}

/// Schema of a patch collection flowing between pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSchema {
    /// Payload kind.
    pub data: DataKind,
    /// Exact pixel resolution, when fixed (networks require fixed inputs).
    pub resolution: Option<(u32, u32)>,
    /// Feature dimension, when featurized.
    pub dim: Option<usize>,
}

impl PatchSchema {
    /// Schema of raw pixel patches at any resolution.
    pub fn pixels() -> Self {
        PatchSchema {
            data: DataKind::Pixels,
            resolution: None,
            dim: None,
        }
    }

    /// Schema of `dim`-dimensional feature patches.
    pub fn features(dim: usize) -> Self {
        PatchSchema {
            data: DataKind::Features,
            resolution: None,
            dim: Some(dim),
        }
    }

    /// Builder: constrain the resolution.
    pub fn with_resolution(mut self, w: u32, h: u32) -> Self {
        self.resolution = Some((w, h));
        self
    }

    /// Validate that a stage expecting `input` can consume this schema
    /// (payload kind, resolution and dimension must all be compatible).
    pub fn validate_into(&self, input: &PatchSchema) -> Result<()> {
        if self.data != input.data {
            return Err(DlError::TypeError(format!(
                "stage expects {:?} patches but upstream produces {:?}",
                input.data, self.data
            )));
        }
        if let (Some(need), Some(have)) = (input.resolution, self.resolution) {
            if need != have {
                return Err(DlError::TypeError(format!(
                    "stage expects {}x{} input but upstream produces {}x{}",
                    need.0, need.1, have.0, have.1
                )));
            }
        }
        if let (Some(need), Some(have)) = (input.dim, self.dim) {
            if need != have {
                return Err(DlError::TypeError(format!(
                    "stage expects {need}-dim features but upstream produces {have}-dim"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_compatibility() {
        let pixels = PatchSchema::pixels().with_resolution(64, 64);
        let needs_pixels = PatchSchema::pixels().with_resolution(64, 64);
        assert!(pixels.validate_into(&needs_pixels).is_ok());

        let wrong_res = PatchSchema::pixels().with_resolution(32, 32);
        assert!(wrong_res.validate_into(&needs_pixels).is_err());

        let features = PatchSchema::features(12);
        assert!(features.validate_into(&needs_pixels).is_err());
        assert!(features.validate_into(&PatchSchema::features(12)).is_ok());
        assert!(features.validate_into(&PatchSchema::features(24)).is_err());
    }
}
