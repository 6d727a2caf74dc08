//! Simulated monocular depth prediction (the FCRN substitute).
//!
//! q6 ("find pedestrian pairs where p1 is behind p2") needs per-patch depth.
//! The real paper annotates patches with a pre-trained depth network; here
//! the model pays convolution cost on the patch pixels and returns the
//! scene's ground-truth depth perturbed with multiplicative noise — the
//! typical error profile of monocular depth estimators (relative error grows
//! with distance).

use deeplens_codec::Image;
use deeplens_exec::kernels::conv_stack_vectorized;

/// Noise profile of the simulated depth network.
#[derive(Debug, Clone, Copy)]
pub struct DepthConfig {
    /// Std-dev of the multiplicative depth error (0.1 ≈ ±10%).
    pub relative_noise: f64,
    /// Convolution layers in the prediction stand-in.
    pub cost_layers: usize,
    /// Seed for deterministic noise.
    pub seed: u64,
}

impl Default for DepthConfig {
    fn default() -> Self {
        DepthConfig {
            relative_noise: 0.08,
            cost_layers: 4,
            seed: 0xD395,
        }
    }
}

fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    let mut h = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The simulated depth predictor.
#[derive(Debug, Clone, Default)]
pub struct DepthModel {
    cfg: DepthConfig,
}

impl DepthModel {
    /// Model with an explicit profile.
    pub fn new(cfg: DepthConfig) -> Self {
        DepthModel { cfg }
    }

    /// Predict the depth of a patch whose ground-truth camera distance is
    /// `true_depth`. `object_id` and `frame_no` key the deterministic noise
    /// (the same patch always predicts the same depth).
    pub fn predict(&self, patch: &Image, true_depth: f64, object_id: u64, frame_no: u64) -> f64 {
        // Pay the prediction compute on the patch pixels.
        let [y, _, _] = patch.to_ycbcr();
        let _ = conv_stack_vectorized(
            &y.data,
            y.width as usize,
            y.height as usize,
            self.cfg.cost_layers,
        );
        self.noisy_depth(true_depth, object_id, frame_no)
    }

    /// Batched prediction over `(patch, true_depth, object_id, frame_no)`
    /// items: one [`DepthModel::predict`] per item, in order.
    pub fn predict_batch(&self, items: &[(Image, f64, u64, u64)]) -> Vec<f64> {
        items
            .iter()
            .map(|(img, depth, id, frame)| self.predict(img, *depth, *id, *frame))
            .collect()
    }

    fn noisy_depth(&self, true_depth: f64, object_id: u64, frame_no: u64) -> f64 {
        // Multiplicative Gaussian-ish noise from three uniforms.
        let g = (unit_hash(self.cfg.seed, object_id, frame_no)
            + unit_hash(self.cfg.seed, object_id ^ 7, frame_no)
            + unit_hash(self.cfg.seed, object_id, frame_no ^ 13))
            * 2.0
            - 3.0;
        (true_depth * (1.0 + g * self.cfg.relative_noise)).max(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patch() -> Image {
        Image::solid(12, 20, [100, 120, 140])
    }

    #[test]
    fn prediction_is_deterministic() {
        let m = DepthModel::default();
        let a = m.predict(&patch(), 10.0, 5, 100);
        let b = m.predict(&patch(), 10.0, 5, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn prediction_near_truth() {
        let m = DepthModel::default();
        for id in 0..50u64 {
            let p = m.predict(&patch(), 20.0, id, 7);
            assert!(
                p > 20.0 * 0.6 && p < 20.0 * 1.4,
                "prediction {p} too far from 20"
            );
        }
    }

    #[test]
    fn ordering_mostly_preserved_for_separated_depths() {
        // Well-separated true depths should almost always keep their order —
        // the property q6 relies on.
        let m = DepthModel::default();
        let mut correct = 0;
        for id in 0..100u64 {
            let near = m.predict(&patch(), 5.0, id, 1);
            let far = m.predict(&patch(), 15.0, id + 1000, 1);
            if near < far {
                correct += 1;
            }
        }
        assert!(correct >= 95, "ordering preserved only {correct}/100 times");
    }

    #[test]
    fn noise_free_model_is_exact() {
        let m = DepthModel::new(DepthConfig {
            relative_noise: 0.0,
            ..Default::default()
        });
        assert_eq!(m.predict(&patch(), 12.5, 1, 1), 12.5);
    }
}
