//! # deeplens-bench
//!
//! The DeepLens benchmark (paper §6) and the harnesses that regenerate every
//! figure and table of the evaluation (§7).
//!
//! * [`etl`] — dataset → patch-collection ETL built from the vision
//!   substrate (detector, OCR, depth, featurizers).
//! * [`queries`] — the six benchmark queries, each in a baseline (no
//!   indexes) and an optimized (hand-tuned physical design) variant.
//! * [`report`] — timing helpers, table printing, CSV output into
//!   `bench-results/`.
//! * [`repro`] — what the figures measure but the engine never runs: the
//!   page stack, B+Tree and video layouts of Figs. 3 and 6, the KD-Tree,
//!   LSH, R-Tree and sorted-run indexes of Fig. 6, the simulated GPU and
//!   device placement of Fig. 8, and the plan-order accuracy model of
//!   Table 1.
//!
//! Harness binaries (one per figure/table):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2_encoding` | Fig. 2 — storage cost vs. accuracy across encodings |
//! | `fig3_layout` | Fig. 3 — temporal filter pushdown across layouts |
//! | `fig4_indexes` | Fig. 4 — query time, baseline vs. indexed, q1–q6 |
//! | `fig5_onthefly` | Fig. 5 — end-to-end incl. on-the-fly index builds |
//! | `fig6_buildcost` | Fig. 6 — index construction cost vs. #tuples |
//! | `fig7_balltree` | Fig. 7 — Ball-Tree join cost vs. indexed size & dim |
//! | `fig8_devices` | Fig. 8 — CPU / AVX / GPU for ETL and query time |
//! | `table1_accuracy` | Table 1 — accuracy vs. runtime of q4 plan orders |
//! | `run_all` | everything above in sequence |
//!
//! The workload scale defaults to a laptop-friendly fraction of the paper's
//! corpus sizes and can be raised with the `DEEPLENS_SCALE` environment
//! variable (`1.0` = paper scale).

pub mod etl;
pub mod queries;
pub mod report;
pub mod repro;

/// Default fraction of the paper's dataset sizes the harnesses run at.
pub const DEFAULT_SCALE: f64 = 0.03;

/// The workload scale: `DEEPLENS_SCALE` env var, or [`DEFAULT_SCALE`] when
/// unset. An invalid value is reported and the process exits with status 2
/// rather than silently running at the default.
pub fn scale() -> f64 {
    let var = std::env::var("DEEPLENS_SCALE").ok();
    parse_scale(var.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Parse a `DEEPLENS_SCALE` value: `None` (unset) is [`DEFAULT_SCALE`];
/// anything that is not a finite number above zero is an error naming the
/// value.
pub fn parse_scale(value: Option<&str>) -> Result<f64, String> {
    let Some(raw) = value else {
        return Ok(DEFAULT_SCALE);
    };
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "DEEPLENS_SCALE={raw:?} is not a finite number above zero (1.0 = paper scale)"
        )),
    }
}

/// Seed shared by all harnesses so every figure sees the same world.
pub const WORLD_SEED: u64 = 0xCAFE_F00D;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_accepts_positive_finite_and_names_bad_values() {
        assert_eq!(parse_scale(None), Ok(DEFAULT_SCALE));
        assert_eq!(parse_scale(Some("0.5")), Ok(0.5));
        for bad in ["abc", "0", "-1", "nan", "inf"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
