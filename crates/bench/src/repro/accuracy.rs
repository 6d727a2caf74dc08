//! Plan-order accuracy composition (§7.4.3, Table 1).
//!
//! Filter-then-match and match-then-filter have different recall/precision
//! profiles, so an accuracy-aware optimizer exposes both a cost-optimal and
//! an accuracy-optimal ordering instead of always pushing filters down.
//! `table1_accuracy` prints this model's prediction next to the measured
//! plans; costs come from the engine's [`CostModel`].

use deeplens_core::optimizer::CostModel;

/// Per-operator accuracy annotation: how an operator transforms the
/// (recall, precision) of the answer set flowing through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyProfile {
    /// Fraction of true results the operator retains.
    pub recall: f64,
    /// Fraction of emitted results that are true.
    pub precision: f64,
}

impl AccuracyProfile {
    /// A perfect (exact) operator.
    pub fn exact() -> Self {
        AccuracyProfile {
            recall: 1.0,
            precision: 1.0,
        }
    }

    /// Compose with a downstream operator under an independence assumption:
    /// recalls multiply; precision is dominated by the last selective stage
    /// but degraded by upstream false positives surviving it.
    pub fn then(&self, next: &AccuracyProfile) -> AccuracyProfile {
        AccuracyProfile {
            recall: (self.recall * next.recall).clamp(0.0, 1.0),
            precision: (self.precision * next.precision).clamp(0.0, 1.0),
        }
    }

    /// F1 score of the composed profile.
    pub fn f1(&self) -> f64 {
        if self.recall + self.precision == 0.0 {
            0.0
        } else {
            2.0 * self.recall * self.precision / (self.recall + self.precision)
        }
    }
}

/// The two q4 plan orders of Table 1, with their estimated cost and
/// composed accuracy.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Human-readable operator order.
    pub order: &'static str,
    /// Estimated cost in model units.
    pub cost: f64,
    /// Composed accuracy estimate.
    pub accuracy: AccuracyProfile,
}

/// Enumerate the filter-pushdown alternatives for a
/// detect → filter → match pipeline (the paper's q4 study, §7.4.3).
///
/// * `n_total` — patches out of the detector;
/// * `filter_selectivity` — fraction surviving the label filter;
/// * `dim` — feature dimension of the matcher;
/// * `filter_acc` — the (noisy) label filter's own accuracy;
/// * `match_acc` — the matcher's own accuracy.
///
/// Filtering *before* matching is cheaper (the match input shrinks) but the
/// filter's recall errors remove patches the matcher could have clustered —
/// deduplication loses witnesses and recall drops. Matching first lets every
/// detection vote in the clustering; the filter then only has to be right
/// about whole clusters, modeled as one extra recall application at
/// cluster granularity (milder: square-root damping).
pub fn enumerate_filter_match_plans(
    n_total: usize,
    filter_selectivity: f64,
    dim: usize,
    filter_acc: AccuracyProfile,
    match_acc: AccuracyProfile,
) -> Vec<PlanChoice> {
    let model = CostModel::default();
    let n_filtered = (n_total as f64 * filter_selectivity).round() as usize;

    // Plan A: Patch, Filter, Match (classical pushdown).
    let cost_a = n_total as f64 // the filter scan
        + model.index_join_cost(n_filtered, n_filtered, dim);
    let acc_a = filter_acc.then(&match_acc);

    // Plan B: Patch, Match, Filter.
    let cost_b = model.index_join_cost(n_total, n_total, dim) + n_total as f64;
    // Matching over everything: the matcher's recall applies, and the filter
    // now operates on clusters, where a single surviving member keeps the
    // cluster alive — its effective recall penalty is damped.
    let cluster_filter = AccuracyProfile {
        recall: filter_acc.recall.sqrt(),
        precision: filter_acc.precision,
    };
    let acc_b = match_acc.then(&cluster_filter);

    vec![
        PlanChoice {
            order: "Patch, Filter, Match",
            cost: cost_a,
            accuracy: acc_a,
        },
        PlanChoice {
            order: "Patch, Match, Filter",
            cost: cost_b,
            accuracy: acc_b,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_composition() {
        let a = AccuracyProfile {
            recall: 0.9,
            precision: 0.95,
        };
        let b = AccuracyProfile {
            recall: 0.8,
            precision: 0.9,
        };
        let c = a.then(&b);
        assert!((c.recall - 0.72).abs() < 1e-9);
        assert!((c.precision - 0.855).abs() < 1e-9);
        assert!(c.f1() > 0.0 && c.f1() < 1.0);
        assert_eq!(AccuracyProfile::exact().then(&a), a);
    }

    #[test]
    fn table1_shape_filter_pushdown_hurts_recall() {
        // The Table 1 phenomenon: pushdown is faster but less accurate.
        let plans = enumerate_filter_match_plans(
            10_000,
            0.3,
            64,
            AccuracyProfile {
                recall: 0.85,
                precision: 0.97,
            },
            AccuracyProfile {
                recall: 0.9,
                precision: 0.99,
            },
        );
        let a = &plans[0]; // Filter, Match
        let b = &plans[1]; // Match, Filter
        assert!(a.cost < b.cost, "pushdown must be cheaper");
        assert!(
            b.accuracy.recall > a.accuracy.recall,
            "match-first must have higher recall ({} vs {})",
            b.accuracy.recall,
            a.accuracy.recall
        );
        assert!(b.accuracy.precision >= a.accuracy.precision * 0.95);
    }
}
