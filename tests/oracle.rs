//! Every query and scan answers as one brute-force oracle on every route
//! through DeepLens: the whole sweep of the harness in `harness/mod.rs`,
//! whose generator and oracle every suite shares. Set `PROPTEST_SEED` to
//! draw a different stream.

mod harness;

use deeplens::prelude::*;
use harness::{sweep, sweep_scans};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every join, filtered join, dedup and index probe answers as the
    /// oracle on every route, and each of the four join plans was chosen.
    #[test]
    fn queries_answer_as_the_oracle_on_every_route(seed in any::<u64>()) {
        let plans = sweep(seed, |_| true);
        for index_left in [true, false] {
            for plan in [JoinPlan::BallTree { index_left }, JoinPlan::Indexed { index_left }] {
                prop_assert!(plans.contains(&plan), "{:?} never planned", plan);
            }
        }
    }

}

proptest! {
    // The scan filters vary less between seeds than the queries do.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Every `ScanFilter` variant under every projection answers as
    /// `row_scan` on every route.
    #[test]
    fn scans_answer_as_the_oracle_on_every_route(seed in any::<u64>()) {
        sweep_scans(seed);
    }
}
