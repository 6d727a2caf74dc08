//! Every query and scan answers as one brute-force oracle on every route
//! through DeepLens: the whole sweep of the harness in `harness/mod.rs`,
//! whose generator and oracle every suite shares. Set `PROPTEST_SEED` to
//! draw a different stream.

mod harness;

use deeplens::prelude::*;
use harness::{cases, sweep, sweep_scans, Query};

/// Every join, filtered join, dedup and index probe answers as the oracle
/// on every route, and each of the four join plans was chosen: both
/// on-the-fly trees anywhere; the persisted index on either side of a
/// featureless, empty or zero-dimensional side; and `big`'s fresh index
/// shared by the four `mid × big` anchors. (After the writes, `big`'s delta
/// rows can make a tree over `mid` the cheaper plan for them.)
#[test]
fn queries_answer_as_the_oracle_on_every_route() {
    cases("queries_answer_as_the_oracle_on_every_route", 12, |g| {
        let plans = sweep(g.next_u64(), |_| true);
        let planned = |plan, of: fn(&Query) -> bool| {
            plans.iter().filter(|(q, p)| *p == plan && of(q)).count()
        };
        for index_left in [true, false] {
            let tree = JoinPlan::BallTree { index_left };
            assert!(planned(tree, |_| true) > 0, "{tree:?} never planned");
            let indexed = JoinPlan::Indexed { index_left };
            assert!(planned(indexed, odd_sides) > 0, "{indexed:?} never planned");
        }
        let shared = JoinPlan::Indexed { index_left: false };
        assert!(planned(shared, |q| q.l == "mid" && q.r == "big") >= 4);
    });
}

/// Every `ScanFilter` variant under every projection answers as `row_scan`
/// on every route. The scan filters vary less between seeds than the
/// queries do.
#[test]
fn scans_answer_as_the_oracle_on_every_route() {
    cases("scans_answer_as_the_oracle_on_every_route", 6, |g| {
        sweep_scans(g.next_u64())
    });
}

/// Queries with featureless rows, a featureless or empty side, or
/// zero-dimensional rows on either side.
fn odd_sides(q: &Query) -> bool {
    [q.l, q.r]
        .iter()
        .any(|s| ["odd", "gappy", "bare", "empty", "flat"].contains(s))
}
