//! Integration: a batch (`Session::batch`) answers as the oracle of the
//! shared harness (`harness/mod.rs`), whole and member by member, across
//! thread and shard counts, fresh and after writes — the multi-query
//! sharing is a pure optimization, never a semantic change. Each test
//! sweeps the harness's queries of one kind on every route.

mod harness;

use deeplens::prelude::*;
use harness::{cases, sweep, Kind, Query};

/// Random batches of plain and filtered joins, dedups and probes; the
/// on-the-fly tree over either side and the persisted index were all
/// planned.
#[test]
fn random_batches_byte_identical_to_serial() {
    cases("random_batches_byte_identical_to_serial", 1, |g| {
        let plans = sweep(g.next_u64(), |_| true);
        for plan in [
            JoinPlan::BallTree { index_left: true },
            JoinPlan::BallTree { index_left: false },
            JoinPlan::Indexed { index_left: false },
        ] {
            assert!(
                plans.iter().any(|(_, p)| *p == plan),
                "{plan:?} never planned"
            );
        }
    });
}

/// K ≥ 4 joins sharing one pass over `big`'s index, and a dedup of the
/// probe relation.
#[test]
fn k4_compatible_batch_matches_serial_across_threads_and_shards() {
    cases(
        "k4_compatible_batch_matches_serial_across_threads_and_shards",
        1,
        |g| {
            let plans = sweep(g.next_u64(), |q| {
                q.l == "mid" && (q.r == "big" || q.kind == Kind::Dedup)
            });
            let shared = JoinPlan::Indexed { index_left: false };
            assert!(plans.iter().filter(|(_, p)| *p == shared).count() >= 2 * 4);
        },
    );
}

/// Joins, filtered joins and dedups over featureless rows, featureless,
/// empty and zero-dimensional sides, the persisted index on either side.
#[test]
fn featureless_rows_match_the_oracle_under_every_plan() {
    cases(
        "featureless_rows_match_the_oracle_under_every_plan",
        1,
        |g| {
            let plans = sweep(g.next_u64(), odd_sides);
            for index_left in [true, false] {
                let plan = JoinPlan::Indexed { index_left };
                assert!(
                    plans.iter().any(|(_, p)| *p == plan),
                    "{plan:?} never planned"
                );
            }
        },
    );
}

/// Each batch issued from two concurrent sessions over one catalog (two
/// wire clients), each one admission unit.
#[test]
fn batch_and_concurrent_sessions_compose() {
    cases("batch_and_concurrent_sessions_compose", 1, |g| {
        sweep(g.next_u64(), |q| q.kind != Kind::Filtered);
    });
}

/// Queries with featureless rows, a featureless or empty side, or
/// zero-dimensional rows on either side.
fn odd_sides(q: &Query) -> bool {
    [q.l, q.r]
        .iter()
        .any(|s| ["odd", "gappy", "bare", "empty", "flat"].contains(s))
}
