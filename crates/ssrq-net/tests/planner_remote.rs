//! Remote planner parity: `Algorithm::Auto` must cross the wire as a
//! first-class built-in, and a remote coordinator scattering Auto queries
//! over socket shard servers must answer **bit-identically** to the
//! in-process sharded engine.  The planner's rule reads only the request,
//! so every shard on both sides picks the same delegate for the same
//! request (and may serve repeats from its hot cache): the merged ranked
//! vector is the same by construction.

// `pub`: each test file uses a different part of the shared helper.
pub mod common;

use common::Cluster;
use ssrq_core::{Algorithm, QueryRequest};
use ssrq_data::{DatasetConfig, QueryWorkload};
use ssrq_shard::{Partitioning, ShardedEngine};
use ssrq_spatial::{Point, Rect};

#[test]
fn remote_auto_is_bit_identical_to_in_process_auto() {
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let remote = cluster.connect();

    let workload = QueryWorkload::generate(&dataset, 4, 71);
    let mut requests = Vec::new();
    for &user in &workload.users {
        let base = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.4)
            .algorithm(Algorithm::Auto);
        requests.push(base.clone().build().unwrap());
        requests.push(
            base.clone()
                .within(Rect::new(Point::new(0.1, 0.1), Point::new(0.8, 0.8)))
                .build()
                .unwrap(),
        );
        requests.push(base.max_score(0.6).build().unwrap());
    }

    // Three passes: the first is cold on both sides, later passes are
    // served from the per-shard hot caches — the answers must never move.
    // Both sides run the same delegate (`SFA` at k = 5, α = 0.4) on every
    // shard, so no cross-mechanism ulp can separate them and the
    // comparison is `assert_eq!` on the ranked vector, not a tolerance
    // check.
    for pass in 0..3 {
        for request in &requests {
            let expected = local.run(request).expect("in-process Auto");
            let got = remote.query(request).expect("remote Auto");
            assert_eq!(
                got.ranked, expected.ranked,
                "remote Auto diverged from in-process Auto (pass {pass}, request {request:?})"
            );
            assert!(!got.degraded);
            assert!(got.stats.wire_round_trips >= 1);
        }
    }
}
