//! A location report routed by the coordinator's owner table: a move that
//! stays inside its owner's cells is one `Relocate` to that shard, and no
//! other shard hears of it.
//!
//! The evidence is the servers' relocation counters, which live in the
//! process-global metric registry under each shard's index.  This is the
//! only test of its binary, so no other test's relocations run beside it
//! and the counts are its own.

// `pub`: each test file uses a different part of the shared helper.
pub mod common;

use common::Cluster;
use ssrq_data::DatasetConfig;
use ssrq_obs::Registry;
use ssrq_shard::Partitioning;
use ssrq_spatial::Point;

/// Relocations shard `shard`'s server answered with `outcome`
/// (`"adopted"` or `"dropped"`).
fn relocations(shard: usize, outcome: &str) -> u64 {
    Registry::global()
        .counter(
            "ssrq_server_relocations_total",
            &[("shard", &shard.to_string()), ("outcome", outcome)],
        )
        .get()
}

#[test]
fn a_move_within_the_owners_cells_costs_one_relocate() {
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let shards = 3;
    let cluster = Cluster::start(
        &dataset,
        Partitioning::SpatialGrid { cells_per_axis: 4 },
        shards,
    );
    let mut remote = cluster.connect();
    let before: Vec<(u64, u64)> = (0..shards)
        .map(|s| (relocations(s, "adopted"), relocations(s, "dropped")))
        .collect();

    // Every located user nudged to a point its owner also covers.
    let mut adopted = vec![0; shards];
    for user in 0..dataset.user_count() as u32 {
        let Some(p) = dataset.location(user) else {
            continue;
        };
        let owner = cluster.assignment.owner_for(user, Some(p));
        let nudged = [1e-6, -1e-6]
            .into_iter()
            .map(|d| Point::new(p.x + d, p.y + d))
            .find(|&q| cluster.assignment.owner_for(user, Some(q)) == owner)
            .expect("a nudge stays in the owner's cells");
        assert_eq!(remote.update_location(user, nudged).unwrap(), owner);
        adopted[owner] += 1;
    }
    assert!(adopted.iter().sum::<u64>() > 0);

    for (s, &(adopted_before, dropped_before)) in before.iter().enumerate() {
        assert_eq!(
            relocations(s, "adopted") - adopted_before,
            adopted[s],
            "shard {s} adopted a move it does not own"
        );
        assert_eq!(
            relocations(s, "dropped"),
            dropped_before,
            "shard {s} was told of a move that never left its owner"
        );
    }
}
