//! Sharded scatter-gather serving — the horizontal layer.
//!
//! Partitions a Gowalla-like dataset across N shards (spatial tiling),
//! answers queries by bounded scatter-gather (identical results to a single
//! engine — verified live against one), streams first results through the
//! cross-shard merge, routes live location updates (including migration
//! across shard boundaries) and finishes with a rebalance pass.
//!
//! Run with:
//! ```sh
//! cargo run --release --example sharded_serving [users] [shards]
//! ```

use geosocial_ssrq::data::QueryWorkload;
use geosocial_ssrq::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let users: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12_000);
    let shards: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("## Sharded serving — {users} users across {shards} shards\n");
    let dataset = DatasetConfig::gowalla_like(users).generate();
    let single = GeoSocialEngine::builder(dataset.clone())
        .build()
        .expect("single engine builds");

    let started = Instant::now();
    let mut sharded = ShardedEngine::builder(dataset)
        .shards(shards)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 16 })
        .build()
        .expect("sharded engine builds");
    println!(
        "built {} shards in {:?}; occupancy {:?}",
        sharded.shard_count(),
        started.elapsed(),
        sharded.occupancy()
    );

    // --- scatter-gather queries, verified against the single engine -----
    let workload = QueryWorkload::generate(single.dataset(), 24, 7);
    let mut skipped = 0usize;
    let mut executed = 0usize;
    let mut session = sharded.session();
    for &user in &workload.users {
        let request = QueryRequest::for_user(user)
            .k(10)
            .alpha(0.3)
            .algorithm(Algorithm::Ais)
            .build()
            .expect("valid request");
        // Sequential best-first scatter: every shard sees the f_k gathered
        // so far, so the threshold/rect pruning gets to skip shards.
        let (result, stats) = sharded
            .run_with_stats(&request)
            .expect("scatter-gather succeeds");
        let reference = single.run(&request).expect("single engine succeeds");
        assert_eq!(
            result.ranked, reference.ranked,
            "sharded result must match the single engine"
        );
        skipped += stats.skipped_shards();
        executed += stats.executed_shards();
    }
    println!(
        "\n{} queries: every ranked list identical to the single engine",
        workload.users.len()
    );
    println!(
        "threshold + rect pruning skipped {skipped}/{} shard visits ({executed} executed)",
        skipped + executed
    );

    // --- cross-shard streaming: first result before full gather ---------
    let request = QueryRequest::for_user(workload.users[0])
        .k(10)
        .alpha(0.3)
        .algorithm(Algorithm::Ais)
        .build()
        .expect("valid request");
    let t0 = Instant::now();
    let mut stream = session.stream(&request).expect("stream starts");
    let first = stream.next();
    let first_latency = t0.elapsed();
    let rest: Vec<_> = stream.collect();
    let full_latency = t0.elapsed();
    println!(
        "\nstreaming: first of {} results after {:?} (full drain {:?}) — {:?}",
        1 + rest.len(),
        first_latency,
        full_latency,
        first.map(|e| e.user)
    );

    // --- batch throughput ------------------------------------------------
    let batch: Vec<QueryRequest> = workload
        .users
        .iter()
        .map(|&u| {
            QueryRequest::for_user(u)
                .k(10)
                .alpha(0.3)
                .algorithm(Algorithm::Ais)
                .build()
                .expect("valid request")
        })
        .collect();
    let t0 = Instant::now();
    let results = sharded.run_batch(&batch);
    let secs = t0.elapsed().as_secs_f64();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "batch: {ok} queries in {:.1} ms ({:.0} q/s across all cores)",
        secs * 1e3,
        ok as f64 / secs.max(1e-9)
    );

    // --- routed updates + migration + rebalance --------------------------
    let mut rng = StdRng::seed_from_u64(99);
    let mut migrations = 0usize;
    for _ in 0..2_000 {
        let user = rng.gen_range(0..sharded.user_count()) as u32;
        // `None`: the user has no location yet, so nothing migrates.
        let before = sharded.owner_of(user);
        let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        sharded.update_location(user, p).expect("update routes");
        if before.is_some() && sharded.owner_of(user) != before {
            migrations += 1;
        }
    }
    println!("\n2000 live updates routed; {migrations} users migrated across shard boundaries");
    println!("occupancy before rebalance: {:?}", sharded.occupancy());
    let report = sharded.rebalance();
    println!(
        "rebalance moved {} users; occupancy after: {:?}",
        report.moved_users, report.occupancy
    );
}
