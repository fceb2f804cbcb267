//! End-to-end observability over real sockets: a coordinator-assigned
//! trace id must arrive bit-identical in every shard server's span log,
//! the `Metrics` request must snapshot a live server remotely (every
//! histogram consistent), and the coordinator must capture slow queries.

// `pub`: each test file uses a different part of the shared helper.
pub mod common;

use common::Cluster;
use ssrq_core::{Algorithm, QueryRequest};
use ssrq_data::{DatasetConfig, QueryWorkload};
use ssrq_net::RemoteShardedEngine;
use ssrq_obs::{MetricValue, ObsReport};
use ssrq_shard::Partitioning;
use ssrq_spatial::Point;
use std::time::Duration;

/// Every histogram of a snapshot has a sum its bucket counts allow.
fn assert_histograms_consistent(who: &str, report: &ObsReport) {
    for sample in &report.metrics {
        if let MetricValue::Histogram(snapshot) = &sample.value {
            assert!(
                snapshot.is_consistent(),
                "{who}: histogram {} is inconsistent: {snapshot:?}",
                sample.name
            );
        }
    }
}

#[test]
fn trace_ids_arrive_bit_identical_in_every_shards_span_log() {
    let dataset = DatasetConfig::gowalla_like(250).generate();
    let shards = 3;
    let cluster = Cluster::start_with(
        &dataset,
        Partitioning::SpatialGrid { cells_per_axis: 4 },
        shards,
        |server| server.with_slow_query_threshold(Duration::from_secs(3600)),
    );
    let remote = RemoteShardedEngine::builder(cluster.endpoints.clone())
        .connect_timeout(Duration::from_secs(10))
        .deadline(Duration::from_secs(30))
        // Threshold zero: every completed query is a slow-query offender.
        .slow_query_threshold(Duration::ZERO)
        .connect()
        .expect("coordinator connects");

    // A pinned origin and a huge k keep the threshold from skipping any
    // shard, so every server must see (and log) every trace id.
    let workload = QueryWorkload::generate(&dataset, 6, 97);
    let mut seen = std::collections::HashSet::new();
    for &user in &workload.users {
        let request = QueryRequest::for_user(user)
            .k(200)
            .alpha(0.4)
            .origin(Point::new(0.5, 0.5))
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let (_result, stats, spans) = remote.query_traced(&request).expect("traced query");
        assert_ne!(spans.trace_id, 0, "minted trace ids are never 0");
        assert!(seen.insert(spans.trace_id), "trace ids are unique");
        assert_eq!(stats.skipped_shards(), 0, "no shard may be skipped");

        // The coordinator's own span tree names the root, the scatter
        // phase, and one span per shard round trip.
        let names: Vec<&str> = spans.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"coordinator_query"));
        assert!(names.contains(&"scatter"));
        assert!(names.contains(&"merge"));
        for endpoint in &cluster.endpoints {
            let label = format!("shard {endpoint}");
            assert!(
                names.iter().any(|n| *n == label),
                "coordinator span tree misses {label}: {names:?}"
            );
        }
        // Per-phase timings sum sanely: every child fits inside the root.
        let root = &spans.spans[0];
        for span in &spans.spans[1..] {
            assert!(
                span.end_ns() <= root.end_ns(),
                "span {} ends after the root",
                span.name
            );
        }

        // The exact same id must be visible in every shard's remote
        // snapshot — bit-identical across the wire.
        for shard in 0..shards {
            let report = remote.remote_metrics(shard).expect("metrics snapshot");
            assert!(
                report.has_trace(spans.trace_id),
                "shard {shard} span log misses trace {:#018x}",
                spans.trace_id
            );
        }
    }

    // The coordinator captured every query as a slow one and counted it.
    let driven = workload.users.len();
    assert_eq!(remote.slow_queries().len(), driven);
    let coordinator = remote.coordinator_report();
    assert_histograms_consistent("coordinator", &coordinator);
    let counted = coordinator
        .counter("ssrq_coordinator_queries_total", &[])
        .unwrap_or(0);
    assert!(
        counted >= driven as u64,
        "coordinator counted {counted} < {driven} queries"
    );

    // The servers' metric registries counted the queries too, and their
    // histograms survive the wire intact.
    for shard in 0..shards {
        let report = remote.remote_metrics(shard).expect("metrics snapshot");
        assert_histograms_consistent(&format!("shard {shard}"), &report);
        let shard_label = shard.to_string();
        let served = report
            .counter("ssrq_server_queries_total", &[("shard", &shard_label)])
            .unwrap_or(0);
        assert!(
            served >= driven as u64,
            "shard {shard} served {served} < {driven} queries"
        );
    }
}
