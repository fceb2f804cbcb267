//! Distributed agreement: real `shard-server` OS processes behind a
//! [`RemoteShardedEngine`] must return exactly what the in-process
//! [`ShardedEngine`] returns for the full 12-algorithm × request-shape
//! matrix (shard servers build no Contraction Hierarchies, so every
//! `*-CH` request is refused as a missing index), and honour the
//! [`FailurePolicy`] when a process is killed mid-batch.
//!
//! Both deployments regenerate the same deterministic dataset from the
//! same `--users/--seed`, so the comparison needs no data shipping.

use ssrq_bench::{launch_cluster, DeploymentConfig, ShardProcess};
use ssrq_core::{Algorithm, QueryRequest};
use ssrq_data::QueryWorkload;
use ssrq_net::{Endpoint, FailureKind, NetError, RemoteShardedEngine};
use ssrq_shard::{FailurePolicy, Partitioning, ShardOutcome};
use ssrq_spatial::{Point, Rect};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn server_binary() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_shard-server"))
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh socket directory per test (cleaned up by the guard).
struct SocketDir(PathBuf);

impl SocketDir {
    fn new() -> SocketDir {
        SocketDir(std::env::temp_dir().join(format!(
            "ssrq-rpc-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        )))
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn connect(servers: &[ShardProcess]) -> RemoteShardedEngine {
    RemoteShardedEngine::builder(servers.iter().map(|s| s.endpoint.clone()).collect())
        .connect()
        .expect("coordinator connects")
}

/// The request shapes of the agreement matrix.
fn request_shapes(user: u32, algorithm: Algorithm) -> Vec<(&'static str, QueryRequest)> {
    let base = QueryRequest::for_user(user).k(10).alpha(0.4);
    vec![
        ("plain", base.clone().algorithm(algorithm).build().unwrap()),
        (
            "rect",
            base.clone()
                .algorithm(algorithm)
                .within(Rect::new(Point::new(0.05, 0.05), Point::new(0.8, 0.9)))
                .build()
                .unwrap(),
        ),
        (
            "exclusion",
            base.clone()
                .algorithm(algorithm)
                .exclude((0..200u32).filter(|u| u % 3 == 0))
                .build()
                .unwrap(),
        ),
        (
            "max_score",
            base.algorithm(algorithm).max_score(0.5).build().unwrap(),
        ),
    ]
}

#[test]
fn shard_server_processes_agree_with_the_in_process_engine_for_all_algorithms() {
    let mut config =
        DeploymentConfig::new(180, 77, 3, Partitioning::SpatialGrid { cells_per_axis: 4 });
    config.cache_workload = Some((3, 23, 80));
    // Logging and the slow-query log armed on every server: neither may
    // write to stdout, whose only line is the readiness announcement.
    config.extra_args = ["--log", "warn", "--slow-query-ms", "1000"]
        .map(String::from)
        .to_vec();

    let local = config.in_process_engine();
    let dir = SocketDir::new();
    let servers = launch_cluster(server_binary(), &dir.0, &config).expect("cluster launches");
    let mut remote = connect(&servers);
    assert_eq!(remote.shard_count(), 3);
    assert_eq!(remote.user_count(), config.users as u64);

    let workload = QueryWorkload::generate(&config.dataset(), 3, 23);
    for &user in &workload.users {
        for algorithm in Algorithm::ALL {
            for (shape, request) in request_shapes(user, algorithm) {
                if algorithm.needs_ch() {
                    let refusal = remote.query(&request);
                    assert!(
                        matches!(
                            refusal,
                            Err(NetError::Remote {
                                kind: FailureKind::MissingIndex,
                                ..
                            })
                        ),
                        "{} {shape}: expected a missing-index refusal, got {refusal:?}",
                        algorithm.name()
                    );
                    // The refusal costs the engine nothing: its next
                    // request is answered, exactly.
                    let next = request.clone().with_algorithm(Algorithm::Sfa);
                    assert_eq!(
                        remote.query(&next).expect("query after a refusal").ranked,
                        local.run(&next).expect("in-process query").ranked,
                        "{shape} (user {user}) after a {} refusal",
                        algorithm.name()
                    );
                    continue;
                }
                let expected = local.run(&request).expect("in-process query");
                let got = remote.query(&request).expect("remote query");
                assert!(
                    !got.degraded,
                    "{} {shape}: unexpectedly degraded",
                    algorithm.name()
                );
                if algorithm.needs_social_cache() {
                    // AIS-Cache mixes two exact distance mechanisms whose
                    // floating-point summation order is interleaving-
                    // dependent; scores can differ by an ulp.
                    assert!(
                        got.same_users_and_scores(&expected, 1e-9),
                        "{} {shape} (user {user}) differs:\n  got      {:?}\n  expected {:?}",
                        algorithm.name(),
                        got.users(),
                        expected.users()
                    );
                } else {
                    assert_eq!(
                        got.ranked,
                        expected.ranked,
                        "{} {shape} (user {user}) differs from the in-process engine",
                        algorithm.name()
                    );
                }
                // The answer crossed the wire.
                assert!(
                    got.stats.wire_round_trips >= 1,
                    "{} {shape}",
                    algorithm.name()
                );
                assert!(got.stats.bytes_sent > 0 && got.stats.bytes_received > 0);
                // The in-process twin never touches a socket.
                assert_eq!(expected.stats.wire_round_trips, 0);
                assert_eq!(expected.stats.bytes_sent + expected.stats.bytes_received, 0);
            }
        }
    }
    remote.shutdown().expect("servers acknowledge shutdown");
}

#[test]
fn killing_a_shard_process_fails_or_degrades_per_policy() {
    let config = DeploymentConfig::new(400, 9, 3, Partitioning::SpatialGrid { cells_per_axis: 8 });
    let local = config.in_process_engine();
    let dir = SocketDir::new();
    let mut servers = launch_cluster(server_binary(), &dir.0, &config).expect("cluster launches");
    let mut remote = connect(&servers);

    // A pinned origin keeps the origin lookup off the wire, and a k above
    // the located population keeps `f_k` infinite, so no shard is pruned:
    // every shard must be visited.
    let request = QueryRequest::for_user(1)
        .k(config.users)
        .alpha(0.4)
        .origin(Point::new(0.5, 0.5))
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let (_, healthy) = remote.query_detailed(&request).expect("all shards up");
    assert_eq!(healthy.executed_shards(), 3, "every shard is visited");

    let killed_endpoint = servers[1].endpoint.to_string();
    servers[1].kill();

    // Fail (the default): the dead process is a typed transport error.
    let error = remote
        .query(&request)
        .expect_err("a dead shard must fail the query");
    assert!(
        matches!(
            error,
            NetError::Disconnected { .. } | NetError::Io(_) | NetError::Timeout { .. }
        ),
        "unexpected error for a killed process: {error}"
    );

    // Degrade: the survivors answer, flagged, with the dead shard named.
    remote.set_failure_policy(FailurePolicy::Degrade);
    let (result, stats) = remote
        .query_detailed(&request)
        .expect("degrade mode answers");
    assert!(result.degraded);
    assert!(!result.is_complete());
    assert_eq!(stats.failed_shards(), 1);
    assert!(
        stats.per_shard.iter().any(|outcome| matches!(
            outcome,
            ShardOutcome::Failed { shard, .. } if *shard == killed_endpoint
        )),
        "the failed outcome must name the dead shard's endpoint"
    );
    // The degraded answer is the exact merge over the surviving shards:
    // no user owned by the dead shard appears, and every user it shares
    // with the full answer carries the identical score.  (It is *not* a
    // subset of the full top-k — the dead shard's users displaced others.)
    let full = local.run(&request).expect("in-process query");
    for entry in &result.ranked {
        assert_ne!(
            local.owner_of(entry.user),
            Some(1),
            "user {} of the dead shard leaked into the degraded answer",
            entry.user
        );
        if let Some(matching) = full.ranked.iter().find(|e| e.user == entry.user) {
            assert_eq!(matching, entry, "score of user {} diverged", entry.user);
        }
    }

    remote
        .shutdown()
        .expect_err("one shard is dead, shutdown reports it");
}

#[test]
fn a_hard_killed_server_restarts_on_the_same_socket_path() {
    let config = DeploymentConfig::new(200, 5, 2, Partitioning::SpatialGrid { cells_per_axis: 8 });
    let local = config.in_process_engine();
    let dir = SocketDir::new();
    let mut servers = launch_cluster(server_binary(), &dir.0, &config).expect("cluster launches");
    let request = QueryRequest::for_user(2)
        .k(8)
        .alpha(0.4)
        .origin(Point::new(0.5, 0.5))
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    {
        let remote = connect(&servers);
        remote.query(&request).expect("healthy cluster answers");
        // The coordinator (and its pooled connections) drops here; the
        // servers keep running.
    }

    // SIGKILL gives the server no chance to unlink its socket — the stale
    // file stays behind, exactly what a crashed production shard leaves.
    let socket_path = dir.0.join("shard-1.sock");
    servers[1].kill();
    assert!(
        socket_path.exists(),
        "a hard kill must leave the socket file behind for this test to mean anything"
    );

    // Restarting on the same path must reclaim the stale socket (and not
    // error with AddrInUse, which is the regression this guards).
    servers[1] = ShardProcess::spawn(server_binary(), &Endpoint::Unix(socket_path), 1, &config)
        .expect("restart over the stale socket file");

    let mut remote = connect(&servers);
    let expected = local.run(&request).expect("in-process query");
    let got = remote.query(&request).expect("restarted cluster answers");
    assert_eq!(got.ranked, expected.ranked, "post-restart answers diverge");
    remote
        .shutdown()
        .expect("both servers acknowledge shutdown");
}
