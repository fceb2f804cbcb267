//! End-to-end socket serving: shard servers (run in threads over
//! Unix-domain sockets) behind a [`RemoteShardedEngine`] coordinator must
//! return exactly what the in-process [`ShardedEngine`] returns, forward
//! the `f_k` threshold across the wire, survive relocations and
//! rebalances, keep one holder per user and exact answers whatever a
//! second coordinator did to the first one's owner table, refuse a
//! non-finite relocation or a malformed cell map without changing any
//! state, refuse out-of-range query parameters typed,
//! fail the way the [`FailurePolicy`] promises when a shard dies, report a
//! missed deadline after one deadline and never reuse the
//! connection that missed it, refuse a response under the wrong frame id,
//! refuse frames outside the protocol without going down, and stop
//! promptly however they are told to.

// `pub`: each test file uses a different part of the shared helper.
pub mod common;

use common::{temp_dir, Cluster};
use ssrq_core::{Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest, QueryResult};
use ssrq_data::{DatasetConfig, QueryWorkload};
use ssrq_net::wire::{self, WireError};
use ssrq_net::{
    ConnectionPool, Endpoint, FailureKind, Message, NetError, RemoteShardedEngine, ShardClient,
    ShardServer,
};
use ssrq_shard::{
    merge_ranked, FailurePolicy, Partitioning, ShardAssignment, ShardOutcome, ShardedEngine,
};
use ssrq_spatial::{Point, Rect};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads one frame off a raw socket: its frame id and its message.
fn read_frame(socket: &mut impl Read) -> (u32, Message) {
    let mut header = [0u8; wire::HEADER_LEN];
    socket.read_exact(&mut header).unwrap();
    let header = wire::parse_header(&header).unwrap();
    let mut payload = vec![0u8; header.payload_len as usize];
    socket.read_exact(&mut payload).unwrap();
    (
        header.frame_id,
        Message::decode(header.tag, &payload).unwrap(),
    )
}

/// A fresh temp dir holding one scripted peer's Unix socket.
fn scripted_listener(name: &str) -> (UnixListener, Endpoint, PathBuf) {
    let dir = temp_dir(name);
    let path = dir.join(format!("{name}.sock"));
    let listener = UnixListener::bind(&path).unwrap();
    (listener, Endpoint::Unix(path), dir)
}

/// Accepts the next connection of a scripted peer.  Its reads give up
/// after ten seconds, so a client that wrongly holds the connection open
/// fails the test instead of hanging it.
fn accept_scripted(listener: &UnixListener) -> UnixStream {
    let (socket, _) = listener.accept().unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    socket
}

fn requests_for(dataset: &GeoSocialDataset, algorithm: Algorithm) -> Vec<QueryRequest> {
    let workload = QueryWorkload::generate(dataset, 4, 71);
    let mut requests = Vec::new();
    for &user in &workload.users {
        let base = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.4)
            .algorithm(algorithm);
        requests.push(base.clone().build().unwrap());
        requests.push(
            base.clone()
                .within(Rect::new(Point::new(0.1, 0.1), Point::new(0.8, 0.8)))
                .build()
                .unwrap(),
        );
        requests.push(
            base.clone()
                .exclude([user.wrapping_add(1) % 100])
                .build()
                .unwrap(),
        );
        requests.push(base.max_score(0.6).build().unwrap());
    }
    requests
}

#[test]
fn remote_coordinator_matches_the_in_process_engine() {
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let remote = cluster.connect();
    assert_eq!(remote.shard_count(), 3);
    assert_eq!(remote.user_count(), dataset.user_count() as u64);

    for algorithm in [Algorithm::Ais, Algorithm::Exhaustive, Algorithm::Tsa] {
        for request in requests_for(&dataset, algorithm) {
            let expected = local.run(&request).expect("in-process query");
            let got = remote.query(&request).expect("remote query");
            assert!(
                got.same_users_and_scores(&expected, 1e-12),
                "{algorithm:?} disagreed on {request:?}:\n  local {:?}\n  remote {:?}",
                expected.ranked,
                got.ranked
            );
            assert!(!got.degraded);
            // Wire accounting: remote queries cross the wire, local never.
            assert!(got.stats.wire_round_trips >= 1);
            assert!(got.stats.bytes_sent > 0 && got.stats.bytes_received > 0);
            assert_eq!(expected.stats.wire_round_trips, 0);
            assert_eq!(expected.stats.bytes_sent, 0);
        }
    }
}

#[test]
fn an_unlocated_query_user_is_answered_without_a_search_remotely() {
    // No shard locates the query user and no origin is given: every
    // candidate is infinitely far, so the answer is empty and no arm may
    // sweep the graph to find that out.  That holds for users unlocated
    // from the start and for one whose location the coordinator removed.
    let mut dataset = DatasetConfig::gowalla_like(300).generate();
    let mut users = QueryWorkload::generate(&dataset, 2, 9).users;
    for &user in &users {
        dataset.set_location(user, None).unwrap();
    }
    let cluster = Cluster::start(&dataset, Partitioning::SpatialGrid { cells_per_axis: 8 }, 3);
    let mut remote = cluster.connect();
    let removed = (0..dataset.user_count() as u32)
        .find(|&u| dataset.location(u).is_some())
        .expect("some user is located");
    assert!(remote.owner_of(removed).is_some());
    remote.remove_location(removed).unwrap();
    assert_eq!(remote.owner_of(removed), None);
    users.push(removed);
    for &user in &users {
        for algorithm in [
            Algorithm::Sfa,
            Algorithm::Tsa,
            Algorithm::Ais,
            Algorithm::Auto,
        ] {
            let request = QueryRequest::for_user(user)
                .k(5)
                .alpha(0.4)
                .algorithm(algorithm)
                .build()
                .unwrap();
            let got = remote.query(&request).expect("remote query");
            assert!(got.ranked.is_empty(), "{algorithm:?}: {:?}", got.ranked);
            assert_eq!(got.stats.social_pops, 0, "{algorithm:?} searched the graph");
        }
    }
}

#[test]
fn a_located_query_user_costs_one_round_trip_per_executed_shard() {
    // With a current owner-table entry the first `Query` goes to the
    // owner without an origin and comes back with one, so every round
    // trip of the query is a shard executing it.
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let remote = cluster.connect();
    let workload = QueryWorkload::generate(&dataset, 8, 13);
    for &user in &workload.users {
        assert!(
            dataset.location(user).is_some(),
            "workload users are located"
        );
        assert_eq!(remote.owner_of(user), local.owner_of(user));
        let request = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.5)
            .algorithm(Algorithm::Sfa)
            .build()
            .unwrap();
        let (got, stats) = remote.query_detailed(&request).unwrap();
        assert_eq!(got.ranked, local.run(&request).unwrap().ranked);
        assert!(stats.executed_shards() >= 1);
        assert_eq!(
            got.stats.wire_round_trips,
            stats.executed_shards(),
            "user {user}: a round trip beyond the executed shards"
        );
    }
}

/// Every located user of the cluster, with the one shard holding it;
/// panics when a user is held twice.
fn holders(cluster: &Cluster) -> HashMap<u32, (usize, Point)> {
    let mut held = HashMap::new();
    for (shard, endpoint) in cluster.endpoints.iter().enumerate() {
        let mut client = ShardClient::connect(endpoint, Duration::from_secs(10)).unwrap();
        let (reply, _) = client.call(&Message::ListLocated).unwrap();
        let Message::LocatedUsers(users) = reply else {
            panic!("expected LocatedUsers, got {reply:?}")
        };
        for (user, point) in users {
            if let Some((first, _)) = held.insert(user, (shard, point)) {
                panic!("user {user} is held by shards {first} and {shard}");
            }
        }
    }
    held
}

/// A point in the cells `assignment` gives to `shard`.
fn point_on(assignment: &ShardAssignment, shard: usize) -> Point {
    (0..100)
        .map(|i| Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64))
        .find(|&p| assignment.owner_for(0, Some(p)) == shard)
        .expect("every shard owns a cell")
}

#[test]
fn a_stale_owner_table_costs_round_trips_never_exactness() {
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 4 };
    let mut local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    // Two coordinators on one cluster: B's moves leave A's table stale.
    let mut a = cluster.connect();
    let mut b = cluster.connect();
    let on: Vec<Point> = (0..3).map(|s| point_on(&cluster.assignment, s)).collect();
    let user = (0..dataset.user_count() as u32)
        .find(|&u| local.owner_of(u) == Some(0) && dataset.location(u).is_some())
        .expect("some located user lives on shard 0");

    // After every step: one holder per located user, the holders are the
    // in-process engine's, and A answers exactly as it does.
    let check = |a: &RemoteShardedEngine, local: &ShardedEngine, step: &str| {
        let held = holders(&cluster);
        let located = (0..dataset.user_count() as u32)
            .filter(|&u| local.location(u).is_some())
            .count();
        assert_eq!(held.len(), located, "{step}: located users differ");
        for (&u, &(shard, point)) in &held {
            assert_eq!(local.location(u), Some(point), "{step}: user {u}");
            assert_eq!(local.owner_of(u), Some(shard), "{step}: user {u}");
        }
        for query_user in [user, 5, 42] {
            let request = QueryRequest::for_user(query_user)
                .k(6)
                .alpha(0.5)
                .algorithm(Algorithm::Sfa)
                .build()
                .unwrap();
            let got = a.query(&request).unwrap();
            assert!(!got.degraded);
            assert_eq!(
                got.ranked,
                local.run(&request).unwrap().ranked,
                "{step}: query user {query_user}"
            );
        }
    };
    let holder = |user| holders(&cluster).get(&user).map(|&(shard, _)| shard);
    check(&a, &local, "connect");

    // The cached owner adopts a user it did not hold: B moved it away.
    b.update_location(user, on[1]).unwrap();
    local.update_location(user, on[1]).unwrap();
    assert_eq!((a.owner_of(user), holder(user)), (Some(0), Some(1)));
    assert_eq!(a.update_location(user, on[0]).unwrap(), 0);
    local.update_location(user, on[0]).unwrap();
    check(&a, &local, "adopted without holding");

    // The cached owner drops the user: B moved it to shard 1, and A sends
    // it to shard 2.
    b.update_location(user, on[1]).unwrap();
    local.update_location(user, on[1]).unwrap();
    assert_eq!((a.owner_of(user), holder(user)), (Some(0), Some(1)));
    // A's query meets the stale entry first: shard 0's answer names no
    // origin and is discarded, and shard 1's names it.
    let request = QueryRequest::for_user(user)
        .k(6)
        .alpha(0.5)
        .algorithm(Algorithm::Sfa)
        .build()
        .unwrap();
    let (got, stats) = a.query_detailed(&request).unwrap();
    assert_eq!(got.ranked, local.run(&request).unwrap().ranked);
    assert!(
        got.stats.wire_round_trips > stats.executed_shards(),
        "the discarded answer costs a round trip"
    );
    // The query repaired the entry: the next one asks the holder first.
    assert_eq!(a.owner_of(user), Some(1));
    let (again, stats) = a.query_detailed(&request).unwrap();
    assert_eq!(again.ranked, got.ranked);
    assert_eq!(
        again.stats.wire_round_trips,
        stats.executed_shards(),
        "a repaired entry costs no discarded answer"
    );
    assert_eq!(a.update_location(user, on[2]).unwrap(), 2);
    local.update_location(user, on[2]).unwrap();
    check(&a, &local, "dropped by the cached owner");

    // A removal through a stale entry: B moved the user back to shard 0.
    b.update_location(user, on[0]).unwrap();
    local.update_location(user, on[0]).unwrap();
    assert_eq!((a.owner_of(user), holder(user)), (Some(2), Some(0)));
    a.remove_location(user).unwrap();
    local.remove_location(user).unwrap();
    assert_eq!((a.owner_of(user), holder(user)), (None, None));
    check(&a, &local, "removed through a stale entry");

    // No cached owner: B re-adds the user A removed, and A queries, then
    // moves it.
    b.update_location(user, on[1]).unwrap();
    local.update_location(user, on[1]).unwrap();
    assert_eq!((a.owner_of(user), holder(user)), (None, Some(1)));
    check(&a, &local, "re-added behind A's back");
    assert_eq!(a.update_location(user, on[2]).unwrap(), 2);
    local.update_location(user, on[2]).unwrap();
    check(&a, &local, "moved with no cached owner");

    // A query whose cached owner answers with no origin because the user
    // is gone: B removed it.
    b.remove_location(user).unwrap();
    local.remove_location(user).unwrap();
    assert_eq!((a.owner_of(user), holder(user)), (Some(2), None));
    let (got, stats) = a.query_detailed(&request).unwrap();
    assert!(got.ranked.is_empty());
    assert_eq!(stats.executed_shards(), 0);
    assert_eq!(
        got.stats.wire_round_trips, 3,
        "three discarded answers, no scatter"
    );
    assert_eq!(a.owner_of(user), None, "no shard named the origin");
    check(&a, &local, "removed behind A's back");

    // A move within the owner's cells, A's table current again.
    assert_eq!(a.update_location(user, on[0]).unwrap(), 0);
    local.update_location(user, on[0]).unwrap();
    let nearby = Point::new(on[0].x + 0.01, on[0].y + 0.01);
    assert_eq!(cluster.assignment.owner_for(user, Some(nearby)), 0);
    assert_eq!(a.update_location(user, nearby).unwrap(), 0);
    local.update_location(user, nearby).unwrap();
    check(&a, &local, "moved within its owner's cells");
}

#[test]
fn the_fk_threshold_crosses_the_wire() {
    let dataset = DatasetConfig::gowalla_like(400).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let cluster = Cluster::start(&dataset, policy, 4);
    let forwarding = cluster.connect();
    let mut shards: Vec<ShardClient> = cluster
        .endpoints
        .iter()
        .map(|e| ShardClient::connect(e, Duration::from_secs(10)).expect("client connects"))
        .collect();

    let workload = QueryWorkload::generate(&dataset, 6, 5);
    let mut saved_work = false;
    for &user in &workload.users {
        let request = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.3)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let (with, with_stats) = forwarding.query_detailed(&request).unwrap();

        // The blunt arm: the broadcast request (origin resolved, no
        // forwarded cutoff) put to every shard, answers merged here.
        let origin = dataset.location(user).expect("workload users are located");
        let broadcast = Message::query(request.clone().with_origin(origin));
        let mut entries = Vec::new();
        let (mut evaluated_users, mut relaxed_edges) = (0, 0);
        for shard in &mut shards {
            let (response, _) = shard.call(&broadcast).expect("shard answers");
            let Message::Answer(answer) = response else {
                panic!("expected an Answer, got {response:?}")
            };
            evaluated_users += answer.stats.evaluated_users;
            relaxed_edges += answer.stats.relaxed_edges;
            entries.extend(answer.ranked);
        }
        let without = QueryResult {
            ranked: merge_ranked(entries, request.k()),
            k: request.k(),
            degraded: false,
            stats: Default::default(),
        };

        // Forwarding is an optimization, never a semantic change.
        assert!(with.same_users_and_scores(&without, 0.0));
        // The forwarded cutoff can only reduce per-shard work.
        assert!(with_stats.merged.evaluated_users <= evaluated_users);
        assert!(with_stats.merged.relaxed_edges <= relaxed_edges);
        saved_work |=
            with_stats.merged.evaluated_users < evaluated_users || with_stats.skipped_shards() > 0;
    }
    assert!(
        saved_work,
        "forwarding the threshold never saved any work across the whole workload"
    );
}

#[test]
fn relocations_are_adopted_by_exactly_one_shard_and_answers_track() {
    let dataset = DatasetConfig::gowalla_like(250).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 4 };
    let mut local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let mut remote = cluster.connect();

    let moved_user = 17;
    let destination = Point::new(0.92, 0.94);
    let adopter = remote.update_location(moved_user, destination).unwrap();
    assert_eq!(
        adopter,
        cluster.assignment.owner_for(moved_user, Some(destination))
    );
    local.update_location(moved_user, destination).unwrap();

    let unlocated_user = 23;
    remote.remove_location(unlocated_user).unwrap();
    local.remove_location(unlocated_user).unwrap();
    remote.refresh().unwrap();

    for user in [moved_user, unlocated_user, 5] {
        let request = QueryRequest::for_user(user)
            .k(6)
            .alpha(0.5)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let expected = local.run(&request).unwrap();
        let got = remote.query(&request).unwrap();
        assert!(
            got.same_users_and_scores(&expected, 1e-12),
            "post-migration disagreement for user {user}"
        );
    }
}

#[test]
fn rebalance_repacks_and_preserves_agreement() {
    let dataset = DatasetConfig::gowalla_like(250).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 4 };
    let mut local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let mut remote = RemoteShardedEngine::builder(cluster.endpoints.clone())
        .connect_timeout(Duration::from_secs(10))
        .assignment(cluster.assignment.clone())
        .connect()
        .unwrap();

    // Skew the distribution, then rebalance both deployments identically.
    for (user, x) in [(3u32, 0.91), (9, 0.93), (14, 0.95), (21, 0.97)] {
        let p = Point::new(x, 0.9);
        remote.update_location(user, p).unwrap();
        local.update_location(user, p).unwrap();
    }
    let moved_remote = remote.rebalance().unwrap();
    let report = local.rebalance();
    assert_eq!(moved_remote, report.moved_users);

    let workload = QueryWorkload::generate(&dataset, 5, 11);
    for &user in &workload.users {
        let request = QueryRequest::for_user(user)
            .k(5)
            .alpha(0.4)
            .algorithm(Algorithm::Ais)
            .build()
            .unwrap();
        let expected = local.run(&request).unwrap();
        let got = remote.query(&request).unwrap();
        assert!(
            got.same_users_and_scores(&expected, 1e-12),
            "post-rebalance disagreement for user {user}"
        );
    }
}

#[test]
fn a_dead_shard_fails_or_degrades_per_policy() {
    let dataset = DatasetConfig::gowalla_like(200).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let cluster = Cluster::start(&dataset, policy, 3);
    let mut remote = RemoteShardedEngine::builder(cluster.endpoints.clone())
        .connect_timeout(Duration::from_secs(10))
        .deadline(Duration::from_secs(2))
        .connect()
        .unwrap();

    // A k above the located population keeps `f_k` infinite, so no shard
    // is ever pruned, and a pinned origin skips the location lookup: the
    // dead shard is guaranteed to be *visited* (not skipped) by the scatter.
    let request = QueryRequest::for_user(0)
        .k(dataset.user_count())
        .alpha(0.5)
        .origin(Point::new(0.5, 0.5))
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let (_, healthy) = remote
        .query_detailed(&request)
        .expect("healthy cluster answers");
    assert_eq!(healthy.executed_shards(), 3, "every shard is visited");

    cluster.kill_shard(1);
    std::thread::sleep(Duration::from_millis(200));

    let err = remote
        .query(&request)
        .expect_err("Fail policy surfaces the dead shard");
    assert!(
        matches!(
            err,
            NetError::Disconnected { .. } | NetError::Io(_) | NetError::Timeout { .. }
        ),
        "unexpected error {err}"
    );

    remote.set_failure_policy(FailurePolicy::Degrade);
    let (result, stats) = remote.query_detailed(&request).expect("degraded answer");
    assert!(result.degraded);
    assert!(!result.is_complete());
    assert_eq!(stats.failed_shards(), 1);
    let failed_endpoint = cluster.endpoints[1].to_string();
    assert!(
        stats.per_shard.iter().any(|o| matches!(
            o,
            ShardOutcome::Failed { shard, .. } if shard == &failed_endpoint
        )),
        "the failed shard is named in the outcomes: {:?}",
        stats.per_shard
    );
    // The survivors' entries are still an exact top-k over their residents.
    assert!(!result.ranked.is_empty());
}

#[test]
fn concurrent_queries_share_one_engine_and_stay_exact() {
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let cluster = Cluster::start(&dataset, policy, 3);
    let engine = Arc::new(
        RemoteShardedEngine::builder(cluster.endpoints.clone())
            .connect_timeout(Duration::from_secs(10))
            .deadline(Duration::from_secs(30))
            .connect()
            .expect("coordinator connects"),
    );

    let workload = QueryWorkload::generate(&dataset, 8, 31);
    let requests: Vec<QueryRequest> = workload
        .users
        .iter()
        .map(|&user| {
            QueryRequest::for_user(user)
                .k(6)
                .alpha(0.4)
                .algorithm(Algorithm::Ais)
                .build()
                .unwrap()
        })
        .collect();
    // Ground truth: each query run alone, one at a time.
    let expected: Vec<_> = requests
        .iter()
        .map(|r| engine.query(r).expect("sequential baseline"))
        .collect();

    // Six threads hammer the same engine (and thus the same connection
    // pools: each thread's call takes a connection of its own) concurrently.
    std::thread::scope(|scope| {
        for worker in 0..6 {
            let engine = &engine;
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, request) in requests.iter().enumerate() {
                        let got = engine
                            .query(request)
                            .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                        assert!(
                            got.same_users_and_scores(&expected[i], 0.0),
                            "worker {worker} round {round} query {i}: concurrent answer diverged"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn a_stale_socket_file_is_reclaimed_but_a_live_server_is_not() {
    let dataset = DatasetConfig::gowalla_like(120).generate();
    let assignment =
        ShardAssignment::compute(&dataset, Partitioning::SpatialGrid { cells_per_axis: 8 }, 1)
            .unwrap();
    let dir = temp_dir("stale");
    let path = dir.join("shard-0.sock");

    // A crashed server leaves its socket file behind (closing a listener
    // does not unlink).  A restart on the same path must reclaim it.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists(), "the stale socket file survives the crash");
    let endpoint = Endpoint::Unix(path.clone());
    let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let server = ShardServer::bind(&endpoint, engine, 0, assignment.clone())
        .expect("rebinding over a stale socket file succeeds");

    // But a *live* server's socket must not be stolen out from under it.
    let engine2 = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let err = ShardServer::bind(&endpoint, engine2, 0, assignment.clone())
        .expect_err("binding over a live server must fail");
    assert!(matches!(err, NetError::Io(_)), "unexpected error {err}");

    // The restarted server actually serves.
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    let remote = RemoteShardedEngine::builder(vec![endpoint])
        .connect_timeout(Duration::from_secs(10))
        .connect()
        .expect("coordinator connects to the restarted server");
    let request = QueryRequest::for_user(1)
        .k(3)
        .alpha(0.5)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let single = GeoSocialEngine::builder(dataset).build().unwrap();
    let expected = single.run(&request).unwrap();
    assert!(remote
        .query(&request)
        .unwrap()
        .same_users_and_scores(&expected, 1e-12));
    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unreachable_shard_during_origin_resolution_degrades_the_answer() {
    let dataset = DatasetConfig::gowalla_like(200).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let assignment = ShardAssignment::compute(&dataset, policy, 3).unwrap();
    let owner = assignment.owners(&dataset);
    // A user whose location lives on shard 1 — the shard about to die.
    let victim = (0..dataset.user_count() as u32)
        .find(|&u| owner[u as usize] == 1 && dataset.location(u).is_some())
        .expect("some located user lives on shard 1");

    let cluster = Cluster::start(&dataset, policy, 3);
    let mut remote = RemoteShardedEngine::builder(cluster.endpoints.clone())
        .connect_timeout(Duration::from_secs(10))
        .deadline(Duration::from_secs(2))
        .connect()
        .unwrap();
    // No pinned origin: the coordinator puts the query to the user's
    // cached owner — the shard about to die — to learn where it is.
    assert_eq!(remote.owner_of(victim), Some(1));
    let request = QueryRequest::for_user(victim)
        .k(5)
        .alpha(0.4)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let healthy = remote.query(&request).expect("healthy cluster answers");
    assert!(!healthy.degraded);

    cluster.kill_shard(1);
    std::thread::sleep(Duration::from_millis(200));

    // Fail policy: the unreachable owner is a hard error.
    let err = remote.query(&request).expect_err("Fail policy errors");
    assert!(
        matches!(
            err,
            NetError::Disconnected { .. } | NetError::Io(_) | NetError::Timeout { .. }
        ),
        "unexpected error {err}"
    );

    // A relocation whose cached owner is dead fails, whatever the policy:
    // relocations are exactness-critical.
    let elsewhere = point_on(&assignment, 0);
    for policy in [FailurePolicy::Fail, FailurePolicy::Degrade] {
        remote.set_failure_policy(policy);
        let err = remote
            .update_location(victim, elsewhere)
            .expect_err("a dead cached owner fails the relocation");
        assert!(
            matches!(
                err,
                NetError::Disconnected { .. } | NetError::Io(_) | NetError::Timeout { .. }
            ),
            "{policy:?}: unexpected error {err}"
        );
        assert_eq!(remote.owner_of(victim), Some(1));
    }

    // Degrade policy: the query still answers, but it must NOT pass as
    // exact — the dead shard may have held the user's location, so the
    // "ran with no origin" answer is flagged and the shard named.
    remote.set_failure_policy(FailurePolicy::Degrade);
    let (result, stats) = remote.query_detailed(&request).expect("degraded answer");
    assert!(
        result.degraded,
        "an unresolved origin with an unreachable shard must degrade the result"
    );
    let failed_endpoint = cluster.endpoints[1].to_string();
    assert!(
        stats.per_shard.iter().any(|o| matches!(
            o,
            ShardOutcome::Failed { shard, detail } if shard == &failed_endpoint
                && detail.contains("origin resolution")
        )),
        "the unreachable shard is named in the outcomes: {:?}",
        stats.per_shard
    );
}

#[test]
fn relocation_churn_triggers_an_opportunistic_rect_refresh() {
    use ssrq_graph::GraphBuilder;
    // Four users clustered in [0.1, 0.3]² on one shard.
    let graph = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
    let locations = vec![
        Some(Point::new(0.10, 0.10)),
        Some(Point::new(0.20, 0.15)),
        Some(Point::new(0.30, 0.25)),
        Some(Point::new(0.15, 0.30)),
    ];
    let dataset = GeoSocialDataset::new(graph, locations).unwrap();
    let cluster = Cluster::start(&dataset, Partitioning::SpatialGrid { cells_per_axis: 4 }, 1);
    let mut remote = cluster.connect();

    // First relocation: the cached rect can only *grow* to stay admissible.
    remote.update_location(0, Point::new(0.95, 0.95)).unwrap();
    assert_eq!(remote.rect_churn(0), 1);
    let grown = remote.shard_info(0).rect.expect("rect exists");
    assert!(grown.max.x >= 0.95 && grown.max.y >= 0.95);

    // Back into the cluster, then wiggles inside it: the slack persists
    // under growth-only maintenance until the 256th relocation hits the
    // churn threshold, when the coordinator re-handshakes that shard and
    // the rect tightens back down to the *actual* locations — no user is
    // near (0.95, 0.95) now.
    remote.update_location(0, Point::new(0.12, 0.12)).unwrap();
    for i in 3..256 {
        let wiggle = 0.10 + 0.001 * (i % 7) as f64;
        remote
            .update_location(1, Point::new(wiggle, wiggle))
            .unwrap();
    }
    assert_eq!(remote.rect_churn(0), 255);
    assert_eq!(remote.shard_info(0).rect, Some(grown));
    remote.update_location(1, Point::new(0.2, 0.15)).unwrap();
    assert_eq!(remote.rect_churn(0), 0, "the refresh resets the churn");
    let tightened = remote.shard_info(0).rect.expect("rect exists");
    assert!(
        tightened.max.x < 0.5 && tightened.max.y < 0.5,
        "the refreshed rect {tightened:?} still carries the relocation slack"
    );
}

#[test]
fn a_non_finite_relocation_is_refused_and_erases_nobody() {
    let dataset = DatasetConfig::gowalla_like(300).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let mut local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let mut remote = cluster.connect();
    let owner = cluster.assignment.owners(&dataset);
    let user = (0..dataset.user_count() as u32)
        .find(|&u| owner[u as usize] == 0 && dataset.location(u).is_some())
        .expect("some located user lives on shard 0");

    let nowhere = Point::new(f64::INFINITY, f64::INFINITY);
    assert!(local.update_location(user, nowhere).is_err());
    let refused = remote.update_location(user, nowhere);
    assert!(
        matches!(
            refused,
            Err(NetError::Core(ssrq_core::CoreError::InvalidParameter(_)))
        ),
        "unexpected outcome {refused:?}"
    );

    // A peer that bypasses the coordinator is refused by the server itself,
    // before it drops its copy.
    let mut client = ShardClient::connect(&cluster.endpoints[0], Duration::from_secs(10)).unwrap();
    let refused = client.call(&Message::Relocate {
        user,
        location: Some(nowhere),
    });
    assert!(
        matches!(
            refused,
            Err(NetError::Remote {
                kind: FailureKind::InvalidRequest,
                ..
            })
        ),
        "unexpected outcome {refused:?}"
    );
    let (located, _) = client.call(&Message::ListLocated).unwrap();
    let Message::LocatedUsers(residents) = located else {
        panic!("expected LocatedUsers, got {located:?}")
    };
    assert!(residents.contains(&(user, dataset.location(user).unwrap())));

    let request = QueryRequest::for_user(user)
        .k(5)
        .alpha(0.5)
        .algorithm(Algorithm::Sfa)
        .build()
        .unwrap();
    let expected = local.run(&request).unwrap();
    assert_eq!(expected.ranked.len(), 5);
    assert_eq!(remote.query(&request).unwrap().ranked, expected.ranked);
}

#[test]
fn out_of_range_parameters_are_refused_typed_remotely() {
    let dataset = DatasetConfig::gowalla_like(200).generate();
    let cluster = Cluster::start(&dataset, Partitioning::SpatialGrid { cells_per_axis: 4 }, 2);
    let remote = cluster.connect();
    let mut client = ShardClient::connect(&cluster.endpoints[0], Duration::from_secs(10)).unwrap();
    // What `build` refuses, built unchecked: k = 0, α on the ends of (0, 1)
    // and NaN, and non-finite score cutoffs.
    let base = || QueryRequest::for_user(3).k(5).alpha(0.4);
    let mut requests = vec![base().k(0).build_unvalidated()];
    for alpha in [0.0, 1.0, f64::NAN] {
        requests.push(base().alpha(alpha).build_unvalidated());
    }
    for cutoff in [f64::NAN, f64::INFINITY] {
        requests.push(base().max_score(cutoff).build_unvalidated());
    }
    for request in &requests {
        let refused = remote.query(request);
        assert!(
            matches!(
                refused,
                Err(NetError::Core(ssrq_core::CoreError::InvalidParameter(_)))
            ),
            "{request:?}: unexpected outcome {refused:?}"
        );
        // A peer that bypasses the coordinator is refused by the server,
        // and the connection keeps serving.
        let refused = client.call(&Message::query(request.clone()));
        assert!(
            matches!(
                refused,
                Err(NetError::Remote {
                    kind: FailureKind::InvalidRequest,
                    ..
                })
            ),
            "{request:?}: unexpected outcome {refused:?}"
        );
        assert_eq!(client.call(&Message::Ping).unwrap().0, Message::Pong);
    }
}

#[test]
fn a_bad_cell_map_is_refused_and_routing_is_unchanged() {
    let dataset = DatasetConfig::gowalla_like(250).generate();
    let policy = Partitioning::SpatialGrid { cells_per_axis: 4 };
    let mut local = ShardedEngine::builder(dataset.clone())
        .shards(3)
        .partitioning(policy)
        .build()
        .unwrap();
    let cluster = Cluster::start(&dataset, policy, 3);
    let mut remote = cluster.connect();

    let mut client = ShardClient::connect(&cluster.endpoints[1], Duration::from_secs(10)).unwrap();
    for bad in [vec![0; 15], vec![3; 16]] {
        let refused = client.call(&Message::SetAssignment { cell_to_shard: bad });
        assert!(
            matches!(
                refused,
                Err(NetError::Remote {
                    kind: FailureKind::InvalidRequest,
                    ..
                })
            ),
            "unexpected outcome {refused:?}"
        );
    }

    // Every server still routes by the installed map: a relocation into
    // each corner is adopted by the shard the original assignment names.
    for (user, corner) in [(3u32, (0.05, 0.05)), (9, (0.95, 0.05)), (14, (0.95, 0.95))] {
        let p = Point::new(corner.0, corner.1);
        let adopter = remote.update_location(user, p).unwrap();
        assert_eq!(adopter, cluster.assignment.owner_for(user, Some(p)));
        local.update_location(user, p).unwrap();
    }
    let request = QueryRequest::for_user(3)
        .k(6)
        .alpha(0.5)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let expected = local.run(&request).unwrap();
    assert!(remote
        .query(&request)
        .unwrap()
        .same_users_and_scores(&expected, 1e-12));
}

#[test]
fn a_missed_deadline_is_reported_after_one_deadline_not_retried() {
    let dir = temp_dir("mute");
    let path = dir.join("mute.sock");
    // A server that is merely slow: it accepts, reads, and never answers.
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let mute = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut received = Vec::new();
        socket.read_to_end(&mut received).unwrap();
        received
    });

    let pool = ConnectionPool::new(Endpoint::Unix(path), Duration::from_secs(10));
    let deadline = Duration::from_millis(250);
    let started = Instant::now();
    let outcome = pool.call(&Message::Ping, Some(deadline));
    let elapsed = started.elapsed();
    assert!(
        matches!(outcome, Err(NetError::Timeout { .. })),
        "expected a timeout, got {outcome:?}"
    );
    assert!(
        elapsed < deadline.mul_f64(1.8),
        "a {deadline:?} deadline took {elapsed:?} to report"
    );

    // Closing the pool is the listener's EOF: everything the slow server
    // was ever sent is one Ping frame.
    pool.close();
    let received = mute.join().unwrap();
    assert_eq!(received.len(), wire::HEADER_LEN, "exactly one Ping frame");
    assert_eq!(
        wire::parse_header(&received).unwrap().tag,
        Message::Ping.tag()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_connection_that_missed_its_deadline_is_never_reused() {
    let (listener, endpoint, dir) = scripted_listener("late");
    // The first call's caller says when it has given up; only then does
    // the peer answer it.
    let (gave_up, caller_gave_up) = std::sync::mpsc::channel::<()>();
    let late = std::thread::spawn(move || {
        let mut first = accept_scripted(&listener);
        let (first_id, ping) = read_frame(&mut first);
        assert_eq!(ping, Message::Ping);
        caller_gave_up.recv().unwrap();
        // The caller may already have closed the socket under this write.
        let _ = first.write_all(&Message::Pong.encode_with_id(first_id));
        // The next request arrives on a connection of its own ...
        let mut second = accept_scripted(&listener);
        let (second_id, ping) = read_frame(&mut second);
        assert_eq!(ping, Message::Ping);
        second
            .write_all(&Message::Pong.encode_with_id(second_id))
            .unwrap();
        // ... and the one that missed its deadline carried nothing more.
        let mut rest = Vec::new();
        first.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{} more bytes on it", rest.len());
    });

    let pool = ConnectionPool::new(endpoint, Duration::from_secs(10));
    let deadline = Some(Duration::from_millis(250));
    let outcome = pool.call(&Message::Ping, deadline);
    assert!(
        matches!(outcome, Err(NetError::Timeout { .. })),
        "expected a timeout, got {outcome:?}"
    );
    gave_up.send(()).unwrap();
    let (response, _) = pool
        .call(&Message::Ping, deadline)
        .expect("the second call is answered");
    assert_eq!(response, Message::Pong);
    late.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_response_under_another_frame_id_is_refused_and_its_connection_dropped() {
    let (listener, endpoint, dir) = scripted_listener("desync");
    // Answers each of two connections' first request under the id after
    // the request's, then waits for the client to hang up.
    let desynced = std::thread::spawn(move || {
        for _ in 0..2 {
            let mut socket = accept_scripted(&listener);
            let (frame_id, ping) = read_frame(&mut socket);
            assert_eq!(ping, Message::Ping);
            socket
                .write_all(&Message::Pong.encode_with_id(frame_id + 1))
                .unwrap();
            let mut rest = Vec::new();
            socket.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "{} more bytes on it", rest.len());
        }
    });

    let mut client = ShardClient::connect(&endpoint, Duration::from_secs(10)).unwrap();
    let outcome = client.call(&Message::Ping);
    assert!(
        matches!(outcome, Err(NetError::Protocol { .. })),
        "expected a protocol violation, got {outcome:?}"
    );
    drop(client);

    // The pool reports the same and does not keep the connection: the
    // peer sees it closed while the pool is still alive.
    let pool = ConnectionPool::new(endpoint, Duration::from_secs(10));
    let outcome = pool.call(&Message::Ping, Some(Duration::from_secs(10)));
    assert!(
        matches!(outcome, Err(NetError::Protocol { .. })),
        "expected a protocol violation, got {outcome:?}"
    );
    desynced.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_inputs_are_refused_typed_without_taking_the_server_down() {
    // A version-1 frame: the 10-byte header without a frame id, here
    // around an empty `SetAssignment` payload (a zero count) — 14 bytes
    // in all, so the server's fixed header read consumes exactly the
    // frame and the close that follows is a clean EOF rather than a reset
    // over unread bytes.
    let empty_map = Message::SetAssignment {
        cell_to_shard: Vec::new(),
    };
    let mut v1_frame = Vec::new();
    v1_frame.extend_from_slice(&wire::MAGIC);
    v1_frame.push(1);
    v1_frame.push(empty_map.tag());
    v1_frame.extend_from_slice(&4u32.to_le_bytes());
    v1_frame.extend_from_slice(&empty_map.encode()[wire::HEADER_LEN..]);
    assert_eq!(v1_frame.len(), wire::HEADER_LEN);
    assert_eq!(
        wire::parse_header(&v1_frame),
        Err(WireError::UnsupportedVersion(1))
    );
    // A version-2 frame: its `Relocated` reply lacked the `held` byte, so
    // a mixed deployment must part at the handshake.
    let mut v2_frame = Message::Ping.encode_with_id(1);
    v2_frame[4] = 2;
    assert_eq!(
        wire::parse_header(&v2_frame),
        Err(WireError::UnsupportedVersion(2))
    );
    // A version-3 frame: its peer may still send `Locate`.
    let mut v3_frame = Message::Ping.encode_with_id(1);
    v3_frame[4] = 3;
    assert_eq!(
        wire::parse_header(&v3_frame),
        Err(WireError::UnsupportedVersion(3))
    );
    // A version-4 frame: its peer may still open with `Hello`.
    let mut v4_frame = Message::Ping.encode_with_id(1);
    v4_frame[4] = 4;
    assert_eq!(
        wire::parse_header(&v4_frame),
        Err(WireError::UnsupportedVersion(4))
    );
    // A version-5 frame: its peer may still send a gauge (metric value
    // tag 1).
    let mut v5_frame = Message::Ping.encode_with_id(1);
    v5_frame[4] = 5;
    assert_eq!(
        wire::parse_header(&v5_frame),
        Err(WireError::UnsupportedVersion(5))
    );
    // The unassigned tags inside the tag table's range: the retired
    // `Hello`, the retired `Locate`/`Located` pair and 0x12.
    for tag in [0x01, 0x05, 0x06, 0x12] {
        assert_eq!(
            Message::decode(tag, &[]),
            Err(WireError::UnknownMessage(tag))
        );
    }

    let dataset = DatasetConfig::gowalla_like(120).generate();
    let assignment =
        ShardAssignment::compute(&dataset, Partitioning::SpatialGrid { cells_per_axis: 8 }, 1)
            .unwrap();
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let server =
        ShardServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), engine, 0, assignment).unwrap();
    let endpoint = server.endpoint();
    let Endpoint::Tcp(addr) = &endpoint else {
        panic!("tcp endpoint expected")
    };
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    let connect = || {
        let socket = std::net::TcpStream::connect(addr).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        socket
    };

    // The v1 frame costs its sender the connection: EOF, no answer.
    let mut old_peer = connect();
    old_peer.write_all(&v1_frame).unwrap();
    let mut rest = Vec::new();
    assert_eq!(old_peer.read_to_end(&mut rest).unwrap(), 0);
    // So does a well-formed frame of the previous version.
    let mut old_peer = connect();
    old_peer.write_all(&v5_frame).unwrap();
    assert_eq!(old_peer.read_to_end(&mut rest).unwrap(), 0);

    // It cost nobody else anything.
    let mut client = ShardClient::connect(&endpoint, Duration::from_secs(10)).unwrap();
    assert_eq!(client.call(&Message::Ping).unwrap().0, Message::Pong);

    // A well-framed message under the unassigned tag is refused, typed,
    // under its own frame id — and the connection keeps working.
    let mut peer = connect();
    peer.write_all(&wire::frame_with_id(0x12, 7, &[0; 12]))
        .unwrap();
    let (frame_id, refusal) = read_frame(&mut peer);
    assert_eq!(frame_id, 7);
    assert!(
        matches!(
            refusal,
            Message::Fail {
                kind: FailureKind::InvalidRequest,
                ..
            }
        ),
        "unexpected response {refusal:?}"
    );
    peer.write_all(&Message::Ping.encode_with_id(8)).unwrap();
    assert_eq!(read_frame(&mut peer), (8, Message::Pong));

    // Two frames written back to back, before either answer is read, are
    // answered in the order they were sent.
    let mut both = Message::ListLocated.encode_with_id(41);
    both.extend(Message::Ping.encode_with_id(42));
    peer.write_all(&both).unwrap();
    let (frame_id, located) = read_frame(&mut peer);
    assert_eq!(frame_id, 41);
    assert!(
        matches!(located, Message::LocatedUsers(_)),
        "unexpected response {located:?}"
    );
    assert_eq!(read_frame(&mut peer), (42, Message::Pong));

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

#[test]
fn tcp_endpoints_serve_too() {
    let dataset = DatasetConfig::gowalla_like(150).generate();
    let assignment =
        ShardAssignment::compute(&dataset, Partitioning::SpatialGrid { cells_per_axis: 8 }, 1)
            .unwrap();
    let engine = GeoSocialEngine::builder(dataset.clone()).build().unwrap();
    let server =
        ShardServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), engine, 0, assignment).unwrap();
    let endpoint = server.endpoint();
    assert!(!matches!(&endpoint, Endpoint::Tcp(addr) if addr.ends_with(":0")));
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.serve().unwrap());

    let remote = RemoteShardedEngine::builder(vec![endpoint])
        .connect_timeout(Duration::from_secs(10))
        .connect()
        .unwrap();
    let request = QueryRequest::for_user(3)
        .k(4)
        .alpha(0.4)
        .algorithm(Algorithm::Ais)
        .build()
        .unwrap();
    let single = GeoSocialEngine::builder(dataset).build().unwrap();
    let expected = single.run(&request).unwrap();
    let got = remote.query(&request).unwrap();
    assert!(got.same_users_and_scores(&expected, 1e-12));

    flag.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

#[test]
fn a_blocked_accept_never_hangs_shutdown() {
    let dataset = DatasetConfig::gowalla_like(60).generate();
    let assignment =
        ShardAssignment::compute(&dataset, Partitioning::SpatialGrid { cells_per_axis: 8 }, 1)
            .unwrap();
    let engine = GeoSocialEngine::builder(dataset).build().unwrap();
    let dir = temp_dir("stop");
    // Shard labels no other test uses, so each connection counter below
    // belongs to one server alone.
    let mut shard = 900;
    for bind_to in ["unix", "tcp:127.0.0.1:0", "tcp:0.0.0.0:0"] {
        // How the server is stopped: the flag with no connection ever
        // made, the flag with an idle connection open, a `Shutdown` frame.
        let stops = [
            (None, true),
            (Some((Message::Ping, Message::Pong)), true),
            (Some((Message::Shutdown, Message::Ok)), false),
        ];
        for (call, raise_flag) in stops {
            shard += 1;
            let stop = format!("{bind_to}, {call:?}");
            let endpoint = match bind_to {
                "unix" => Endpoint::Unix(dir.join(format!("{shard}.sock"))),
                tcp => Endpoint::parse(tcp).unwrap(),
            };
            let server =
                ShardServer::bind(&endpoint, engine.clone(), shard, assignment.clone()).unwrap();
            let reach = match server.endpoint() {
                Endpoint::Tcp(addr) => Endpoint::Tcp(addr.replace("0.0.0.0", "127.0.0.1")),
                unix => unix,
            };
            let flag = server.shutdown_flag();
            let (done, served) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                let _ = done.send(server.serve());
            });

            let client = call.map(|(request, reply)| {
                let mut client = ShardClient::connect(&reach, Duration::from_secs(10)).unwrap();
                assert_eq!(client.call(&request).unwrap().0, reply);
                client
            });
            if raise_flag {
                flag.store(true, Ordering::SeqCst);
            }
            served
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("{stop}: serve() did not return: {e}"))
                .unwrap_or_else(|e| panic!("{stop}: serve() failed: {e}"));
            handle.join().unwrap();

            let connections = ssrq_obs::Registry::global()
                .counter(
                    "ssrq_server_connections_total",
                    &[("shard", &shard.to_string())],
                )
                .get();
            assert_eq!(
                connections,
                u64::from(client.is_some()),
                "{stop}: only the client's connection is counted"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
