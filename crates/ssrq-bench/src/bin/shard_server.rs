//! One SSRQ shard as an OS process: regenerates the deterministic
//! synthetic deployment, restricts it to this shard's slice of the
//! location space, and serves it over the wire protocol until a
//! `Shutdown` frame (or a signal) arrives.
//!
//! Every process of a deployment must be launched with the **same**
//! `--users/--seed/--partitioning/--shards` so they regenerate the same
//! dataset and the same [`ShardAssignment`]; only `--shard` and
//! `--listen` differ.
//!
//! ```sh
//! shard-server --listen unix:/tmp/ssrq-0.sock --shard 0 --shards 4 \
//!              --users 5000 --seed 4242 --partitioning spatial:16
//! ```
//!
//! The server prints exactly one `listening on <endpoint>` line to stdout
//! once the socket is bound — with `tcp:host:0` the line carries the
//! kernel-assigned port, so a parent process can parse it.  `--log`
//! enables structured stderr logging (the default stays silent, so the
//! readiness line is all a parent ever has to parse), `--slow-query-ms`
//! arms the slow-query log, and `shard-server --introspect <endpoint>`
//! snapshots a *running* server's metrics registry and span log over the
//! wire and prints them (Prometheus text, then span trees) instead of
//! serving.

use ssrq_core::GeoSocialEngine;
use ssrq_data::{DatasetConfig, QueryWorkload};
use ssrq_net::{Endpoint, Message, ShardClient, ShardServer};
use ssrq_obs::{render_prometheus, Level, Logger};
use ssrq_shard::{Partitioning, ShardAssignment};
use std::io::Write;
use std::time::Duration;

struct Args {
    listen: Endpoint,
    shard: usize,
    shards: usize,
    users: usize,
    seed: u64,
    partitioning: Partitioning,
    /// `(queries, seed, t)` of a social-neighbour cache warmed for the
    /// deterministic workload `QueryWorkload::generate(dataset, queries,
    /// seed)` — what the AIS-Cache algorithm needs.
    cache: Option<(usize, u64, usize)>,
    /// Structured stderr logging threshold (None = silent).
    log: Option<Level>,
    /// Slow-query log threshold (None = disabled).
    slow_query: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: shard-server --listen <unix:PATH|tcp:ADDR> --shard <I> --shards <N>\n\
         \x20                 [--users <N>] [--seed <S>] [--partitioning <spatial:CELLS>]\n\
         \x20                 [--cache-workload <QUERIES,SEED,T>]\n\
         \x20                 [--log <error|warn|info|debug>] [--slow-query-ms <MS>]\n\
         \x20      shard-server --introspect <unix:PATH|tcp:ADDR>"
    );
    std::process::exit(2);
}

/// Snapshots a running server's observability state over the wire and
/// prints it: the Prometheus exposition of its metrics registry, then the
/// retained span trees (slow-query offenders included).
fn introspect(endpoint: &Endpoint) -> i32 {
    let report = ShardClient::connect(endpoint, Duration::from_secs(10))
        .and_then(|mut client| client.call(&Message::MetricsRequest).map(|(r, _)| r));
    match report {
        Ok(Message::MetricsReport(report)) => {
            print!("{}", render_prometheus(&report.metrics));
            for spans in &report.spans {
                print!("{}", spans.render());
            }
            0
        }
        Ok(other) => {
            eprintln!("{endpoint} answered the metrics request with {other:?}");
            1
        }
        Err(e) => {
            eprintln!("introspecting {endpoint} failed: {e}");
            1
        }
    }
}

fn parse_partitioning(text: &str) -> Option<Partitioning> {
    let cells = text.strip_prefix("spatial:")?.parse().ok()?;
    Some(Partitioning::SpatialGrid {
        cells_per_axis: cells,
    })
}

fn parse_args() -> Args {
    let mut listen = None;
    let mut shard = None;
    let mut shards = None;
    let mut users = 1_000usize;
    let mut seed = 4242u64;
    let mut partitioning = Partitioning::SpatialGrid { cells_per_axis: 8 };
    let mut cache = None;
    let mut log = None;
    let mut slow_query = None;

    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--introspect") {
        let Some(Ok(endpoint)) = raw.get(1).map(|s| Endpoint::parse(s)) else {
            eprintln!("--introspect wants a server endpoint");
            usage()
        };
        std::process::exit(introspect(&endpoint));
    }
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    usage()
                })
                .as_str()
        };
        match arg.as_str() {
            "--listen" => match Endpoint::parse(value("--listen")) {
                Ok(endpoint) => listen = Some(endpoint),
                Err(e) => {
                    eprintln!("--listen: {e}");
                    usage()
                }
            },
            "--shard" => shard = value("--shard").parse().ok(),
            "--shards" => shards = value("--shards").parse().ok(),
            "--users" => users = value("--users").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--partitioning" => {
                partitioning =
                    parse_partitioning(value("--partitioning")).unwrap_or_else(|| usage())
            }
            "--log" => {
                log = Some(value("--log").parse::<Level>().unwrap_or_else(|_| {
                    eprintln!("--log wants error, warn, info or debug");
                    usage()
                }))
            }
            "--slow-query-ms" => {
                let ms: u64 = value("--slow-query-ms").parse().unwrap_or_else(|_| usage());
                slow_query = Some(Duration::from_millis(ms));
            }
            "--cache-workload" => {
                let spec = value("--cache-workload");
                let mut parts = spec.split(',');
                let parsed = (|| {
                    Some((
                        parts.next()?.parse().ok()?,
                        parts.next()?.parse().ok()?,
                        parts.next()?.parse().ok()?,
                    ))
                })();
                match parsed {
                    Some(triple) => cache = Some(triple),
                    None => {
                        eprintln!("--cache-workload wants QUERIES,SEED,T (e.g. 8,17,80)");
                        usage()
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let (Some(listen), Some(shard), Some(shards)) = (listen, shard, shards) else {
        usage()
    };
    if shards == 0 || shard >= shards {
        eprintln!("--shard {shard} is out of range for --shards {shards}");
        usage()
    }
    Args {
        listen,
        shard,
        shards,
        users,
        seed,
        partitioning,
        cache,
        log,
        slow_query,
    }
}

fn main() {
    let args = parse_args();

    let dataset = DatasetConfig::gowalla_like(args.users)
        .with_seed(args.seed)
        .generate();
    let assignment = ShardAssignment::compute(&dataset, args.partitioning, args.shards)
        .expect("shard assignment computes");
    let owner = assignment.owners(&dataset);
    let shard_dataset = dataset.restrict_locations(|u| owner[u as usize] as usize == args.shard);

    // No Contraction Hierarchies: `*-CH` is a small-graph artefact of the
    // paper's Fig. 8, and a shard server refuses it as a missing index.
    let mut builder = GeoSocialEngine::builder(shard_dataset);
    if let Some((queries, workload_seed, t)) = args.cache {
        // The cache is warmed on the *full* dataset's workload so every
        // shard holds the same cached users as the in-process deployment.
        let workload = QueryWorkload::generate(&dataset, queries, workload_seed);
        builder = builder.cache_social_neighbors(workload.users, t);
    }
    let engine = builder.build().expect("shard engine builds");

    let mut server = ShardServer::bind(&args.listen, engine, args.shard, assignment)
        .unwrap_or_else(|e| {
            eprintln!("shard {} failed to bind {}: {e}", args.shard, args.listen);
            std::process::exit(1);
        });
    if let Some(level) = args.log {
        server = server.with_logger(Logger::with_level(level));
    }
    if let Some(threshold) = args.slow_query {
        server = server.with_slow_query_threshold(threshold);
    }
    // The bound endpoint, not the requested one: `tcp:host:0` resolves to
    // the kernel-assigned port here.
    println!("listening on {}", server.endpoint());
    std::io::stdout().flush().expect("stdout flush");

    if let Err(e) = server.serve() {
        eprintln!("shard {} serve loop failed: {e}", args.shard);
        std::process::exit(1);
    }
}
