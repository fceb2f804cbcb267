//! Workload definitions and the seeded op-list generator.
//!
//! Everything a run feeds the system is derived here from `--seed`: the
//! warm-up queries, the timed window and the update burst.  A workload fixes op **counts**, never durations, so two commits
//! are handed byte-identical work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssrq_core::{Algorithm, GeoSocialDataset, QueryRequest, UserId};
use ssrq_data::DatasetConfig;
use ssrq_net::{proto, wire};
use ssrq_spatial::{Point, Rect};
use std::collections::HashMap;

/// How a workload deploys the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One `GeoSocialEngine`, queried through a reused `QueryContext`.
    Single,
    /// An in-process `ShardedEngine` behind a `ShardedSession`.
    Sharded {
        /// Number of shards.
        shards: usize,
    },
    /// In-thread `ShardServer`s on Unix sockets behind a
    /// `RemoteShardedEngine`.
    Remote {
        /// Number of shard servers.
        shards: usize,
    },
}

/// How the timed window's requests are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Unfiltered queries with one `(k, α)`, distinct draws.
    Plain {
        /// Result size.
        k: usize,
        /// Preference parameter.
        alpha: f64,
    },
    /// One `(k, α)`, filter shapes cycling through [`SHAPE_PATTERN`].
    Mixed {
        /// Result size.
        k: usize,
        /// Preference parameter.
        alpha: f64,
    },
    /// Zipf-hot draws from a pool of distinct requests cycling through
    /// [`CHURN_KS`] × [`CHURN_ALPHAS`] × [`SHAPE_PATTERN`], interleaved with
    /// `update_share` location updates.
    ZipfChurn {
        /// Size of the distinct-request pool.
        pool: usize,
        /// Share of the window's ops that are updates.
        update_share: f64,
    },
}

/// One workload: sizes are fixed here, inputs come from the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// Users of the gowalla-like dataset.
    pub users: usize,
    /// Deployment shape.
    pub deployment: Deployment,
    /// The algorithm every query is pinned to (`Auto` = the planner).
    pub algorithm: Algorithm,
    /// Request mix.
    pub traffic: Traffic,
    /// Ops in the timed window of one round.
    pub window_ops: usize,
    /// Updates in the burst after the window.
    pub burst_updates: usize,
}

/// The filter shape of the `i`-th request is `SHAPE_PATTERN[i % 20]`, with
/// 0 = plain, 1 = window, 2 = exclusions, 3 = max-score: 50 / 25 / 15 / 10 %
/// of requests, spread so that any short run of them — the hot head of the
/// churn pool above all — already holds the mix.  Drawing shapes
/// independently instead made the mix itself, and with it every latency
/// metric, vary from seed to seed.
pub const SHAPE_PATTERN: [usize; 20] = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 3];
/// Result sizes of the churn pool (one per planner `k` class in use).
pub const CHURN_KS: [usize; 3] = [1, 10, 50];
/// Preference parameters of the churn pool.
pub const CHURN_ALPHAS: [f64; 3] = [0.1, 0.3, 0.9];
/// Side of a window filter as a share of the dataset extent.
const WINDOW_SIDE: f64 = 0.20;
/// Half-width of a local move as a share of the dataset extent.
const LOCAL_MOVE: f64 = 0.01;
/// Share of moves that teleport anywhere in the extent.
const TELEPORT_SHARE: f64 = 0.10;
/// Untimed warm-up queries as a share of the window's ops: enough to touch
/// the scratch buffers and, on the churn workload, to put the hottest
/// requests into the result cache.
const WARMUP_SHARE: f64 = 0.05;

/// The four workloads, in report order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "single_social",
        users: 50_000,
        deployment: Deployment::Single,
        algorithm: Algorithm::Ais,
        traffic: Traffic::Plain { k: 10, alpha: 0.3 },
        window_ops: 200,
        burst_updates: 2_000,
    },
    Spec {
        name: "sharded_mixed",
        users: 50_000,
        deployment: Deployment::Sharded { shards: 4 },
        algorithm: Algorithm::Ais,
        traffic: Traffic::Mixed { k: 10, alpha: 0.3 },
        window_ops: 200,
        burst_updates: 2_000,
    },
    Spec {
        name: "remote_light",
        users: 20_000,
        deployment: Deployment::Remote { shards: 2 },
        algorithm: Algorithm::Sfa,
        traffic: Traffic::Plain { k: 10, alpha: 0.9 },
        window_ops: 2_000,
        burst_updates: 500,
    },
    Spec {
        name: "churn_auto",
        users: 10_000,
        deployment: Deployment::Single,
        algorithm: Algorithm::Auto,
        traffic: Traffic::ZipfChurn {
            pool: 2_000,
            update_share: 0.10,
        },
        window_ops: 2_500,
        burst_updates: 0,
    },
];

/// Looks a workload up by its `--workload` name.
pub fn spec_by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// One operation of a timed window.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A top-k query.
    Query(QueryRequest),
    /// A location report.
    Update(UserId, Point),
}

/// The full input of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct OpList {
    /// Untimed warm-up queries.
    pub warmup: Vec<QueryRequest>,
    /// The timed window.
    pub window: Vec<Op>,
    /// The timed update burst after the window.
    pub burst: Vec<(UserId, Point)>,
}

impl OpList {
    /// Number of queries in the timed window.
    pub fn window_queries(&self) -> usize {
        self.window
            .iter()
            .filter(|op| matches!(op, Op::Query(_)))
            .count()
    }

    /// A canonical byte image (the wire encoding of every request, raw
    /// IEEE bits of every coordinate) — what "same seed ⇒ same inputs"
    /// is checked on.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = wire::Writer::new();
        let update = |w: &mut wire::Writer, user: UserId, to: Point| {
            w.u8(1);
            w.u32(user);
            w.f64(to.x);
            w.f64(to.y);
        };
        for request in &self.warmup {
            w.u8(0);
            proto::encode_request(&mut w, request);
        }
        for op in &self.window {
            match op {
                Op::Query(request) => {
                    w.u8(0);
                    proto::encode_request(&mut w, request);
                }
                Op::Update(user, to) => update(&mut w, *user, *to),
            }
        }
        for &(user, to) in &self.burst {
            update(&mut w, user, to);
        }
        w.finish()
    }
}

/// Seed of every workload's dataset.  The dataset is the loaded database,
/// not an input: `--seed` draws the requests and the moves over it.  A
/// seeded dataset would put the generator's own graph-to-graph variance
/// (one hub's degree normalises every edge weight) into every metric —
/// measured at 50 000 users it doubled the between-seed spread of `qps`.
pub const DATASET_SEED: u64 = 0x55E2_D47A;

/// The dataset of a workload (regenerated, identically, in every round).
pub fn dataset(spec: &Spec) -> GeoSocialDataset {
    DatasetConfig::gowalla_like(spec.users)
        .with_seed(DATASET_SEED)
        .generate()
}

/// The Zipf-hot pool index `⌊n · u³⌋` for a uniform `u ∈ [0, 1)`.
pub fn zipf_index(n: usize, u: f64) -> usize {
    ((n as f64 * u * u * u) as usize).min(n - 1)
}

/// Seeded source of requests and moves over one dataset.
struct Generator<'d> {
    dataset: &'d GeoSocialDataset,
    rng: StdRng,
    /// Users with a location and at least one friend: every algorithm has
    /// real work to do for them and none fails.
    eligible: Vec<UserId>,
    located: Vec<UserId>,
    /// Locations as of the moves generated so far.
    moved: HashMap<UserId, Point>,
}

impl<'d> Generator<'d> {
    fn new(dataset: &'d GeoSocialDataset, seed: u64) -> Self {
        let located: Vec<UserId> = dataset.located_users().map(|(u, _)| u).collect();
        let eligible = located
            .iter()
            .copied()
            .filter(|&u| dataset.graph().degree(u) > 0)
            .collect();
        Generator {
            dataset,
            rng: StdRng::seed_from_u64(seed),
            eligible,
            located,
            moved: HashMap::new(),
        }
    }

    fn location(&self, user: UserId) -> Point {
        self.moved
            .get(&user)
            .copied()
            .or_else(|| self.dataset.location(user))
            .expect("only located users are drawn")
    }

    fn request(
        &mut self,
        algorithm: Algorithm,
        k: usize,
        alpha: f64,
        shape: usize,
    ) -> QueryRequest {
        let user = self.eligible[self.rng.gen_range(0..self.eligible.len())];
        let builder = QueryRequest::for_user(user)
            .k(k)
            .alpha(alpha)
            .algorithm(algorithm);
        let bounds = self.dataset.bounds();
        let builder = match shape {
            0 => builder,
            1 => {
                let at = self.location(user);
                let half = Point::new(
                    bounds.width() * WINDOW_SIDE / 2.0,
                    bounds.height() * WINDOW_SIDE / 2.0,
                );
                builder.within(Rect::new(
                    Point::new(at.x - half.x, at.y - half.y),
                    Point::new(at.x + half.x, at.y + half.y),
                ))
            }
            2 => {
                // "Nobody I already know": the first friends of the user.
                let friends: Vec<UserId> = self
                    .dataset
                    .graph()
                    .neighbors(user)
                    .take(8)
                    .map(|edge| edge.to)
                    .collect();
                builder.exclude(friends)
            }
            _ => builder.max_score(self.rng.gen_range(0.05..0.30)),
        };
        builder.build().expect("generated requests are valid")
    }

    fn moved_location(&mut self) -> (UserId, Point) {
        let user = self.located[self.rng.gen_range(0..self.located.len())];
        let bounds = self.dataset.bounds();
        let to = if self.rng.gen_bool(TELEPORT_SHARE) {
            Point::new(
                self.rng.gen_range(bounds.min.x..bounds.max.x),
                self.rng.gen_range(bounds.min.y..bounds.max.y),
            )
        } else {
            let at = self.location(user);
            let dx = bounds.width() * LOCAL_MOVE;
            let dy = bounds.height() * LOCAL_MOVE;
            Point::new(
                (at.x + self.rng.gen_range(-dx..dx)).clamp(bounds.min.x, bounds.max.x),
                (at.y + self.rng.gen_range(-dy..dy)).clamp(bounds.min.y, bounds.max.y),
            )
        };
        self.moved.insert(user, to);
        (user, to)
    }
}

/// Generates the op list of `spec` over `dataset` from `seed`.
pub fn generate_ops(spec: &Spec, dataset: &GeoSocialDataset, seed: u64) -> OpList {
    let mut gen = Generator::new(dataset, seed);
    let warmup_len = ((spec.window_ops as f64 * WARMUP_SHARE).ceil() as usize).max(1);
    let algorithm = spec.algorithm;
    let (warmup, window) = match spec.traffic {
        Traffic::Plain { k, alpha } | Traffic::Mixed { k, alpha } => {
            let mixed = matches!(spec.traffic, Traffic::Mixed { .. });
            let mut drawn = 0usize;
            let mut draw = |n: usize| -> Vec<QueryRequest> {
                (0..n)
                    .map(|_| {
                        let shape = if mixed { SHAPE_PATTERN[drawn % 20] } else { 0 };
                        drawn += 1;
                        gen.request(algorithm, k, alpha, shape)
                    })
                    .collect()
            };
            let warmup = draw(warmup_len);
            let window = draw(spec.window_ops).into_iter().map(Op::Query).collect();
            (warmup, window)
        }
        Traffic::ZipfChurn { pool, update_share } => {
            // (k, α) repeat every 9 entries and shapes every 20, so the
            // hot head of the pool holds every combination whatever the
            // seed; the seed picks the users, the draws and the moves.
            let pool: Vec<QueryRequest> = (0..pool)
                .map(|i| {
                    let k = CHURN_KS[i % 3];
                    let alpha = CHURN_ALPHAS[(i / 3) % 3];
                    gen.request(algorithm, k, alpha, SHAPE_PATTERN[i % 20])
                })
                .collect();
            let warmup = (0..warmup_len)
                .map(|_| pool[zipf_index(pool.len(), gen.rng.gen())].clone())
                .collect();
            let window = (0..spec.window_ops)
                .map(|_| {
                    if gen.rng.gen_bool(update_share) {
                        let (user, to) = gen.moved_location();
                        Op::Update(user, to)
                    } else {
                        Op::Query(pool[zipf_index(pool.len(), gen.rng.gen())].clone())
                    }
                })
                .collect();
            (warmup, window)
        }
    };
    let burst = (0..spec.burst_updates)
        .map(|_| gen.moved_location())
        .collect();
    OpList {
        warmup,
        window,
        burst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real specs at a size a unit test can afford.
    fn small(spec: &Spec) -> Spec {
        Spec {
            users: 1_500,
            window_ops: spec.window_ops.min(1_000),
            burst_updates: spec.burst_updates.min(300),
            ..*spec
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_ops_and_another_seed_does_not() {
        for spec in WORKLOADS.iter().map(small) {
            let a = generate_ops(&spec, &dataset(&spec), 7).canonical_bytes();
            let b = generate_ops(&spec, &dataset(&spec), 7).canonical_bytes();
            let c = generate_ops(&spec, &dataset(&spec), 8).canonical_bytes();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn op_counts_are_fixed_by_the_spec() {
        for spec in WORKLOADS.iter().map(small) {
            let ops = generate_ops(&spec, &dataset(&spec), 3);
            assert_eq!(ops.window.len(), spec.window_ops);
            assert_eq!(ops.burst.len(), spec.burst_updates);
            assert!(!ops.warmup.is_empty());
            if !matches!(spec.traffic, Traffic::ZipfChurn { .. }) {
                assert_eq!(ops.window_queries(), spec.window_ops);
            }
        }
    }

    #[test]
    fn the_real_windows_hold_at_least_200_queries() {
        for spec in &WORKLOADS {
            let queries = match spec.traffic {
                Traffic::ZipfChurn { update_share, .. } => {
                    // Binomial: five sigma below the mean is still plenty.
                    let n = spec.window_ops as f64;
                    n * (1.0 - update_share) - 5.0 * (n * update_share).sqrt()
                }
                _ => spec.window_ops as f64,
            };
            assert!(queries >= 200.0, "{}", spec.name);
        }
    }

    #[test]
    fn zipf_draw_stays_in_range_and_is_hot() {
        let n = 2_000;
        assert_eq!(zipf_index(n, 0.0), 0);
        assert_eq!(zipf_index(n, 0.999_999_999), n - 1);
        let mut rng = StdRng::seed_from_u64(11);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf_index(n, rng.gen())).collect();
        assert!(draws.iter().all(|&i| i < n));
        // u³ < 0.1 ⇔ u < 0.464: the hottest tenth takes ~46 % of draws.
        let hot = draws.iter().filter(|&&i| i < n / 10).count() as f64 / draws.len() as f64;
        assert!((hot - 0.464).abs() < 0.02, "hot share {hot}");
    }

    fn shape(request: &QueryRequest) -> usize {
        if request.within().is_some() {
            1
        } else if !request.excluded().is_empty() {
            2
        } else if request.max_score().is_some() {
            3
        } else {
            0
        }
    }

    /// Stated shares of plain, window, exclusions and max-score requests.
    const SHAPE_SHARES: [f64; 4] = [0.50, 0.25, 0.15, 0.10];

    #[test]
    fn request_mix_matches_the_stated_shares() {
        for (shape, share) in SHAPE_SHARES.iter().enumerate() {
            let slots = SHAPE_PATTERN.iter().filter(|&&s| s == shape).count();
            assert_eq!(slots as f64 / SHAPE_PATTERN.len() as f64, *share);
        }
        // The mixed window and the churn pool both carry the mix, within 2 %.
        for spec in [small(&WORKLOADS[1]), small(&WORKLOADS[3])] {
            let ops = generate_ops(&spec, &dataset(&spec), 5);
            let mut counts = [0usize; 4];
            let mut queries = 0usize;
            for op in &ops.window {
                if let Op::Query(request) = op {
                    counts[shape(request)] += 1;
                    queries += 1;
                }
            }
            // Zipf draws weight the pool's head; it holds the same mix, but
            // a few hot entries carry enough draws to move a share by 5 %.
            for (shape, share) in SHAPE_SHARES.iter().enumerate() {
                let got = counts[shape] as f64 / queries as f64;
                let slack = if spec.name == "churn_auto" {
                    0.05
                } else {
                    0.02
                };
                assert!(
                    (got - share).abs() < slack,
                    "{} shape {shape}: {got} vs {share}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn churn_window_interleaves_the_stated_update_share() {
        let spec = Spec {
            window_ops: 20_000,
            users: 1_500,
            ..WORKLOADS[3]
        };
        let ops = generate_ops(&spec, &dataset(&spec), 9);
        let updates = ops.window.len() - ops.window_queries();
        let share = updates as f64 / ops.window.len() as f64;
        assert!((share - 0.10).abs() < 0.02, "update share {share}");
    }

    #[test]
    fn moves_stay_inside_the_extent_and_are_mostly_local() {
        let spec = small(&WORKLOADS[0]);
        let ds = dataset(&spec);
        let ops = generate_ops(&spec, &ds, 2);
        let bounds = ds.bounds();
        let mut at: HashMap<UserId, Point> = HashMap::new();
        let mut local = 0usize;
        for &(user, to) in &ops.burst {
            assert!(bounds.contains(to));
            let from = at.get(&user).copied().or(ds.location(user)).unwrap();
            if (to.x - from.x).abs() <= bounds.width() * LOCAL_MOVE
                && (to.y - from.y).abs() <= bounds.height() * LOCAL_MOVE
            {
                local += 1;
            }
            at.insert(user, to);
        }
        let share = local as f64 / ops.burst.len() as f64;
        assert!(share > 0.8, "local share {share}");
    }
}
