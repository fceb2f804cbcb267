//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) on the synthetic stand-in datasets.
//!
//! ```sh
//! cargo run --release -p ssrq-bench --bin experiments -- all --quick
//! cargo run --release -p ssrq-bench --bin experiments -- fig8 --with-ch
//! cargo run --release -p ssrq-bench --bin experiments -- fig11 --queries 50
//! ```
//!
//! Experiments: `table2 table3 fig7a fig7b fig8 fig9 fig10 fig11 fig12
//! fig13 fig14a fig14b ablation` (together: `all`, the default) and
//! `scale`, the 10k→1M sweep persisted to `BENCH_scale.json`.  Timing of
//! the serving system itself is the repository benchmark's job (`bench/`).
//!
//! [`PAPER`] names every experiment of `all` once, in order.  Most of them
//! are rows of one table of [`Figure`]s — title, stand-ins, x values,
//! algorithm line-up, whether a pop-ratio report goes beside the run-time
//! one — that one loop, [`Run::sweep`], measures.  An x value ([`X`]) is
//! either a query parameter (k, α) on a shared stand-in or an engine or
//! dataset rebuilt for it (s, M, landmark selection, forest-fire sample).
//! Figures 7, 11 and 14(a) and Tables 2–3 measure other quantities and
//! keep their own code.  Each stand-in dataset is generated once per run
//! and shared by every experiment that draws on it.
//!
//! Flags: `--quick` (small datasets), `--full` (paper-scale datasets),
//! `--scale <factor>`, `--queries <n>`, `--with-ch` (include the expensive
//! Contraction Hierarchies baselines in fig8 — minutes even at
//! `--quick --scale 0.05`, nearly all of it the lazy CH builds, so not a
//! smoke command), `--out <path>`
//! (artifact path of `scale`, default `BENCH_scale.json`).  An unknown
//! experiment or flag, or a flag value that does not parse, exits with
//! code 2; a figure with a series whose every query failed exits with
//! code 1.

use ssrq_bench::report::FigureReport;
use ssrq_bench::{
    max_result_hops, measure_algorithm, run_scale_sweep, validate_scale_report,
    AggregateMeasurement, BenchDataset, Json, Scale, ScaleSweepConfig,
};
use ssrq_core::{
    Algorithm, EngineBuilder, GeoSocialDataset, GeoSocialEngine, IndexParams, QueryRequest,
    SocialNeighborCache,
};
use ssrq_data::{
    correlated_locations, forest_fire_sample, jaccard, Correlation, DataStatistics, DatasetConfig,
    QueryWorkload,
};
use ssrq_graph::LandmarkSelection;
use std::cell::{Cell, OnceCell};
use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

/// The k values of Table 3.
const K_VALUES: [usize; 5] = [10, 20, 30, 40, 50];
/// The alpha values of Table 3.
const ALPHA_VALUES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// The grid granularity values of Table 3.
const S_VALUES: [u32; 5] = [5, 10, 15, 20, 25];
/// Default k (Table 3).
const DEFAULT_K: usize = 30;
/// Default alpha (Table 3).
const DEFAULT_ALPHA: f64 = 0.3;

/// The algorithm line-up of Figures 8, 9, 13, 14.
const MAIN_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Sfa,
    Algorithm::Spa,
    Algorithm::Tsa,
    Algorithm::TsaQc,
    Algorithm::Ais,
];
/// The AIS variants of Figure 10 / 12.
const AIS_VARIANTS: [Algorithm; 3] = [Algorithm::AisBid, Algorithm::AisMinus, Algorithm::Ais];

/// One experiment of the harness.
type Experiment = fn(&Run);

/// The paper's evaluation, in the order `all` runs it.
const PAPER: [(&str, Experiment); 13] = [
    ("table2", table2),
    ("table3", table3),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig8", |run| {
        run.plot(&[Figure {
            title: "Figure 8 — {quantity} vs k ({data})",
            x_label: "k",
            stand_ins: &[StandIn::Gowalla, StandIn::Foursquare],
            xs: || K_VALUES.map(X::K).into(),
            lineup: &MAIN_ALGORITHMS,
            ch_lineup: &[Algorithm::SfaCh, Algorithm::SpaCh, Algorithm::TsaCh],
            pop_ratio: true,
        }])
    }),
    ("fig9", |run| {
        run.plot(&[Figure {
            title: "Figure 9 — {quantity} vs alpha ({data})",
            x_label: "alpha",
            stand_ins: &[StandIn::Gowalla, StandIn::Foursquare],
            xs: || ALPHA_VALUES.map(X::Alpha).into(),
            lineup: &MAIN_ALGORITHMS,
            ch_lineup: &[],
            pop_ratio: false,
        }])
    }),
    ("fig10", |run| {
        run.plot(&[Figure {
            title: "Figure 10 — AIS versions, {quantity} vs k ({data})",
            x_label: "k",
            stand_ins: &[StandIn::Gowalla, StandIn::Foursquare],
            xs: || K_VALUES.map(X::K).into(),
            lineup: &AIS_VARIANTS,
            ch_lineup: &[],
            pop_ratio: true,
        }])
    }),
    ("fig11", fig11),
    ("fig12", |run| {
        run.plot(&[Figure {
            title: "Figure 12 — {quantity} vs grid granularity s ({data})",
            x_label: "s",
            stand_ins: &[StandIn::Gowalla, StandIn::Foursquare],
            xs: || S_VALUES.map(X::Granularity).into(),
            lineup: &[
                Algorithm::Spa,
                Algorithm::AisBid,
                Algorithm::AisMinus,
                Algorithm::Ais,
            ],
            ch_lineup: &[],
            pop_ratio: false,
        }])
    }),
    ("fig13", |run| {
        run.plot(&[
            Figure {
                title: "Figure 13(a) — {quantity} vs k ({data})",
                x_label: "k",
                stand_ins: &[StandIn::Twitter],
                xs: || K_VALUES.map(X::K).into(),
                lineup: &MAIN_ALGORITHMS,
                ch_lineup: &[],
                pop_ratio: false,
            },
            Figure {
                title: "Figure 13(b) — {quantity} vs alpha ({data})",
                x_label: "alpha",
                stand_ins: &[StandIn::Twitter],
                xs: || ALPHA_VALUES.map(X::Alpha).into(),
                lineup: &MAIN_ALGORITHMS,
                ch_lineup: &[],
                pop_ratio: false,
            },
        ])
    }),
    ("fig14a", fig14a),
    ("fig14b", |run| {
        run.plot(&[Figure {
            title: "Figure 14(b) — {quantity} vs data size (forest-fire samples)",
            x_label: "users",
            stand_ins: &[StandIn::Foursquare],
            xs: || [1.0 / 3.0, 2.0 / 3.0, 1.0].map(X::Sample).into(),
            lineup: &MAIN_ALGORITHMS,
            ch_lineup: &[],
            pop_ratio: false,
        }])
    }),
    // Beyond the paper's figures.
    ("ablation", |run| {
        run.plot(&[
            Figure {
                title: "Ablation — {quantity} vs number of landmarks M ({data})",
                x_label: "M",
                stand_ins: &[StandIn::Gowalla],
                xs: || [2, 4, 8, 16, 32].map(X::Landmarks).into(),
                lineup: &[Algorithm::Tsa, Algorithm::Ais],
                ch_lineup: &[],
                pop_ratio: false,
            },
            Figure {
                title: "Ablation — {quantity} vs landmark selection strategy ({data})",
                x_label: "strategy",
                stand_ins: &[StandIn::Gowalla],
                xs: || {
                    vec![
                        X::Selection("random", LandmarkSelection::Random),
                        X::Selection("farthest", LandmarkSelection::FarthestFirst),
                        X::Selection("high-degree", LandmarkSelection::HighestDegree),
                    ]
                },
                lineup: &[Algorithm::Tsa, Algorithm::Ais],
                ch_lineup: &[],
                pop_ratio: false,
            },
        ])
    }),
];

/// One row of the figure table: a run-time report per stand-in (and a
/// pop-ratio report beside it) with a row per x value and a series per
/// line-up member.
struct Figure {
    /// The report title; `{quantity}` and `{data}` name what a report
    /// shows and the stand-in it is drawn on.
    title: &'static str,
    x_label: &'static str,
    stand_ins: &'static [StandIn],
    xs: fn() -> Vec<X>,
    lineup: &'static [Algorithm],
    /// The `*-CH` series `--with-ch` adds to the run-time report,
    /// measured on a fifth of the workload: the CH baselines repeat
    /// expensive point-to-point work.
    ch_lineup: &'static [Algorithm],
    pop_ratio: bool,
}

/// One x value of a figure: what it sets, and so how it becomes the
/// (engine, workload, k, α) it measures.  Unset parameters keep Table 3's
/// defaults.
#[derive(Clone, Copy)]
enum X {
    /// The result size k, on the shared stand-in.
    K(usize),
    /// The preference α, on the shared stand-in.
    Alpha(f64),
    /// The grid granularity s of an engine rebuilt over the stand-in's
    /// dataset.
    Granularity(u32),
    /// The landmark count M of an engine rebuilt likewise.
    Landmarks(usize),
    /// The landmark selection strategy (with its label) of an engine
    /// rebuilt likewise.
    Selection(&'static str, LandmarkSelection),
    /// The share of the stand-in's users a forest-fire sample keeps.
    Sample(f64),
}

impl X {
    fn label(self, stand_in: &BenchDataset) -> String {
        match self {
            X::K(k) => k.to_string(),
            X::Alpha(alpha) => alpha.to_string(),
            X::Granularity(s) => s.to_string(),
            X::Landmarks(m) => m.to_string(),
            X::Selection(label, _) => label.to_string(),
            X::Sample(share) => sample_size(stand_in, share).to_string(),
        }
    }

    /// The query parameters the x value measures at.
    fn query(self) -> (usize, f64) {
        match self {
            X::K(k) => (k, DEFAULT_ALPHA),
            X::Alpha(alpha) => (DEFAULT_K, alpha),
            _ => (DEFAULT_K, DEFAULT_ALPHA),
        }
    }

    /// The engine and workload an engine or dataset axis rebuilds for the
    /// x value; `None` for a query parameter, measured on the stand-in.
    fn rebuild(self, stand_in: &BenchDataset, queries: usize) -> Option<BenchDataset> {
        let dataset = stand_in.engine.dataset();
        let rebuild = |dataset, configure: &dyn Fn(EngineBuilder) -> EngineBuilder| {
            BenchDataset::from_dataset(stand_in.name.clone(), dataset, queries, configure)
        };
        Some(match self {
            X::K(_) | X::Alpha(_) => return None,
            X::Granularity(s) => rebuild(dataset.clone(), &|b| b.granularity(s)),
            X::Landmarks(m) => rebuild(dataset.clone(), &|b| b.landmarks(m)),
            X::Selection(_, selection) => {
                rebuild(dataset.clone(), &|b| b.landmark_selection(selection))
            }
            X::Sample(share) => {
                let target = sample_size(stand_in, share);
                let (graph, mapping) = forest_fire_sample(dataset.graph(), target, 0.7, 0x14B);
                let locations = mapping.iter().map(|&old| dataset.location(old)).collect();
                let sample = GeoSocialDataset::new(graph, locations)
                    .expect("a forest-fire sample of a stand-in keeps located users");
                rebuild(sample, &|b| b)
            }
        })
    }
}

fn sample_size(stand_in: &BenchDataset, share: f64) -> usize {
    (stand_in.engine.dataset().user_count() as f64 * share) as usize
}

/// The synthetic stand-ins for the paper's three datasets.
#[derive(Clone, Copy)]
enum StandIn {
    Gowalla,
    Foursquare,
    Twitter,
}

/// One harness run: its options, the stand-ins (each generated on first
/// use, then shared), and whether a series came back with no successful
/// query — it prints as `failed`, and the run exits with code 1.
struct Run {
    scale: Scale,
    with_ch: bool,
    /// The raw `--scale` factor (1.0 when unset); the `scale` sweep applies
    /// it to its own 10k→1M user counts rather than to [`Scale`].
    factor: f64,
    /// The raw `--queries` override, if any.
    queries: Option<usize>,
    /// Artifact path of the `scale` sweep.
    out: String,
    stand_ins: [OnceCell<BenchDataset>; 3],
    failed: Cell<bool>,
}

impl Run {
    /// The stand-in's engine and workload.  The engine declares the
    /// Contraction Hierarchies index lazily: only a `*-CH` query builds it.
    fn stand_in(&self, which: StandIn) -> &BenchDataset {
        self.stand_ins[which as usize].get_or_init(|| {
            let scale = self.scale;
            let config = match which {
                StandIn::Gowalla => DatasetConfig::gowalla_like(scale.gowalla_users),
                StandIn::Foursquare => DatasetConfig::foursquare_like(scale.foursquare_users),
                StandIn::Twitter => DatasetConfig::twitter_like(scale.twitter_users),
            };
            BenchDataset::from_config(config, scale.queries, |b| b.with_ch())
        })
    }

    /// [`measure_algorithm`], noting an all-failed workload for the exit
    /// code.
    fn measure(
        &self,
        engine: &GeoSocialEngine,
        algorithm: Algorithm,
        users: &[u32],
        k: usize,
        alpha: f64,
    ) -> AggregateMeasurement {
        let m = measure_algorithm(engine, algorithm, users, k, alpha);
        if m.queries == 0 {
            self.failed.set(true);
        }
        m
    }

    /// Prints each figure's reports.
    fn plot(&self, figures: &[Figure]) {
        for figure in figures {
            for report in self.sweep(figure) {
                print!("{}", report.render());
            }
            if !figure.ch_lineup.is_empty() && !self.with_ch {
                let names: Vec<&str> = figure.ch_lineup.iter().map(|a| a.name()).collect();
                println!(
                    "(the {} series are skipped by default — pass --with-ch to include them)",
                    names.join(" / ")
                );
            }
        }
    }

    /// The sweep loop of every figure: per stand-in, per x value, the
    /// line-up measured on what the x value sets.
    fn sweep(&self, figure: &Figure) -> Vec<FigureReport> {
        let queries = self.scale.queries;
        let mut reports = Vec::new();
        for &which in figure.stand_ins {
            let stand_in = self.stand_in(which);
            let report = |quantity| {
                let title = figure.title.replace("{quantity}", quantity);
                FigureReport::new(title.replace("{data}", &stand_in.name), figure.x_label)
            };
            let mut runtime = report("run-time (ms)");
            let mut pops = report("pop ratio");
            for x in (figure.xs)() {
                let label = x.label(stand_in);
                runtime.push_x(&label);
                pops.push_x(&label);
                let rebuilt = x.rebuild(stand_in, queries);
                let bench = rebuilt.as_ref().unwrap_or(stand_in);
                let (k, alpha) = x.query();
                let users = &bench.workload.users;
                for &algorithm in figure.lineup {
                    let m = self.measure(&bench.engine, algorithm, users, k, alpha);
                    runtime.push_runtime(algorithm.name(), &m);
                    pops.push_pop_ratio(algorithm.name(), &m);
                }
                if self.with_ch {
                    let sample = &users[..users.len().min((queries / 5).max(5))];
                    for &algorithm in figure.ch_lineup {
                        let m = self.measure(&bench.engine, algorithm, sample, k, alpha);
                        runtime.push_runtime(algorithm.name(), &m);
                    }
                }
            }
            reports.push(runtime);
            if figure.pop_ratio {
                reports.push(pops);
            }
        }
        reports
    }

    /// The process exit code: 1 once a series had no successful query.
    fn exit_code(&self) -> i32 {
        if !self.failed.get() {
            return 0;
        }
        eprintln!("at least one series has no successful query (cells marked `failed`)");
        1
    }
}

/// Parses the value following `flag`; a missing or unparsable value is a
/// usage error (exit code 2), never a silent fall-back to the default.
fn flag_value<T: FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(value) = value else {
        eprintln!("flag {flag} needs a value");
        std::process::exit(2);
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("flag {flag}: cannot parse value `{value}`");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale = Scale::default();
    let mut with_ch = false;
    let mut factor: Option<f64> = None;
    let mut queries: Option<usize> = None;
    let mut out = "BENCH_scale.json".to_string();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--full" => scale = Scale::full(),
            "--with-ch" => with_ch = true,
            "--scale" => factor = Some(flag_value(arg, iter.next())),
            "--queries" => queries = Some(flag_value(arg, iter.next())),
            "--out" => out = flag_value(arg, iter.next()),
            name if !name.starts_with("--") => experiment = name.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(f) = factor {
        scale = scale.scaled_by(f);
    }
    if let Some(q) = queries {
        scale.queries = q;
    }
    let experiments: Vec<Experiment> = match experiment.as_str() {
        "all" => PAPER.iter().map(|&(_, run)| run).collect(),
        "scale" => vec![scale_sweep],
        name => match PAPER.iter().find(|&&(paper, _)| paper == name) {
            Some(&(_, run)) => vec![run],
            None => {
                eprintln!("unknown experiment `{name}`");
                std::process::exit(2);
            }
        },
    };
    let run = Run {
        scale,
        with_ch,
        factor: factor.unwrap_or(1.0),
        queries,
        out,
        stand_ins: Default::default(),
        failed: Cell::new(false),
    };

    let started = Instant::now();
    println!(
        "SSRQ experiment harness — experiment `{experiment}`, scale: gowalla={} foursquare={} twitter={} queries={}",
        scale.gowalla_users, scale.foursquare_users, scale.twitter_users, scale.queries
    );
    for experiment in experiments {
        experiment(&run);
    }
    println!("\ntotal harness time: {:?}", started.elapsed());
    std::process::exit(run.exit_code());
}

// ---------------------------------------------------------------------------
// Table 2 / Table 3
// ---------------------------------------------------------------------------

fn table2(run: &Run) {
    println!("\n## Table 2 — data statistics (synthetic stand-ins)\n");
    println!("{}", DataStatistics::table_header());
    for which in [StandIn::Gowalla, StandIn::Foursquare, StandIn::Twitter] {
        let bench = run.stand_in(which);
        let statistics = DataStatistics::compute(bench.name.clone(), bench.engine.dataset());
        println!("{}", statistics.table_row());
    }
}

fn table3(_: &Run) {
    fn list<T: ToString>(values: &[T]) -> String {
        let values: Vec<String> = values.iter().map(T::to_string).collect();
        values.join(", ")
    }
    let row = |parameter, default: &dyn Display, range: &str| {
        println!("{parameter:<28} {default:>10} {range:<28}");
    };
    let params = IndexParams::default();
    println!("\n## Table 3 — query and system parameters\n");
    row("Parameter", &"Default", "Range");
    row("size of result k", &DEFAULT_K, &list(&K_VALUES));
    row(
        "preference parameter alpha",
        &DEFAULT_ALPHA,
        &list(&ALPHA_VALUES),
    );
    row("grid granularity s", &params.granularity, &list(&S_VALUES));
    row(
        "number of landmarks M",
        &params.num_landmarks,
        "(fine-tuned)",
    );
}

// ---------------------------------------------------------------------------
// Figure 7 — nature of the SSRQ query
// ---------------------------------------------------------------------------

fn fig7a(run: &Run) {
    let mut report = FigureReport::new("Figure 7(a) — hops to the farthest SSRQ result vs k", "k");
    for k in K_VALUES {
        report.push_x(k);
        for (which, prefix) in [(StandIn::Gowalla, "G."), (StandIn::Foursquare, "F.")] {
            let bench = run.stand_in(which);
            let mut ctx = bench.engine.make_context();
            let mut hops = Vec::new();
            for &user in &bench.workload.users {
                let request = QueryRequest::for_user(user)
                    .k(k)
                    .alpha(DEFAULT_ALPHA)
                    .algorithm(Algorithm::Ais)
                    .build()
                    .expect("valid harness parameters");
                if let Some(h) = max_result_hops(&bench.engine, &request, &mut ctx) {
                    hops.push(h);
                }
            }
            let avg = hops.iter().sum::<usize>() as f64 / hops.len().max(1) as f64;
            let max = hops.iter().copied().max().unwrap_or(0);
            report.push_cell(&format!("{prefix} Avg. hop"), format!("{avg:.2}"));
            report.push_cell(&format!("{prefix} Max. hop"), max);
        }
    }
    print!("{}", report.render());
}

fn fig7b(run: &Run) {
    let mut report = FigureReport::new(
        "Figure 7(b) — Jaccard ratio of SSRQ vs single-domain top-k (foursquare-like)",
        "alpha",
    );
    let bench = run.stand_in(StandIn::Foursquare);
    let k = DEFAULT_K;
    let mut ctx = bench.engine.make_context();
    for alpha in ALPHA_VALUES {
        report.push_x(alpha);
        let mut vs_social = 0.0;
        let mut vs_spatial = 0.0;
        let mut counted = 0usize;
        for &user in &bench.workload.users {
            let request = QueryRequest::for_user(user)
                .k(k)
                .alpha(alpha)
                .algorithm(Algorithm::Ais)
                .build()
                .expect("valid harness parameters");
            let Ok(ssrq) = bench.engine.run_with(&request, &mut ctx) else {
                continue;
            };
            let ssrq_users = ssrq.users();
            let social_topk = social_top_k(&bench.engine, user, k, &mut ctx);
            let spatial_topk = spatial_top_k(&bench.engine, user, k);
            vs_social += jaccard(&ssrq_users, &social_topk);
            vs_spatial += jaccard(&ssrq_users, &spatial_topk);
            counted += 1;
        }
        let counted = counted.max(1) as f64;
        report.push_cell("vs. social", format!("{:.4}", vs_social / counted));
        report.push_cell("vs. spatial", format!("{:.4}", vs_spatial / counted));
    }
    print!("{}", report.render());
}

fn social_top_k(
    engine: &GeoSocialEngine,
    user: u32,
    k: usize,
    ctx: &mut ssrq_core::QueryContext,
) -> Vec<u32> {
    let graph = engine.dataset().graph();
    let mut search = ssrq_graph::IncrementalDijkstra::new(graph, user, ctx.social_scratch());
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        match search.next_settled(graph) {
            Some((v, _)) if v != user => out.push(v),
            Some(_) => {}
            None => break,
        }
    }
    out
}

fn spatial_top_k(engine: &GeoSocialEngine, user: u32, k: usize) -> Vec<u32> {
    let Some(location) = engine.dataset().location(user) else {
        return Vec::new();
    };
    engine
        .grid()
        .k_nearest(location, k + 1)
        .into_iter()
        .map(|n| n.id)
        .filter(|&u| u != user)
        .take(k)
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 11 — pre-computation
// ---------------------------------------------------------------------------

fn fig11(run: &Run) {
    for which in [StandIn::Gowalla, StandIn::Foursquare] {
        let bench = run.stand_in(which);
        let mut report = FigureReport::new(
            format!(
                "Figure 11 — pre-computation: run-time (ms) vs cached list length t ({})",
                bench.name
            ),
            "t",
        );
        // The cached-neighbour list length, scaled to the dataset (the paper
        // sweeps 1K..10K on 196K/1.88M users).
        let n = bench.engine.dataset().user_count();
        let t_values = [0.01, 0.02, 0.05, 0.10, 0.20].map(|f| ((n as f64 * f) as usize).max(50));
        let users = &bench.workload.users;
        let ais = run.measure(
            &bench.engine,
            Algorithm::Ais,
            users,
            DEFAULT_K,
            DEFAULT_ALPHA,
        );
        // Swap only the cache per list length t, on a clone: the base
        // indexes (landmarks, grid, AIS) are built once per dataset, and the
        // shared stand-in keeps no cache.
        let mut engine = bench.engine.clone();
        for t in t_values {
            report.push_x(t);
            report.push_runtime("AIS", &ais);
            let cache = SocialNeighborCache::build(engine.dataset().graph(), users, t);
            engine
                .install_social_cache(cache)
                .expect("cache built over the engine's own graph");
            let m = run.measure(
                &engine,
                Algorithm::SfaCached,
                users,
                DEFAULT_K,
                DEFAULT_ALPHA,
            );
            report.push_runtime("AIS-Cache", &m);
        }
        print!("{}", report.render());
    }
}

// ---------------------------------------------------------------------------
// Figure 14(a) — synthetic correlation
// ---------------------------------------------------------------------------

fn fig14a(run: &Run) {
    let mut report = FigureReport::new(
        "Figure 14(a) — run-time (ms) vs social/spatial correlation",
        "correlation",
    );
    // Keep the social distances of a foursquare-like graph (as the paper
    // does) but assign correlation-controlled locations around a handful of
    // anchor users; each anchor issues the query.
    let base = DatasetConfig::foursquare_like(run.scale.gowalla_users).generate();
    let anchors = QueryWorkload::generate(&base, 5, 0xFA14).users;
    for correlation in Correlation::ALL {
        report.push_x(correlation.name());
        // Per algorithm: summed run-time and the anchors it succeeded on.
        let mut totals = vec![(0.0f64, 0usize); MAIN_ALGORITHMS.len()];
        for &anchor in &anchors {
            let locations = correlated_locations(base.graph(), anchor, correlation, 0xC0FE);
            let Ok(dataset) = GeoSocialDataset::new(base.graph().clone(), locations) else {
                continue;
            };
            let Ok(engine) = GeoSocialEngine::builder(dataset).build() else {
                continue;
            };
            for (total, algorithm) in totals.iter_mut().zip(MAIN_ALGORITHMS) {
                let m = measure_algorithm(&engine, algorithm, &[anchor], DEFAULT_K, 0.5);
                if m.queries > 0 {
                    total.0 += m.avg_millis();
                    total.1 += 1;
                }
            }
        }
        for (&(millis, succeeded), algorithm) in totals.iter().zip(MAIN_ALGORITHMS) {
            if succeeded == 0 {
                run.failed.set(true);
                report.push_cell(algorithm.name(), "failed");
            } else {
                report.push_cell(
                    algorithm.name(),
                    format!("{:.3}", millis / succeeded as f64),
                );
            }
        }
    }
    print!("{}", report.render());
}

// ---------------------------------------------------------------------------
// Scale — the 10k→1M sweep behind BENCH_scale.json
// ---------------------------------------------------------------------------

/// Beyond the paper: the million-user scale pass.  Generates gowalla-like
/// datasets at 10k/50k/200k/1M users (scaled by `--scale`), records the
/// shared-graph bytes under both CSR layouts, and measures the single
/// engine plus spatially partitioned shards at several shard counts — per
/// shard, with AIS occupancy.  The artifact is written to `--out`
/// (default `BENCH_scale.json`), re-read, re-parsed and validated: the run
/// fails if the file does not parse or any AIS index exceeds its
/// occupancy-proportional budget.
fn scale_sweep(run: &Run) {
    let mut config = ScaleSweepConfig::default().scaled_by(run.factor);
    if let Some(q) = run.queries {
        config.queries = q;
    }
    println!(
        "\n## Scale sweep — gowalla-like at {:?} users, shard counts {:?}, {} queries",
        config.user_counts, config.shard_counts, config.queries
    );
    let out = &run.out;
    let report = run_scale_sweep(&config);
    std::fs::write(out, report.render()).expect("scale artifact is writable");

    // Trust nothing the writer meant: re-read the artifact from disk and
    // validate the parsed document.
    let persisted = std::fs::read_to_string(out).expect("scale artifact re-reads");
    let parsed = Json::parse(&persisted).expect("scale artifact re-parses as JSON");
    if let Err(violation) = validate_scale_report(&parsed) {
        eprintln!("{out} failed validation: {violation}");
        std::process::exit(1);
    }
    let scales = parsed
        .get("scales")
        .and_then(Json::as_array)
        .expect("validated report has scales");
    for point in scales {
        let users = point.get("users").and_then(Json::as_usize).unwrap_or(0);
        let graph = point.get("graph").expect("validated scale point has graph");
        let standard = graph
            .get("standard_bytes")
            .and_then(Json::as_usize)
            .unwrap_or(0);
        let compressed = graph
            .get("compressed_bytes")
            .and_then(Json::as_usize)
            .unwrap_or(0);
        println!(
            "   {users} users: graph {} -> {} ({:.0}% saved), single-engine {:.0} q/s",
            fmt_bytes(standard),
            fmt_bytes(compressed),
            (1.0 - compressed as f64 / standard.max(1) as f64) * 100.0,
            point
                .get("single")
                .and_then(|s| s.get("qps"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
    }
    println!(
        "wrote {out} ({} scale points) — parsed back and AIS occupancy budgets verified",
        scales.len()
    );
}

fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1u64 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run() -> Run {
        Run {
            scale: Scale {
                gowalla_users: 300,
                foursquare_users: 300,
                twitter_users: 300,
                queries: 3,
            },
            with_ch: false,
            factor: 1.0,
            queries: None,
            out: String::new(),
            stand_ins: Default::default(),
            failed: Cell::new(false),
        }
    }

    fn figure(lineup: &'static [Algorithm]) -> Figure {
        Figure {
            title: "{quantity} vs k ({data})",
            x_label: "k",
            stand_ins: &[StandIn::Gowalla],
            xs: || vec![X::K(5), X::K(10)],
            lineup,
            ch_lineup: &[],
            pop_ratio: true,
        }
    }

    #[test]
    fn a_series_whose_every_query_fails_prints_failed_and_fails_the_run() {
        let run = tiny_run();
        // A stand-in that does not declare the CH index: every SFA-CH query
        // fails, and its cells must not read as the fastest.
        let gowalla = DatasetConfig::gowalla_like(run.scale.gowalla_users);
        let stand_in = BenchDataset::from_config(gowalla, run.scale.queries, |b| b);
        assert!(run.stand_ins[StandIn::Gowalla as usize]
            .set(stand_in)
            .is_ok());

        let reports = run.sweep(&figure(&[Algorithm::Ais]));
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| !r.render().contains("failed")));
        assert_eq!(run.exit_code(), 0);

        let reports = run.sweep(&figure(&[Algorithm::Ais, Algorithm::SfaCh]));
        for report in &reports {
            let (name, cells) = &report.series[1];
            assert_eq!(name, "SFA-CH");
            assert_eq!(cells, &["failed", "failed"]);
            assert!(report.series[0].1.iter().all(|cell| cell != "failed"));
        }
        assert_eq!(run.exit_code(), 1);
    }
}
