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
//! Flags: `--quick` (small datasets), `--full` (paper-scale datasets),
//! `--scale <factor>`, `--queries <n>`, `--with-ch` (include the expensive
//! Contraction Hierarchies baselines in fig8), `--out <path>` (artifact
//! path of `scale`, default `BENCH_scale.json`).  An unknown experiment or
//! flag, or a flag value that does not parse, exits with code 2; a figure
//! with a series whose every query failed exits with code 1.

use ssrq_bench::report::FigureReport;
use ssrq_bench::{
    max_result_hops, measure_algorithm, run_scale_sweep, validate_scale_report,
    AggregateMeasurement, BenchDataset, Json, Scale, ScaleSweepConfig,
};
use ssrq_core::{Algorithm, GeoSocialDataset, GeoSocialEngine, QueryRequest, SocialNeighborCache};
use ssrq_data::{
    correlated_locations, forest_fire_sample, jaccard, Correlation, DataStatistics, DatasetConfig,
    QueryWorkload,
};
use ssrq_graph::LandmarkSelection;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
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

struct Options {
    scale: Scale,
    with_ch: bool,
    /// The raw `--scale` factor (1.0 when unset); the `scale` sweep applies
    /// it to its own 10k→1M user counts rather than to [`Scale`].
    factor: f64,
    /// The raw `--queries` override, if any.
    queries: Option<usize>,
    /// Artifact path of the `scale` sweep.
    out: String,
}

/// Set once a measurement comes back with no successful query — its
/// series prints as `failed` — and turned into the exit code by `main`.
static ANY_SERIES_FAILED: AtomicBool = AtomicBool::new(false);

/// [`measure_algorithm`], noting an all-failed workload for the exit code.
fn measure(
    engine: &GeoSocialEngine,
    algorithm: Algorithm,
    users: &[u32],
    k: usize,
    alpha: f64,
) -> AggregateMeasurement {
    let m = measure_algorithm(engine, algorithm, users, k, alpha);
    if m.queries == 0 {
        ANY_SERIES_FAILED.store(true, Ordering::Relaxed);
    }
    m
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
    let options = Options {
        scale,
        with_ch,
        factor: factor.unwrap_or(1.0),
        queries,
        out,
    };

    let started = Instant::now();
    println!(
        "SSRQ experiment harness — experiment `{experiment}`, scale: gowalla={} foursquare={} twitter={} queries={}",
        options.scale.gowalla_users,
        options.scale.foursquare_users,
        options.scale.twitter_users,
        options.scale.queries
    );

    match experiment.as_str() {
        "table2" => table2(&options),
        "table3" => table3(),
        "fig7a" => fig7a(&options),
        "fig7b" => fig7b(&options),
        "fig8" => fig8(&options),
        "fig9" => fig9(&options),
        "fig10" => fig10(&options),
        "fig11" => fig11(&options),
        "fig12" => fig12(&options),
        "fig13" => fig13(&options),
        "fig14a" => fig14a(&options),
        "fig14b" => fig14b(&options),
        "ablation" => ablation(&options),
        "scale" => scale_sweep(&options),
        "all" => {
            table2(&options);
            table3();
            fig7a(&options);
            fig7b(&options);
            fig8(&options);
            fig9(&options);
            fig10(&options);
            fig11(&options);
            fig12(&options);
            fig13(&options);
            fig14a(&options);
            fig14b(&options);
            ablation(&options);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
    println!("\ntotal harness time: {:?}", started.elapsed());
    if ANY_SERIES_FAILED.load(Ordering::Relaxed) {
        eprintln!("at least one series has no successful query (cells marked `failed`)");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Table 2 / Table 3
// ---------------------------------------------------------------------------

fn table2(options: &Options) {
    println!("\n## Table 2 — data statistics (synthetic stand-ins)\n");
    println!("{}", DataStatistics::table_header());
    for (name, dataset) in [
        (
            "gowalla-like",
            DatasetConfig::gowalla_like(options.scale.gowalla_users).generate(),
        ),
        (
            "foursquare-like",
            DatasetConfig::foursquare_like(options.scale.foursquare_users).generate(),
        ),
        (
            "twitter-like",
            DatasetConfig::twitter_like(options.scale.twitter_users).generate(),
        ),
    ] {
        println!("{}", DataStatistics::compute(name, &dataset).table_row());
    }
}

fn table3() {
    println!("\n## Table 3 — query and system parameters\n");
    println!("{:<28} {:>10} {:<28}", "Parameter", "Default", "Range");
    println!(
        "{:<28} {:>10} {:<28}",
        "size of result k", DEFAULT_K, "10, 20, 30, 40, 50"
    );
    println!(
        "{:<28} {:>10} {:<28}",
        "preference parameter alpha", DEFAULT_ALPHA, "0.1, 0.3, 0.5, 0.7, 0.9"
    );
    println!(
        "{:<28} {:>10} {:<28}",
        "grid granularity s", 10, "5, 10, 15, 20, 25"
    );
    println!(
        "{:<28} {:>10} {:<28}",
        "number of landmarks M", 8, "(fine-tuned)"
    );
}

// ---------------------------------------------------------------------------
// Figure 7 — nature of the SSRQ query
// ---------------------------------------------------------------------------

fn fig7a(options: &Options) {
    let mut report = FigureReport::new("Figure 7(a) — hops to the farthest SSRQ result vs k", "k");
    let datasets = [
        BenchDataset::gowalla(options.scale),
        BenchDataset::foursquare(options.scale),
    ];
    for k in K_VALUES {
        report.push_x(k);
        for bench in &datasets {
            let prefix = if bench.name.starts_with("gowalla") {
                "G."
            } else {
                "F."
            };
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

fn fig7b(options: &Options) {
    let mut report = FigureReport::new(
        "Figure 7(b) — Jaccard ratio of SSRQ vs single-domain top-k (foursquare-like)",
        "alpha",
    );
    let bench = BenchDataset::foursquare(options.scale);
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
// Figure 8 / 9 — effect of k and alpha on all methods
// ---------------------------------------------------------------------------

fn fig8(options: &Options) {
    // Declare the CH index lazily: it is only built (on first *-CH query)
    // when --with-ch asks for those baselines.
    let with_lazy_ch = |scale: Scale, config: DatasetConfig| {
        BenchDataset::from_config(config, scale.queries, |b| b.with_ch())
    };
    let datasets = vec![
        with_lazy_ch(
            options.scale,
            DatasetConfig::gowalla_like(options.scale.gowalla_users),
        ),
        with_lazy_ch(
            options.scale,
            DatasetConfig::foursquare_like(options.scale.foursquare_users),
        ),
    ];
    for bench in &datasets {
        let mut runtime = FigureReport::new(
            format!("Figure 8 — run-time (ms) vs k ({})", bench.name),
            "k",
        );
        let mut pops =
            FigureReport::new(format!("Figure 8 — pop ratio vs k ({})", bench.name), "k");
        for k in K_VALUES {
            runtime.push_x(k);
            pops.push_x(k);
            for algorithm in MAIN_ALGORITHMS {
                let m = measure(
                    &bench.engine,
                    algorithm,
                    &bench.workload.users,
                    k,
                    DEFAULT_ALPHA,
                );
                runtime.push_runtime(algorithm.name(), &m);
                pops.push_pop_ratio(algorithm.name(), &m);
            }
            if options.with_ch {
                // The CH baselines repeat expensive point-to-point work; a
                // smaller query sample keeps the harness responsive.
                let sample: Vec<u32> = bench
                    .workload
                    .users
                    .iter()
                    .copied()
                    .take((options.scale.queries / 5).max(5))
                    .collect();
                for algorithm in [Algorithm::SfaCh, Algorithm::SpaCh, Algorithm::TsaCh] {
                    let m = measure(&bench.engine, algorithm, &sample, k, DEFAULT_ALPHA);
                    runtime.push_runtime(algorithm.name(), &m);
                }
            }
        }
        print!("{}", runtime.render());
        print!("{}", pops.render());
    }
    if !options.with_ch {
        println!(
            "(the SFA-CH / SPA-CH / TSA-CH series are skipped by default — pass --with-ch to include them)"
        );
    }
}

fn fig9(options: &Options) {
    for bench in [
        BenchDataset::gowalla(options.scale),
        BenchDataset::foursquare(options.scale),
    ] {
        let mut runtime = FigureReport::new(
            format!("Figure 9 — run-time (ms) vs alpha ({})", bench.name),
            "alpha",
        );
        for alpha in ALPHA_VALUES {
            runtime.push_x(alpha);
            for algorithm in MAIN_ALGORITHMS {
                let m = measure(
                    &bench.engine,
                    algorithm,
                    &bench.workload.users,
                    DEFAULT_K,
                    alpha,
                );
                runtime.push_runtime(algorithm.name(), &m);
            }
        }
        print!("{}", runtime.render());
    }
}

// ---------------------------------------------------------------------------
// Figure 10 — AIS versions
// ---------------------------------------------------------------------------

fn fig10(options: &Options) {
    for bench in [
        BenchDataset::gowalla(options.scale),
        BenchDataset::foursquare(options.scale),
    ] {
        let mut runtime = FigureReport::new(
            format!(
                "Figure 10 — AIS versions, run-time (ms) vs k ({})",
                bench.name
            ),
            "k",
        );
        let mut pops = FigureReport::new(
            format!("Figure 10 — AIS versions, pop ratio vs k ({})", bench.name),
            "k",
        );
        for k in K_VALUES {
            runtime.push_x(k);
            pops.push_x(k);
            for algorithm in AIS_VARIANTS {
                let m = measure(
                    &bench.engine,
                    algorithm,
                    &bench.workload.users,
                    k,
                    DEFAULT_ALPHA,
                );
                runtime.push_runtime(algorithm.name(), &m);
                pops.push_pop_ratio(algorithm.name(), &m);
            }
        }
        print!("{}", runtime.render());
        print!("{}", pops.render());
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — pre-computation
// ---------------------------------------------------------------------------

fn fig11(options: &Options) {
    for mut bench in [
        BenchDataset::gowalla(options.scale),
        BenchDataset::foursquare(options.scale),
    ] {
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
        let t_values: Vec<usize> = [0.01, 0.02, 0.05, 0.10, 0.20]
            .iter()
            .map(|f| ((n as f64 * f) as usize).max(50))
            .collect();
        let ais = measure(
            &bench.engine,
            Algorithm::Ais,
            &bench.workload.users,
            DEFAULT_K,
            DEFAULT_ALPHA,
        );
        let users = bench.workload.users.clone();
        for &t in &t_values {
            report.push_x(t);
            report.push_runtime("AIS", &ais);
            // Swap only the cache per list length t; the base indexes
            // (landmarks, grid, AIS) are built once per dataset.
            bench
                .engine
                .install_social_cache(SocialNeighborCache::build(
                    bench.engine.dataset().graph(),
                    &users,
                    t,
                ))
                .expect("cache built over the engine's own graph");
            let m = measure(
                &bench.engine,
                Algorithm::SfaCached,
                &users,
                DEFAULT_K,
                DEFAULT_ALPHA,
            );
            report.push_runtime("AIS-Cache", &m);
        }
        print!("{}", report.render());
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — grid granularity
// ---------------------------------------------------------------------------

fn fig12(options: &Options) {
    for (name, config) in [
        (
            "gowalla-like",
            DatasetConfig::gowalla_like(options.scale.gowalla_users),
        ),
        (
            "foursquare-like",
            DatasetConfig::foursquare_like(options.scale.foursquare_users),
        ),
    ] {
        let dataset = config.generate();
        let mut report = FigureReport::new(
            format!("Figure 12 — run-time (ms) vs grid granularity s ({name})"),
            "s",
        );
        for s in S_VALUES {
            report.push_x(s);
            let bench =
                BenchDataset::from_dataset(name, dataset.clone(), options.scale.queries, |b| {
                    b.granularity(s)
                });
            for algorithm in [
                Algorithm::Spa,
                Algorithm::AisBid,
                Algorithm::AisMinus,
                Algorithm::Ais,
            ] {
                let m = measure(
                    &bench.engine,
                    algorithm,
                    &bench.workload.users,
                    DEFAULT_K,
                    DEFAULT_ALPHA,
                );
                report.push_runtime(algorithm.name(), &m);
            }
        }
        print!("{}", report.render());
    }
}

// ---------------------------------------------------------------------------
// Figure 13 — high-degree (Twitter-like) dataset
// ---------------------------------------------------------------------------

fn fig13(options: &Options) {
    let bench = BenchDataset::twitter(options.scale);
    let mut by_k = FigureReport::new(
        format!("Figure 13(a) — run-time (ms) vs k ({})", bench.name),
        "k",
    );
    for k in K_VALUES {
        by_k.push_x(k);
        for algorithm in MAIN_ALGORITHMS {
            let m = measure(
                &bench.engine,
                algorithm,
                &bench.workload.users,
                k,
                DEFAULT_ALPHA,
            );
            by_k.push_runtime(algorithm.name(), &m);
        }
    }
    print!("{}", by_k.render());

    let mut by_alpha = FigureReport::new(
        format!("Figure 13(b) — run-time (ms) vs alpha ({})", bench.name),
        "alpha",
    );
    for alpha in ALPHA_VALUES {
        by_alpha.push_x(alpha);
        for algorithm in MAIN_ALGORITHMS {
            let m = measure(
                &bench.engine,
                algorithm,
                &bench.workload.users,
                DEFAULT_K,
                alpha,
            );
            by_alpha.push_runtime(algorithm.name(), &m);
        }
    }
    print!("{}", by_alpha.render());
}

// ---------------------------------------------------------------------------
// Figure 14 — synthetic correlation and scalability
// ---------------------------------------------------------------------------

fn fig14a(options: &Options) {
    let mut report = FigureReport::new(
        "Figure 14(a) — run-time (ms) vs social/spatial correlation",
        "correlation",
    );
    // Keep the social distances of a foursquare-like graph (as the paper
    // does) but assign correlation-controlled locations around a handful of
    // anchor users; each anchor issues the query.
    let base = DatasetConfig::foursquare_like(options.scale.gowalla_users).generate();
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
                ANY_SERIES_FAILED.store(true, Ordering::Relaxed);
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

fn fig14b(options: &Options) {
    let mut report = FigureReport::new(
        "Figure 14(b) — run-time (ms) vs data size (forest-fire samples)",
        "users",
    );
    let base = DatasetConfig::foursquare_like(options.scale.foursquare_users).generate();
    let full = base.user_count();
    for fraction in [1.0 / 3.0, 2.0 / 3.0, 1.0] {
        let target = ((full as f64) * fraction) as usize;
        report.push_x(target);
        let (graph, mapping) = forest_fire_sample(base.graph(), target, 0.7, 0x14B);
        let locations: Vec<_> = mapping.iter().map(|&old| base.location(old)).collect();
        let Ok(dataset) = GeoSocialDataset::new(graph, locations) else {
            continue;
        };
        let bench = BenchDataset::from_dataset(
            format!("sample-{target}"),
            dataset,
            options.scale.queries,
            |b| b,
        );
        for algorithm in MAIN_ALGORITHMS {
            let m = measure(
                &bench.engine,
                algorithm,
                &bench.workload.users,
                DEFAULT_K,
                DEFAULT_ALPHA,
            );
            report.push_runtime(algorithm.name(), &m);
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
fn scale_sweep(options: &Options) {
    let mut config = ScaleSweepConfig::default().scaled_by(options.factor);
    if let Some(q) = options.queries {
        config.queries = q;
    }
    println!(
        "\n## Scale sweep — gowalla-like at {:?} users, shard counts {:?}, {} queries",
        config.user_counts, config.shard_counts, config.queries
    );
    let out = &options.out;
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

// ---------------------------------------------------------------------------
// Ablations beyond the paper's figures
// ---------------------------------------------------------------------------

fn ablation(options: &Options) {
    let dataset = DatasetConfig::gowalla_like(options.scale.gowalla_users).generate();

    let mut landmarks_report = FigureReport::new(
        "Ablation — run-time (ms) vs number of landmarks M (gowalla-like)",
        "M",
    );
    for m_landmarks in [2usize, 4, 8, 16, 32] {
        landmarks_report.push_x(m_landmarks);
        let bench = BenchDataset::from_dataset(
            "gowalla-like",
            dataset.clone(),
            options.scale.queries,
            |b| b.landmarks(m_landmarks),
        );
        for algorithm in [Algorithm::Tsa, Algorithm::Ais] {
            let m = measure(
                &bench.engine,
                algorithm,
                &bench.workload.users,
                DEFAULT_K,
                DEFAULT_ALPHA,
            );
            landmarks_report.push_runtime(algorithm.name(), &m);
        }
    }
    print!("{}", landmarks_report.render());

    let mut selection_report = FigureReport::new(
        "Ablation — run-time (ms) vs landmark selection strategy (gowalla-like)",
        "strategy",
    );
    for (label, selection) in [
        ("random", LandmarkSelection::Random),
        ("farthest", LandmarkSelection::FarthestFirst),
        ("high-degree", LandmarkSelection::HighestDegree),
    ] {
        selection_report.push_x(label);
        let bench = BenchDataset::from_dataset(
            "gowalla-like",
            dataset.clone(),
            options.scale.queries,
            |b| b.landmark_selection(selection),
        );
        for algorithm in [Algorithm::Tsa, Algorithm::Ais] {
            let m = measure(
                &bench.engine,
                algorithm,
                &bench.workload.users,
                DEFAULT_K,
                DEFAULT_ALPHA,
            );
            selection_report.push_runtime(algorithm.name(), &m);
        }
    }
    print!("{}", selection_report.render());
}
