//! The 10k→1M scale sweep behind `BENCH_scale.json`.
//!
//! One sweep point generates a gowalla-like dataset at a target user count,
//! records the shared-graph footprint under both CSR layouts (the serving
//! substrate itself runs on the compressed layout — both decode
//! bit-identically), measures the unsharded engine (build time, sequential
//! q/s, first-result latency, memory breakdown with AIS occupancy), and
//! then measures the sharded scatter-gather layer (spatial partitioning,
//! 16 cells per axis) at several shard counts, with a per-shard memory
//! breakdown.
//!
//! Every AIS index the sweep touches is checked against the
//! occupancy-proportional budget of [`ais_budget_bytes`]: per-shard AIS
//! bytes must scale with the summaries a shard actually materialises (plus
//! its resident located users), never with the grid geometry — the property
//! the sparse AIS layout exists to provide.

use crate::json::Json;
use crate::measure::requests_for;
use crate::{measure_first_result, measure_sequential_qps};
use ssrq_core::{Algorithm, EngineMemory, GeoSocialDataset, GeoSocialEngine};
use ssrq_data::{DatasetConfig, QueryWorkload};
use ssrq_graph::CsrLayout;
use ssrq_shard::{Partitioning, ShardedEngine};
use std::time::Instant;

/// Fixed byte allowance of an AIS index over an **empty** shard: grid
/// skeleton, empty hash maps, the one shared empty summary.  Pre-refactor
/// this was ~2 MiB of dense per-cell summaries regardless of residency.
pub const AIS_EMPTY_BUDGET_BYTES: usize = 16 * 1024;

/// Byte allowance per grid node carrying a materialised social summary
/// (dense summary slot, slot-map entry, min/max landmark vectors).
pub const AIS_PER_CELL_BUDGET_BYTES: usize = 1024;

/// Byte allowance per resident located user (grid position entry plus its
/// share of the leaf bucket).
pub const AIS_PER_ITEM_BUDGET_BYTES: usize = 160;

/// The occupancy-proportional AIS budget: what an index holding
/// `occupied_cells` materialised summaries over `located_items` resident
/// users may cost, independent of the total grid-cell count.
pub fn ais_budget_bytes(occupied_cells: usize, located_items: usize) -> usize {
    AIS_EMPTY_BUDGET_BYTES
        + occupied_cells * AIS_PER_CELL_BUDGET_BYTES
        + located_items * AIS_PER_ITEM_BUDGET_BYTES
}

/// Checks one engine's memory breakdown against [`ais_budget_bytes`].
///
/// # Errors
///
/// Returns a description of the violation when the AIS bytes exceed the
/// occupancy-proportional budget.
pub fn check_ais_budget(
    label: &str,
    memory: &EngineMemory,
    located_items: usize,
) -> Result<(), String> {
    let budget = ais_budget_bytes(memory.ais_occupied_cells, located_items);
    if memory.ais_bytes > budget {
        return Err(format!(
            "{label}: AIS index costs {} bytes, over the occupancy budget of {budget} \
             ({} occupied of {} cells, {located_items} located residents)",
            memory.ais_bytes, memory.ais_occupied_cells, memory.ais_total_cells
        ));
    }
    Ok(())
}

/// Configuration of one scale sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSweepConfig {
    /// Target user counts, one sweep point each.
    pub user_counts: Vec<usize>,
    /// Shard counts measured at every point.
    pub shard_counts: Vec<usize>,
    /// Queries per measurement.
    pub queries: usize,
    /// Worker threads for the sharded batch runs.
    pub threads: usize,
    /// Result size `k` of the workload queries.
    pub k: usize,
    /// Preference parameter `alpha` of the workload queries.
    pub alpha: f64,
}

impl Default for ScaleSweepConfig {
    fn default() -> Self {
        ScaleSweepConfig {
            user_counts: vec![10_000, 50_000, 200_000, 1_000_000],
            shard_counts: vec![2, 4, 8],
            queries: 32,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            k: 10,
            alpha: 0.3,
        }
    }
}

impl ScaleSweepConfig {
    /// Multiplies every user count by `factor` (floor 100 users per point;
    /// points that collapse onto each other are deduplicated).
    pub fn scaled_by(mut self, factor: f64) -> Self {
        let f = factor.max(0.000_1);
        for users in &mut self.user_counts {
            *users = (((*users as f64) * f) as usize).max(100);
        }
        self.user_counts.dedup();
        self
    }
}

/// Runs the sweep and returns the `BENCH_scale.json` document.
///
/// Panics if any engine violates the occupancy-proportional AIS budget —
/// a sweep that would persist an artifact contradicting the memory model
/// must fail loudly instead.
pub fn run_scale_sweep(config: &ScaleSweepConfig) -> Json {
    let scales = config
        .user_counts
        .iter()
        .map(|&users| measure_scale_point(config, users))
        .collect();
    Json::Obj(vec![
        ("schema_version".into(), Json::num(1)),
        ("dataset".into(), Json::str("gowalla-like")),
        (
            "generated_by".into(),
            Json::str("cargo run --release -p ssrq-bench --bin experiments -- scale"),
        ),
        ("queries".into(), Json::num(config.queries)),
        ("threads".into(), Json::num(config.threads)),
        ("k".into(), Json::num(config.k)),
        ("alpha".into(), Json::Num(config.alpha)),
        (
            "ais_budget".into(),
            Json::Obj(vec![
                ("empty_bytes".into(), Json::num(AIS_EMPTY_BUDGET_BYTES)),
                (
                    "per_occupied_cell_bytes".into(),
                    Json::num(AIS_PER_CELL_BUDGET_BYTES),
                ),
                (
                    "per_located_item_bytes".into(),
                    Json::num(AIS_PER_ITEM_BUDGET_BYTES),
                ),
            ]),
        ),
        ("scales".into(), Json::Arr(scales)),
    ])
}

fn measure_scale_point(config: &ScaleSweepConfig, users: usize) -> Json {
    let generate_started = Instant::now();
    let preset = DatasetConfig::gowalla_like(users);
    let graph = preset.generate_graph();
    let mut locations = preset.generate_social_locations(&graph);
    let generate_secs = generate_started.elapsed().as_secs_f64();
    if locations.iter().flatten().count() == 0 {
        if let Some(slot) = locations.first_mut() {
            *slot = Some(ssrq_spatial::Point::new(0.5, 0.5));
        }
    }

    let standard_bytes = graph.approx_heap_bytes();
    let compress_started = Instant::now();
    let compressed = graph.with_layout(CsrLayout::Compressed);
    let compress_secs = compress_started.elapsed().as_secs_f64();
    let compressed_bytes = compressed.approx_heap_bytes();
    let edges = graph.edge_count();
    drop(graph);

    // Everything downstream — norms, landmarks, every query — runs on the
    // compressed layout; the layout-equivalence tests guarantee identical
    // results, this run demonstrates it carries the serving path at scale.
    let dataset =
        GeoSocialDataset::new(compressed, locations).expect("generated dataset is well-formed");
    let workload = QueryWorkload::generate(&dataset, config.queries, 0x5CA1E);

    let build_started = Instant::now();
    let engine = GeoSocialEngine::builder(dataset.clone())
        .build()
        .expect("engine builds");
    let build_secs = build_started.elapsed().as_secs_f64();
    let memory = engine.memory_breakdown();
    let located = dataset.located_user_count();
    if let Err(violation) = check_ais_budget(&format!("single engine @{users}"), &memory, located) {
        panic!("{violation}");
    }
    let (_, qps) = measure_sequential_qps(
        &engine,
        Algorithm::Ais,
        &workload.users,
        config.k,
        config.alpha,
    );
    let first = measure_first_result(
        &engine,
        Algorithm::Ais,
        &workload.users,
        config.k,
        config.alpha,
    );
    drop(engine);

    let sharded = config
        .shard_counts
        .iter()
        .map(|&shards| measure_sharded_point(config, &dataset, &workload, shards))
        .collect();

    Json::Obj(vec![
        ("users".into(), Json::num(users)),
        ("edges".into(), Json::num(edges)),
        ("located_users".into(), Json::num(located)),
        ("generate_secs".into(), Json::Num(generate_secs)),
        (
            "graph".into(),
            Json::Obj(vec![
                ("standard_bytes".into(), Json::num(standard_bytes)),
                ("compressed_bytes".into(), Json::num(compressed_bytes)),
                (
                    "compression_ratio".into(),
                    Json::Num(compressed_bytes as f64 / standard_bytes.max(1) as f64),
                ),
                ("compress_secs".into(), Json::Num(compress_secs)),
            ]),
        ),
        (
            "single".into(),
            Json::Obj(vec![
                ("build_secs".into(), Json::Num(build_secs)),
                ("qps".into(), Json::Num(qps)),
                (
                    "first_result_ms".into(),
                    Json::Num(first.avg_prefix.as_secs_f64() * 1e3),
                ),
                (
                    "full_query_ms".into(),
                    Json::Num(first.avg_full.as_secs_f64() * 1e3),
                ),
                ("memory".into(), memory_json(&memory)),
            ]),
        ),
        ("sharded".into(), Json::Arr(sharded)),
    ])
}

fn measure_sharded_point(
    config: &ScaleSweepConfig,
    dataset: &GeoSocialDataset,
    workload: &QueryWorkload,
    shards: usize,
) -> Json {
    let build_started = Instant::now();
    let engine = ShardedEngine::builder(dataset.clone())
        .shards(shards)
        .partitioning(Partitioning::SpatialGrid { cells_per_axis: 16 })
        .build()
        .expect("sharded engine builds");
    let build_secs = build_started.elapsed().as_secs_f64();

    let batch = requests_for(&workload.users, config.k, config.alpha, Algorithm::Ais);
    let run_started = Instant::now();
    let results = engine.run_batch_with_threads(&batch, config.threads);
    let secs = run_started.elapsed().as_secs_f64();
    let ok = results.iter().filter(|r| r.is_ok()).count();

    let occupancy = engine.occupancy();
    let mut per_shard_bytes = 0usize;
    let mut detail = Vec::new();
    for (s, &residents) in occupancy.iter().enumerate() {
        let shard = engine.shard_engine(s);
        let memory = shard.memory_breakdown();
        let located = shard.dataset().located_user_count();
        if let Err(violation) = check_ais_budget(
            &format!(
                "spatial x{shards} shard {s} @{} users",
                dataset.user_count()
            ),
            &memory,
            located,
        ) {
            panic!("{violation}");
        }
        per_shard_bytes += memory.per_engine_bytes();
        detail.push(Json::Obj(vec![
            ("shard".into(), Json::num(s)),
            ("resident_located_users".into(), Json::num(residents)),
            ("locations_bytes".into(), Json::num(memory.locations_bytes)),
            ("ais_bytes".into(), Json::num(memory.ais_bytes)),
            (
                "ais_occupied_cells".into(),
                Json::num(memory.ais_occupied_cells),
            ),
            ("ais_total_cells".into(), Json::num(memory.ais_total_cells)),
            (
                "ais_occupancy_ratio".into(),
                Json::Num(memory.ais_occupancy_ratio()),
            ),
        ]));
    }
    let shared_bytes = engine.shard_engine(0).memory_breakdown().shared_bytes();

    Json::Obj(vec![
        ("policy".into(), Json::str("spatial")),
        ("shards".into(), Json::num(shards)),
        ("build_secs".into(), Json::Num(build_secs)),
        ("batch_qps".into(), Json::Num(ok as f64 / secs.max(1e-9))),
        ("queries_ok".into(), Json::num(ok)),
        ("shared_bytes".into(), Json::num(shared_bytes)),
        ("per_shard_bytes".into(), Json::num(per_shard_bytes)),
        ("shards_detail".into(), Json::Arr(detail)),
    ])
}

fn memory_json(memory: &EngineMemory) -> Json {
    Json::Obj(vec![
        ("graph_bytes".into(), Json::num(memory.graph_bytes)),
        ("landmarks_bytes".into(), Json::num(memory.landmarks_bytes)),
        ("locations_bytes".into(), Json::num(memory.locations_bytes)),
        ("ais_bytes".into(), Json::num(memory.ais_bytes)),
        (
            "ais_occupied_cells".into(),
            Json::num(memory.ais_occupied_cells),
        ),
        ("ais_total_cells".into(), Json::num(memory.ais_total_cells)),
        (
            "ais_occupancy_ratio".into(),
            Json::Num(memory.ais_occupancy_ratio()),
        ),
    ])
}

/// Validates a parsed `BENCH_scale.json` document: schema shape, the
/// compressed-vs-standard graph relation, and the occupancy-proportional
/// AIS budget of every shard — recomputed from the parsed numbers, so the
/// artifact is checked as readers will see it, not as the writer meant it.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_scale_report(report: &Json) -> Result<(), String> {
    if report.get("schema_version").and_then(Json::as_usize) != Some(1) {
        return Err("schema_version missing or not 1".into());
    }
    let scales = report
        .get("scales")
        .and_then(Json::as_array)
        .ok_or("`scales` array missing")?;
    if scales.is_empty() {
        return Err("`scales` is empty".into());
    }
    for scale in scales {
        let users = scale
            .get("users")
            .and_then(Json::as_usize)
            .ok_or("scale point without `users`")?;
        let graph = scale.get("graph").ok_or("scale point without `graph`")?;
        let standard = graph
            .get("standard_bytes")
            .and_then(Json::as_usize)
            .ok_or("graph without `standard_bytes`")?;
        let compressed = graph
            .get("compressed_bytes")
            .and_then(Json::as_usize)
            .ok_or("graph without `compressed_bytes`")?;
        if compressed >= standard {
            return Err(format!(
                "@{users} users: compressed graph ({compressed} B) not below standard ({standard} B)"
            ));
        }
        let single_memory = scale
            .get("single")
            .and_then(|s| s.get("memory"))
            .ok_or("scale point without `single.memory`")?;
        check_parsed_ais_budget(
            &format!("single engine @{users}"),
            single_memory,
            scale.get("located_users").and_then(Json::as_usize),
        )?;
        let sharded = scale
            .get("sharded")
            .and_then(Json::as_array)
            .ok_or("scale point without `sharded`")?;
        if sharded.is_empty() {
            return Err(format!("@{users} users: no sharded configurations"));
        }
        for run in sharded {
            let policy = run.get("policy").and_then(Json::as_str).unwrap_or("?");
            let shards = run.get("shards").and_then(Json::as_usize).unwrap_or(0);
            let detail = run
                .get("shards_detail")
                .and_then(Json::as_array)
                .ok_or("sharded run without `shards_detail`")?;
            if detail.len() != shards {
                return Err(format!(
                    "@{users} users {policy}: {} detail rows for {shards} shards",
                    detail.len()
                ));
            }
            for row in detail {
                check_parsed_ais_budget(
                    &format!("@{users} users {policy} x{shards}"),
                    row,
                    row.get("resident_located_users").and_then(Json::as_usize),
                )?;
            }
        }
    }
    Ok(())
}

fn check_parsed_ais_budget(
    label: &str,
    memory: &Json,
    located: Option<usize>,
) -> Result<(), String> {
    let ais_bytes = memory
        .get("ais_bytes")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("{label}: `ais_bytes` missing"))?;
    let occupied = memory
        .get("ais_occupied_cells")
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("{label}: `ais_occupied_cells` missing"))?;
    let located = located.ok_or_else(|| format!("{label}: located-user count missing"))?;
    let budget = ais_budget_bytes(occupied, located);
    if ais_bytes > budget {
        return Err(format!(
            "{label}: AIS bytes {ais_bytes} exceed occupancy budget {budget} \
             ({occupied} occupied cells, {located} located residents)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_occupancy_proportional() {
        assert_eq!(ais_budget_bytes(0, 0), AIS_EMPTY_BUDGET_BYTES);
        assert!(ais_budget_bytes(10, 100) > ais_budget_bytes(10, 0));
        let over = EngineMemory {
            ais_bytes: AIS_EMPTY_BUDGET_BYTES + 1,
            ..EngineMemory::default()
        };
        assert!(check_ais_budget("test", &over, 0).is_err());
        assert!(check_ais_budget("test", &EngineMemory::default(), 0).is_ok());
    }

    #[test]
    fn tiny_sweep_produces_a_valid_report() {
        let config = ScaleSweepConfig {
            user_counts: vec![300, 600],
            shard_counts: vec![2],
            queries: 4,
            threads: 2,
            k: 5,
            alpha: 0.3,
        };
        let report = run_scale_sweep(&config);
        // The report must survive its own serialisation cycle.
        let parsed = Json::parse(&report.render()).expect("report re-parses");
        assert_eq!(parsed, report);
        validate_scale_report(&parsed).expect("report validates");
        let scales = parsed.get("scales").and_then(Json::as_array).unwrap();
        assert_eq!(scales.len(), 2);
        let first = &scales[0];
        assert_eq!(first.get("users").and_then(Json::as_usize), Some(300));
        // One shard count, one row.
        assert_eq!(
            first
                .get("sharded")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        assert!(
            first
                .get("single")
                .and_then(|s| s.get("qps"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn the_checked_in_scale_report_validates() {
        let report = Json::parse(include_str!("../../../BENCH_scale.json"))
            .expect("BENCH_scale.json parses");
        validate_scale_report(&report).expect("BENCH_scale.json validates");
        for scale in report.get("scales").and_then(Json::as_array).unwrap() {
            for run in scale.get("sharded").and_then(Json::as_array).unwrap() {
                assert_eq!(run.get("policy").and_then(Json::as_str), Some("spatial"));
            }
        }
    }

    #[test]
    fn scaled_by_shrinks_and_floors_the_user_counts() {
        let config = ScaleSweepConfig::default().scaled_by(0.01);
        assert_eq!(config.user_counts, vec![100, 500, 2_000, 10_000]);
        let floor = ScaleSweepConfig::default().scaled_by(0.000_001);
        assert_eq!(floor.user_counts, vec![100]);
    }

    #[test]
    fn validation_rejects_budget_violations() {
        let report = Json::Obj(vec![
            ("schema_version".into(), Json::num(1)),
            (
                "scales".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("users".into(), Json::num(100)),
                    ("located_users".into(), Json::num(0)),
                    (
                        "graph".into(),
                        Json::Obj(vec![
                            ("standard_bytes".into(), Json::num(1000)),
                            ("compressed_bytes".into(), Json::num(500)),
                        ]),
                    ),
                    (
                        "single".into(),
                        Json::Obj(vec![(
                            "memory".into(),
                            Json::Obj(vec![
                                ("ais_bytes".into(), Json::num(AIS_EMPTY_BUDGET_BYTES + 1)),
                                ("ais_occupied_cells".into(), Json::num(0)),
                            ]),
                        )]),
                    ),
                    ("sharded".into(), Json::Arr(vec![])),
                ])]),
            ),
        ]);
        let err = validate_scale_report(&report).unwrap_err();
        assert!(err.contains("exceed occupancy budget"), "{err}");
    }
}
