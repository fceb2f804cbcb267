//! Shared harness for the SSRQ experiment suite.
//!
//! The `experiments` binary builds on the helpers here: dataset presets at
//! benchmark scale, workload execution, aggregation of run-time /
//! pop-ratio measurements, plain-text table rendering that mirrors the
//! rows and series of the paper's tables and figures, and the scale sweep
//! behind `BENCH_scale.json`.  [`rpc`] launches the `shard-server`
//! processes of the multi-process agreement suite.  Performance gates live
//! in the repository benchmark (`bench/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod json;
pub mod measure;
pub mod report;
pub mod rpc;
pub mod scale;
pub mod suite;

pub use json::Json;
pub use measure::{
    max_result_hops, measure_algorithm, measure_first_result, measure_prefix,
    measure_sequential_qps, AggregateMeasurement, LatencyMeasurement,
};
pub use report::FigureReport;
pub use rpc::{launch_cluster, DeploymentConfig, ShardProcess};
pub use scale::{
    ais_budget_bytes, check_ais_budget, run_scale_sweep, validate_scale_report, ScaleSweepConfig,
};
pub use suite::{BenchDataset, Scale};
