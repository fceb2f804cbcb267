//! Shared harness for the SSRQ experiment suite.
//!
//! The `experiments` binary and the Criterion benches both build on the
//! helpers here: dataset presets at benchmark scale, workload execution,
//! aggregation of run-time / pop-ratio measurements, and plain-text table
//! rendering that mirrors the rows and series of the paper's tables and
//! figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod measure;
pub mod memory;
pub mod obs;
pub mod report;
pub mod rpc;
pub mod scale;
pub mod sharding;
pub mod suite;

pub use json::Json;
pub use measure::{
    max_result_hops, measure_algorithm, measure_batch_qps, measure_first_result, measure_prefix,
    measure_sequential_qps, measure_throughput, AggregateMeasurement, LatencyMeasurement,
    ThroughputMeasurement,
};
pub use memory::{measure_memory, single_engine_breakdown, MemoryMeasurement};
pub use obs::{calibrate_metric_op, measure_obs, validate_obs_report, ObsMeasurement};
pub use report::FigureReport;
pub use rpc::{launch_cluster, sibling_shard_server, DeploymentConfig, ShardProcess};
pub use scale::{
    ais_budget_bytes, check_ais_budget, run_scale_sweep, validate_scale_report, ScaleSweepConfig,
};
pub use sharding::{measure_sharding, ShardingMeasurement};
pub use suite::{BenchDataset, Scale};
