//! Dependency-free observability for the SSRQ serving stack.
//!
//! Every layer of the system — the single-process engine, the in-process
//! sharded scatter, the multi-process wire serving tier — records into the
//! same three primitives:
//!
//! * **Metrics** ([`Registry`]) — atomic [`Counter`]s and log-bucketed
//!   [`Histogram`]s with exact `u64` counts.  Handles are cheap `Arc`
//!   clones; recording is a handful of atomic operations with no lock on
//!   the hot path.  A registry renders itself as
//!   Prometheus-style text ([`render_prometheus`]) and snapshots into
//!   plain data ([`MetricSample`]) that crosses process boundaries (the
//!   wire protocol's `Metrics` message) without losing exactness.
//! * **Traces** ([`Trace`]) — span trees with monotonic timestamps,
//!   identified by a `u64` trace id ([`next_trace_id`]) that rides the
//!   wire on `Query` frames so one query's spans can be correlated across
//!   the coordinator and every shard server it touched.  Completed trees
//!   ([`QuerySpans`]) accumulate in bounded [`SpanLog`]s for remote
//!   introspection.
//! * **Logs** ([`Logger`]) — structured `key=value` lines on stderr,
//!   levelled and silent by default, plus a [`SlowQueryLog`] that retains
//!   the request shape and span tree of queries over a configurable
//!   threshold.
//!
//! The crate depends on nothing but `std`, uses no wall-clock arithmetic
//! for durations (spans are measured against [`std::time::Instant`]), and
//! is safe to call from any thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod expose;
mod log;
mod metrics;
mod slowlog;
mod trace;

pub use expose::render_prometheus;
pub use log::{Level, Logger};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricSample, MetricValue, Registry, HISTOGRAM_BUCKETS,
};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use trace::{next_trace_id, ObsReport, QuerySpans, SpanId, SpanLog, SpanRecord, Trace};
