//! The metrics registry: atomic counters and log-bucketed histograms with
//! exact `u64` counts.
//!
//! Handles ([`Counter`], [`Histogram`]) are `Arc`-backed and
//! cheap to clone; recording touches only atomics.  The registry itself is
//! a mutexed map consulted at **registration** time (get-or-register by
//! name + label set), never on the record path — callers that care about
//! the last nanosecond hold their handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: one per possible bit length of a `u64`
/// observation (bucket 0 holds exact zeros, bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A log-bucketed distribution of `u64` observations (typically latency
/// nanoseconds) with **exact** per-bucket counts: bucket `i` counts the
/// observations whose bit length is `i`, so every bucket spans one power
/// of two and no observation is ever dropped or clamped.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index of one observation: its bit length (0 for 0).
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index` — the largest value it counts.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A free-standing histogram (not registered anywhere).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`,
    /// ~584 years).
    pub fn observe_duration(&self, duration: std::time::Duration) {
        self.observe(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations so far (sum of the exact bucket counts).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values (wrapping only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.  `count` is derived from
    /// the bucket counts at read time, so a snapshot is always internally
    /// consistent (`count == Σ buckets`); `sum` may trail by in-flight
    /// observations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (index, bucket) in self.0.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((index as u8, n));
                count += n;
            }
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
            count,
        }
    }
}

/// A point-in-time histogram copy: sparse `(bucket index, exact count)`
/// pairs in ascending index order, plus the sum and total count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bit-length index, count)` pairs.
    pub buckets: Vec<(u8, u64)>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total observations (equals the sum of the bucket counts).
    pub count: u64,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `index` — the largest `u64` it
    /// counts (`0` for bucket 0, `2^i − 1` for bucket `i`).
    pub fn upper_bound(index: u8) -> u64 {
        bucket_upper_bound(index as usize)
    }

    /// Whether the snapshot is internally consistent: the total count
    /// equals the sum of the per-bucket counts, and the value sum is
    /// plausible for the populated buckets (zero only when every
    /// observation was zero).
    pub fn is_consistent(&self) -> bool {
        let bucket_total: u64 = self.buckets.iter().map(|&(_, n)| n).sum();
        if bucket_total != self.count {
            return false;
        }
        let nonzero_observations: u64 = self
            .buckets
            .iter()
            .filter(|&&(index, _)| index > 0)
            .map(|&(_, n)| n)
            .sum();
        nonzero_observations == 0 || self.sum > 0
    }

    /// Mean observed value, or 0.0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's point-in-time value inside a [`MetricSample`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A histogram snapshot.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The Prometheus type name of this value.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric at one label set, snapshotted — the unit a
/// registry exports, renders and ships across the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name (e.g. `ssrq_server_queries_total`).
    pub name: String,
    /// Label pairs in ascending key order.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Counter),
    Histogram(Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// One name's registered label sets (pairs in ascending key order), the
/// sets themselves in ascending order.
type Series = Vec<(Vec<(String, String)>, Entry)>;

/// A named collection of metrics: get-or-register by `(name, labels)`,
/// snapshot everything at once.
///
/// Registration takes a mutex; the returned handles record lock-free.
/// Looking up a metric that is already registered allocates nothing, so a
/// hook may look its handles up on every call.  Most of the system uses
/// the process-wide [`Registry::global`] so that one `Metrics` request (or
/// [`render_prometheus`](crate::render_prometheus)) sees every layer at
/// once, but registries are ordinary values and tests may build private
/// ones.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Series>>,
}

fn normalize_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    out.sort();
    out
}

/// Whether `stored` (normalized) and `labels` (in any order) are the same
/// label set, compared without normalizing `labels`.
fn same_labels(stored: &[(String, String)], labels: &[(&str, &str)]) -> bool {
    let holds = |k: &str, v: &str| stored.iter().any(|(sk, sv)| sk == k && sv == v);
    let given = |k: &str, v: &str| labels.iter().any(|&(lk, lv)| lk == k && lv == v);
    stored.len() == labels.len()
        && labels.iter().all(|&(k, v)| holds(k, v))
        && stored.iter().all(|(k, v)| given(k, v))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry every layer records into by default.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The metric registered under `(name, labels)`, registered as `make()`
    /// on first use; `kind` is the kind the caller expects.
    fn entry(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        make: fn() -> Entry,
    ) -> Entry {
        let mut entries = self.entries.lock().expect("metrics registry lock");
        if !entries.contains_key(name) {
            entries.insert(name.to_owned(), Series::new());
        }
        let series = entries.get_mut(name).expect("inserted above");
        let entry = match series.iter().position(|(set, _)| same_labels(set, labels)) {
            Some(at) => &series[at].1,
            None => {
                let set = normalize_labels(labels);
                let at = series.partition_point(|(other, _)| *other < set);
                series.insert(at, (set, make()));
                &series[at].1
            }
        };
        assert_eq!(
            entry.kind(),
            kind,
            "metric {name:?} is already registered as a {}",
            entry.kind()
        );
        entry.clone()
    }

    /// The counter registered under `(name, labels)`, created on first use.
    ///
    /// # Panics
    ///
    /// If the same name + label set is already registered as a different
    /// metric kind — a programming error, caught loudly.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.entry(name, labels, "counter", || Entry::Counter(Counter::new())) {
            Entry::Counter(c) => c,
            _ => unreachable!("kind asserted above"),
        }
    }

    /// The histogram registered under `(name, labels)`, created on first
    /// use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`], on a kind mismatch.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.entry(name, labels, "histogram", || {
            Entry::Histogram(Histogram::new())
        }) {
            Entry::Histogram(h) => h,
            _ => unreachable!("kind asserted above"),
        }
    }

    /// A point-in-time copy of every registered metric, ordered by name
    /// then label set.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let entries = self.entries.lock().expect("metrics registry lock");
        entries
            .iter()
            .flat_map(|(name, series)| {
                series.iter().map(move |(labels, entry)| MetricSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match entry {
                        Entry::Counter(c) => MetricValue::Counter(c.get()),
                        Entry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
            })
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        crate::expose::render_prometheus(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_atomically() {
        let registry = Registry::new();
        let c = registry.counter("events_total", &[("shard", "0")]);
        c.inc();
        c.add(4);
        // The same (name, labels) yields the same underlying counter,
        // label order notwithstanding.
        assert_eq!(registry.counter("events_total", &[("shard", "0")]).get(), 5);
    }

    #[test]
    fn histogram_buckets_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_snapshots_are_internally_consistent() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000, u64::MAX] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert!(snap.is_consistent());
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 5 + 5 + 1000).wrapping_add(u64::MAX)
        );
        // Sparse: only populated buckets appear, in ascending order.
        assert!(snap.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(snap.buckets.iter().all(|&(_, n)| n > 0));

        let broken = HistogramSnapshot {
            buckets: vec![(1, 2)],
            sum: 2,
            count: 3,
        };
        assert!(!broken.is_consistent());
        let zero_sum = HistogramSnapshot {
            buckets: vec![(3, 2)],
            sum: 0,
            count: 2,
        };
        assert!(!zero_sum.is_consistent(), "nonzero observations need a sum");
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        let registry = Registry::new();
        let h = registry.histogram("latency_ns", &[]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for v in 0..10_000u64 {
                        h.observe(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 40_000);
        assert!(snap.is_consistent());
    }

    #[test]
    fn a_hit_returns_the_registered_handle() {
        let registry = Registry::new();
        let labels = [("shard", "1"), ("algorithm", "ais")];
        let counter = registry.counter("events_total", &labels);
        let histogram = registry.histogram("latency_ns", &labels);
        let reversed = [labels[1], labels[0]];
        assert!(Arc::ptr_eq(
            &counter.0,
            &registry.counter("events_total", &reversed).0
        ));
        assert!(Arc::ptr_eq(
            &histogram.0,
            &registry.histogram("latency_ns", &labels).0
        ));
        // Another label set is another series, listed in label order.
        registry.counter("events_total", &[("algorithm", "ais"), ("shard", "0")]);
        registry.counter("events_total", &[]);
        let sets: Vec<_> = registry
            .snapshot()
            .into_iter()
            .filter(|sample| sample.name == "events_total")
            .map(|sample| sample.labels)
            .collect();
        assert_eq!(sets.len(), 3);
        assert!(sets.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_loud_error() {
        let registry = Registry::new();
        registry.counter("x", &[]);
        registry.histogram("x", &[]);
    }
}
