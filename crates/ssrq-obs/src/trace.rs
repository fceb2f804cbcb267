//! Span-based tracing with monotonic timestamps.
//!
//! A [`Trace`] collects the span tree of **one** query: every span records
//! its name, parent, and `[start, start + duration)` window as nanosecond
//! offsets from the trace's epoch (a [`std::time::Instant`] captured at
//! construction — never wall-clock arithmetic).  Spans open and close in
//! any order from any thread, so concurrent workers can record into their
//! query's trace.
//!
//! The trace id is a plain `u64` minted by [`next_trace_id`]; it crosses
//! process boundaries on the wire protocol's `Query` frames, and `0` is
//! reserved for "untraced" (what a frame without the field implies).
//! Completed trees ([`QuerySpans`]) accumulate in bounded [`SpanLog`]s,
//! which is what a server ships back on a `Metrics` request.

use crate::metrics::MetricSample;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Mints a process-unique, never-zero trace id: the process id in the high
/// bits, a monotone counter in the low bits — so ids from coordinator and
/// shard processes of one deployment never collide.
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
    (u64::from(std::process::id()) << 32) | count.max(1)
}

/// Index of a span within its trace; parents are referenced by index.
pub type SpanId = u32;

/// One completed (or still-open) span of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What the span measures (e.g. `"scatter"`, `"shard unix:/…"`).
    pub name: String,
    /// Index of the enclosing span, or `None` for a root.
    pub parent: Option<SpanId>,
    /// Start offset from the trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Span length in nanoseconds (0 while still open).
    pub duration_ns: u64,
}

impl SpanRecord {
    /// End offset from the trace epoch, in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }
}

/// The completed span tree of one query, ready to log, ship or render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpans {
    /// The query's trace id (0 = untraced).
    pub trace_id: u64,
    /// Spans in open order; parents always precede their children.
    pub spans: Vec<SpanRecord>,
}

impl QuerySpans {
    /// Total duration: the latest span end observed (roots included).
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(SpanRecord::end_ns).max().unwrap_or(0)
    }

    /// Renders the tree as indented text, one span per line:
    /// `name start_us..end_us (duration_us)`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "trace {:#018x}", self.trace_id);
        for (index, span) in self.spans.iter().enumerate() {
            let mut depth = 0usize;
            let mut parent = span.parent;
            while let Some(p) = parent {
                depth += 1;
                parent = self.spans.get(p as usize).and_then(|s| s.parent);
                if depth > self.spans.len() {
                    break; // cyclic parents cannot happen via Trace, but never loop forever
                }
            }
            let _ = writeln!(
                out,
                "{:indent$}{} {}us..{}us ({}us) [{index}]",
                "",
                span.name,
                span.start_ns / 1_000,
                span.end_ns() / 1_000,
                span.duration_ns / 1_000,
                indent = 2 * (depth + 1),
            );
        }
        out
    }
}

/// A live trace being recorded: open spans, close them, then
/// [`finish`](Trace::finish) into a [`QuerySpans`].
#[derive(Debug)]
pub struct Trace {
    trace_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Trace {
    /// A fresh trace under `trace_id`, with its epoch at "now".
    pub fn new(trace_id: u64) -> Trace {
        Trace {
            trace_id,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// This trace's id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Trace::close`].  The
    /// returned id is stable immediately, so children may reference it
    /// before the parent closes.
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("trace span lock");
        spans.push(SpanRecord {
            name: name.to_owned(),
            parent,
            start_ns,
            duration_ns: 0,
        });
        (spans.len() - 1) as SpanId
    }

    /// Closes span `id`, fixing its duration at "now − start".  Closing an
    /// already-closed span extends it (last close wins); closing an
    /// unknown id is a no-op.
    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("trace span lock");
        if let Some(span) = spans.get_mut(id as usize) {
            span.duration_ns = now.saturating_sub(span.start_ns);
        }
    }

    /// Records a closed span from explicit offsets — for re-parenting
    /// measurements taken outside the trace (e.g. a server-reported
    /// per-phase timing).
    pub fn record(&self, name: &str, parent: Option<SpanId>, start_ns: u64, duration_ns: u64) {
        self.spans
            .lock()
            .expect("trace span lock")
            .push(SpanRecord {
                name: name.to_owned(),
                parent,
                start_ns,
                duration_ns,
            });
    }

    /// Times `f` as a span under `parent`.
    pub fn time<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Consumes the trace into its completed span tree.
    pub fn finish(self) -> QuerySpans {
        QuerySpans {
            trace_id: self.trace_id,
            spans: self.spans.into_inner().expect("trace span lock"),
        }
    }
}

/// A bounded ring of recent completed span trees — what a shard server
/// retains per query and ships back on a `Metrics` request.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    entries: Mutex<std::collections::VecDeque<QuerySpans>>,
}

impl SpanLog {
    /// A log retaining the most recent `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            capacity: capacity.max(1),
            entries: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Appends one completed query's spans, evicting the oldest entry when
    /// full.
    pub fn push(&self, spans: QuerySpans) {
        let mut entries = self.entries.lock().expect("span log lock");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(spans);
    }

    /// The retained entries, oldest first.
    pub fn recent(&self) -> Vec<QuerySpans> {
        self.entries
            .lock()
            .expect("span log lock")
            .iter()
            .cloned()
            .collect()
    }
}

/// Everything one process exposes for introspection: its metric snapshot
/// plus its recent span trees.  This is the payload of the wire protocol's
/// `Metrics` response and of `shard-server --introspect`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// The process's registry snapshot.
    pub metrics: Vec<MetricSample>,
    /// Recent completed query span trees, oldest first.
    pub spans: Vec<QuerySpans>,
}

impl ObsReport {
    /// The counter sample named `name` whose labels include `labels`, if
    /// any — convenience for validators.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.metrics.iter().find_map(|sample| {
            let matches = sample.name == name
                && labels
                    .iter()
                    .all(|&(k, v)| sample.labels.iter().any(|(sk, sv)| sk == k && sv == v));
            match (&sample.value, matches) {
                (crate::metrics::MetricValue::Counter(v), true) => Some(*v),
                _ => None,
            }
        })
    }

    /// Whether any retained span tree carries `trace_id`.
    pub fn has_trace(&self, trace_id: u64) -> bool {
        self.spans.iter().any(|q| q.trace_id == trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(a >> 32, u64::from(std::process::id()));
    }

    #[test]
    fn spans_nest_and_order_sanely() {
        let trace = Trace::new(42);
        let root = trace.open("query", None);
        let child = trace.open("scatter", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.close(child);
        trace.close(root);
        let spans = trace.finish();
        assert_eq!(spans.trace_id, 42);
        assert_eq!(spans.spans.len(), 2);
        let (root, child) = (&spans.spans[0], &spans.spans[1]);
        assert_eq!(child.parent, Some(0));
        assert!(child.start_ns >= root.start_ns);
        assert!(child.end_ns() <= root.end_ns(), "child closes before root");
        assert!(root.duration_ns >= 2_000_000);
        assert!(spans.total_ns() >= root.duration_ns);
        let rendered = spans.render();
        assert!(rendered.contains("query"));
        assert!(rendered.contains("    scatter"), "children indent deeper");
    }

    #[test]
    fn concurrent_span_recording_is_safe() {
        let trace = Trace::new(7);
        let root = trace.open("query", None);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let trace = &trace;
                scope.spawn(move || {
                    let id = trace.open(&format!("shard {i}"), Some(root));
                    trace.close(id);
                });
            }
        });
        trace.close(root);
        assert_eq!(trace.finish().spans.len(), 5);
    }

    #[test]
    fn span_log_is_bounded() {
        let log = SpanLog::new(2);
        for id in 1..=3u64 {
            log.push(QuerySpans {
                trace_id: id,
                spans: vec![],
            });
        }
        let recent = log.recent();
        assert_eq!(
            recent.iter().map(|q| q.trace_id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        let report = ObsReport {
            metrics: vec![],
            spans: recent,
        };
        assert!(report.has_trace(3));
        assert!(!report.has_trace(1));
    }
}
