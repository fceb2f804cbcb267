//! Slow-query capture.
//!
//! A [`SlowQueryLog`] watches completed queries and retains, in a bounded
//! ring, the ones whose total duration crossed a configurable threshold —
//! together with their request shape (a caller-provided detail string) and
//! full span tree, so an offender can be dissected after the fact without
//! re-running it.

use crate::trace::QuerySpans;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// One retained offender: what ran, how long it took, and where the time
/// went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// The query's trace id (0 = untraced).
    pub trace_id: u64,
    /// Request shape, e.g. `"algorithm=ca k=10 users=3"`.
    pub detail: String,
    /// End-to-end duration in nanoseconds.
    pub total_ns: u64,
    /// The query's span tree.
    pub spans: QuerySpans,
}

impl SlowQuery {
    /// Renders the offender as text: a summary line plus the indented span
    /// tree.
    pub fn render(&self) -> String {
        format!(
            "slow query trace={:#018x} total_us={} {}\n{}",
            self.trace_id,
            self.total_ns / 1_000,
            self.detail,
            self.spans.render(),
        )
    }
}

/// A bounded ring of queries slower than a threshold.  `offer` is cheap
/// for fast queries: one comparison, no lock.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: u64,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQuery>>,
}

impl SlowQueryLog {
    /// A log capturing queries at or above `threshold`, retaining the most
    /// recent `capacity` offenders (at least 1).
    pub fn new(threshold: Duration, capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            threshold_ns: u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX),
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The capture threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Offers a completed query; it is retained only if `total_ns` reaches
    /// the threshold.  Returns whether it was captured.  `detail` is only
    /// invoked for offenders, so callers may format lazily.
    pub fn offer(
        &self,
        total_ns: u64,
        spans: &QuerySpans,
        detail: impl FnOnce() -> String,
    ) -> bool {
        if total_ns < self.threshold_ns {
            return false;
        }
        let entry = SlowQuery {
            trace_id: spans.trace_id,
            detail: detail(),
            total_ns,
            spans: spans.clone(),
        };
        let mut entries = self.entries.lock().expect("slow query log lock");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        true
    }

    /// The retained offenders, oldest first.
    pub fn recent(&self) -> Vec<SlowQuery> {
        self.entries
            .lock()
            .expect("slow query log lock")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(trace_id: u64) -> QuerySpans {
        QuerySpans {
            trace_id,
            spans: vec![],
        }
    }

    #[test]
    fn only_offenders_are_captured() {
        let log = SlowQueryLog::new(Duration::from_micros(10), 4);
        assert!(!log.offer(9_999, &spans(1), || unreachable!("fast query formatted")));
        assert!(log.offer(10_000, &spans(2), || "k=5".into()));
        let recent = log.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].trace_id, 2);
        assert_eq!(recent[0].detail, "k=5");
        assert!(recent[0].render().contains("total_us=10"));
    }

    #[test]
    fn ring_is_bounded() {
        let log = SlowQueryLog::new(Duration::ZERO, 2);
        for id in 1..=3u64 {
            log.offer(1, &spans(id), String::new);
        }
        let ids: Vec<u64> = log.recent().iter().map(|q| q.trace_id).collect();
        assert_eq!(ids, vec![2, 3]);
    }
}
