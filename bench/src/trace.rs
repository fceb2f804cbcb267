//! The benchmark's own span recorder.
//!
//! Spans are recorded from the harness, around each call it makes into a
//! layer — nothing in `crates/*` is instrumented for it.  Where a layer
//! hands back its own timing (the coordinator's `QuerySpans`, a scatter's
//! per-shard `ShardStats`), those are attached as children of the call's
//! span.  Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers (`"op.query"`, `"core.build"`, …).
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one operation (0 = set-up).
    pub op: u64,
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// An in-memory span log; a disabled recorder records nothing and costs a
/// branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or drops them.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        Some(self.push(name, parent, op, now, now))
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a completed span whose interval was measured elsewhere.
    pub fn attach(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        start_ns: u64,
        duration_ns: u64,
    ) -> Option<SpanId> {
        self.enabled
            .then(|| self.push(name, parent, op, start_ns, start_ns + duration_ns))
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children — the
    /// arms of a parallel scatter — are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                children[parent as usize].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in intervals {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut totals: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += self_ns;
        }
        totals
    }

    /// Sum of the durations of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes the per-name summary and every span as one JSON document.
    ///
    /// # Errors
    ///
    /// The I/O error of creating the directory or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"summary\":{{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                if i == 0 { "" } else { "," },
                crate::json_escape(&span.name),
                span.op,
                span.start_ns,
                span.end_ns,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let root = r.attach("root", None, 1, 0, 100);
        r.attach("a", root, 1, 10, 30); // 10..40
        r.attach("b", root, 1, 30, 30); // 30..60 overlaps a
        r.attach("c", root, 1, 90, 50); // 90..140 clipped to 90..100
        let own = r.self_times_ns();
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 30);
        let totals = r.totals();
        assert_eq!(totals["root"].count, 1);
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 40);
        assert_eq!(r.total_ns("b"), 30);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let id = r.open("x", None, 0);
        r.close(id);
        assert_eq!(r.attach("y", None, 0, 0, 5), None);
        assert_eq!(r.time("z", None, 0, || 7), 7);
        assert!(r.spans().is_empty());
    }
}
