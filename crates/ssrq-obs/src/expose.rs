//! Prometheus-style text exposition of metric snapshots.
//!
//! The writer follows the Prometheus text format: a `# TYPE` line per
//! metric name, then one sample line per label set, histograms expanded
//! into cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
//! Label values use the same escaping discipline as the bench JSON writer
//! (backslash, quote and control characters escaped; everything else
//! passes through), so a hostile label value can never break a line or
//! smuggle a fake sample.

use crate::metrics::{HistogramSnapshot, MetricSample, MetricValue};
use std::fmt::Write;

/// Escapes a label value for a Prometheus sample line: backslash, double
/// quote and newline get backslash escapes, other control characters are
/// spelled as `\u{..}` — the same characters the bench JSON writer
/// refuses to emit raw.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    if let Some((key, value)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    out.push('}');
}

fn write_histogram(out: &mut String, sample: &MetricSample, snapshot: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for &(index, count) in &snapshot.buckets {
        cumulative += count;
        let le = HistogramSnapshot::upper_bound(index).to_string();
        let _ = write!(out, "{}_bucket", sample.name);
        write_labels(out, &sample.labels, Some(("le", &le)));
        let _ = writeln!(out, " {cumulative}");
    }
    let _ = write!(out, "{}_bucket", sample.name);
    write_labels(out, &sample.labels, Some(("le", "+Inf")));
    let _ = writeln!(out, " {}", snapshot.count);
    let _ = write!(out, "{}_sum", sample.name);
    write_labels(out, &sample.labels, None);
    let _ = writeln!(out, " {}", snapshot.sum);
    let _ = write!(out, "{}_count", sample.name);
    write_labels(out, &sample.labels, None);
    let _ = writeln!(out, " {}", snapshot.count);
}

/// Renders metric samples in the Prometheus text exposition format.
///
/// Samples must arrive grouped by name (as [`Registry::snapshot`](crate::Registry::snapshot)
/// produces them); each name gets one `# TYPE` comment before its series.
pub fn render_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for sample in samples {
        if last_name != Some(sample.name.as_str()) {
            let _ = writeln!(out, "# TYPE {} {}", sample.name, sample.value.kind());
            last_name = Some(sample.name.as_str());
        }
        match &sample.value {
            MetricValue::Counter(v) => {
                out.push_str(&sample.name);
                write_labels(&mut out, &sample.labels, None);
                let _ = writeln!(out, " {v}");
            }
            MetricValue::Histogram(snapshot) => write_histogram(&mut out, sample, snapshot),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn renders_counters_and_histograms() {
        let registry = Registry::new();
        registry.counter("queries_total", &[("shard", "0")]).add(3);
        registry.counter("queries_total", &[("shard", "1")]).add(4);
        let h = registry.histogram("latency_ns", &[]);
        h.observe(1);
        h.observe(3);
        h.observe(3);
        let text = registry.render();
        assert!(text.contains("# TYPE queries_total counter\n"));
        assert!(text.contains("queries_total{shard=\"0\"} 3\n"));
        assert!(text.contains("queries_total{shard=\"1\"} 4\n"));
        // One TYPE line per name, not per label set.
        assert_eq!(text.matches("# TYPE queries_total").count(), 1);
        // Cumulative buckets: le=1 sees 1 observation, le=3 sees all 3.
        assert!(text.contains("latency_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("latency_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_ns_sum 7\n"));
        assert!(text.contains("latency_ns_count 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_label_value("\u{1}"), "\\u0001");
        let registry = Registry::new();
        registry
            .counter("c", &[("endpoint", "unix:/tmp/a \"b\".sock")])
            .inc();
        let text = registry.render();
        assert!(text.contains("c{endpoint=\"unix:/tmp/a \\\"b\\\".sock\"} 1\n"));
    }
}
