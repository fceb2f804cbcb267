//! Plain-text rendering of experiment results in the shape of the paper's
//! tables and figures (one row per x-axis value, one column per series).

use crate::AggregateMeasurement;

/// A figure-like result table: a named x-axis, one named series per
/// algorithm/variant, and one measurement per (x, series) cell.
#[derive(Debug, Clone, Default)]
pub struct FigureReport {
    /// Figure identifier, e.g. "Figure 8(a) — run-time vs k (gowalla-like)".
    pub title: String,
    /// Label of the x-axis (e.g. "k", "alpha", "s").
    pub x_label: String,
    /// x-axis values, formatted.
    pub x_values: Vec<String>,
    /// Series: (name, one cell per x value).
    pub series: Vec<(String, Vec<String>)>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        FigureReport {
            title: title.into(),
            x_label: x_label.into(),
            ..FigureReport::default()
        }
    }

    /// Appends an x-axis value.
    pub fn push_x(&mut self, value: impl ToString) {
        self.x_values.push(value.to_string());
    }

    /// Appends a cell to the named series (creating the series on first
    /// use).
    pub fn push_cell(&mut self, series: &str, value: impl ToString) {
        if let Some((_, cells)) = self.series.iter_mut().find(|(name, _)| name == series) {
            cells.push(value.to_string());
        } else {
            self.series
                .push((series.to_string(), vec![value.to_string()]));
        }
    }

    /// Convenience: record the run-time (ms) of a measurement — `failed`
    /// when no query of it succeeded, so an all-failed series never reads
    /// as the fastest.
    pub fn push_runtime(&mut self, series: &str, m: &AggregateMeasurement) {
        self.push_measured(series, m, format!("{:.3}", m.avg_millis()));
    }

    /// Convenience: record the pop ratio of a measurement (`failed` as in
    /// [`FigureReport::push_runtime`]).
    pub fn push_pop_ratio(&mut self, series: &str, m: &AggregateMeasurement) {
        self.push_measured(series, m, format!("{:.4}", m.pop_ratio));
    }

    fn push_measured(&mut self, series: &str, m: &AggregateMeasurement, value: String) {
        let cell = if m.queries == 0 { "failed" } else { &value };
        self.push_cell(series, cell);
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        // Header.
        out.push_str(&format!("{:<12}", self.x_label));
        for (name, _) in &self.series {
            out.push_str(&format!(" {:>12}", name));
        }
        out.push('\n');
        out.push_str(&"-".repeat(12 + 13 * self.series.len()));
        out.push('\n');
        for (row, x) in self.x_values.iter().enumerate() {
            out.push_str(&format!("{:<12}", x));
            for (_, cells) in &self.series {
                let cell = cells.get(row).map(String::as_str).unwrap_or("-");
                out.push_str(&format!(" {:>12}", cell));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_measurement() -> AggregateMeasurement {
        AggregateMeasurement {
            queries: 10,
            avg_runtime: Duration::from_micros(1500),
            pop_ratio: 0.0421,
            avg_evaluated: 12.0,
            avg_distance_calls: 15.0,
        }
    }

    #[test]
    fn report_renders_rows_and_columns() {
        let mut report = FigureReport::new("Figure X", "k");
        for k in [10, 20] {
            report.push_x(k);
            report.push_runtime("SFA", &sample_measurement());
            report.push_pop_ratio("AIS", &sample_measurement());
        }
        // A series whose every query failed must not render as 0.000 ms.
        let all_failed = AggregateMeasurement {
            queries: 0,
            avg_runtime: Duration::ZERO,
            pop_ratio: 0.0,
            ..sample_measurement()
        };
        report.push_x(30);
        report.push_runtime("SFA", &all_failed);
        report.push_pop_ratio("AIS", &all_failed);
        let text = report.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("SFA"));
        assert!(text.contains("AIS"));
        assert!(text.contains("1.500"));
        assert!(text.contains("0.0421"));
        assert!(text.matches('\n').count() >= 5);
        assert_eq!(text.matches("failed").count(), 2);
        assert!(!text.contains("0.000"));
    }

    #[test]
    fn missing_cells_render_as_dashes() {
        let mut report = FigureReport::new("t", "x");
        report.push_x(1);
        report.push_cell("A", "v1");
        report.push_x(2);
        // Series B only has a value for the second row; series A misses it.
        report.push_cell("B", "v2");
        report.push_cell("B", "v3");
        let text = report.render();
        assert!(text.contains('-'));
    }
}
