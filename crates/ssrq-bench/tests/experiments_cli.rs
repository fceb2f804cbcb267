//! The `experiments` binary as a user runs it: exit codes and the
//! reproducibility of its deterministic reports.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

/// The pop-ratio reports of a run's stdout, in order: unlike run-times
/// they are counts of search work, so they repeat exactly.
fn pop_ratio_reports(output: &Output) -> Vec<String> {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (reports, _harness_time) = stdout
        .split_once("\ntotal harness time")
        .expect("a finished run prints its time");
    reports
        .split("\n## ")
        .filter(|report| report.contains("pop ratio"))
        .map(str::to_string)
        .collect()
}

#[test]
fn two_tiny_runs_print_identical_pop_ratio_reports() {
    let args = ["fig10", "--quick", "--scale", "0.02", "--queries", "3"];
    let first = experiments(&args);
    let second = experiments(&args);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    assert_eq!(second.status.code(), Some(0), "{second:?}");
    let reports = pop_ratio_reports(&first);
    // One per stand-in: gowalla-like and foursquare-like.
    assert_eq!(reports.len(), 2, "{reports:?}");
    assert!(reports.iter().all(|report| !report.contains("failed")));
    assert_eq!(reports, pop_ratio_reports(&second));
}

#[test]
fn an_unknown_experiment_or_flag_is_a_usage_error() {
    for args in [&["fig99"][..], &["fig10", "--fast"], &["--queries", "many"]] {
        let output = experiments(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
    }
}

/// The rows of a pop-ratio report: each x value with its cells, in the
/// report's column order.
fn rows(report: &str) -> Vec<(String, Vec<f64>)> {
    report
        .lines()
        .skip_while(|line| !line.starts_with("---"))
        .skip(1)
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let mut cells = line.split_whitespace();
            let x = cells.next().expect("a row starts with its x value");
            let values = cells
                .map(|cell| cell.parse().unwrap_or_else(|_| panic!("cell {cell:?}")))
                .collect();
            (x.to_string(), values)
        })
        .collect()
}

/// Figure 10's ordering (§6): each optimization of AIS pops no more than
/// the variant without it, so AIS ≤ AIS⁻ ≤ AIS-BID on every k row of both
/// stand-ins.
#[test]
fn fig10_pop_ratios_keep_the_papers_ordering() {
    let output = experiments(&["fig10", "--quick", "--scale", "0.2", "--queries", "4"]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let reports = pop_ratio_reports(&output);
    assert_eq!(reports.len(), 2, "{reports:?}");
    for report in &reports {
        let header = report.lines().find(|line| line.starts_with("k ")).unwrap();
        assert_eq!(
            header.split_whitespace().collect::<Vec<_>>(),
            ["k", "AIS-BID", "AIS-", "AIS"],
            "{report}"
        );
        let rows = rows(report);
        assert_eq!(rows.len(), 5, "{report}");
        for (k, cells) in rows {
            let [bid, minus, full] = cells[..] else {
                panic!("k {k}: three cells expected in\n{report}");
            };
            assert!(
                full <= minus && minus <= bid,
                "k {k}: AIS {full} ≤ AIS⁻ {minus} ≤ AIS-BID {bid} fails in\n{report}"
            );
        }
    }
}
