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
