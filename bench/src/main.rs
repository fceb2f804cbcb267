//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! run from the repository root.  `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` runs one traced round plus the
//! per-layer probes.  The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! when every self-check held.  See `bench/README.md`.

mod estimate;
mod gen;
mod host;
mod probes;
mod trace;
mod workloads;

use estimate::{fastest_per_op, quantile, Better};
use gen::{Deployment, Op, OpList, Spec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workloads::Round;

/// The end-to-end metrics: name, unit, quiet side.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("qps", "1/s", Better::Higher),
    ("query_p50_ms", "ms", Better::Lower),
    ("query_p95_ms", "ms", Better::Lower),
    ("update_mean_us", "us", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
];

/// Fewest queries a timed window may hold: p95 then has ten samples
/// beyond it.
const MIN_WINDOW_QUERIES: usize = 200;
/// Fewest repetitions of the window in a run.
const MIN_ROUNDS: usize = 3;
/// Fewest set-ups and update bursts a run times.
const MIN_SETUP_SAMPLES: usize = 9;
/// Window results checked against the exhaustive oracle per run.
const ORACLE_SAMPLE: usize = 60;
/// Share of `--seconds` a traced run spends on untraced rounds (the base
/// of `obs.trace_overhead_share`).
const TRACED_RUN_QUIET_SHARE: f64 = 0.35;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let names: Vec<&str> = gen::WORKLOADS.iter().map(|s| s.name).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
    let spec = gen::spec_by_name(&workload)
        .ok_or_else(|| format!("unknown workload {workload} (known: {})", names.join(", ")))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
pub struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Violated self-checks; empty on a sound run.
    violations: Vec<String>,
}

/// The `=`-marked counters of one round: they must repeat exactly across
/// rounds wherever execution is deterministic.  A traced query carries its
/// trace id in every frame, so wire bytes repeat only among untraced rounds.
fn exact_counts(round: &Round, traced: bool) -> [usize; 8] {
    let work = &round.work;
    [
        work.social_pops,
        work.relaxed_edges,
        work.vertex_pops,
        work.evaluated_users,
        work.distance_calls,
        work.spatial_pops,
        work.wire_round_trips,
        if traced {
            0
        } else {
            work.bytes_sent + work.bytes_received
        },
    ]
}

/// Whether per-query work is a function of the inputs alone: the
/// in-process scatter's pruning depends on which shard thread finishes
/// first, everything else is pinned.
fn deterministic_counts(spec: &Spec) -> bool {
    !matches!(spec.deployment, Deployment::Sharded { .. })
}

/// Self-checks over the rounds of a run; `traced` is the traced round, if
/// the run has one.
fn check_rounds(
    spec: &Spec,
    ops: &OpList,
    quiet: &[Round],
    traced: Option<&Round>,
    violations: &mut Vec<String>,
) {
    if ops.window_queries() < MIN_WINDOW_QUERIES {
        violations.push(format!(
            "the timed window holds {} queries, fewer than {MIN_WINDOW_QUERIES}",
            ops.window_queries()
        ));
    }
    if deterministic_counts(spec) {
        let first = exact_counts(&quiet[0], false);
        if let Some(at) = quiet.iter().position(|r| exact_counts(r, false) != first) {
            violations.push(format!(
                "work counters of round {at} differ from round 0: {:?} vs {first:?}",
                exact_counts(&quiet[at], false)
            ));
        }
        if traced.is_some_and(|t| exact_counts(t, true) != exact_counts(&quiet[0], true)) {
            violations.push("work counters of the traced round differ from round 0".into());
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The end-to-end values but `peak_rss_mib`, in [`END_TO_END`] order.
///
/// Every round repeats the same ops on the same state, so an op's latencies
/// across rounds differ only by what the host did to them: each op counts
/// with its fastest repetition, and the window lasts as long as its ops do
/// (one closed-loop client).  Set-up has one sample per round and is read
/// from their median.
fn end_to_end_values(
    spec: &Spec,
    ops: &OpList,
    rounds: &[Round],
    short_rounds: &[Round],
) -> [f64; 5] {
    let every_round = || rounds.iter().chain(short_rounds);
    let setup_s: Vec<f64> = every_round().map(|r| r.setup_s).collect();
    let query_ns = fastest_per_op(rounds.iter().map(|r| r.query_ns.as_slice()));
    let update_ns = fastest_per_op(
        every_round()
            .map(|r| r.update_ns.as_slice())
            .filter(|timed| !timed.is_empty()),
    );
    // The interleaved updates are the first of a round's timed updates.
    let interleaved = ops.window.len() - ops.window_queries();
    let window_ns = query_ns.iter().sum::<f64>() + update_ns[..interleaved].iter().sum::<f64>();
    [
        quantile(&setup_s, 0.5),
        spec.window_ops as f64 * 1e9 / window_ns,
        ms(quantile(&query_ns, 0.5)),
        ms(quantile(&query_ns, 0.95)),
        estimate::mean(&update_ns) / 1e3,
    ]
}

/// Picks the window indices whose results go to the oracle.
fn oracle_sample(ops: &OpList, seed: u64) -> BTreeSet<usize> {
    let mut queries: Vec<usize> = ops
        .window
        .iter()
        .enumerate()
        .filter_map(|(i, op)| matches!(op, Op::Query(_)).then_some(i))
        .collect();
    queries.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0AC1_E5ED));
    queries.truncate(ORACLE_SAMPLE);
    queries.into_iter().collect()
}

fn run_end_to_end(args: &Args, ops: &OpList, out_dir: &Path) -> Report {
    let spec = &args.spec;
    let keep = oracle_sample(ops, args.seed);
    let mut quiet = Recorder::new(false);
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    loop {
        rounds.push(workloads::run_round(spec, ops, &keep, out_dir, &mut quiet));
        let elapsed = started.elapsed().as_secs_f64();
        let mean_round = elapsed / rounds.len() as f64;
        if rounds.len() >= MIN_ROUNDS && elapsed + mean_round > args.seconds {
            break;
        }
    }
    // Read before the oracle builds its own engine.
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    let full_rounds = rounds.len();
    // Set-up is a fraction of a second, the update burst a few tens of
    // milliseconds, and a run holds few rounds: run window-less rounds
    // (queries leave no state behind, so the burst meets the same engine)
    // until both rest on enough samples.
    let burst_only = OpList {
        warmup: Vec::new(),
        window: Vec::new(),
        burst: ops.burst.clone(),
    };
    let nothing = BTreeSet::new();
    while rounds.len() < MIN_SETUP_SAMPLES {
        rounds.push(workloads::run_round(
            spec,
            &burst_only,
            &nothing,
            out_dir,
            &mut quiet,
        ));
    }
    let (rounds, short_rounds) = rounds.split_at(full_rounds);

    let mut violations = Vec::new();
    check_rounds(spec, ops, rounds, None, &mut violations);
    let last = rounds.last().expect("at least one round ran");
    let mismatches = workloads::oracle_mismatches(spec, ops, &last.kept);
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} of {} sampled answers differ from the exhaustive oracle",
            keep.len()
        ));
    }
    let every_round = || rounds.iter().chain(short_rounds);
    let timed_failures: usize = every_round().map(|r| r.failed).sum();
    if timed_failures > 0 {
        violations.push(format!("{timed_failures} timed operations failed"));
    }
    let failed = timed_failures + mismatches;
    let attempted = every_round().map(Round::attempted).sum::<usize>() + keep.len();

    // How unsteady the host was: the window's wall time, round by round.
    println!(
        "{} rounds + {} window-less; ops/s per round {:.1?}",
        rounds.len(),
        short_rounds.len(),
        rounds
            .iter()
            .map(|r| r.qps(spec.window_ops))
            .collect::<Vec<f64>>()
    );
    let values = end_to_end_values(spec, ops, rounds, short_rounds);
    let mut metrics = Vec::new();
    for ((name, unit, _), value) in END_TO_END.iter().zip(values) {
        println!("{name:<16} {value:>12.4} {unit}");
        metrics.push(Metric { name, value, unit });
    }
    println!(
        "{:<16} {peak_rss:>12.4} MiB  VmHWM after the last round",
        "peak_rss_mib"
    );
    metrics.push(Metric {
        name: "peak_rss_mib",
        value: peak_rss,
        unit: "MiB",
    });
    Report {
        metrics,
        attempted,
        failed,
        violations,
    }
}

fn run_traced(args: &Args, ops: &OpList, out_dir: &Path) -> Report {
    let spec = &args.spec;
    let calibration = host::Calibration::new();
    let calib_before_ms = calibration.run_ms();

    let nothing = BTreeSet::new();
    let mut quiet = Recorder::new(false);
    let mut quiet_rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    loop {
        quiet_rounds.push(workloads::run_round(
            spec, ops, &nothing, out_dir, &mut quiet,
        ));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / quiet_rounds.len() as f64 > args.seconds * TRACED_RUN_QUIET_SHARE {
            break;
        }
    }
    let mut recorder = Recorder::new(true);
    let traced = workloads::run_round(spec, ops, &nothing, out_dir, &mut recorder);

    let mut violations = Vec::new();
    check_rounds(spec, ops, &quiet_rounds, Some(&traced), &mut violations);
    let all: Vec<&Round> = quiet_rounds.iter().chain([&traced]).collect();
    let failed: usize = all.iter().map(|r| r.failed).sum();
    if failed > 0 {
        violations.push(format!("{failed} timed operations failed"));
    }
    let attempted = all.iter().map(|r| r.attempted()).sum();

    let mut metrics = probes::per_layer(&probes::Input {
        spec,
        ops,
        quiet_rounds: &quiet_rounds,
        traced: &traced,
        recorder: &recorder,
        out_dir,
    });
    let calib_after_ms = calibration.run_ms();
    let drift = (calib_after_ms - calib_before_ms).abs() / calib_before_ms.min(calib_after_ms);
    metrics.extend([
        Metric {
            name: "host.calib_ms",
            value: calib_before_ms,
            unit: "ms",
        },
        Metric {
            name: "host.calib_after_ms",
            value: calib_after_ms,
            unit: "ms",
        },
        Metric {
            name: "host.unquiet",
            value: f64::from(u8::from(drift > 0.15)),
            unit: "count",
        },
    ]);
    for m in &metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let trace_path = out_dir.join(format!("trace-{}.json", spec.name));
    match recorder.write_json(&trace_path, spec.name) {
        Ok(()) => println!(
            "{} spans written to {}",
            recorder.spans().len(),
            trace_path.display()
        ),
        Err(e) => violations.push(format!("cannot write {}: {e}", trace_path.display())),
    }
    let expected: BTreeSet<&str> = probes::PER_LAYER.iter().map(|(name, _)| *name).collect();
    let got: BTreeSet<&str> = metrics.iter().map(|m| m.name).collect();
    if expected != got || metrics.len() != expected.len() {
        violations.push(format!(
            "per-layer metrics out of step with the declared list: missing {:?}, extra {:?}",
            expected.difference(&got).collect::<Vec<_>>(),
            got.difference(&expected).collect::<Vec<_>>()
        ));
    }
    Report {
        metrics,
        attempted,
        failed,
        violations,
    }
}

fn result_line(report: &Report) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.violations.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            json_escape(m.name),
            m.value,
            json_escape(m.unit)
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: --workload <name> --seed <u64> --seconds <n> --trace <0|1> (from the repository root)"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("bench/Cargo.toml").is_file() {
        eprintln!("error: run from the repository root (bench/Cargo.toml not found)");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from("bench/out");
    println!(
        "workload {} seed {} seconds {} trace {} | {} cpus, {}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::cpu_model()
    );
    // A remote query is a chain of hand-overs between the client and the
    // server threads, each a few tens of microseconds of work.  Spread over
    // two virtual CPUs every hand-over wakes a halted CPU through the
    // hypervisor, which cost 2-3 x the query itself and moved with the
    // host's load; on one CPU the chain measures codec, sockets and engine.
    if matches!(args.spec.deployment, Deployment::Remote { .. }) {
        match host::pin_to_current_cpu() {
            Some(cpu) => println!("pinned to cpu {cpu}"),
            None => eprintln!("warning: could not pin to one cpu"),
        }
    }
    // The generator's dataset is dropped before the first round so that
    // peak RSS is the deployment's, not the harness's.
    let ops = gen::generate_ops(&args.spec, &gen::dataset(&args.spec), args.seed);
    // FNV-1a over the canonical byte image: the same seed prints the same
    // digest on every commit.
    let digest = ops
        .canonical_bytes()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
    println!(
        "inputs: {} warm-up queries, {} window ops ({} queries), {} burst updates, digest {digest:016x}",
        ops.warmup.len(),
        ops.window.len(),
        ops.window_queries(),
        ops.burst.len()
    );
    let mut report = if args.trace {
        run_traced(&args, &ops, &out_dir)
    } else {
        run_end_to_end(&args, &ops, &out_dir)
    };
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report
                .violations
                .push(format!("metric {} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    for violation in &report.violations {
        eprintln!("self-check failed: {violation}");
    }
    println!("{}", result_line(&report));
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_contract_shape() {
        let report = Report {
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
        };
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in END_TO_END {
            let direction = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{direction}\", \"bound\": "
            );
            assert!(text.contains(&entry), "end_to_end lacks {entry}");
        }
        for (name, unit) in probes::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "per_layer lacks {entry}");
        }
        assert_eq!(
            text.matches("\"better\": ").count(),
            END_TO_END.len() + probes::PER_LAYER.len()
        );
        for spec in &gen::WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", spec.name)));
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
