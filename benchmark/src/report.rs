//! Output: one `metric` line per metric with its unit, the A/A table, and
//! the contract's final JSON line.

use crate::metrics::{self, Values};
use crate::run::RunResult;
use crate::stats;
use std::fmt::Write;

/// The units of every metric the benchmark can report.
fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::COUNTS.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| {
            assert!(
                name.strip_suffix("_ms")
                    .is_some_and(|s| metrics::SPANS.contains(&s)),
                "metric {name} is not in the catalogue"
            );
            "ms"
        })
}

/// The values of `names` (0 where the workload does not exercise the
/// layer), after checking that nothing outside the catalogue was produced.
pub fn select(
    values: &Values,
    names: impl Iterator<Item = String>,
) -> Vec<(String, f64, &'static str)> {
    for name in values.keys() {
        unit_of(name);
    }
    names
        .map(|n| {
            let unit = unit_of(&n);
            (n.clone(), values.get(&n).copied().unwrap_or(0.0), unit)
        })
        .collect()
}

/// Prints one line per metric: `metric <workload> <name> <value> <unit>`.
pub fn print_metrics(workload: &str, rows: &[(String, f64, &'static str)]) {
    for (name, value, unit) in rows {
        println!("metric {workload} {name} {value} {unit}");
    }
}

/// Prints the tallies of one run.
pub fn print_tallies(workload: &str, pass: &str, r: &RunResult) {
    println!(
        "tally {workload} {pass} attempted {} failed {} failed_share {} nonce_collisions {} loadavg_1m {} steal_share {}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64,
        r.nonce_collisions,
        r.loadavg_1m,
        r.steal_share
    );
}

/// The contract's result line.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(String, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values have no JSON form; a metric that could not be
        // computed reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

/// The A/A table of `--repeat`: per metric the median, the quartiles and
/// (max − min) ÷ median over the runs, then each run's host conditions.
pub fn print_repeat_table(workload: &str, runs: &[RunResult]) {
    println!("aa {workload} runs {}", runs.len());
    println!("aa {workload} | metric | median | q1 | q3 | (max-min)/median |");
    for (name, _) in metrics::END_TO_END {
        let mut xs: Vec<f64> = runs.iter().map(|r| r.values[name]).collect();
        let median = stats::median(&mut xs);
        let (q1, q3) = if xs.len() >= 2 {
            stats::quartiles(&mut xs)
        } else {
            (median, median)
        };
        let range = (xs[xs.len() - 1] - xs[0]) / median;
        println!("aa {workload} | {name} | {median:.4} | {q1:.4} | {q3:.4} | {range:.4} |");
    }
    for (i, r) in runs.iter().enumerate() {
        println!(
            "aa {workload} run {i} attempted {} failed {} host.loadavg_1m {:.2} host.steal_share {:.4}",
            r.attempted, r.failed, r.loadavg_1m, r.steal_share
        );
    }
}
