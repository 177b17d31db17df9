//! Helpers shared by the integration tests: run the benchmark binary and
//! read its output.

use std::collections::BTreeMap;
use std::process::Command;

/// Runs the benchmark with `args`; returns its standard output. Panics if
/// it exits with a failure.
pub fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pbcd_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `(workload, metric)` → every `(value, unit)` printed for it.
#[allow(dead_code)]
pub fn metric_lines(stdout: &str) -> BTreeMap<(String, String), Vec<(f64, String)>> {
    let mut out: BTreeMap<(String, String), Vec<(f64, String)>> = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", workload, name, value, unit] = f[..] {
            out.entry((workload.to_string(), name.to_string()))
                .or_default()
                .push((value.parse().expect("numeric value"), unit.to_string()));
        }
    }
    out
}

/// `(workload, pass)` → attempted ops, from the tally lines.
#[allow(dead_code)]
pub fn attempted(stdout: &str) -> BTreeMap<(String, String), u64> {
    stdout
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f[..] {
                ["tally", workload, pass, "attempted", n, ..] => Some((
                    (workload.to_string(), pass.to_string()),
                    n.parse().expect("attempted count"),
                )),
                _ => None,
            }
        })
        .collect()
}
