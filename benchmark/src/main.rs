//! The benchmark's command line.
//!
//! ```text
//! pbcd_benchmark [--workload <name>|all] [--seed N] [--seconds S]
//!                [--trace 0|1] [--repeat N] [--trace-out PATH] [--quick]
//! ```
//!
//! Without `--trace`, each workload runs the untraced pass (end-to-end
//! metrics) and then the traced pass (per-layer metrics). `--trace 0` and
//! `--trace 1` run one of the two. The last line of standard output is
//! the JSON result the benchmark contract asks for.

use pbcd_benchmark::gen::Inputs;
use pbcd_benchmark::metrics;
use pbcd_benchmark::report;
use pbcd_benchmark::run::{self, Options, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    opts: Options,
    trace: Option<bool>,
    repeat: usize,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        opts: Options {
            seed: 1,
            seconds: 13,
            quick: false,
        },
        trace: None,
        repeat: 0,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name}"))?;
                    args.workloads = vec![*w];
                }
            }
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.opts.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--quick" => args.opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Re-runs the benchmark in the environment it measures in: confined to
/// one CPU (`taskset`) and with one malloc arena (`MALLOC_ARENA_MAX=1`).
///
/// One CPU: on the 2-vCPU reference VM a wake-up that crosses vCPUs costs
/// a VM exit (the other vCPU has halted), and whether the scheduler puts
/// the woken thread on the waker's vCPU or the other one flips from run to
/// run: `publish_small`, ten hand-offs per op, measured 0.45–0.55 ms free
/// and 0.26–0.29 ms on one CPU. One op is in flight at a time, so one CPU
/// loses no parallelism the load could use.
///
/// One arena: glibc hands the dozen threads their arenas in an order that
/// depends on timing, and `peak_rss_mb` of the same run moved 22.3–24.6 MB;
/// with one arena it reads 19.5–19.7 MB, at the same latency (on one CPU
/// no two threads are ever inside malloc together).
///
/// Returns the child's exit code, or `None` in the child itself. Without
/// `taskset` the child runs unpinned and `host.cores` says so.
fn rerun_in_measuring_environment() -> Option<ExitCode> {
    const GUARD: &str = "PBCD_BENCHMARK_CHILD";
    if std::env::var_os(GUARD).is_some() {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let spawn = |mut command: std::process::Command| {
        command
            .args(std::env::args_os().skip(1))
            .env(GUARD, "1")
            .env("MALLOC_ARENA_MAX", "1")
            .status()
    };
    let cpus = pbcd_benchmark::stats::allowed_cpus();
    let mut pinned = std::process::Command::new("taskset");
    pinned.arg("-c").arg(cpus.first()?.to_string()).arg(&exe);
    let status = spawn(pinned).or_else(|e| {
        eprintln!(
            "pbcd_benchmark: taskset: {e}; running on {} CPUs",
            cpus.len()
        );
        spawn(std::process::Command::new(&exe))
    });
    Some(ExitCode::from(status.ok()?.code().unwrap_or(1) as u8))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pbcd_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = rerun_in_measuring_environment() {
        return code;
    }
    if args.opts.quick {
        println!("quick mode: an eighth of the ops, one set-up; not for comparison");
    }
    let inputs = Inputs::generate(args.opts.seed);
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut json_rows = Vec::new();
    let mut spans = Vec::new();

    for w in &args.workloads {
        if args.repeat > 0 {
            // A/A mode: the untraced run, `--repeat` times.
            let runs: Vec<_> = (0..args.repeat)
                .map(|_| run::untraced(w, &inputs, &args.opts))
                .collect();
            report::print_repeat_table(w.name, &runs);
            attempted += runs.iter().map(|r| r.attempted).sum::<u64>();
            failed += runs.iter().map(|r| r.failed).sum::<u64>();
            continue;
        }
        let mut rows = Vec::new();
        if args.trace != Some(true) {
            let r = run::untraced(w, &inputs, &args.opts);
            report::print_tallies(w.name, "untraced", &r);
            rows.extend(report::select(
                &r.values,
                metrics::END_TO_END.iter().map(|(n, _)| n.to_string()),
            ));
            attempted += r.attempted;
            failed += r.failed;
        }
        if args.trace != Some(false) {
            let (r, tracer) = run::traced(w, &inputs, &args.opts);
            report::print_tallies(w.name, "traced", &r);
            rows.extend(report::select(
                &r.values,
                metrics::per_layer().into_iter().map(|(n, _)| n),
            ));
            attempted += r.attempted;
            failed += r.failed;
            spans.push(tracer);
        }
        report::print_metrics(w.name, &rows);
        json_rows.extend(rows.into_iter().map(|(name, value, unit)| {
            let name = if single {
                name
            } else {
                format!("{}.{name}", w.name)
            };
            (name, value, unit)
        }));
    }

    if let Some(path) = &args.trace_out {
        // One file: the workloads' spans follow each other, op numbers
        // restarting with each workload.
        let written = std::fs::File::create(path)
            .and_then(|_| spans.iter().try_for_each(|t| t.append_jsonl(path)));
        if let Err(e) = written {
            eprintln!("pbcd_benchmark: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!(
        "{}",
        report::json_line(failed == 0, attempted, failed, &json_rows)
    );
    ExitCode::SUCCESS
}
