//! The benchmark's output against `BENCHMARK.json`: every workload and
//! metric named there is emitted exactly once per workload with its unit,
//! and the last line of standard output is the contract's JSON object.

mod common;

use pbcd_benchmark::json::Json;
use pbcd_benchmark::metrics;
use pbcd_benchmark::run::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("name").to_string(),
                m.get("unit").and_then(Json::str).expect("unit").to_string(),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn result_line(stdout: &str) -> Json {
    let last = stdout.lines().last().expect("some output");
    let v = Json::parse(last).expect("last line is JSON");
    let Json::Obj(members) = &v else {
        panic!("result is an object");
    };
    let keys: Vec<&str> = members.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(v.get("attempted").and_then(Json::num).expect("attempted") >= 1.0);
    assert_eq!(v.get("failed").and_then(Json::num), Some(0.0));
    assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
    v
}

fn result_metrics(v: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::num).is_some(),
                "{name} has a value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::str).expect("unit").to_string(),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn catalogue_matches_benchmark_json() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    let end_to_end: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        names_and_units(spec.get("end_to_end").expect("end_to_end")),
        end_to_end
    );
    let per_layer: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(
        names_and_units(spec.get("per_layer").expect("per_layer")),
        per_layer
    );
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(valid_name(name), "{name}");
    }
    assert!(workloads.iter().all(|w| valid_name(w)));
}

#[test]
fn every_metric_once_per_workload_and_a_result_line() {
    let spec = benchmark_json();
    let stdout = common::run(&["--quick", "--seed", "5"]);
    assert!(stdout.contains("not for comparison"));
    let lines = common::metric_lines(&stdout);
    let expected: Vec<(String, String)> = names_and_units(spec.get("end_to_end").unwrap())
        .into_iter()
        .chain(names_and_units(spec.get("per_layer").unwrap()))
        .collect();
    for w in WORKLOADS {
        for (name, unit) in &expected {
            let got = lines
                .get(&(w.name.to_string(), name.clone()))
                .unwrap_or_else(|| panic!("{} does not report {name}", w.name));
            assert_eq!(got.len(), 1, "{} reports {name} once", w.name);
            assert_eq!(&got[0].1, unit, "unit of {name}");
        }
    }
    assert_eq!(
        lines.len(),
        WORKLOADS.len() * expected.len(),
        "nothing else is reported"
    );
    let result = result_line(&stdout);
    assert_eq!(
        result_metrics(&result).len(),
        WORKLOADS.len() * expected.len()
    );
}

#[test]
fn trace_flag_selects_the_metric_set() {
    let spec = benchmark_json();
    for (flag, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = common::run(&[
            "--workload",
            "register_eq",
            "--seed",
            "6",
            "--seconds",
            "1",
            "--trace",
            flag,
            "--quick",
        ]);
        let result = result_line(&stdout);
        assert_eq!(
            sorted(result_metrics(&result)),
            sorted(names_and_units(spec.get(key).unwrap())),
            "--trace {flag} reports exactly the {key} metrics"
        );
    }
}
