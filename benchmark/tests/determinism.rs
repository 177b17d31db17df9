//! Same seed → the same inputs and the same counts; another seed →
//! different inputs, the same number of ops.

mod common;

use pbcd_benchmark::gen::Inputs;

#[test]
fn inputs_depend_on_the_seed_only() {
    let a = Inputs::generate(7).to_bytes();
    assert_eq!(
        a,
        Inputs::generate(7).to_bytes(),
        "one seed, one set of inputs"
    );
    assert_ne!(
        a,
        Inputs::generate(8).to_bytes(),
        "another seed, other inputs"
    );
}

fn counts(workload: &str, seed: &str) -> (Vec<u64>, Vec<f64>) {
    let stdout = common::run(&["--workload", workload, "--seed", seed, "--quick"]);
    let lines = common::metric_lines(&stdout);
    let exact = ["wire_bytes_per_op", "gkm.acv.rows", "group.exp_per_op"]
        .map(|m| lines[&(workload.to_string(), m.to_string())][0].0);
    (
        common::attempted(&stdout).into_values().collect(),
        exact.to_vec(),
    )
}

#[test]
fn counts_repeat_for_a_seed_and_op_counts_across_seeds() {
    for workload in ["register_eq", "publish_churn"] {
        let first = counts(workload, "7");
        assert_eq!(
            first,
            counts(workload, "7"),
            "{workload}: same seed, same counts"
        );
        let other = counts(workload, "8");
        assert_eq!(
            first.0, other.0,
            "{workload}: op counts do not depend on the seed"
        );
    }
}
