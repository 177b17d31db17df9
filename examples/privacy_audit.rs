//! What does the publisher actually see? This example reconstructs the
//! paper's Table I and demonstrates the two privacy mechanisms:
//!
//! 1. subscribers register for **every** condition naming an attribute
//!    they hold — including mutually exclusive pairs like `YoS ≥ 5` and
//!    `YoS < 5` — so registration behaviour reveals nothing;
//! 2. OCBE delivery means the publisher cannot tell which envelopes were
//!    actually opened.
//!
//! Run with: `cargo run --release --example privacy_audit`

use pbcd::core::SystemHarness;
use pbcd::gkm::Nym;
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};

fn main() {
    // Conditions straight out of Table I: level ≥ 59, YoS ≥ 5, YoS < 5,
    // role = doc, role = nur.
    let mut policies = PolicySet::new();
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("level", ComparisonOp::Ge, 59)],
        &["A"],
        "d.xml",
    ));
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("YoS", ComparisonOp::Ge, 5)],
        &["B"],
        "d.xml",
    ));
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("YoS", ComparisonOp::Lt, 5)],
        &["C"],
        "d.xml",
    ));
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doc")],
        &["D"],
        "d.xml",
    ));
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "nur")],
        &["E"],
        "d.xml",
    ));

    let mut sys = SystemHarness::new_p256(policies, 0x7AB1);

    // Three subscribers mirroring Table I's rows:
    // pn-A holds only a role token → registers for both role conditions.
    let a = sys.subscribe("employee-a", AttributeSet::new().with_str("role", "doc"));
    // pn-B holds level + YoS → registers for level ≥ 59, YoS ≥ 5 AND YoS < 5
    // (mutually exclusive — deliberately, to block inference).
    let b = sys.subscribe(
        "employee-b",
        AttributeSet::new().with("level", 61).with("YoS", 7),
    );
    // pn-C holds all three attributes → registers for all five conditions.
    let c = sys.subscribe(
        "employee-c",
        AttributeSet::new()
            .with("level", 30)
            .with("YoS", 2)
            .with_str("role", "nur"),
    );

    let conds = sys.publisher.policies().distinct_conditions();
    println!("== The publisher's CSS table T (cf. paper Table I) ==\n");
    println!("{}", sys.publisher.shared_css_table().render(&conds));

    println!("Mutually exclusive conditions both carry records:");
    let yos_ge = AttributeCondition::new("YoS", ComparisonOp::Ge, 5);
    let yos_lt = AttributeCondition::new("YoS", ComparisonOp::Lt, 5);
    assert!(yos_ge.mutually_exclusive(&yos_lt));
    let table = sys.publisher.shared_css_table();
    for sub in [&b, &c] {
        let nym = Nym::new(sub.nym().unwrap());
        let both = table.get(&nym, &yos_ge).is_some() && table.get(&nym, &yos_lt).is_some();
        println!(
            "  {}: registered for YoS ≥ 5 AND YoS < 5 → {}",
            nym,
            if both { "yes" } else { "no" }
        );
        assert!(both);
    }

    println!("\nWhat each subscriber privately extracted (publisher can't see this):");
    for (name, sub) in [("pn(a)", &a), ("pn(b)", &b), ("pn(c)", &c)] {
        println!(
            "  {} holds {} usable CSS(s) out of {} delivered envelopes",
            name,
            sub.css_count(),
            conds
                .iter()
                .filter(|cond| sub.attributes().contains(&cond.attribute))
                .count()
        );
    }

    // The table row for b and c cover the same YoS columns even though
    // their values differ — the publisher's view is shape-identical.
    println!("\nThe publisher sees identical registration shapes for satisfied and");
    println!("unsatisfied conditions; only the subscriber knows which envelopes opened.");
}
