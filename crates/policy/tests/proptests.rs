//! Property-based tests for the policy layer.

use pbcd_policy::{
    AccessControlPolicy, AcpId, AttributeCondition, AttributeSet, ComparisonOp,
    PolicyConfiguration, PolicySet, Predicate,
};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = ComparisonOp> {
    prop_oneof![
        Just(ComparisonOp::Eq),
        Just(ComparisonOp::Neq),
        Just(ComparisonOp::Gt),
        Just(ComparisonOp::Ge),
        Just(ComparisonOp::Lt),
        Just(ComparisonOp::Le),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn predicate_eval_matches_native_comparison(x in any::<u64>(), t in any::<u64>(), op in arb_op()) {
        let native = match op {
            ComparisonOp::Eq => x == t,
            ComparisonOp::Neq => x != t,
            ComparisonOp::Gt => x > t,
            ComparisonOp::Ge => x >= t,
            ComparisonOp::Lt => x < t,
            ComparisonOp::Le => x <= t,
        };
        prop_assert_eq!(Predicate::new(op, t).eval(x), native);
    }

    #[test]
    fn satisfiable_predicates_have_witnesses(t in 0u64..256, op in arb_op()) {
        let ell = 8;
        let pred = Predicate::new(op, t);
        let has_witness = (0..256u64).any(|x| pred.eval(x));
        prop_assert_eq!(pred.satisfiable(ell), has_witness);
    }

    #[test]
    fn condition_parse_display_roundtrip(
        name in "[a-zA-Z][a-zA-Z0-9_]{0,10}",
        t in any::<u64>(),
        op in arb_op(),
    ) {
        let cond = AttributeCondition::new(&name, op, t);
        prop_assert_eq!(AttributeCondition::parse(&cond.to_string()), Some(cond));
    }

    #[test]
    fn mutual_exclusion_is_sound(t1 in 0u64..64, t2 in 0u64..64, op1 in arb_op(), op2 in arb_op()) {
        // If conditions are declared mutually exclusive, no value in range
        // satisfies both.
        let c1 = AttributeCondition::new("a", op1, t1);
        let c2 = AttributeCondition::new("a", op2, t2);
        if c1.mutually_exclusive(&c2) {
            for x in 0..128u64 {
                let attrs = AttributeSet::new().with("a", x);
                prop_assert!(!(c1.eval(&attrs) && c2.eval(&attrs)), "x={} {} / {}", x, c1, c2);
            }
        }
    }

    #[test]
    fn conjunction_semantics(vals in prop::collection::vec(0u64..16, 1..4), thresholds in prop::collection::vec(0u64..16, 1..4)) {
        let n = vals.len().min(thresholds.len());
        let conds: Vec<_> = (0..n)
            .map(|i| AttributeCondition::new(&format!("a{i}"), ComparisonOp::Ge, thresholds[i]))
            .collect();
        let acp = AccessControlPolicy::new(conds.clone(), &["obj"], "d");
        let mut attrs = AttributeSet::new();
        for (i, v) in vals.iter().enumerate().take(n) {
            attrs.set(&format!("a{i}"), *v);
        }
        let expected = (0..n).all(|i| vals[i] >= thresholds[i]);
        prop_assert_eq!(acp.eval(&attrs), expected);
    }

    #[test]
    fn dominance_is_a_partial_order(a in prop::collection::btree_set(0usize..8, 0..5), b in prop::collection::btree_set(0usize..8, 0..5), c in prop::collection::btree_set(0usize..8, 0..5)) {
        let pa = PolicyConfiguration::from_ids(a.iter().map(|&i| AcpId(i)));
        let pb = PolicyConfiguration::from_ids(b.iter().map(|&i| AcpId(i)));
        let pc = PolicyConfiguration::from_ids(c.iter().map(|&i| AcpId(i)));
        // Reflexive.
        prop_assert!(pa.dominates(&pa));
        // Antisymmetric.
        if pa.dominates(&pb) && pb.dominates(&pa) {
            prop_assert_eq!(&pa, &pb);
        }
        // Transitive.
        if pa.dominates(&pb) && pb.dominates(&pc) {
            prop_assert!(pa.dominates(&pc));
        }
    }

    #[test]
    fn satisfied_policies_grant_their_configurations(x in 0u64..100) {
        let mut set = PolicySet::new();
        let id = set.add(AccessControlPolicy::new(
            vec![AttributeCondition::new("level", ComparisonOp::Ge, 50)],
            &["obj"],
            "d",
        ));
        let attrs = AttributeSet::new().with("level", x);
        let pc = set.configuration_of("obj");
        prop_assert!(pc.contains(id));
        prop_assert_eq!(set.grants_access(&pc, &attrs), x >= 50);
    }
}
