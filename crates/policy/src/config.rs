//! Policy sets, policy configurations (paper Definition 5) and the
//! dominance relation (Definition 6).
//!
//! A *policy configuration* for a subdocument is the set of ACPs that apply
//! to it; all subdocuments sharing a configuration are encrypted under the
//! same symmetric key. `Pcᵢ` *dominates* `Pcⱼ` iff `Pcᵢ ⊆ Pcⱼ` — a
//! subscriber that can derive `Pcᵢ`'s key can derive `Pcⱼ`'s too (§VIII-A).

use crate::acp::{AccessControlPolicy, AcpId};
use crate::attrs::AttributeSet;
use crate::condition::AttributeCondition;
use std::collections::{BTreeMap, BTreeSet};

/// A policy configuration: the (possibly empty) set of ACPs applying to a
/// subdocument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PolicyConfiguration {
    acps: BTreeSet<AcpId>,
}

impl PolicyConfiguration {
    /// Builds from ACP ids.
    pub fn from_ids(ids: impl IntoIterator<Item = AcpId>) -> Self {
        Self {
            acps: ids.into_iter().collect(),
        }
    }

    /// The member ACP ids.
    pub fn acp_ids(&self) -> impl Iterator<Item = AcpId> + '_ {
        self.acps.iter().copied()
    }

    /// True iff no ACP applies (the paper's `Pc₆ = {}` case: nobody can
    /// access; the publisher encrypts without publishing key material).
    pub fn is_empty(&self) -> bool {
        self.acps.is_empty()
    }

    /// Number of member ACPs.
    pub fn len(&self) -> usize {
        self.acps.len()
    }

    /// True iff `id` is a member.
    pub fn contains(&self, id: AcpId) -> bool {
        self.acps.contains(&id)
    }

    /// Dominance (Definition 6): `self` dominates `other` iff
    /// `self ⊆ other`.
    pub fn dominates(&self, other: &Self) -> bool {
        self.acps.is_subset(&other.acps)
    }
}

impl core::fmt::Display for PolicyConfiguration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.acps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

/// The publisher's full set of access control policies (the paper's
/// `ACPB`), with derived views: per-subdocument configurations, the
/// distinct-condition universe, and evaluation helpers.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    acps: Vec<AccessControlPolicy>,
}

impl PolicySet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a policy and returns its id.
    pub fn add(&mut self, acp: AccessControlPolicy) -> AcpId {
        self.acps.push(acp);
        AcpId(self.acps.len() - 1)
    }

    /// Looks up a policy.
    pub fn get(&self, id: AcpId) -> Option<&AccessControlPolicy> {
        self.acps.get(id.0)
    }

    /// All policies with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (AcpId, &AccessControlPolicy)> {
        self.acps.iter().enumerate().map(|(i, p)| (AcpId(i), p))
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.acps.len()
    }

    /// True iff there are no policies.
    pub fn is_empty(&self) -> bool {
        self.acps.is_empty()
    }

    /// The policy configuration of subdocument `subdocument` of `document`:
    /// the policies that name both. This is what a broadcast is keyed by, on
    /// the publisher's side and the subscriber's.
    pub fn configuration_in(&self, document: &str, subdocument: &str) -> PolicyConfiguration {
        PolicyConfiguration::from_ids(
            self.iter()
                .filter(|(_, p)| p.document == document && p.applies_to(subdocument))
                .map(|(id, _)| id),
        )
    }

    /// The policy configuration of a subdocument name across every
    /// document. Only right when object names are unique across documents;
    /// a broadcast uses [`Self::configuration_in`].
    pub fn configuration_of(&self, subdocument: &str) -> PolicyConfiguration {
        PolicyConfiguration::from_ids(
            self.iter()
                .filter(|(_, p)| p.applies_to(subdocument))
                .map(|(id, _)| id),
        )
    }

    /// Groups subdocuments by their policy configuration (the paper's
    /// `Pc ↔ {subdocuments}` table in Example 4).
    pub fn group_by_configuration<'a>(
        &self,
        subdocuments: impl IntoIterator<Item = &'a str>,
    ) -> BTreeMap<PolicyConfiguration, Vec<String>> {
        let mut groups: BTreeMap<PolicyConfiguration, Vec<String>> = BTreeMap::new();
        for sub in subdocuments {
            groups
                .entry(self.configuration_of(sub))
                .or_default()
                .push(sub.to_string());
        }
        groups
    }

    /// The distinct attribute conditions across all policies — the columns
    /// of the publisher's CSS table T. The total count bounds the number of
    /// CSSs any subscriber must hold (§VIII-B).
    pub fn distinct_conditions(&self) -> Vec<AttributeCondition> {
        let set: BTreeSet<&AttributeCondition> =
            self.acps.iter().flat_map(|p| &p.conditions).collect();
        set.into_iter().cloned().collect()
    }

    /// The distinct conditions naming a given attribute (what a subscriber
    /// registering an identity token with that id-tag registers for).
    pub fn conditions_on_attribute(&self, attribute: &str) -> Vec<AttributeCondition> {
        self.distinct_conditions()
            .into_iter()
            .filter(|c| c.attribute == attribute)
            .collect()
    }

    /// Ids of policies satisfied by `attrs`.
    pub fn satisfied_by(&self, attrs: &AttributeSet) -> Vec<AcpId> {
        self.iter()
            .filter(|(_, p)| p.eval(attrs))
            .map(|(id, _)| id)
            .collect()
    }

    /// True iff `attrs` can access a subdocument with configuration `pc`
    /// (satisfies at least one member ACP).
    pub fn grants_access(&self, pc: &PolicyConfiguration, attrs: &AttributeSet) -> bool {
        pc.acp_ids()
            .any(|id| self.get(id).is_some_and(|p| p.eval(attrs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::ComparisonOp;

    /// The six policies of the paper's Example 4 (healthcare EHR scenario).
    pub fn example4_policies() -> PolicySet {
        let mut set = PolicySet::new();
        let doc = "EHR.xml";
        set.add(AccessControlPolicy::new(
            vec![AttributeCondition::eq_str("role", "rec")],
            &["ContactInfo"],
            doc,
        ));
        set.add(AccessControlPolicy::new(
            vec![AttributeCondition::eq_str("role", "cas")],
            &["BillingInfo"],
            doc,
        ));
        set.add(AccessControlPolicy::new(
            vec![AttributeCondition::eq_str("role", "doc")],
            &["ClinicalRecord"],
            doc,
        ));
        set.add(AccessControlPolicy::new(
            vec![
                AttributeCondition::eq_str("role", "nur"),
                AttributeCondition::new("level", ComparisonOp::Ge, 59),
            ],
            &[
                "ContactInfo",
                "Medication",
                "PhysicalExams",
                "LabRecords",
                "Plan",
            ],
            doc,
        ));
        set.add(AccessControlPolicy::new(
            vec![AttributeCondition::eq_str("role", "dat")],
            &["ContactInfo", "LabRecords"],
            doc,
        ));
        set.add(AccessControlPolicy::new(
            vec![AttributeCondition::eq_str("role", "pha")],
            &["BillingInfo", "Medication"],
            doc,
        ));
        set
    }

    #[test]
    fn example4_configurations_match_paper() {
        // Note: the paper treats ClinicalRecord's nested children as the
        // subdocuments; acp3 (doctor) covers the whole ClinicalRecord, so
        // the per-child configurations include acp3.
        let set = example4_policies();
        let (a1, a2, a3, a4, a5, a6) = (AcpId(0), AcpId(1), AcpId(2), AcpId(3), AcpId(4), AcpId(5));
        // Pc1 = {acp1, acp4, acp5} ↔ ContactInfo.
        assert_eq!(
            set.configuration_of("ContactInfo"),
            PolicyConfiguration::from_ids([a1, a4, a5])
        );
        // Pc2 = {acp2, acp6} ↔ BillingInfo.
        assert_eq!(
            set.configuration_of("BillingInfo"),
            PolicyConfiguration::from_ids([a2, a6])
        );
        // Medication gets acp4, acp6 at this level (acp3 covers the parent).
        assert_eq!(
            set.configuration_of("Medication"),
            PolicyConfiguration::from_ids([a4, a6])
        );
        // Unknown tags have the empty configuration.
        assert!(set.configuration_of("SocialHistory").is_empty());
        let _ = a3;
    }

    #[test]
    fn configuration_in_is_scoped_to_the_document() {
        let mut set = example4_policies();
        let other = set.add(AccessControlPolicy::new(
            vec![AttributeCondition::eq_str("role", "int")],
            &["ContactInfo"],
            "Other.xml",
        ));
        assert_eq!(
            set.configuration_in("EHR.xml", "ContactInfo"),
            PolicyConfiguration::from_ids([AcpId(0), AcpId(3), AcpId(4)])
        );
        assert_eq!(
            set.configuration_in("Other.xml", "ContactInfo"),
            PolicyConfiguration::from_ids([other])
        );
        assert!(set.configuration_in("Other.xml", "BillingInfo").is_empty());
        assert!(set.configuration_of("ContactInfo").contains(other));
    }

    #[test]
    fn grouping_collects_equal_configurations() {
        let set = example4_policies();
        let groups = set.group_by_configuration([
            "ContactInfo",
            "BillingInfo",
            "Medication",
            "PhysicalExams",
            "Plan",
            "LabRecords",
        ]);
        // PhysicalExams and Plan share {acp4} here, so they group together.
        let pc_pe = set.configuration_of("PhysicalExams");
        assert_eq!(
            groups.get(&pc_pe).unwrap(),
            &vec!["PhysicalExams".to_string(), "Plan".to_string()]
        );
    }

    #[test]
    fn dominance_relation() {
        let small = PolicyConfiguration::from_ids([AcpId(0)]);
        let big = PolicyConfiguration::from_ids([AcpId(0), AcpId(1)]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small));
        let empty = PolicyConfiguration::default();
        assert!(empty.dominates(&small));
    }

    #[test]
    fn distinct_conditions_deduplicate() {
        let set = example4_policies();
        let conds = set.distinct_conditions();
        // 6 role equalities + 1 level condition = 7 distinct conditions.
        assert_eq!(conds.len(), 7);
        let role_conds = set.conditions_on_attribute("role");
        assert_eq!(role_conds.len(), 6);
        assert_eq!(set.conditions_on_attribute("level").len(), 1);
        assert!(set.conditions_on_attribute("age").is_empty());
    }

    #[test]
    fn satisfaction_and_access() {
        let set = example4_policies();
        let nurse59 = AttributeSet::new()
            .with_str("role", "nur")
            .with("level", 59);
        let nurse58 = AttributeSet::new()
            .with_str("role", "nur")
            .with("level", 58);
        let doctor = AttributeSet::new().with_str("role", "doc");
        assert_eq!(set.satisfied_by(&nurse59), vec![AcpId(3)]);
        assert!(set.satisfied_by(&nurse58).is_empty());
        assert_eq!(set.satisfied_by(&doctor), vec![AcpId(2)]);
        let pc_contact = set.configuration_of("ContactInfo");
        assert!(set.grants_access(&pc_contact, &nurse59));
        assert!(!set.grants_access(&pc_contact, &nurse58));
        assert!(!set.grants_access(&pc_contact, &doctor));
    }
}
