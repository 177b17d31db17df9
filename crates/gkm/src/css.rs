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
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

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

/// The CSS table `T`.
#[derive(Debug, Clone, Default)]
pub struct CssTable {
    kappa_bits: u32,
    rows: BTreeMap<Nym, BTreeMap<AttributeCondition, Css>>,
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
            rows: BTreeMap::new(),
        }
    }

    /// The CSS bit width κ.
    pub fn kappa_bits(&self) -> u32 {
        self.kappa_bits
    }

    /// Issues (or re-issues, overriding — the paper's credential-update
    /// case) a CSS for `(nym, cond)` and returns a copy of it.
    pub fn issue<R: RngCore + ?Sized>(
        &mut self,
        nym: &Nym,
        cond: &AttributeCondition,
        rng: &mut R,
    ) -> Css {
        let mut css = vec![0u8; (self.kappa_bits / 8) as usize];
        rng.fill_bytes(&mut css);
        self.rows
            .entry(nym.clone())
            .or_default()
            .insert(cond.clone(), css.clone());
        css
    }

    /// Looks up the CSS for `(nym, cond)`.
    pub fn get(&self, nym: &Nym, cond: &AttributeCondition) -> Option<&Css> {
        self.rows.get(nym)?.get(cond)
    }

    /// Credential revocation: removes one `(nym, cond)` record.
    pub fn remove_credential(&mut self, nym: &Nym, cond: &AttributeCondition) -> bool {
        let Some(row) = self.rows.get_mut(nym) else {
            return false;
        };
        let removed = row.remove(cond).is_some();
        if row.is_empty() {
            self.rows.remove(nym);
        }
        removed
    }

    /// Subscription revocation: removes the whole `nym` row.
    pub fn remove_subscriber(&mut self, nym: &Nym) -> bool {
        self.rows.remove(nym).is_some()
    }

    /// All pseudonyms with at least one record.
    pub fn nyms(&self) -> impl Iterator<Item = &Nym> {
        self.rows.keys()
    }

    /// Number of subscribers with records.
    pub fn subscriber_count(&self) -> usize {
        self.rows.len()
    }

    /// Total number of CSS records.
    pub fn record_count(&self) -> usize {
        self.rows.values().map(BTreeMap::len).sum()
    }

    /// The paper's `U_k` query: pseudonyms whose records cover *all* of
    /// `conds` (the SQL `SELECT * FROM T WHERE cond <> NULL` example).
    pub fn nyms_with_all(&self, conds: &[AttributeCondition]) -> Vec<&Nym> {
        self.rows
            .iter()
            .filter(|(_, row)| conds.iter().all(|c| row.contains_key(c)))
            .map(|(nym, _)| nym)
            .collect()
    }

    /// Concatenation `r_{i,1} ‖ … ‖ r_{i,m_k}` of a subscriber's CSSs for
    /// the given condition list, in order — the hash input of the BGKM
    /// matrix row. `None` if any record is missing.
    pub fn css_concat(&self, nym: &Nym, conds: &[AttributeCondition]) -> Option<Vec<u8>> {
        let row = self.rows.get(nym)?;
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
        for (nym, row) in &self.rows {
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

/// Default shard count for [`ShardedCssTable`] — enough to keep 8–16
/// registration threads from contending, small enough that whole-table
/// scans (broadcast) stay cheap.
pub const DEFAULT_CSS_SHARDS: usize = 16;

/// A concurrency-friendly CSS table: the same `(nym, cond) → CSS` map as
/// [`CssTable`], split into N independently locked shards keyed by a hash
/// of the pseudonym. Every per-subscriber operation (issue, lookup,
/// revocation) touches exactly one shard, so concurrent registrations for
/// different subscribers proceed in parallel; whole-table queries
/// (`nyms_with_all`, the broadcast-time `U_k` scan) walk the shards one at
/// a time and re-sort, preserving [`CssTable`]'s deterministic pseudonym
/// order.
///
/// All methods take `&self` — the table is designed to sit behind an
/// `Arc` shared between a publisher (broadcast-time reads, revocations)
/// and any number of registration handlers (issues).
#[derive(Debug)]
pub struct ShardedCssTable {
    kappa_bits: u32,
    shards: Box<[RwLock<CssTable>]>,
}

impl ShardedCssTable {
    /// Creates an empty table issuing κ-bit secrets over
    /// [`DEFAULT_CSS_SHARDS`] shards (κ must be a positive multiple of 8).
    pub fn new(kappa_bits: u32) -> Self {
        Self::with_shards(kappa_bits, DEFAULT_CSS_SHARDS)
    }

    /// Creates an empty table with an explicit shard count (≥ 1).
    pub fn with_shards(kappa_bits: u32, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        Self {
            kappa_bits,
            shards: (0..shards)
                .map(|_| RwLock::new(CssTable::new(kappa_bits)))
                .collect(),
        }
    }

    fn shard_for(&self, nym: &Nym) -> &RwLock<CssTable> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        nym.0.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The CSS bit width κ.
    pub fn kappa_bits(&self) -> u32 {
        self.kappa_bits
    }

    /// Issues (or re-issues, overriding) a CSS for `(nym, cond)`, locking
    /// only the pseudonym's shard.
    pub fn issue<R: RngCore + ?Sized>(
        &self,
        nym: &Nym,
        cond: &AttributeCondition,
        rng: &mut R,
    ) -> Css {
        // Draw the randomness *outside* the lock so a slow RNG never
        // extends the critical section.
        let mut css = vec![0u8; (self.kappa_bits / 8) as usize];
        rng.fill_bytes(&mut css);
        let mut shard = self
            .shard_for(nym)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard
            .rows
            .entry(nym.clone())
            .or_default()
            .insert(cond.clone(), css.clone());
        css
    }

    /// Looks up the CSS for `(nym, cond)` (a copy — the record stays
    /// behind its shard lock).
    pub fn get(&self, nym: &Nym, cond: &AttributeCondition) -> Option<Css> {
        self.shard_for(nym)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(nym, cond)
            .cloned()
    }

    /// Credential revocation: removes one `(nym, cond)` record.
    pub fn remove_credential(&self, nym: &Nym, cond: &AttributeCondition) -> bool {
        self.shard_for(nym)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove_credential(nym, cond)
    }

    /// Subscription revocation: removes the whole `nym` row.
    pub fn remove_subscriber(&self, nym: &Nym) -> bool {
        self.shard_for(nym)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove_subscriber(nym)
    }

    /// Number of subscribers with records.
    pub fn subscriber_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .subscriber_count()
            })
            .sum()
    }

    /// Total number of CSS records.
    pub fn record_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .record_count()
            })
            .sum()
    }

    /// The paper's `U_k` query across all shards, re-sorted so the result
    /// order matches the unsharded [`CssTable::nyms_with_all`].
    pub fn nyms_with_all(&self, conds: &[AttributeCondition]) -> Vec<Nym> {
        let mut out: Vec<Nym> = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out.extend(guard.nyms_with_all(conds).into_iter().cloned());
        }
        out.sort();
        out
    }

    /// Concatenation of a subscriber's CSSs for `conds`, in order — single
    /// shard. `None` if any record is missing.
    pub fn css_concat(&self, nym: &Nym, conds: &[AttributeCondition]) -> Option<Vec<u8>> {
        self.shard_for(nym)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .css_concat(nym, conds)
    }

    /// A merged point-in-time copy of the whole table, for audits, the
    /// Table-I rendering, and every [`CssTable`] read API. Locks the
    /// shards one at a time; concurrent issues may or may not appear.
    pub fn snapshot(&self) -> CssTable {
        let mut merged = CssTable::new(self.kappa_bits);
        for shard in self.shards.iter() {
            let guard = shard
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (nym, row) in &guard.rows {
                merged.rows.insert(nym.clone(), row.clone());
            }
        }
        merged
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
        let mut t = CssTable::new(128);
        let mut r = rng();
        let nym = Nym::new("pn-0012");
        let c = cond("level", 59);
        let css = t.issue(&nym, &c, &mut r);
        assert_eq!(css.len(), 16);
        assert_eq!(t.get(&nym, &c), Some(&css));
        assert_eq!(t.get(&Nym::new("pn-9999"), &c), None);
        assert_eq!(t.subscriber_count(), 1);
        assert_eq!(t.record_count(), 1);
    }

    #[test]
    fn reissue_overrides() {
        // Credential update: "An old CSS is overridden by the new CSS."
        let mut t = CssTable::new(128);
        let mut r = rng();
        let nym = Nym::new("pn-1492");
        let c = cond("YoS", 5);
        let first = t.issue(&nym, &c, &mut r);
        let second = t.issue(&nym, &c, &mut r);
        assert_ne!(first, second);
        assert_eq!(t.get(&nym, &c), Some(&second));
        assert_eq!(t.record_count(), 1);
    }

    #[test]
    fn revocations() {
        let mut t = CssTable::new(64);
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
        let mut t = CssTable::new(64);
        let mut r = rng();
        let nym = Nym::new("pn-1");
        let c = cond("a", 1);
        t.issue(&nym, &c, &mut r);
        t.remove_credential(&nym, &c);
        assert_eq!(t.subscriber_count(), 0);
    }

    #[test]
    fn nyms_with_all_conjunction() {
        let mut t = CssTable::new(64);
        let mut r = rng();
        let (c1, c2) = (cond("role", 1), cond("level", 59));
        let alice = Nym::new("alice");
        let bob = Nym::new("bob");
        t.issue(&alice, &c1, &mut r);
        t.issue(&alice, &c2, &mut r);
        t.issue(&bob, &c1, &mut r);
        assert_eq!(
            t.nyms_with_all(std::slice::from_ref(&c1)),
            vec![&alice, &bob]
        );
        assert_eq!(t.nyms_with_all(&[c1.clone(), c2.clone()]), vec![&alice]);
        assert_eq!(t.nyms_with_all(std::slice::from_ref(&c2)), vec![&alice]);
        assert!(t.nyms_with_all(&[cond("x", 0)]).is_empty());
    }

    #[test]
    fn css_concat_ordering_and_missing() {
        let mut t = CssTable::new(64);
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
        let mut t = CssTable::new(64);
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
    fn sharded_table_matches_unsharded_semantics() {
        let sharded = ShardedCssTable::with_shards(64, 4);
        let mut flat = CssTable::new(64);
        let mut r1 = rng();
        let mut r2 = rng();
        let conds = [cond("a", 1), cond("b", 2)];
        for i in 0..32 {
            let nym = Nym::new(&format!("pn-{i:04}"));
            for c in &conds {
                // Same RNG stream → identical CSS bytes in both tables.
                let s = sharded.issue(&nym, c, &mut r1);
                let f = flat.issue(&nym, c, &mut r2);
                assert_eq!(s, f);
            }
        }
        assert_eq!(sharded.record_count(), flat.record_count());
        assert_eq!(sharded.subscriber_count(), flat.subscriber_count());
        // U_k order is the unsharded (sorted) order.
        let sharded_nyms = sharded.nyms_with_all(&conds);
        let flat_nyms: Vec<Nym> = flat.nyms_with_all(&conds).into_iter().cloned().collect();
        assert_eq!(sharded_nyms, flat_nyms);
        let probe = Nym::new("pn-0007");
        assert_eq!(
            sharded.css_concat(&probe, &conds),
            flat.css_concat(&probe, &conds)
        );
        assert_eq!(
            sharded.get(&probe, &conds[0]).as_ref(),
            flat.get(&probe, &conds[0])
        );
        // Snapshot equals the flat table exactly.
        let snap = sharded.snapshot();
        assert_eq!(snap.record_count(), flat.record_count());
        assert_eq!(
            snap.css_concat(&probe, &conds),
            flat.css_concat(&probe, &conds)
        );

        // Revocations bite in one shard only.
        assert!(sharded.remove_credential(&probe, &conds[0]));
        assert!(!sharded.remove_credential(&probe, &conds[0]));
        assert!(sharded.remove_subscriber(&probe));
        assert_eq!(sharded.subscriber_count(), 31);
    }

    #[test]
    fn sharded_concurrent_issues_land_in_consistent_state() {
        let table = std::sync::Arc::new(ShardedCssTable::new(64));
        let c = cond("level", 3);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let table = std::sync::Arc::clone(&table);
                let c = c.clone();
                scope.spawn(move || {
                    let mut r = rand::rngs::StdRng::seed_from_u64(t);
                    for i in 0..16 {
                        table.issue(&Nym::new(&format!("pn-{t}-{i}")), &c, &mut r);
                    }
                });
            }
        });
        assert_eq!(table.record_count(), 8 * 16);
        assert_eq!(table.nyms_with_all(std::slice::from_ref(&c)).len(), 8 * 16);
    }
}
