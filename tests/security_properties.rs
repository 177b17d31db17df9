//! Integration tests for the security requirements of paper §I/§VI:
//! forward secrecy, backward secrecy, collusion resistance, revocation
//! (credential and subscription), credential update, user privacy, and
//! policies that grant access within their own document only.

use pbcd::core::SystemHarness;
use pbcd::docs::Element;
use pbcd::policy::{
    AccessControlPolicy, AttributeCondition, AttributeSet, ComparisonOp, PolicySet,
};

fn policies() -> PolicySet {
    let mut set = PolicySet::new();
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        &["Secret"],
        "doc.xml",
    ));
    set.add(AccessControlPolicy::new(
        vec![
            AttributeCondition::eq_str("role", "nurse"),
            AttributeCondition::new("level", ComparisonOp::Ge, 59),
        ],
        &["Secret"],
        "doc.xml",
    ));
    set
}

fn doc() -> Element {
    Element::new("root").child(Element::new("Secret").text("classified content"))
}

fn can_read(
    sub: &pbcd::core::Subscriber<pbcd::group::P256Group>,
    bc: &pbcd::docs::BroadcastContainer,
    pol: &PolicySet,
) -> bool {
    sub.decrypt_broadcast(bc, pol)
        .map(|d| d.find("Secret").is_some())
        .unwrap_or(false)
}

#[test]
fn forward_secrecy_subscription_revocation() {
    let mut sys = SystemHarness::new_p256(policies(), 1);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let nym = doctor.nym().unwrap().to_string();

    let b1 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&doctor, &b1, sys.publisher.policies()));

    // Revoke the subscription; the next broadcast rekeys.
    assert!(sys.publisher.revoke_subscriber(&nym));
    let b2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(
        !can_read(&doctor, &b2, sys.publisher.policies()),
        "revoked subscriber must not read post-revocation broadcasts"
    );
    // The old broadcast is still decryptable (keys are per-broadcast;
    // forward secrecy concerns *future* content).
    assert!(can_read(&doctor, &b1, sys.publisher.policies()));
}

#[test]
fn forward_secrecy_credential_revocation_is_fine_grained() {
    let mut sys = SystemHarness::new_p256(policies(), 2);
    // Nurse qualifies via role=nurse ∧ level ≥ 59.
    let nurse = sys.subscribe(
        "nancy",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("level", 60),
    );
    let nym = nurse.nym().unwrap().to_string();
    let b1 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&nurse, &b1, sys.publisher.policies()));

    // Revoke only the level credential: the conjunction collapses.
    let level_cond = AttributeCondition::new("level", ComparisonOp::Ge, 59);
    assert!(sys.publisher.revoke_credential(&nym, &level_cond));
    let b2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&nurse, &b2, sys.publisher.policies()));
}

#[test]
fn backward_secrecy_new_subscriber_cannot_read_old_broadcasts() {
    let mut sys = SystemHarness::new_p256(policies(), 3);
    let _existing = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let b_old = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);

    // A new doctor joins later.
    let newcomer = sys.subscribe("dan", AttributeSet::new().with_str("role", "doctor"));
    assert!(
        !can_read(&newcomer, &b_old, sys.publisher.policies()),
        "new subscriber must not decrypt pre-join broadcasts"
    );
    let b_new = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&newcomer, &b_new, sys.publisher.policies()));
}

#[test]
fn collusion_resistance_split_conjunction() {
    // Neither colluder satisfies the nurse policy alone: one has the role,
    // the other the level. Pooling CSSs must not unlock the content,
    // because the BGKM row hashes one subscriber's CSSs end-to-end.
    let mut sys = SystemHarness::new_p256(policies(), 4);
    let role_only = sys.subscribe(
        "rosa",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("level", 10),
    );
    let level_only = sys.subscribe(
        "lena",
        AttributeSet::new()
            .with_str("role", "cleaner")
            .with("level", 99),
    );
    let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&role_only, &bc, sys.publisher.policies()));
    assert!(!can_read(&level_only, &bc, sys.publisher.policies()));

    // Collusion: a synthetic subscriber holding rosa's role-CSS and lena's
    // level-CSS.
    let mut colluder = sys.subscribe("mallory", AttributeSet::new().with_str("role", "intruder"));
    let pol = sys.publisher.policies();
    let role_cond = AttributeCondition::eq_str("role", "nurse");
    let level_cond = AttributeCondition::new("level", ComparisonOp::Ge, 59);
    // Extract the CSSs the two holders actually obtained.
    // rosa holds the role CSS; lena holds the level CSS.
    assert!(role_only.has_css(&role_cond));
    assert!(level_only.has_css(&level_cond));
    // Wire them into the colluder via the test hook.
    colluder.inject_css(&role_cond, extract_css(&role_only, &role_cond));
    colluder.inject_css(&level_cond, extract_css(&level_only, &level_cond));
    assert!(
        !can_read(&colluder, &bc, pol),
        "pooled CSSs from different subscribers must not derive the key"
    );
}

/// Pulls a CSS out of a subscriber through the public API surface used by
/// tests (re-derives access by decrypting a single-condition broadcast is
/// overkill; the test hook keeps the scenario honest).
fn extract_css(
    sub: &pbcd::core::Subscriber<pbcd::group::P256Group>,
    cond: &AttributeCondition,
) -> Vec<u8> {
    sub.css_snapshot(cond).expect("css present")
}

#[test]
fn unqualified_registration_yields_no_css_but_publisher_cannot_tell() {
    let mut sys = SystemHarness::new_p256(policies(), 5);
    // A cleaner registers for every role/level condition (privacy-preserving
    // blanket registration) but can open none of the envelopes except…
    // none: no condition matches role=cleaner / level=3.
    let cleaner = sys.subscribe(
        "carl",
        AttributeSet::new()
            .with_str("role", "cleaner")
            .with("level", 3),
    );
    assert_eq!(cleaner.css_count(), 0, "no envelope opened");

    // The publisher's table still records deliveries for every condition it
    // composed envelopes for — it cannot distinguish carl from a doctor by
    // registration shape.
    let nym = cleaner.nym().unwrap();
    let table = sys.publisher.shared_css_table();
    let conds = sys.publisher.policies().distinct_conditions();
    let covered = conds
        .iter()
        .filter(|c| table.get(&pbcd::gkm::Nym::new(nym), c).is_some())
        .count();
    // carl holds tokens for `role` and `level`, so he registered for all
    // three conditions (role=doctor, role=nurse, level≥59).
    assert_eq!(covered, 3, "publisher recorded all deliveries");
}

#[test]
fn publisher_state_contains_no_attribute_values() {
    // Structural privacy check: the publisher's view of a subscriber is
    // its nym, its commitments (hiding) and CSS table rows. Attribute
    // values never cross the boundary; here we check the CSS table rows
    // for both a qualified and an unqualified subscriber are shape-identical.
    let mut sys = SystemHarness::new_p256(policies(), 6);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let cleaner = sys.subscribe("carl", AttributeSet::new().with_str("role", "cleaner"));
    let table = sys.publisher.shared_css_table();
    let role_conds: Vec<_> = sys.publisher.policies().conditions_on_attribute("role");
    for cond in &role_conds {
        let d = table.get(&pbcd::gkm::Nym::new(doctor.nym().unwrap()), cond);
        let c = table.get(&pbcd::gkm::Nym::new(cleaner.nym().unwrap()), cond);
        assert!(d.is_some() && c.is_some(), "both registered for {cond}");
        assert_eq!(d.unwrap().len(), c.unwrap().len(), "same CSS shape");
    }
}

#[test]
fn credential_update_changes_access() {
    // A nurse is promoted from level 58 to 60: re-registration with the
    // new token flips access on the next broadcast.
    let mut sys = SystemHarness::new_p256(policies(), 7);
    let mut nurse = sys.subscribe(
        "nancy",
        AttributeSet::new()
            .with_str("role", "nurse")
            .with("level", 58),
    );
    let b1 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&nurse, &b1, sys.publisher.policies()));

    // Promotion: new assertion, new token, fresh registration (the
    // publisher overrides the old CSS rows).
    nurse.update_attribute("level", 60);
    let mut promoted = sys.onboard("nancy", nurse.attributes().clone());
    sys.register_all(&mut promoted);
    let b2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&promoted, &b2, sys.publisher.policies()));
}

#[test]
fn decoy_tokens_hide_attribute_possession_without_granting_access() {
    // Paper §VI-A extension: a receptionist with no `level` or `role=doctor`
    // proof obtains decoy tokens and registers for those conditions too.
    // The publisher's table is indistinguishable from a fully-credentialed
    // subscriber's; the decoys never open an envelope — not even for
    // "level ≥ 59", which the out-of-range decoy value numerically exceeds.
    let mut sys = SystemHarness::new_p256(policies(), 9);
    let cleaner = sys.subscribe_with_decoys(
        "carl",
        AttributeSet::new().with_str("job", "cleaner"), // no policy attribute at all
        &["role", "level"],
    );
    // Registered for all three conditions via decoys…
    let table = sys.publisher.shared_css_table();
    let nym = pbcd::gkm::Nym::new(cleaner.nym().unwrap());
    let covered = sys
        .publisher
        .policies()
        .distinct_conditions()
        .iter()
        .filter(|c| table.get(&nym, c).is_some())
        .count();
    assert_eq!(covered, 3, "decoys registered everywhere");
    // …but extracted nothing.
    assert_eq!(cleaner.css_count(), 0);
    // And reads nothing.
    let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(!can_read(&cleaner, &bc, sys.publisher.policies()));

    // Shape-comparison: a real doctor's table row covers the same three
    // conditions — the publisher cannot distinguish them structurally.
    let doctor = sys.subscribe_with_decoys(
        "dora",
        AttributeSet::new().with_str("role", "doctor"),
        &["level"],
    );
    let d_nym = pbcd::gkm::Nym::new(doctor.nym().unwrap());
    let d_table = sys.publisher.shared_css_table();
    let d_covered = sys
        .publisher
        .policies()
        .distinct_conditions()
        .iter()
        .filter(|c| d_table.get(&d_nym, c).is_some())
        .count();
    assert_eq!(d_covered, 3, "same registration shape as the cleaner");
    let bc2 = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    assert!(can_read(&doctor, &bc2, sys.publisher.policies()));
}

#[test]
fn container_tampering_is_detected() {
    let mut sys = SystemHarness::new_p256(policies(), 8);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut sys.rng);
    let pol = sys.publisher.policies();
    assert!(can_read(&doctor, &bc, pol));

    // Flip a ciphertext byte: decryption must fail closed (redacted), not
    // produce garbage plaintext.
    let mut tampered = bc.clone();
    for g in &mut tampered.groups {
        for s in &mut g.segments {
            if let Some(b) = s.ciphertext.last_mut() {
                *b ^= 1;
            }
        }
    }
    assert!(!can_read(&doctor, &tampered, pol));
}

#[test]
fn a_policy_on_one_document_grants_nothing_in_another() {
    // One object name, two documents, a different audience for each: the
    // intern's policy on b.xml must not open a.xml's Note, and the
    // doctor's policy on a.xml must not open b.xml's.
    let mut set = PolicySet::new();
    for (role, document) in [("doctor", "a.xml"), ("intern", "b.xml")] {
        let subject = vec![AttributeCondition::eq_str("role", role)];
        set.add(AccessControlPolicy::new(subject, &["Note"], document));
    }
    let mut sys = SystemHarness::new_p256(set, 10);
    let doctor = sys.subscribe("dora", AttributeSet::new().with_str("role", "doctor"));
    let intern = sys.subscribe("ivan", AttributeSet::new().with_str("role", "intern"));
    let memo = Element::new("Memo").child(Element::new("Note").text("doctors only"));
    let a = sys.publisher.broadcast(&memo, "a.xml", &mut sys.rng);
    let b = sys.publisher.broadcast(&memo, "b.xml", &mut sys.rng);
    let pol = sys.publisher.policies();
    let reads = |sub: &pbcd::core::Subscriber<pbcd::group::P256Group>, bc| {
        let view = sub.decrypt_broadcast(bc, pol).expect("decrypts");
        view.find("Note").is_some()
    };
    assert!(reads(&doctor, &a), "the doctor reads a.xml's Note");
    assert!(
        !reads(&intern, &a),
        "b.xml's policy must not open a.xml's Note"
    );
    assert!(reads(&intern, &b), "the intern reads b.xml's Note");
    assert!(
        !reads(&doctor, &b),
        "a.xml's policy must not open b.xml's Note"
    );
}

/// The public bytes of containers must not determine their keys. This
/// runs, against whatever `StdRng` is, the recoveries that break a linear
/// generator. xoshiro256** keeps a 256-bit state that each step maps
/// linearly over GF(2) and outputs `r = rotl(s1·5, 7)·9`, so the low `k`
/// bits of an output fix bits `0..k−7` of `s1` and a full output fixes
/// all of it. An observer who models the generator so tries two things:
///
/// * **From the ACV nonces of one container.** Each configuration rekeys
///   on `StdRng::from_seed`; the first outputs of that stream are the
///   public nonces `zᵢ` (2 bytes, 9 known bits each, at 40 and 96 rows)
///   and the next ones are the group key.
/// * **From the AEAD nonces of three broadcasts.** A broadcast draws one
///   32-byte seed per configuration and then one 12-byte nonce per segment
///   from the caller's stream: 64 + 25 known bits per one-segment
///   broadcast, 267 over three, which also give every later broadcast's
///   seeds.
///
/// Over a xoshiro256** `StdRng` both decrypted every container tried
/// here: 20 of 20 at 40 rows and at 96 rows, and 4 of 4 (three seen,
/// one predicted) at 4 and at 16 rows. Over the ChaCha20 keystream
/// neither recovers anything.
#[test]
fn public_nonces_do_not_reveal_the_keys() {
    let mut decrypted = Vec::new();
    for (rows, broadcasts) in [(40, 20), (96, 20)] {
        let containers = linear_attack::broadcasts(rows, broadcasts);
        let opened: usize = containers.iter().map(linear_attack::from_acv_nonces).sum();
        decrypted.push(format!("ACV nonces, {rows} rows: {opened} of {broadcasts}"));
    }
    for rows in [4, 16] {
        let containers = linear_attack::broadcasts(rows, 4);
        let opened = linear_attack::from_aead_nonces(&containers, 3);
        decrypted.push(format!("AEAD nonces, {rows} rows: {opened} of 4"));
    }
    assert!(
        decrypted.iter().all(|line| line.contains(": 0 of")),
        "an observer decrypted containers from their public bytes:\n{}",
        decrypted.join("\n")
    );
}

/// The observer of [`public_nonces_do_not_reveal_the_keys`]: a GF(2)
/// model of xoshiro256** and the two recoveries built on it. It uses
/// container bytes and public APIs only.
mod linear_attack {
    use super::doc;
    use pbcd::core::SystemHarness;
    use pbcd::crypto::AuthKey;
    use pbcd::docs::BroadcastContainer;
    use pbcd::gkm::{AccessRow, AcvBgkm, AcvPublicInfo, Nym};
    use pbcd::policy::{AccessControlPolicy, AttributeCondition, PolicySet};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// `count` one-segment broadcasts of a configuration with `rows`
    /// access rows, all drawn from one caller stream, as the bytes an
    /// observer receives.
    pub fn broadcasts(rows: usize, count: usize) -> Vec<BroadcastContainer> {
        let cond = AttributeCondition::eq_str("role", "doctor");
        let mut set = PolicySet::new();
        set.add(AccessControlPolicy::new(
            vec![cond.clone()],
            &["Secret"],
            "doc.xml",
        ));
        let mut sys = SystemHarness::new_p256(set, rows as u64);
        let table = sys.publisher.shared_css_table();
        for i in 0..rows {
            table.issue(&Nym::new(&format!("pn-{i:03}")), &cond, &mut sys.rng);
        }
        let mut caller = StdRng::seed_from_u64(0xB0AD_CA57 + rows as u64);
        (0..count)
            .map(|_| {
                let bc = sys.publisher.broadcast(&doc(), "doc.xml", &mut caller);
                BroadcastContainer::decode(&bc.encode().expect("encodes")).expect("decodes")
            })
            .collect()
    }

    /// Segments of `bc` opened with keys solved from each configuration's
    /// public nonces alone.
    pub fn from_acv_nonces(bc: &BroadcastContainer) -> usize {
        let mut opened = 0;
        for group in &bc.groups {
            let Some(info) = AcvPublicInfo::decode(&group.key_info) else {
                continue;
            };
            let mut model = Model::new();
            for z in &info.zs {
                model.observe(z);
                if model.rank == 256 {
                    break;
                }
            }
            let Some(state) = model.solve() else {
                continue;
            };
            if let Some(key) = config_key(&mut Xoshiro(state), &info) {
                opened += open(&key, &group.segments);
            }
        }
        usize::from(opened > 0)
    }

    /// Containers of `bcs` opened with keys solved from the AEAD nonces of
    /// the first `seen` of them; the rest are predicted.
    pub fn from_aead_nonces(bcs: &[BroadcastContainer], seen: usize) -> usize {
        let mut model = Model::new();
        for bc in &bcs[..seen] {
            for _ in &bc.groups {
                model.skip(32);
            }
            for segment in bc.groups.iter().flat_map(|g| &g.segments) {
                model.observe(&segment.ciphertext[..12]);
            }
        }
        let Some(state) = model.solve() else {
            return 0;
        };
        let mut caller = Xoshiro(state);
        let mut opened = 0;
        for bc in bcs {
            let seeds: Vec<[u8; 32]> = bc
                .groups
                .iter()
                .map(|_| {
                    let mut seed = [0u8; 32];
                    caller.fill_bytes(&mut seed);
                    seed
                })
                .collect();
            for _ in bc.groups.iter().flat_map(|g| &g.segments) {
                caller.fill_bytes(&mut [0u8; 12]);
            }
            let mut any = false;
            for (group, seed) in bc.groups.iter().zip(seeds) {
                let Some(info) = AcvPublicInfo::decode(&group.key_info) else {
                    continue;
                };
                if let Some(key) = config_key(&mut Xoshiro::from_seed(seed), &info) {
                    any |= open(&key, &group.segments) > 0;
                }
            }
            opened += usize::from(any);
        }
        opened
    }

    /// Replays a configuration's rekey on `rng` with stand-in rows of the
    /// published count: the nonces come out first and the key next, so
    /// the key is right whenever the replayed nonces match the published
    /// ones.
    fn config_key(rng: &mut Xoshiro, info: &AcvPublicInfo) -> Option<AuthKey> {
        let rows: Vec<AccessRow> = (0..info.zs.len())
            .map(|i| AccessRow {
                nym: format!("guess-{i}"),
                css_concat: (i as u32).to_be_bytes().repeat(4),
            })
            .collect();
        let (key, replayed) = AcvBgkm::default().rekey(&rows, rng);
        (replayed.zs == info.zs).then(|| AuthKey::from_master(&key))
    }

    fn open(key: &AuthKey, segments: &[pbcd::docs::EncryptedSegment]) -> usize {
        segments
            .iter()
            .filter(|s| key.decrypt(&s.ciphertext).is_ok())
            .count()
    }

    /// xoshiro256** exactly: the generator the observer assumes.
    struct Xoshiro([u64; 4]);

    impl Xoshiro {
        fn from_seed(seed: [u8; 32]) -> Self {
            Self(std::array::from_fn(|i| {
                u64::from_le_bytes(seed[8 * i..8 * i + 8].try_into().expect("8 bytes"))
            }))
        }
    }

    impl RngCore for Xoshiro {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.0;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    /// A linear form over the 256 unknown bits of a starting state.
    type Lin = [u64; 4];

    /// xoshiro256** run over symbols from an unknown starting state, with
    /// the equations its observed outputs give, kept in echelon form:
    /// `pivots[p]` has lowest set bit `p`.
    struct Model {
        s: [[Lin; 64]; 4],
        pivots: Vec<Option<(Lin, bool)>>,
        rank: usize,
        inconsistent: bool,
    }

    impl Model {
        fn new() -> Self {
            let mut s = [[[0u64; 4]; 64]; 4];
            for (limb, bits) in s.iter_mut().enumerate() {
                for (bit, lin) in bits.iter_mut().enumerate() {
                    lin[limb] = 1 << bit;
                }
            }
            Self {
                s,
                pivots: vec![None; 256],
                rank: 0,
                inconsistent: false,
            }
        }

        /// One step; returns the symbolic `s1` the output is made of.
        fn step(&mut self) -> [Lin; 64] {
            let xor = |a: &mut [Lin; 64], b: &[Lin; 64]| {
                for (x, y) in a.iter_mut().zip(b) {
                    for (u, v) in x.iter_mut().zip(y) {
                        *u ^= v;
                    }
                }
            };
            let [s0, s1, s2, s3] = &mut self.s;
            let out = *s1;
            let mut t = [[0u64; 4]; 64];
            t[17..].copy_from_slice(&s1[..47]);
            xor(s2, s0);
            xor(s3, s1);
            xor(s1, s2);
            xor(s0, s3);
            xor(s2, &t);
            s3.rotate_right(45);
            out
        }

        /// Advances past one unobserved `fill_bytes` of `len` bytes.
        fn skip(&mut self, len: usize) {
            for _ in 0..len.div_ceil(8) {
                self.step();
            }
        }

        /// Takes the equations of one observed `fill_bytes` output.
        fn observe(&mut self, bytes: &[u8]) {
            const INV9: u64 = inverse(9);
            const INV5: u64 = inverse(5);
            for chunk in bytes.chunks(8) {
                let s1 = self.step();
                let mut r = [0u8; 8];
                r[..chunk.len()].copy_from_slice(chunk);
                let r = u64::from_le_bytes(r).wrapping_mul(INV9);
                let (known, m) = match chunk.len() {
                    8 => (64, r.rotate_right(7)),
                    n => ((8 * n).saturating_sub(7), r >> 7),
                };
                let value = m.wrapping_mul(INV5);
                for (bit, lin) in s1.iter().enumerate().take(known) {
                    self.add(*lin, (value >> bit) & 1 == 1);
                }
            }
        }

        fn add(&mut self, mut lin: Lin, mut rhs: bool) {
            loop {
                let Some(p) = (0..256).find(|&b| lin[b / 64] >> (b % 64) & 1 == 1) else {
                    self.inconsistent |= rhs;
                    return;
                };
                match &self.pivots[p] {
                    Some((row, bit)) => {
                        for (u, v) in lin.iter_mut().zip(row) {
                            *u ^= v;
                        }
                        rhs ^= bit;
                    }
                    None => {
                        self.pivots[p] = Some((lin, rhs));
                        self.rank += 1;
                        return;
                    }
                }
            }
        }

        /// The starting state, if the equations fix it.
        fn solve(&self) -> Option<[u64; 4]> {
            if self.inconsistent || self.rank < 256 {
                return None;
            }
            let mut x = [0u64; 4];
            for p in (0..256).rev() {
                let (row, rhs) = self.pivots[p].as_ref()?;
                let mut bit = *rhs;
                for q in p + 1..256 {
                    bit ^= (row[q / 64] >> (q % 64)) & (x[q / 64] >> (q % 64)) & 1 == 1;
                }
                x[p / 64] |= u64::from(bit) << (p % 64);
            }
            Some(x)
        }
    }

    /// The inverse of odd `x` modulo 2⁶⁴ (Newton's iteration).
    const fn inverse(x: u64) -> u64 {
        let mut y = x;
        let mut i = 0;
        while i < 6 {
            y = y.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(y)));
            i += 1;
        }
        y
    }
}
