//! Protocol-layer codec robustness: every [`pbcd_core::proto`] message
//! round-trips bit-exactly, and decoding is **total** — truncation,
//! corruption, trailing bytes and header tampering yield errors, never
//! panics. These are the attacker-facing bytes of the registration
//! endpoint, so the fuzz here mirrors `pbcd_net`'s frame proptests.

use pbcd_core::proto::{
    ConditionsInfo, ErrorCode, ErrorResponse, IssueRequest, IssueResponse, RegisterRequest,
    RegisterResponse, Request, Response,
};
use pbcd_core::{IdentityManager, IdentityProvider};
use pbcd_crypto::sha256;
use pbcd_group::P256Group;
use pbcd_ocbe::{ComparisonOp, OcbeSystem, Predicate};
use pbcd_policy::AttributeCondition;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> P256Group {
    P256Group::new()
}

/// Builds one of every request/response shape, covering all proof and
/// envelope variants (Empty/Bits/Dual, Eq/Ge/Le/Dual — including the
/// edge thresholds where one Dual side is absent) and a `RegisterBatch`
/// cohort with a mixed `Ok` / `Err` reply.
fn sample_messages() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let group = group();
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let idp = IdentityProvider::new(group.clone(), "idp", &mut rng);
    let mut idmgr = IdentityManager::new(group.clone(), &mut rng);
    let assertion = idp.assert_attribute("alice", "level", 59, &mut rng);
    let (token, opening) = idmgr
        .issue_token(&assertion, &idp.verifying_key(), &mut rng)
        .expect("honest assertion");
    let ocbe = OcbeSystem::new(group.clone(), 16);

    let mut requests = vec![
        Request::<P256Group>::ConditionsQuery { attribute: None }
            .encode(&group)
            .unwrap(),
        Request::<P256Group>::ConditionsQuery {
            attribute: Some("level".into()),
        }
        .encode(&group)
        .unwrap(),
        Request::<P256Group>::Issue(IssueRequest {
            subject: "alice".into(),
            attribute: "level".into(),
            value: 59,
        })
        .encode(&group)
        .unwrap(),
    ];
    let mut responses = vec![
        Response::<P256Group>::Conditions(ConditionsInfo {
            ell: 16,
            kappa_bits: 128,
            conditions: vec![
                AttributeCondition::new("level", ComparisonOp::Ge, 59),
                AttributeCondition::eq_str("role", "nurse"),
            ],
        })
        .encode(&group)
        .unwrap(),
        Response::<P256Group>::Issue(IssueResponse {
            token: token.clone(),
            opening: opening.clone(),
        })
        .encode(&group)
        .unwrap(),
        Response::<P256Group>::Error(ErrorResponse {
            code: ErrorCode::UnknownCondition,
            message: "no such condition".into(),
        })
        .encode(&group)
        .unwrap(),
    ];

    // One register request/response pair per comparison operator,
    // including the ≠ edge thresholds (threshold 0 ⇒ GE side only;
    // threshold max ⇒ LE side only).
    for (op, threshold) in [
        (ComparisonOp::Eq, 59),
        (ComparisonOp::Ge, 59),
        (ComparisonOp::Gt, 10),
        (ComparisonOp::Le, 59),
        (ComparisonOp::Lt, 59),
        (ComparisonOp::Neq, 59),
        (ComparisonOp::Neq, 0),
        (ComparisonOp::Neq, 65535),
    ] {
        let pred = Predicate::new(op, threshold);
        let (proof, _secrets) = ocbe
            .receiver_prepare(59, &opening, &pred, &mut rng)
            .expect("satisfiable predicate");
        let envelope = ocbe
            .sender_compose(&token.commitment, &pred, &proof, b"css-bytes", &mut rng)
            .expect("proof accepted");
        requests.push(
            Request::Register(RegisterRequest {
                token: token.clone(),
                cond: AttributeCondition::new("level", op, threshold),
                proof,
            })
            .encode(&group)
            .unwrap(),
        );
        responses.push(
            Response::Register(RegisterResponse { envelope })
                .encode(&group)
                .unwrap(),
        );
    }

    // The cohort kind: the EQ and GE items above in one frame, answered
    // by one envelope and one typed per-item error.
    let items = requests[3..5]
        .iter()
        .map(|bytes| match Request::decode(&group, bytes).unwrap() {
            Request::Register(item) => item,
            other => panic!("expected Register, got {other:?}"),
        })
        .collect();
    requests.push(Request::RegisterBatch(items).encode(&group).unwrap());
    let accepted = match Response::decode(&group, &responses[4]).unwrap() {
        Response::Register(r) => r,
        other => panic!("expected Register, got {other:?}"),
    };
    let rejected = ErrorResponse {
        code: ErrorCode::BadToken,
        message: "bad token signature".into(),
    };
    responses.push(
        Response::RegisterBatch(vec![Ok(accepted), Err(rejected)])
            .encode(&group)
            .unwrap(),
    );
    (requests, responses)
}

/// decode → re-encode must reproduce the original bytes exactly (the
/// codec is canonical, so byte equality substitutes for structural
/// equality without `PartialEq` on envelope types).
#[test]
fn every_message_roundtrips_bit_exactly() {
    let group = group();
    let (requests, responses) = sample_messages();
    for bytes in &requests {
        let decoded = Request::<P256Group>::decode(&group, bytes).expect("request decodes");
        assert_eq!(&decoded.encode(&group).unwrap(), bytes, "{decoded:?}");
    }
    for bytes in &responses {
        let decoded = Response::<P256Group>::decode(&group, bytes).expect("response decodes");
        assert_eq!(&decoded.encode(&group).unwrap(), bytes, "{decoded:?}");
    }
}

fn hex_sha256(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 of each request encoding of [`sample_messages`], in order.
const REQUEST_PINS: [&str; 12] = [
    "b88243a0286fc0e1dc194842185382efff4e8ef96bda244d1ed4c183f80a77d4",
    "b72acf1d97bb1a931595707a39881b37b358cdcdf979f76d0fb1f602bc9167e7",
    "903bef8756b05da93a252b81842aa7556b7d86cc68cd2cac12987bb442c1ebd4",
    "61bd3d716dab3667b1a8f39a26b1d812a1e3bcc6b76ad5b2f622f13ab63867c1",
    "d02812e732b48cec2aaf3085965e341200418ed0dda17f6cf173ed00392d13c0",
    "3a29d4f58808d8bbc790edb3997f84c51a75d31ee6d4dc66e4be01b7b6cfe97e",
    "e2818867bac7467e33d05b45bddf35972187706fd255694186e952364d3b28cf",
    "278ab293fcd61bed2ee51a5145a324b700e0a68f70e49fe4dba7038892b4d9ef",
    "7c83ddc4584069ef793321856756dffdda2776c4a2156ee02e9639505baab1b8",
    "ef275828f149f246aee2100a88b10d885bbc89a92af7f47302532270883bb526",
    "40cda7ce3497c554c14aa57698e9a91e0956bd8eb36795067b41a5bbb18af441",
    "bb139b9d09de8da78dc97882977881ef5356625ae23c92c8abf0d36dfeaaba81",
];

/// SHA-256 of each response encoding of [`sample_messages`], in order.
const RESPONSE_PINS: [&str; 12] = [
    "74c8fa7362f8b3e7aeaabd703e716c8aa3bc8ec5e402015337d576077340655b",
    "6047567057197ebb23f0b8368149f3f6989bdca2c30ae79d867d21d57d4ec4dd",
    "8569bd3fb6300bcedef22286bf145e1ae7caa0ae34d857c4a7637d368339e75d",
    "dc936701a9ac820686b768c7ac4eccff6f360fbd9acf222c15e3565ad29d8254",
    "34ca6401733c46efd6a3d13d4260a14bdcbb562ee9fd6538f0435c86cd4ffea0",
    "b1dda6d6f9f935b034893412a90cf4fbb0fb8af4891d03b3e25348df1630f161",
    "b7eca58ea7015f88cb169dc26821ba097b6f48852c09cbeaa77497a5166960dc",
    "d2723e8bbe10514a6286876262e2b0e11b1e1e17d1daf200a23bb60a0bd9cb10",
    "ed2ecca0e8ff55cb6154acf69183a923c7dce1edfd570361951110313dae54db",
    "0b1ccb6e09a12892d85ed785a7ae75eb541d31fb5ede510e6fbbacb8d0c25cc4",
    "10060f7f50603dfab25d57475e5c4db5b9a00ff7270a47ecdb1473d1394b0374",
    "6739526222dbfadf9a115efc4a5c4448c1be2a020c0704ec4e3066779f21e766",
];

/// The SHA-256 of every request and every response encoding above: a
/// codec rewrite that moves one byte of any message fails here.
#[test]
fn every_encoding_is_pinned() {
    let (requests, responses) = sample_messages();
    let requests: Vec<String> = requests.iter().map(|m| hex_sha256(m)).collect();
    let responses: Vec<String> = responses.iter().map(|m| hex_sha256(m)).collect();
    assert_eq!(requests, REQUEST_PINS);
    assert_eq!(responses, RESPONSE_PINS);
}

/// Every strict prefix of every message fails to decode (and never
/// panics).
#[test]
fn truncation_never_decodes() {
    let group = group();
    let (requests, responses) = sample_messages();
    for bytes in &requests {
        for cut in 0..bytes.len() {
            assert!(
                Request::<P256Group>::decode(&group, &bytes[..cut]).is_err(),
                "request cut at {cut}"
            );
        }
    }
    for bytes in &responses {
        for cut in 0..bytes.len() {
            assert!(
                Response::<P256Group>::decode(&group, &bytes[..cut]).is_err(),
                "response cut at {cut}"
            );
        }
    }
}

#[test]
fn trailing_garbage_rejected() {
    let group = group();
    let (requests, responses) = sample_messages();
    for bytes in requests {
        let mut long = bytes;
        long.push(0);
        assert!(Request::<P256Group>::decode(&group, &long).is_err());
    }
    for bytes in responses {
        let mut long = bytes;
        long.push(0);
        assert!(Response::<P256Group>::decode(&group, &long).is_err());
    }
}

#[test]
fn header_tampering_rejected() {
    let group = group();
    let good = Request::<P256Group>::ConditionsQuery { attribute: None }
        .encode(&group)
        .unwrap();
    for (idx, val) in [(0usize, b'X'), (2, 99), (3, 200)] {
        let mut bad = good.clone();
        bad[idx] = val;
        assert!(Request::<P256Group>::decode(&group, &bad).is_err());
    }
    // Response kinds are rejected on the request side and vice versa.
    let resp = Response::<P256Group>::Error(ErrorResponse {
        code: ErrorCode::Internal,
        message: String::new(),
    })
    .encode(&group)
    .unwrap();
    assert!(Request::<P256Group>::decode(&group, &resp).is_err());
}

/// A non-canonical scalar (≥ group order) in a token signature must be
/// rejected, not silently reduced — otherwise one signature would have
/// multiple wire forms.
#[test]
fn non_canonical_scalars_rejected() {
    let group = group();
    let (requests, _) = sample_messages();
    // requests[3] is the first Register message; the signature scalars sit
    // after nym, id_tag and the commitment. Rather than compute offsets,
    // corrupt every 32-byte-aligned window to all-0xFF and require that
    // *no* corruption both decodes and re-encodes differently.
    for bytes in &requests {
        for start in (0..bytes.len().saturating_sub(32)).step_by(7) {
            let mut bad = bytes.clone();
            for b in &mut bad[start..start + 32] {
                *b = 0xFF;
            }
            if let Ok(decoded) = Request::<P256Group>::decode(&group, &bad) {
                // If it decodes, re-encoding must reproduce the mutated
                // bytes (canonicality).
                assert_eq!(decoded.encode(&group).unwrap(), bad);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-byte corruption anywhere in any message: decode may
    /// succeed or fail, but must never panic, and anything that decodes
    /// must re-encode canonically.
    #[test]
    fn corruption_is_total(msg_idx in 0usize..12, raw_pos in 0usize..1_000_000, delta in 1u8..=255) {
        let group = group();
        let (requests, responses) = sample_messages();
        let reqs = &requests[msg_idx.min(requests.len() - 1)];
        let pos = raw_pos % reqs.len();
        let mut bad = reqs.clone();
        bad[pos] = bad[pos].wrapping_add(delta);
        if let Ok(decoded) = Request::<P256Group>::decode(&group, &bad) {
            prop_assert_eq!(decoded.encode(&group).unwrap(), bad);
        }
        let resp = &responses[msg_idx.min(responses.len() - 1)];
        let pos = raw_pos % resp.len();
        let mut bad = resp.clone();
        bad[pos] = bad[pos].wrapping_add(delta);
        if let Ok(decoded) = Response::<P256Group>::decode(&group, &bad) {
            prop_assert_eq!(decoded.encode(&group).unwrap(), bad);
        }
    }

    /// Arbitrary conditions round-trip through the Conditions response.
    #[test]
    fn arbitrary_conditions_roundtrip(
        attrs in prop::collection::vec("[a-zA-Z][a-zA-Z0-9_.-]{0,12}", 0..6),
        ops in prop::collection::vec(0u8..6, 6),
        thresholds in prop::collection::vec(any::<u64>(), 6),
        ell in 1u32..=63,
        kappa in 1u32..=4096,
    ) {
        let group = group();
        let conditions: Vec<AttributeCondition> = attrs
            .iter()
            .zip(&ops)
            .zip(&thresholds)
            .map(|((a, &o), &t)| {
                let op = [
                    ComparisonOp::Eq, ComparisonOp::Neq, ComparisonOp::Gt,
                    ComparisonOp::Ge, ComparisonOp::Lt, ComparisonOp::Le,
                ][o as usize];
                AttributeCondition::new(a, op, t)
            })
            .collect();
        let info = ConditionsInfo { ell, kappa_bits: kappa, conditions };
        let bytes = Response::<P256Group>::Conditions(info.clone()).encode(&group).unwrap();
        match Response::<P256Group>::decode(&group, &bytes).expect("decodes") {
            Response::Conditions(back) => prop_assert_eq!(back, info),
            other => prop_assert!(false, "wrong kind: {:?}", other),
        }
    }

    /// Pure noise never decodes as anything (the magic gate) and never
    /// panics.
    #[test]
    fn random_noise_never_panics(noise in prop::collection::vec(any::<u8>(), 0..256)) {
        let group = group();
        let _ = Request::<P256Group>::decode(&group, &noise);
        let _ = Response::<P256Group>::decode(&group, &noise);
        if noise.len() >= 2 && &noise[..2] != b"PP" {
            prop_assert!(Request::<P256Group>::decode(&group, &noise).is_err());
        }
    }
}
