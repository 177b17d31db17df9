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
    "389a9bedad8b2f7cc2de5c37a83c5821cdc2166c30576fc30ec0349537514b18",
    "4f04fcbaf4b81296ffe428b7e7fb095be75c8557e185bb6fa8c8ecbea323906a",
    "60dd22249ae7712c064c50e8bed0bd35b9d6d43cc68ae4c9d05a4da9df67e1f3",
    "c48d03ff45807d635ece33d5d17d4b930d96fd773219473dd6d51c8bd9bc3399",
    "173692235ff010351bc6712a5f0bc9b7c4dca334b71ee0eec272e89e5858b5a2",
    "681b07a279596fc5ecc7dfc2bf7aa5c20b4cd8302fe5cf9ba4fc41fc37dba5a1",
    "0adbc4d98e9d40b6ac60931d41f9929ab2b6bf0c8f427a982496e3a11b668f7f",
    "ecf735ce63b71f72292b26de4229de1be5e0d1dc2bc71996fb1d96ad3a7f15ad",
];

/// SHA-256 of each response encoding of [`sample_messages`], in order.
const RESPONSE_PINS: [&str; 12] = [
    "74c8fa7362f8b3e7aeaabd703e716c8aa3bc8ec5e402015337d576077340655b",
    "6047567057197ebb23f0b8368149f3f6989bdca2c30ae79d867d21d57d4ec4dd",
    "8569bd3fb6300bcedef22286bf145e1ae7caa0ae34d857c4a7637d368339e75d",
    "dc936701a9ac820686b768c7ac4eccff6f360fbd9acf222c15e3565ad29d8254",
    "d0c7be978c3c096f9bd6ffbe03dbeb463d5c1c765efa2f237fdf27318767149a",
    "c84f700cb77d35a645644c0d26e9e656208f1fc5156c4a885c1763632e204ea7",
    "4c82ea9453d2e08315fc50ff1955c5195162a13155235dd7582f61c7861b9ac8",
    "f8b2237d1c2fb5b5cc244a31a511b5f3a4beb719c3ed4ed71597cb9ba4db6a7d",
    "da747cd86172c6ad04aaeb5746980a29a414ee3aefb9b62b4fad32269010e460",
    "6b85e9a9cd677e8dce2db56d1921856ea723d7597bdafed958591267e499e913",
    "27ad64fa8f85e6d832e8fd9ac95d1929a812357c2bb3727686b63cc2b2c3ad18",
    "a1e18e1373acea35bd542b247d0900c6bdbccffc9ee7361722c41ae4c6518d05",
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
