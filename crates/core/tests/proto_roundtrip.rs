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
    "3b398ee4442894914d1018ec29ab2a00f1e05909516d9c4de58f1d0234dbbbf8",
    "b0674583fd8e497dde35ae503933067f6e6767090f4b8ae2cda3c31c101843a8",
    "71d1304e5ef42ae06ff857562d56874ff1c5eb692d2c6e5b993326153bdd1724",
    "922d5e5ced842ee01ee6c3ab5517b1e0c8b0b826ccb89ec96649869bf6f39f0a",
    "0223241dac8f05603590c98f54b73060a7d2057e061c3a64d58b8f90889fb299",
    "f69ae0b15e429ddef0045441491788bbfcdb6b736d45a71e60af7d289ab0565d",
    "c2bfbbba7c6f33081c79de6f27a5e1466f4a9c367b1d0a78897efb0a4c729d01",
    "6735b00557142099edf07be2ce2e0ee22b75f6e2032ed47860b0a6e04959df31",
    "87847ac4b441594e35f7d02c72b462eb758e511ebe2d10db2166cb79d4c94e66",
];

/// SHA-256 of each response encoding of [`sample_messages`], in order.
const RESPONSE_PINS: [&str; 12] = [
    "74c8fa7362f8b3e7aeaabd703e716c8aa3bc8ec5e402015337d576077340655b",
    "6aac1d270607992620ba987835b9ab0a11f396103b11392b30ae5f27b08fd490",
    "8569bd3fb6300bcedef22286bf145e1ae7caa0ae34d857c4a7637d368339e75d",
    "0af15a1b579567b837cf7a454da2cff13768357feb0d1af5a7eb22661bc25ce3",
    "6a3080ca8bb8cb62cf96dc90f25351bd20c16cff29627d7fc53ef27e13b7fe69",
    "ba309e8c066703be90ca39560eb459874641c1c9a117851a1c3e790e3040c31b",
    "8ee1c96d9f8ab96d710d0bae02596da314c7dfb577780072f37f5d98c9946d5a",
    "3cfdc8c24ea25e8bf43dc32a7705a7969e12f3c8f82591912c327b3e5bf5e498",
    "aea1b5f0b41a28250e349e594766332c09d3f86420d9cf552c816ae46c78eb5e",
    "b6f3d9eaf949c8d8851371fdbd97fc1b69f759a70f8b304ef58137bc0da04c34",
    "f9a9e34602d8de5b6c98555195d1f2c5b129d3acb96f04a4b161011a9f4c191f",
    "b1e344ee9dbff085cc3b320b95c50dcf470de13463ff14fcab3e59d19189d80c",
];

/// The SHA-256 of every request and every response encoding above: a
/// codec rewrite that moves one byte of any message fails here.
///
/// The pins of the messages built from seeded draws (request pins 3–11,
/// response pins 1 and 3–11: the token, its opening, the proofs and the
/// envelopes) moved once, when the workspace `StdRng` became the ChaCha20
/// keystream in place of xoshiro256**. The pins of messages built from
/// fixed inputs (request pins 0–2, response pins 0 and 2) did not. The
/// pins of the messages that carry a GE/LE proof or envelope (request and
/// response pins 4–11) moved once more, when the digits went to radix 16
/// with 16-byte key shares; the EQ pair (pins 3) held.
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
