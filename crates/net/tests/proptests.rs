//! Property-based robustness for the frame codec, the retention-log
//! record codec and the relay overlay's loop suppression: arbitrary
//! values round-trip, no amount of truncation or corruption makes
//! decoding panic, and propagation over arbitrary cyclic broker
//! topologies always terminates with at most one accept per broker.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::store::{crc32, decode_record, encode_record, RecordError, RECORD_HEADER_LEN};
use pbcd_net::{relay_verdict, ConfigSummary, Frame, PeerRole, RelayVerdict};
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_container() -> impl Strategy<Value = BroadcastContainer> {
    (
        any::<u64>(),
        "[a-zA-Z0-9._-]{0,12}",
        "[ -~&&[^\"]]{0,32}",
        prop::collection::vec(
            (
                any::<u32>(),
                prop::collection::vec(any::<u8>(), 0..24),
                prop::collection::vec(
                    (
                        any::<u32>(),
                        "[a-zA-Z]{1,8}",
                        prop::collection::vec(any::<u8>(), 0..48),
                    ),
                    0..3,
                ),
            ),
            0..3,
        ),
    )
        .prop_map(
            |(epoch, document_name, skeleton_xml, groups)| BroadcastContainer {
                epoch,
                document_name,
                skeleton_xml,
                groups: groups
                    .into_iter()
                    .map(|(config_id, key_info, segs)| EncryptedGroup {
                        config_id,
                        key_info,
                        segments: segs
                            .into_iter()
                            .map(|(segment_id, tag, ciphertext)| EncryptedSegment {
                                segment_id,
                                tag,
                                ciphertext,
                            })
                            .collect(),
                    })
                    .collect(),
            },
        )
}

fn arb_summary() -> impl Strategy<Value = ConfigSummary> {
    (
        "[a-zA-Z0-9._-]{0,12}",
        any::<u64>(),
        prop::collection::vec(any::<u32>(), 0..6),
        any::<u64>(),
    )
        .prop_map(
            |(document_name, epoch, config_ids, size_bytes)| ConfigSummary {
                document_name,
                epoch,
                config_ids,
                size_bytes,
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::Hello {
            role: PeerRole::Publisher
        }),
        Just(Frame::Hello {
            role: PeerRole::Subscriber
        }),
        Just(Frame::Hello {
            role: PeerRole::Broker
        }),
        Just(Frame::ListConfigs),
        Just(Frame::Bye),
        arb_container().prop_map(Frame::Publish),
        arb_container().prop_map(Frame::Deliver),
        (
            prop::collection::vec("[a-zA-Z0-9._-]{0,12}", 0..4),
            any::<u32>()
        )
            .prop_map(|(documents, depth)| Frame::Subscribe { documents, depth }),
        prop::collection::vec(arb_summary(), 0..3).prop_map(Frame::Configs),
        (any::<u64>(), any::<u32>()).prop_map(|(epoch, fanout)| Frame::Ack { epoch, fanout }),
        "[ -~]{0,40}".prop_map(|message| Frame::Error { message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frame_roundtrip(frame in arb_frame()) {
        let enc = frame.encode().expect("bounded frames encode");
        prop_assert_eq!(Frame::decode(&enc), Ok(frame));
    }

    #[test]
    fn truncated_frames_always_error_never_panic(frame in arb_frame(), cut_seed in any::<u16>()) {
        let enc = frame.encode().expect("bounded frames encode");
        let cut = cut_seed as usize % enc.len();
        prop_assert!(Frame::decode(&enc[..cut]).is_err());
    }

    #[test]
    fn corrupted_frames_never_panic(
        frame in arb_frame(),
        pos_seed in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let mut enc = frame.encode().expect("bounded frames encode");
        let pos = pos_seed as usize % enc.len();
        enc[pos] ^= xor;
        // Corruption may still decode (e.g. a flipped ciphertext byte);
        // the property is decode totality: Ok or WireError, no panic.
        let _ = Frame::decode(&enc);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Frame::decode(&data);
    }

    #[test]
    fn appended_bytes_are_rejected(frame in arb_frame()) {
        let mut enc = frame.encode().expect("bounded frames encode");
        enc.push(0);
        prop_assert!(Frame::decode(&enc).is_err());
    }
}

/// An arbitrary retention-log record: document name, epoch, and a body at
/// least as long as the frame header the broker always writes (4 bytes).
fn arb_record() -> impl Strategy<Value = (String, u64, Vec<u8>)> {
    (
        "[a-zA-Z0-9._-]{0,24}",
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 4..256),
    )
}

/// CRC32 by its definition: the reflected IEEE 802.3 polynomial, one bit at
/// a time, register and result complemented.
fn crc32_bit_serial(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &byte| {
        (0..8).fold(crc ^ u32::from(byte), |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
        })
    })
}

#[test]
fn crc32_check_value_and_every_short_length() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    // Lengths 0..=64 cover every remainder beside zero to eight full groups.
    let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(151) ^ 0x5a).collect();
    for len in 0..=data.len() {
        assert_eq!(
            crc32(&data[..len]),
            crc32_bit_serial(&data[..len]),
            "len {len}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn crc32_matches_the_bit_serial_definition(
        data in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        prop_assert_eq!(crc32(&data), crc32_bit_serial(&data));
    }

    #[test]
    fn record_roundtrip((doc, epoch, body) in arb_record()) {
        let enc = encode_record(&doc, epoch, &body).expect("bounded records encode");
        let (rec, consumed) = decode_record(&enc).expect("roundtrip");
        prop_assert_eq!(consumed, enc.len());
        prop_assert_eq!(rec.document, doc);
        prop_assert_eq!(rec.epoch, epoch);
        prop_assert_eq!(rec.deliver_body, body);
    }

    #[test]
    fn record_decode_ignores_trailing_stream_bytes(
        (doc, epoch, body) in arb_record(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // The log is a stream of records: decoding takes one record off
        // the front and reports how much it consumed.
        let enc = encode_record(&doc, epoch, &body).unwrap();
        let mut stream = enc.clone();
        stream.extend_from_slice(&tail);
        let (rec, consumed) = decode_record(&stream).expect("leading record decodes");
        prop_assert_eq!(consumed, enc.len());
        prop_assert_eq!(rec.deliver_body, body);
    }

    #[test]
    fn truncated_records_yield_typed_truncation((doc, epoch, body) in arb_record(), cut_seed in any::<u16>()) {
        let enc = encode_record(&doc, epoch, &body).unwrap();
        let cut = cut_seed as usize % enc.len();
        prop_assert_eq!(decode_record(&enc[..cut]).unwrap_err(), RecordError::Truncated);
    }

    #[test]
    fn corrupt_checksum_never_surfaces_a_wrong_container(
        (doc, epoch, body) in arb_record(),
        pos_seed in any::<u16>(),
        xor in 1u8..=255,
    ) {
        // Any single-byte change at or after the CRC field is *guaranteed*
        // detected (CRC32 catches all burst errors ≤ 32 bits), so a
        // corrupted payload can never decode into a different container.
        let mut enc = encode_record(&doc, epoch, &body).unwrap();
        let span = enc.len() - 8;
        let pos = 8 + pos_seed as usize % span;
        enc[pos] ^= xor;
        let err = decode_record(&enc).unwrap_err();
        prop_assert!(
            matches!(err, RecordError::BadChecksum | RecordError::Truncated | RecordError::Oversized),
            "corruption at {} must be caught, got {:?}", pos, err
        );
    }

    #[test]
    fn record_header_corruption_never_panics(
        (doc, epoch, body) in arb_record(),
        pos_seed in any::<u8>(),
        xor in 1u8..=255,
    ) {
        // Flips in magic/length land in a typed error or (for a length
        // that shrinks the payload) a checksum mismatch — decode stays
        // total either way.
        let mut enc = encode_record(&doc, epoch, &body).unwrap();
        let pos = pos_seed as usize % RECORD_HEADER_LEN;
        enc[pos] ^= xor;
        let _ = decode_record(&enc);
    }

    #[test]
    fn random_bytes_never_panic_the_record_decoder(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_record(&data);
    }
}

/// Simulates one epoch propagating through an arbitrary directed broker
/// topology under exactly the overlay's rules: senders stop once the
/// outgoing hop count would exceed the budget, receivers judge every
/// frame with [`relay_verdict`], and only a *first* accept forwards.
/// Returns `(accepts, processed)` per node / in total.
fn propagate(
    n: usize,
    edges: &[(usize, usize)],
    origin: usize,
    epoch: u64,
    max_hops: u8,
    retained: &mut [Option<u64>],
) -> (Vec<u32>, usize) {
    let ids: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let out = |node: usize| {
        edges
            .iter()
            .filter(move |(s, _)| *s == node)
            .map(|(_, d)| *d)
    };
    let mut accepts = vec![0u32; n];
    let mut frames: VecDeque<(usize, u8)> = VecDeque::new();
    // The origin publishes locally (its own retention, not an "accept")
    // and stamps hops = 1 on the frames it sends.
    retained[origin] = Some(epoch);
    if 1 <= max_hops {
        frames.extend(out(origin).map(|dst| (dst, 1u8)));
    }
    // Termination is the property under test: a cycle that suppression
    // failed to stop would blow through this budget and fail the test.
    let budget = (edges.len() + 1) * (n + 1) * (max_hops as usize + 1);
    let mut processed = 0usize;
    while let Some((node, hops)) = frames.pop_front() {
        processed += 1;
        assert!(processed <= budget, "propagation did not terminate");
        let verdict = relay_verdict(
            &ids[node],
            retained[node],
            &ids[origin],
            hops,
            epoch,
            max_hops,
        );
        if verdict != RelayVerdict::Accept {
            continue;
        }
        retained[node] = Some(epoch);
        accepts[node] += 1;
        let next = hops.saturating_add(1);
        if next <= max_hops {
            frames.extend(out(node).map(|dst| (dst, next)));
        }
    }
    (accepts, processed)
}

/// Random directed topologies with up to 6 brokers and plenty of room
/// for self-loops, cycles and parallel edges: endpoints are drawn from a
/// wide range and folded into `0..n` by modulo, which keeps the strategy
/// flat (no dependent generation) while still covering every edge shape.
fn arb_topology() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (
        2usize..7,
        prop::collection::vec((0usize..60, 0usize..60), 0..24),
    )
        .prop_map(|(n, raw)| {
            let edges = raw.into_iter().map(|(s, d)| (s % n, d % n)).collect();
            (n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn loop_suppression_terminates_with_at_most_one_accept_per_broker(
        (n, edges) in arb_topology(),
        epoch in 1u64..=u64::MAX,
        max_hops in 1u8..=5,
    ) {
        let mut retained = vec![None; n];
        let (accepts, _) = propagate(n, &edges, 0, epoch, max_hops, &mut retained);

        // Origin-id suppression: the publisher's own container never
        // re-enters it, no matter how many cycles point back.
        prop_assert_eq!(accepts[0], 0);
        // Idempotency: every broker accepts the epoch at most once even
        // across parallel edges and redundant mesh paths…
        for (node, &count) in accepts.iter().enumerate() {
            prop_assert!(count <= 1, "node {} accepted {} times", node, count);
        }
        // …and completeness: every broker within the hop budget accepts
        // exactly once (suppression never starves a reachable tier).
        let mut depth = vec![usize::MAX; n];
        depth[0] = 0;
        let mut bfs = VecDeque::from([0usize]);
        while let Some(s) = bfs.pop_front() {
            for &(src, dst) in &edges {
                if src == s && depth[dst] == usize::MAX {
                    depth[dst] = depth[s] + 1;
                    bfs.push_back(dst);
                }
            }
        }
        for node in 1..n {
            if depth[node] <= max_hops as usize {
                prop_assert_eq!(accepts[node], 1, "node {} within budget missed the epoch", node);
            }
        }

        // Replaying the same epoch into the converged overlay is fully
        // absorbed by the per-hop monotonicity backstop: zero accepts.
        let (again, _) = propagate(n, &edges, 0, epoch, max_hops, &mut retained);
        prop_assert_eq!(again.iter().sum::<u32>(), 0);
    }
}
