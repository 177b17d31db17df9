//! Publisher-authentication behaviour over real loopback sockets: a keyed
//! broker accepts correctly signed publishes, refuses everything else with
//! typed `Reject` frames (bad key, forged signature, tampered container,
//! replayed epoch), and closes the ROADMAP availability hole — a hostile
//! peer can no longer wedge a document name at epoch `u64::MAX` or burn
//! the retention caps, because it holds no authorized key.

use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_group::{P256Group, SigningKey};
use pbcd_net::frame::{publish_auth_message, signed_publish_body};
use pbcd_net::{
    read_frame, Broker, BrokerClient, BrokerConfig, BrokerHandle, Frame, NetError, PeerRole,
    PublisherDirectory, RejectReason,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn container(doc: &str, epoch: u64) -> BroadcastContainer {
    BroadcastContainer {
        epoch,
        document_name: doc.to_string(),
        skeleton_xml: format!("<r><pbcd-segment id=\"0\"/><!--{epoch}--></r>"),
        groups: vec![EncryptedGroup {
            config_id: 0,
            key_info: vec![0xAB; 32],
            segments: vec![EncryptedSegment {
                segment_id: 0,
                tag: "Record".into(),
                ciphertext: vec![epoch as u8; 128],
            }],
        }],
    }
}

/// A broker that only accepts publishes signed by `key` (as "pub-1").
fn keyed_broker(group: &P256Group, key: &SigningKey<P256Group>) -> BrokerHandle {
    let directory = PublisherDirectory::new(group.clone()).with_key("pub-1", key.verifying_key());
    Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            publisher_auth: Some(Arc::new(directory)),
            ..BrokerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn signed_publish_flows_and_unsigned_is_refused() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA07);
    let key = SigningKey::generate(&group, &mut rng);
    let broker = keyed_broker(&group, &key);

    // An unsigned publish against a keyed broker: a typed refusal that
    // leaves the connection usable, like every other refusal.
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    match publisher.publish(&container("doc.xml", 1)) {
        Err(NetError::Rejected { reason, detail }) => {
            assert_eq!(reason, RejectReason::AuthRequired);
            assert!(detail.contains("authentication required"));
        }
        other => panic!("expected auth-required refusal, got {other:?}"),
    }

    // The same connection then signs correctly: acknowledged and retained.
    let mut sub = BrokerClient::connect(broker.addr(), PeerRole::Subscriber).unwrap();
    sub.subscribe(&["doc.xml"]).unwrap();
    let c = container("doc.xml", 1);
    let receipt = publisher
        .publish_signed(&group, "pub-1", &key, &c, &mut rng)
        .expect("authorized publish");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.fanout, 1);
    assert_eq!(sub.next_delivery().unwrap(), c);

    let stats = broker.stats();
    assert_eq!(stats.publishes, 1);
    assert_eq!(stats.publishes_rejected, 1, "the unsigned attempt");
    broker.shutdown();
}

#[test]
fn wrong_key_and_forged_signature_get_typed_rejects_without_killing_the_connection() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA08);
    let key = SigningKey::generate(&group, &mut rng);
    let intruder = SigningKey::generate(&group, &mut rng);
    let broker = keyed_broker(&group, &key);
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();

    // Unknown key id.
    match publisher.publish_signed(&group, "pub-9", &key, &container("doc.xml", 1), &mut rng) {
        Err(NetError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::UnknownPublisher)
        }
        other => panic!("expected UnknownPublisher, got {other:?}"),
    }
    // Known key id, signature from somebody else's key.
    match publisher.publish_signed(
        &group,
        "pub-1",
        &intruder,
        &container("doc.xml", 1),
        &mut rng,
    ) {
        Err(NetError::Rejected { reason, .. }) => assert_eq!(reason, RejectReason::BadSignature),
        other => panic!("expected BadSignature, got {other:?}"),
    }
    // Rejects are not fatal: the same connection then publishes fine.
    let receipt = publisher
        .publish_signed(&group, "pub-1", &key, &container("doc.xml", 1), &mut rng)
        .expect("corrected publish on the same connection");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(broker.stats().publishes_rejected, 2);
    broker.shutdown();
}

#[test]
fn tampered_container_fails_verification() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA09);
    let key = SigningKey::generate(&group, &mut rng);
    let broker = keyed_broker(&group, &key);

    // Hand-roll the signed frame so we can flip a ciphertext byte *after*
    // signing — the container still decodes strictly, but the signature no
    // longer covers what arrived.
    let c = container("doc.xml", 3);
    let container_bytes = c.encode().unwrap();
    let msg = publish_auth_message(&c.document_name, c.epoch, &container_bytes);
    let sig = key.sign(&group, &mut rng, &msg).to_bytes(&group);
    let mut body = signed_publish_body("pub-1", &sig, &container_bytes);
    let last = body.len() - 1; // inside the ciphertext field
    body[last] ^= 0x01;

    let mut stream = TcpStream::connect(broker.addr()).unwrap();
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&body).unwrap();
    match read_frame(&mut stream) {
        Ok(Frame::Reject { reason, .. }) => assert_eq!(reason, RejectReason::BadSignature),
        other => panic!("expected BadSignature reject, got {other:?}"),
    }
    assert_eq!(
        broker.stats().retained_documents,
        0,
        "tampered container must not be retained"
    );
    broker.shutdown();
}

#[test]
fn replayed_epoch_is_rejected_in_authenticated_mode() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA0A);
    let key = SigningKey::generate(&group, &mut rng);
    let broker = keyed_broker(&group, &key);
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();

    let c5 = container("doc.xml", 5);
    publisher
        .publish_signed(&group, "pub-1", &key, &c5, &mut rng)
        .expect("first publish");
    // Replaying the very same epoch — even with a fresh valid signature —
    // is refused: authenticated epochs are strictly increasing, so a
    // captured `PublishSigned` frame is worthless to a replaying attacker.
    match publisher.publish_signed(&group, "pub-1", &key, &c5, &mut rng) {
        Err(NetError::Rejected { reason, .. }) => assert_eq!(reason, RejectReason::StaleEpoch),
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    // And so is an older epoch.
    match publisher.publish_signed(&group, "pub-1", &key, &container("doc.xml", 4), &mut rng) {
        Err(NetError::Rejected { reason, .. }) => assert_eq!(reason, RejectReason::StaleEpoch),
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    // The legitimate next epoch still lands on the same connection.
    let receipt = publisher
        .publish_signed(&group, "pub-1", &key, &container("doc.xml", 6), &mut rng)
        .expect("next epoch");
    assert_eq!(receipt.epoch, 6);
    broker.shutdown();
}

#[test]
fn hostile_peer_cannot_wedge_a_document_name_when_keys_are_configured() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA0B);
    let key = SigningKey::generate(&group, &mut rng);
    let broker = keyed_broker(&group, &key);

    // The classic wedge: squat the name at epoch u64::MAX so the
    // stale-epoch guard locks the real publisher out forever. With keys
    // configured the hostile unsigned publish never reaches retained
    // state…
    let mut hostile = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    assert!(hostile.publish(&container("ward.xml", u64::MAX)).is_err());
    // …and a hostile *signed* attempt without the real key fails too.
    let fake_key = SigningKey::generate(&group, &mut rng);
    let mut hostile2 = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    assert!(matches!(
        hostile2.publish_signed(
            &group,
            "pub-1",
            &fake_key,
            &container("ward.xml", u64::MAX),
            &mut rng
        ),
        Err(NetError::Rejected {
            reason: RejectReason::BadSignature,
            ..
        })
    ));

    // The real publisher proceeds from epoch 1, unwedged.
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    let receipt = publisher
        .publish_signed(&group, "pub-1", &key, &container("ward.xml", 1), &mut rng)
        .expect("real publisher unaffected");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(broker.stats().publishes_rejected, 2);
    broker.shutdown();
}

/// Signs `epochs` of "doc.xml" (`forged` with an intruder's key) into
/// back-to-back frames, writes them in one go and returns the broker's
/// replies — one per frame, in order.
fn pipeline_signed(
    broker: &BrokerHandle,
    key: &SigningKey<P256Group>,
    rng: &mut StdRng,
    epochs: std::ops::RangeInclusive<u64>,
    forged: Option<u64>,
) -> Vec<Frame> {
    let group = P256Group::new();
    let intruder = SigningKey::generate(&group, rng);
    let mut wire = Vec::new();
    for epoch in epochs.clone() {
        let c = container("doc.xml", epoch);
        let container_bytes = c.encode().unwrap();
        let msg = publish_auth_message(&c.document_name, c.epoch, &container_bytes);
        let signer = if forged == Some(epoch) {
            &intruder
        } else {
            key
        };
        let sig = signer.sign(&group, rng, &msg).to_bytes(&group);
        let body = signed_publish_body("pub-1", &sig, &container_bytes);
        wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
        wire.extend_from_slice(&body);
    }
    let mut stream = TcpStream::connect(broker.addr()).unwrap();
    stream.write_all(&wire).unwrap();
    epochs.map(|_| read_frame(&mut stream).unwrap()).collect()
}

#[test]
fn pipelined_signed_publishes_get_per_frame_verdicts_in_order() {
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA0D);
    let key = SigningKey::generate(&group, &mut rng);
    let broker = keyed_broker(&group, &key);

    // An all-valid pipelined cohort: every container acknowledged, in
    // order, over one connection — one verification per frame.
    let replies = pipeline_signed(&broker, &key, &mut rng, 1..=4, None);
    for (reply, epoch) in replies.iter().zip(1u64..) {
        assert!(
            matches!(reply, Frame::Ack { epoch: e, .. } if *e == epoch),
            "{reply:?}"
        );
    }

    // Forge the signature of one member mid-pipeline: member 2 of 4 is
    // signed by an intruder key. Exactly that member gets a typed
    // BadSignature reject; the rest land, the connection survives, and
    // retained state advances past the forged epoch only via the honest
    // members.
    let replies = pipeline_signed(&broker, &key, &mut rng, 5..=8, Some(6));
    assert!(matches!(replies[0], Frame::Ack { epoch: 5, .. }));
    assert!(matches!(
        replies[1],
        Frame::Reject {
            reason: RejectReason::BadSignature,
            ..
        }
    ));
    assert!(matches!(replies[2], Frame::Ack { epoch: 7, .. }));
    assert!(matches!(replies[3], Frame::Ack { epoch: 8, .. }));
    assert_eq!(broker.stats().publishes_rejected, 1);
    assert_eq!(
        broker.stats().retained_documents,
        1,
        "honest members of the pipeline landed"
    );
    broker.shutdown();
}

#[test]
fn open_mode_still_accepts_unsigned_and_signed_publishes() {
    // Empty directory = open mode: unsigned publishes are admitted, and
    // a signed publish is accepted too (its signature is vacuously fine —
    // open mode trusts everyone by definition).
    let group = P256Group::new();
    let mut rng = StdRng::seed_from_u64(0xA0C);
    let key = SigningKey::generate(&group, &mut rng);
    let directory = PublisherDirectory::new(group.clone());
    let broker = Broker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            publisher_auth: Some(Arc::new(directory)),
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let mut publisher = BrokerClient::connect(broker.addr(), PeerRole::Publisher).unwrap();
    assert_eq!(publisher.publish(&container("a.xml", 1)).unwrap().epoch, 1);
    assert_eq!(
        publisher
            .publish_signed(&group, "anyone", &key, &container("a.xml", 2), &mut rng)
            .unwrap()
            .epoch,
        2
    );
    assert_eq!(broker.stats().publishes_rejected, 0);
    broker.shutdown();
}
