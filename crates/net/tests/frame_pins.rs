//! Golden pins for the broker protocol's bytes: the SHA-256 of one
//! literally built [`Frame`] of every kind. A codec rewrite that moves a
//! single byte of any frame fails here, by kind.

use pbcd_crypto::sha256;
use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
use pbcd_net::{ConfigSummary, Frame, PeerRole, RejectReason};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn container() -> BroadcastContainer {
    BroadcastContainer {
        epoch: 7,
        document_name: "EHR.xml".into(),
        skeleton_xml: "<r><pbcd-segment id=\"0\"/><pbcd-segment id=\"1\"/></r>".into(),
        groups: vec![
            EncryptedGroup {
                config_id: 3,
                key_info: (0..40).collect(),
                segments: vec![
                    EncryptedSegment {
                        segment_id: 0,
                        tag: "Record".into(),
                        ciphertext: vec![0xA5; 48],
                    },
                    EncryptedSegment {
                        segment_id: 1,
                        tag: "Notes".into(),
                        ciphertext: (0..=255).collect(),
                    },
                ],
            },
            EncryptedGroup {
                config_id: 9,
                key_info: vec![],
                segments: vec![],
            },
        ],
    }
}

/// One frame of every kind, `Hello` through `RelayCatchUp`, each paired
/// with the SHA-256 of its encoding.
fn pinned() -> Vec<(Frame, &'static str)> {
    vec![
        (
            Frame::Hello {
                role: PeerRole::Subscriber,
            },
            "46a46fd3b0a3869954ee2e248be8dfe974700c5b373dfc6e870493157b89de58",
        ),
        (
            Frame::Publish(container()),
            "811d46b0c8378bb568cc387fbd0da5969ddd758d5224311fba4f6360795d644d",
        ),
        (
            Frame::Subscribe {
                documents: vec!["EHR.xml".into(), "news.xml".into()],
                depth: 4,
            },
            "52d0fb697e9f2d6bca2000669709e1125ee975fd6491db9e778475306b6c3a61",
        ),
        (
            Frame::Deliver(container()),
            "cecefb8b2640adefc9c03b2ba40bfae1a2dcad2246cc6f3393bb92b337b6c3c4",
        ),
        (
            Frame::ListConfigs,
            "4a73e8c2b52f2adcb76dd29d267f1c1202e9c84cc1df7acc5bdf6008440c0d0a",
        ),
        (
            Frame::Configs(vec![
                ConfigSummary {
                    document_name: "EHR.xml".into(),
                    epoch: 7,
                    config_ids: vec![3, 9],
                    size_bytes: 612,
                },
                ConfigSummary {
                    document_name: "news.xml".into(),
                    epoch: u64::MAX,
                    config_ids: vec![],
                    size_bytes: 0,
                },
            ]),
            "0338dc885bb9356b58cd7375ecd270f12693f64c2f0287b11429167d445eb24c",
        ),
        (
            Frame::Ack {
                epoch: 7,
                fanout: 1024,
            },
            "78bea8b7fd8302238f16113e05e41d8c3c27cfa8b6b4a5f8ee07c56e7ea85f3f",
        ),
        (
            Frame::Bye,
            "49dd618ddcc966fb739e310872ecf9e6fe7b95c58abe26b084684fa233b2f92f",
        ),
        (
            Frame::Error {
                message: "unexpected frame".into(),
            },
            "81290b138c276f7c2f4b9790435c4005e409db2777768465719ab34cc61273b6",
        ),
        (
            Frame::PublishSigned {
                key_id: "pub-1".into(),
                signature: (0..97).map(|i| i as u8 ^ 0x5C).collect(),
                container: container(),
            },
            "7d0aa46ab96e1d552daaaa4999af93e5baab24b37d6da2f84d7fa194b2afd640",
        ),
        (
            Frame::Reject {
                reason: RejectReason::StaleHop,
                message: "retained epoch is 7".into(),
            },
            "b1c4b539f6de9f3ef50d1a9b43c447727982b4ca1d6c02bec1f80e22a3559361",
        ),
        (
            Frame::StatsRequest,
            "590c794b08a9ea9e21a7292b1ab72887dd12df33cea162122025c2f243c88744",
        ),
        (
            Frame::StatsResponse {
                text: "broker_publishes_total 3\nbroker_queue_depth 0\n".into(),
            },
            "e9af9396da216ca262620939feee5770b35ad5134ee10896e5c60b49aad0aa0b",
        ),
        (
            Frame::PeerHello {
                broker_id: "edge-west-2".into(),
            },
            "c4ac098575154b38e70da82e5ef114ffee309cc05d5e5b67fddeee6898c1acc8",
        ),
        (
            Frame::Relay {
                origin: "origin-1".into(),
                hops: 2,
                container: container(),
            },
            "2772726cc9c427818599b4b0768e22f06e63fdd666ccc65e8673580a9f41fe0d",
        ),
        (
            Frame::RelayCatchUp {
                known: vec![("EHR.xml".into(), 7), ("news.xml".into(), 3)],
            },
            "d007efe631bdcdb1db5a22b75bdde3561929d2f248bc911aa5be18d014ffb22f",
        ),
    ]
}

#[test]
fn every_frame_kind_is_pinned() {
    for (frame, digest) in pinned() {
        let bytes = frame.encode().expect("frame encodes");
        assert_eq!(hex(&sha256(&bytes)), digest, "{frame:?}");
        assert_eq!(Frame::decode(&bytes).as_ref(), Ok(&frame));
    }
}
