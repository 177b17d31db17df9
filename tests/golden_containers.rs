//! Golden pins for the bytes the symmetric layer produces: SHA-256 of a
//! seeded bulk-shaped container (16 segments of 16 KiB), of a one-segment
//! container and of one `AuthKey` message. A faster cipher, MAC or codec
//! that changes a single output byte fails here.
//!
//! The two container pins moved once, when `Publisher::broadcast` adopted
//! its documented randomness schedule (one seed per configuration, then one
//! nonce per segment, all drawn before any work starts).

use pbcd::core::SystemHarness;
use pbcd::crypto::{sha256, AuthKey};
use pbcd::docs::Element;
use pbcd::policy::{AccessControlPolicy, AttributeCondition, AttributeSet, PolicySet};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `len` bytes of printable text, a different run per `salt`.
fn text(salt: u64, len: usize) -> String {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            char::from(b'a' + (state % 26) as u8)
        })
        .collect()
}

/// Publishes `doc` to one qualifying reader under a fixed seed; returns the
/// encoded container after checking the reader recovers every segment.
fn container(doc_name: &str, tags: &[&str], doc: &Element) -> Vec<u8> {
    let mut policies = PolicySet::new();
    policies.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        tags,
        doc_name,
    ));
    let mut sys = SystemHarness::new_p256(policies, 22);
    let reader = sys.subscribe("dana", AttributeSet::new().with_str("role", "doctor"));
    let broadcast = sys.publisher.broadcast(doc, doc_name, &mut sys.rng);
    let view = reader
        .decrypt_broadcast(&broadcast, sys.publisher.policies())
        .expect("qualifying reader decrypts");
    assert_eq!(view.to_xml(), doc.to_xml());
    broadcast.encode().expect("container encodes")
}

#[test]
fn bulk_shaped_container_is_pinned() {
    let mut doc = Element::new("Study").attr("seq", "00000001");
    for i in 0..16 {
        let tag = if i < 12 { "Scan" } else { "Summary" };
        doc = doc.child(Element::new(tag).text(&text(i, 16 * 1024)));
    }
    let bytes = container("bulk.xml", &["Scan", "Summary"], &doc);
    assert!(bytes.len() > 256 * 1024);
    assert_eq!(
        hex(&sha256(&bytes)),
        "31092451689d423923454627931e6138d3286761a0774f82d45792bf2182f3c8"
    );
}

#[test]
fn one_segment_container_is_pinned() {
    let doc = Element::new("Memo").child(Element::new("Note").text(&text(99, 200)));
    let bytes = container("small.xml", &["Note"], &doc);
    assert_eq!(
        hex(&sha256(&bytes)),
        "c5454a6d531657144b3e0604322461d462d0e2b79ab3098c2d2ceba86d8ba387"
    );
}

#[test]
fn authkey_message_is_pinned() {
    // 1 000 bytes: seven full eight-block batches and a ragged tail.
    let plaintext: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
    let key = AuthKey::from_master(b"golden master key material");
    let message = key.encrypt_with_nonce(&[7u8; 12], &plaintext);
    assert_eq!(message.len(), 12 + 1000 + 32);
    assert_eq!(key.decrypt(&message).as_deref(), Ok(&plaintext[..]));
    assert_eq!(
        hex(&sha256(&message)),
        "a9ac09141a3bd9578615e05986c461cb47406fdb99da71f9b9b81adebb978462"
    );
}
