//! Golden pins for the bytes the symmetric layer produces: SHA-256 of a
//! seeded bulk-shaped container (16 segments of 16 KiB), of a one-segment
//! container and of one `AuthKey` message. A faster cipher, MAC or codec
//! that changes a single output byte fails here.
//!
//! The two container pins moved once, when `Publisher::broadcast` adopted
//! its documented randomness schedule (one seed per configuration, then one
//! nonce per segment, all drawn before any work starts). All three moved
//! once more, when `AuthKey` became ChaCha20-Poly1305 in place of
//! AES-256-CTR with HMAC-SHA-256 (a new key derivation, a new keystream and
//! a 16-byte tag in place of a 32-byte one). The two container pins moved
//! once more, when ACV-BGKM's row function became one ChaCha20 keystream per
//! row in place of one SHA-256 per entry (new `X` coordinates in every
//! group's key info); the `AuthKey` pin did not.

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
        "b49ceb8884d175ce143718f9dea1fa938d5b18f778b8de4d00130746cebe2e70"
    );
}

#[test]
fn one_segment_container_is_pinned() {
    let doc = Element::new("Memo").child(Element::new("Note").text(&text(99, 200)));
    let bytes = container("small.xml", &["Note"], &doc);
    assert_eq!(
        hex(&sha256(&bytes)),
        "36131ad9a136389b5f0c3799b4c787d8a26ffc1321e99a1a194ab8c94fb61976"
    );
}

#[test]
fn authkey_message_is_pinned() {
    // 1 000 bytes: fifteen full ChaCha20 blocks, a ragged tail, and a
    // Poly1305 pad.
    let plaintext: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
    let key = AuthKey::from_master(b"golden master key material");
    let message = key.encrypt_with_nonce(&[7u8; 12], &plaintext);
    assert_eq!(message.len(), 12 + 1000 + 16);
    assert_eq!(key.decrypt(&message).as_deref(), Ok(&plaintext[..]));
    assert_eq!(
        hex(&sha256(&message)),
        "e4f2026403d95679d1d2094c089568f1e1bf23804983c8cc232dcb3d383e5ee8"
    );
}
