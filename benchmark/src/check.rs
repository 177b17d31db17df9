//! Output checks: what makes an op count as failed.
//!
//! Pure functions over what the op produced, so `tests/checker.rs` can
//! plant faults and see them caught.

use pbcd_docs::Element;

/// A registration is correct when a qualifying subject extracted exactly
/// the CSS the publisher's table holds for it, and a non-qualifying
/// subject extracted nothing and holds nothing.
pub fn registration_ok(
    qualifies: bool,
    extracted: bool,
    held: Option<&[u8]>,
    issued: Option<&[u8]>,
) -> bool {
    if qualifies {
        extracted && held.is_some() && held == issued
    } else {
        !extracted && held.is_none()
    }
}

/// A delivery is correct when the reader, who satisfies every policy of
/// the document, reassembled exactly the plaintext that was published.
pub fn delivery_ok(published: &Element, view: &Element) -> bool {
    published == view
}

/// The subscriber who just joined must read the `Diagnosis` that was
/// published.
pub fn joiner_ok(published: &Element, joiner_view: &Element) -> bool {
    let diagnosis = published.find("Diagnosis");
    diagnosis.is_some() && joiner_view.find("Diagnosis") == diagnosis
}

/// The subscriber who was just revoked must read no `Diagnosis`.
pub fn revoked_ok(revoked_view: &Element) -> bool {
    revoked_view.find("Diagnosis").is_none()
}

/// Whether ACV key info repeats a nonce `zᵢ`. Two equal nonces make two
/// equal columns in every subscriber's key-extraction vector, the null
/// space then holds a vector that is zero outside those two columns, and
/// an ACV built from it yields the key to anyone holding any CSS.
pub fn repeats_nonce(key_info: &[u8]) -> bool {
    pbcd_gkm::AcvPublicInfo::decode(key_info).is_some_and(|info| {
        let distinct: std::collections::BTreeSet<&Vec<u8>> = info.zs.iter().collect();
        distinct.len() < info.zs.len()
    })
}
