//! Property-based tests for the document layer: XML roundtrips,
//! segmentation/reassembly losslessness and container codec robustness.

use pbcd_docs::{
    parse, reassemble, segment, BroadcastContainer, Element, EncryptedGroup, EncryptedSegment,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Recursively generated XML trees with text and attributes.
fn arb_element() -> impl Strategy<Value = Element> {
    let name = "[a-zA-Z][a-zA-Z0-9]{0,6}";
    let text = "[ -~&&[^<>&\"']]{0,16}"; // printable ASCII minus markup
    let leaf = (name, prop::option::of(text)).prop_map(|(n, t)| {
        let el = Element::new(&n);
        match t {
            Some(t) if !t.trim().is_empty() => el.text(t.trim()),
            _ => el,
        }
    });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            "[a-zA-Z][a-zA-Z0-9]{0,6}",
            prop::collection::vec(("[a-z]{1,5}", "[a-zA-Z0-9 ]{0,8}"), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attrs, children)| {
                let mut el = Element::new(&n);
                for (k, v) in attrs {
                    el = el.attr(&k, &v);
                }
                for c in children {
                    el = el.child(c);
                }
                el
            })
    })
}

/// Text made of markup characters, the five entities, entity-like
/// fragments that are not entities, and plain or non-ASCII runs.
fn arb_markup_text() -> impl Strategy<Value = String> {
    const FRAGMENTS: [&str; 22] = [
        "&", "&amp", "&amp;", "&lt;x", "&lt;", "&gt;", "&quot;", "&apos;", "&#38;", "&&", "&;",
        "<", ">", "\"", "'", "a", "b c", "é", "<!--", "-->", "&amp;lt;", "x&",
    ];
    prop::collection::vec(0..FRAGMENTS.len(), 1..8)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
}

/// Trees whose text and attribute values are [`arb_markup_text`]. Text
/// runs carry no edge whitespace (the parser trims it) and no two are
/// adjacent (they would serialize as one).
fn arb_markup_element() -> impl Strategy<Value = Element> {
    let leaf = ("[a-z][a-z0-9]{0,4}", prop::option::of(arb_markup_text())).prop_map(|(n, t)| {
        let el = Element::new(&n);
        match t {
            Some(t) if !t.trim().is_empty() => el.text(t.trim()),
            _ => el,
        }
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            "[a-z][a-z0-9]{0,4}",
            prop::collection::vec(("[a-z]{1,4}", arb_markup_text()), 0..3),
            prop::collection::vec((inner, prop::option::of(arb_markup_text())), 0..4),
        )
            .prop_map(|(n, attrs, children)| {
                let mut el = Element::new(&n);
                for (k, v) in attrs {
                    el = el.attr(&k, &v);
                }
                for (c, t) in children {
                    el = el.child(c);
                    if let Some(t) = t.filter(|t| !t.trim().is_empty()) {
                        el = el.text(t.trim());
                    }
                }
                el
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xml_roundtrip_compact_and_pretty(doc in arb_element()) {
        let compact = parse(&doc.to_xml()).expect("compact reparse");
        prop_assert_eq!(&compact, &doc);
        let pretty = parse(&doc.to_xml_pretty()).expect("pretty reparse");
        prop_assert_eq!(&pretty, &doc);
    }

    #[test]
    fn xml_roundtrip_with_markup_and_entity_like_text(doc in arb_markup_element()) {
        prop_assert_eq!(parse(&doc.to_xml()).expect("reparse"), doc);
    }

    #[test]
    fn segmentation_reassembly_is_lossless(doc in arb_element(), picks in prop::collection::vec(any::<bool>(), 8)) {
        // Choose up to 8 tag names that happen to exist in the tree.
        let mut tags: Vec<String> = Vec::new();
        collect_tags(&doc, &mut tags);
        tags.sort();
        tags.dedup();
        // The root tag cannot be a segment (segments replace children).
        tags.retain(|t| t != &doc.name);
        let chosen: Vec<&str> = tags
            .iter()
            .zip(picks.iter().chain(std::iter::repeat(&false)))
            .filter(|(_, &keep)| keep)
            .map(|(t, _)| t.as_str())
            .collect();
        let seg = segment(&doc, "d", &chosen);
        let all: BTreeMap<u32, Element> = seg
            .segments
            .iter()
            .map(|s| (s.id, s.content.clone()))
            .collect();
        prop_assert_eq!(reassemble(&seg.skeleton, &all), doc);
    }

    #[test]
    fn container_roundtrip(
        epoch in any::<u64>(),
        name in "[a-zA-Z0-9._-]{0,16}",
        skeleton in "[ -~&&[^\"]]{0,64}",
        groups in prop::collection::vec(
            (
                any::<u32>(),
                prop::collection::vec(any::<u8>(), 0..64),
                prop::collection::vec(
                    (any::<u32>(), "[a-zA-Z]{1,8}", prop::collection::vec(any::<u8>(), 0..64)),
                    0..4,
                ),
            ),
            0..4,
        ),
    ) {
        let container = BroadcastContainer {
            epoch,
            document_name: name,
            skeleton_xml: skeleton,
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
        };
        let enc = container.encode().expect("bounded fields encode");
        prop_assert_eq!(BroadcastContainer::decode(&enc), Ok(container));
    }

    #[test]
    fn container_decode_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = BroadcastContainer::decode(&data);
    }

    #[test]
    fn xml_parse_never_panics_on_garbage(s in "[ -~]{0,128}") {
        let _ = parse(&s);
    }
}

fn collect_tags(el: &Element, out: &mut Vec<String>) {
    out.push(el.name.clone());
    for c in el.child_elements() {
        collect_tags(c, out);
    }
}
