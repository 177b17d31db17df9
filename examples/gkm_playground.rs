//! Direct use of the ACV-BGKM layer: rekey, derivation, the §VIII-D
//! shared-matrix batch with subscriber-side KEV caching, and §VIII-C
//! sharding — without the document/identity machinery on top.
//!
//! Run with: `cargo run --release --example gkm_playground`

use pbcd::gkm::{AccessRow, AcvBgkm, KevCache, ShardedAcvBgkm};
use rand::{RngCore, SeedableRng};
use std::time::Instant;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6B9);
    let scheme = AcvBgkm::default();

    // 200 subscribers, each holding one 128-bit CSS for this policy.
    let members: Vec<AccessRow> = (0..200)
        .map(|i| {
            let mut css = vec![0u8; 16];
            rng.fill_bytes(&mut css);
            AccessRow {
                nym: format!("pn-{i:04}"),
                css_concat: css,
            }
        })
        .collect();

    // One rekey: fresh key K, public (X, z₁…z_N).
    let t0 = Instant::now();
    let (key, info) = scheme.rekey(&members, &mut rng);
    println!(
        "rekey for {} members: {:?} — public info {} bytes (compressed), key {} bytes",
        members.len(),
        t0.elapsed(),
        info.size_bytes_compressed(80),
        key.len(),
    );

    // Every member derives K from public info + its own CSS; outsiders get
    // garbage.
    assert!(members
        .iter()
        .all(|m| scheme.derive_key(&info, &m.css_concat) == key));
    let mut outsider = vec![0u8; 16];
    rng.fill_bytes(&mut outsider);
    assert_ne!(scheme.derive_key(&info, &outsider), key);
    println!("all 200 members derive K; outsider CSS does not");

    // §VIII-D: eight documents share one policy configuration — one nonce
    // set and one matrix, a null-space solve per key, eight independent
    // keys, and the subscriber's KEV cache makes documents 2..8 nearly free
    // to unlock.
    let t0 = Instant::now();
    let batch = scheme.rekey_batch(&members, 8, &mut rng);
    println!("\nbatch of 8 documents rekeyed in {:?}", t0.elapsed());
    let css = &members[0].css_concat;
    let t0 = Instant::now();
    for (k, i) in &batch {
        assert_eq!(&scheme.derive_key(i, css), k);
    }
    let plain = t0.elapsed();
    let mut cache = KevCache::new();
    let t0 = Instant::now();
    for (k, i) in &batch {
        assert_eq!(&scheme.derive_key_cached(i, css, &mut cache), k);
    }
    let cached = t0.elapsed();
    println!(
        "subscriber unlocks 8 docs: plain {plain:?}, KEV-cached {cached:?} ({} cache entries)",
        cache.len()
    );

    // §VIII-C: sharding for large memberships — same key, smaller solves.
    let sharded = ShardedAcvBgkm::new(AcvBgkm::default(), 50);
    let t0 = Instant::now();
    let (skey, sinfo) = sharded.rekey(&members, &mut rng);
    println!(
        "\nsharded rekey ({} shards of ≤50): {:?}, {} bytes",
        sinfo.num_shards,
        t0.elapsed(),
        sharded.public_size(&sinfo),
    );
    assert!(members
        .iter()
        .all(|m| sharded.derive_key(&sinfo, &m.nym, &m.css_concat).as_ref() == Some(&skey)));
    println!("all members derive the uniform key from their own shard");

    // Transparent revocation: drop ten members, rekey — the others derive
    // the new key from the same CSSs; the revoked ten cannot.
    let (remaining, revoked) = members.split_at(190);
    let (key2, info2) = scheme.rekey(remaining, &mut rng);
    assert!(remaining
        .iter()
        .all(|m| scheme.derive_key(&info2, &m.css_concat) == key2));
    assert!(revoked
        .iter()
        .all(|m| scheme.derive_key(&info2, &m.css_concat) != key2));
    println!("\nrevoked 10 members: remaining 190 follow the rekey, revoked do not —");
    println!("no subscriber state changed, no message was sent to anyone.");
}
