//! Criterion ablation: substrate costs — group exponentiation on both
//! backends (fixed-base comb/table, variable-base wNAF/sliding-window,
//! Straus double exponentiation, and the naive double-and-add baselines
//! they replaced), Pippenger multi-scalar multiplication, the
//! shared-scalar and shared-base list primitives, Pedersen
//! commitments, Schnorr verification (individual and batched RLC),
//! hashing and AES-CTR throughput.
//!
//! The machine-readable counterpart (`BENCH_group_ops.json`, tracked in
//! the repository per PR) is produced by `reproduce bench-json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pbcd_bench::bench_rng;
use pbcd_commit::Pedersen;
use pbcd_crypto::{ctr_encrypt, sha1, sha256, NONCE_LEN};
use pbcd_group::{challenge, verify_batch, CyclicGroup, ModpGroup, P256Group, SigningKey};

fn bench_group_exponentiation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_group_exp");
    group.sample_size(20);
    let p256 = P256Group::new();
    let modp = ModpGroup::new();
    {
        let mut rng = bench_rng();
        let k = p256.random_scalar(&mut rng);
        let ku = k.to_uint();
        let base = p256.exp_g(&p256.random_scalar(&mut rng));
        let gen = p256.generator();
        // Fixed-base comb (the g^k hot path) vs the pre-PR naive ladder.
        group.bench_function("p256_fixed_g", |b| b.iter(|| p256.exp_g(&k)));
        group.bench_function("p256_naive_g", |b| b.iter(|| p256.exp_naive(&gen, &ku)));
        // Variable-base wNAF vs the naive ladder on the same base.
        group.bench_function("p256_wnaf", |b| b.iter(|| p256.exp(&base, &k)));
        group.bench_function("p256_naive", |b| b.iter(|| p256.exp_naive(&base, &ku)));
        // Straus a^x·b^y vs two naive ladders + op.
        let y = p256.random_scalar(&mut rng);
        group.bench_function("p256_exp2_straus", |b| {
            b.iter(|| p256.exp2(&gen, &k, &base, &y))
        });
        group.bench_function("p256_exp2_naive", |b| {
            b.iter(|| {
                p256.op(
                    &p256.exp_naive(&gen, &ku),
                    &p256.exp_naive(&base, &y.to_uint()),
                )
            })
        });
    }
    {
        let mut rng = bench_rng();
        let k = modp.random_scalar(&mut rng);
        let ku = k.to_uint();
        let base = modp.exp_g(&modp.random_scalar(&mut rng));
        let gen = modp.generator();
        group.bench_function("modp_fixed_g", |b| b.iter(|| modp.exp_g(&k)));
        group.bench_function("modp_naive_g", |b| b.iter(|| modp.exp_naive(&gen, &ku)));
        group.bench_function("modp_window", |b| b.iter(|| modp.exp(&base, &k)));
        group.bench_function("modp_naive", |b| b.iter(|| modp.exp_naive(&base, &ku)));
    }
    group.finish();
}

fn bench_pedersen(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_pedersen");
    group.sample_size(20);
    let ped = Pedersen::new(P256Group::new());
    let mut rng = bench_rng();
    let sc = ped.group().scalar_ctx().clone();
    let v = sc.from_u64(28);
    group.bench_function("commit_p256", |b| b.iter(|| ped.commit(&v, &mut rng)));
    // Verification re-runs commit_with (pedersen_gh, two fixed-base
    // tables) — the Straus-era acceptance metric.
    let (c28, o28) = ped.commit(&v, &mut rng);
    group.bench_function("verify_p256", |b| b.iter(|| ped.verify_open(&c28, &o28)));
    let g = ped.group().clone();
    group.bench_function("commit_p256_naive", |b| {
        b.iter(|| {
            g.op(
                &g.exp_naive(&g.generator(), &o28.value.to_uint()),
                &g.exp_naive(&g.pedersen_h(), &o28.randomness.to_uint()),
            )
        })
    });
    group.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_schnorr");
    group.sample_size(20);
    let g = P256Group::new();
    let mut rng = bench_rng();
    let key = SigningKey::generate(&g, &mut rng);
    let vk = key.verifying_key();
    let msg = b"identity token: nym=pn-1492 tag=age c=...";
    let sig = key.sign(&g, &mut rng, msg);
    assert!(vk.verify(&g, msg, &sig));
    group.bench_function("sign_p256", |b| b.iter(|| key.sign(&g, &mut rng, msg)));
    group.bench_function("verify_p256", |b| b.iter(|| vk.verify(&g, msg, &sig)));
    // The pre-PR verify recomputed R' as two independent naive ladders.
    group.bench_function("verify_p256_naive_exps", |b| {
        b.iter(|| {
            let e = challenge(&g, &sig.big_r, msg);
            g.div(
                &g.exp_naive(&g.generator(), &sig.s.to_uint()),
                &g.exp_naive(vk.element(), &e.to_uint()),
            ) == sig.big_r
        })
    });
    group.finish();
}

fn bench_msm_and_batch_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_msm_batch");
    group.sample_size(10);
    let g = P256Group::new();
    let mut rng = bench_rng();
    // Pippenger bucket MSM vs the per-element exp/op composition it
    // replaces (the `CyclicGroup::msm` trait default).
    for n in [8usize, 64] {
        let terms: Vec<_> = (0..n)
            .map(|_| {
                (
                    g.exp_g(&g.random_scalar(&mut rng)),
                    g.random_scalar(&mut rng),
                )
            })
            .collect();
        group.bench_function(format!("p256_msm_{n}"), |b| b.iter(|| g.msm(&terms)));
        group.bench_function(format!("p256_msm_{n}_per_element"), |b| {
            b.iter(|| {
                terms
                    .iter()
                    .fold(g.identity(), |acc, (base, k)| g.op(&acc, &g.exp(base, k)))
            })
        });
    }
    // The list primitives behind bitwise OCBE at ℓ = 48 vs the per-element
    // exp/op composition they replace (the trait defaults).
    {
        let k = g.random_scalar(&mut rng);
        let shift = g.exp_g(&g.random_scalar(&mut rng));
        let bases: Vec<_> = (0..48)
            .map(|_| g.exp_g(&g.random_scalar(&mut rng)))
            .collect();
        let ks: Vec<_> = (0..48).map(|_| g.random_scalar(&mut rng)).collect();
        group.bench_function("p256_exp_shared_scalar_48", |b| {
            b.iter(|| g.exp_shared_scalar_shifted(&bases, &k, &shift))
        });
        group.bench_function("p256_exp_shared_scalar_48_naive", |b| {
            b.iter(|| {
                bases
                    .iter()
                    .map(|base| {
                        let p = g.exp(base, &k);
                        let shifted = g.op(&p, &shift);
                        (p, shifted)
                    })
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function("p256_exp_shared_base_48", |b| {
            b.iter(|| g.exp_shared_base(&shift, &ks))
        });
        group.bench_function("p256_exp_shared_base_48_naive", |b| {
            b.iter(|| ks.iter().map(|k| g.exp(&shift, k)).collect::<Vec<_>>())
        });
    }
    // One random-linear-combination Schnorr check over a cohort vs n
    // individual double-exponentiation verifies.
    let n = 16usize;
    let keys: Vec<_> = (0..n).map(|_| SigningKey::generate(&g, &mut rng)).collect();
    let msgs: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("identity token #{i}").into_bytes())
        .collect();
    let sigs: Vec<_> = keys
        .iter()
        .zip(&msgs)
        .map(|(key, m)| key.sign(&g, &mut rng, m))
        .collect();
    let vks: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();
    let items: Vec<_> = vks
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((vk, m), s)| (vk, m.as_slice(), s))
        .collect();
    assert!(verify_batch(&g, &items));
    group.bench_function("p256_schnorr_verify_batch_16", |b| {
        b.iter(|| verify_batch(&g, &items))
    });
    group.bench_function("p256_schnorr_verify_16_individually", |b| {
        b.iter(|| items.iter().all(|(vk, m, s)| vk.verify(&g, m, s)))
    });
    group.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_symmetric");
    let data = vec![0xabu8; 16 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_16k", |b| b.iter(|| sha256(&data)));
    group.bench_function("sha1_16k", |b| b.iter(|| sha1(&data)));
    let key = [7u8; 32];
    let nonce = [9u8; NONCE_LEN];
    group.bench_function("aes256_ctr_16k", |b| {
        b.iter(|| ctr_encrypt(&key, &nonce, &data))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_group_exponentiation,
    bench_pedersen,
    bench_schnorr,
    bench_msm_and_batch_verify,
    bench_symmetric
);
criterion_main!(benches);
