//! Criterion benches for Table II (EQ-OCBE) and Figure 2 (GE-OCBE vs ℓ).
//!
//! The `reproduce` binary runs the full paper sweeps; these benches give
//! statistically robust numbers for representative points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbcd_bench::{bench_rng, ge_round};
use pbcd_group::{CyclicGroup, P256Group};
use pbcd_ocbe::{bitwise, eq, Direction, OcbeSystem};

fn bench_eq_ocbe(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_eq_ocbe");
    group.sample_size(20);
    let sys = OcbeSystem::new(P256Group::new(), 48);
    let ped = sys.pedersen();
    let sc = sys.group().scalar_ctx().clone();
    let mut rng = bench_rng();
    let (commitment, opening) = ped.commit_u64(28, &mut rng);
    let x0 = sc.from_u64(28);

    group.bench_function("compose_envelope_pub", |b| {
        b.iter(|| eq::compose(ped, &commitment, &x0, b"css-payload", &mut rng))
    });
    let env = eq::compose(ped, &commitment, &x0, b"css-payload", &mut rng);
    group.bench_function("open_envelope_sub", |b| {
        b.iter(|| eq::open(sys.group(), &env, &opening.randomness))
    });
    group.finish();
}

fn bench_ge_ocbe(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_ge_ocbe");
    group.sample_size(10);
    // ℓ = 48 is the end-to-end benchmark's width (`register_ge`);
    // `reproduce bench-json` records its compose and open points as
    // `ocbe_ge_l48_compose_ns` / `ocbe_ge_l48_open_ns`.
    for ell in [5u32, 20, 40, 48] {
        let mut rng = bench_rng();
        let round = ge_round(ell, &mut rng);
        let ped = round.sys.pedersen();

        group.bench_with_input(
            BenchmarkId::new("create_extra_commitments_sub", ell),
            &ell,
            |b, _| {
                b.iter(|| {
                    bitwise::prepare(
                        ped,
                        round.x,
                        &round.opening,
                        round.x0,
                        ell,
                        Direction::Ge,
                        &mut rng,
                    )
                    .expect("valid")
                })
            },
        );
        let (proof, secrets) = bitwise::prepare(
            ped,
            round.x,
            &round.opening,
            round.x0,
            ell,
            Direction::Ge,
            &mut rng,
        )
        .expect("valid");
        group.bench_with_input(
            BenchmarkId::new("compose_envelope_pub", ell),
            &ell,
            |b, _| {
                b.iter(|| {
                    bitwise::compose(
                        ped,
                        &round.commitment,
                        round.x0,
                        ell,
                        Direction::Ge,
                        &proof,
                        b"css-payload",
                        &mut rng,
                    )
                    .expect("consistent")
                })
            },
        );
        let env = bitwise::compose(
            ped,
            &round.commitment,
            round.x0,
            ell,
            Direction::Ge,
            &proof,
            b"css-payload",
            &mut rng,
        )
        .expect("consistent");
        group.bench_with_input(BenchmarkId::new("open_envelope_sub", ell), &ell, |b, _| {
            b.iter(|| bitwise::open(round.sys.group(), &env, &secrets))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eq_ocbe, bench_ge_ocbe);
criterion_main!(benches);
