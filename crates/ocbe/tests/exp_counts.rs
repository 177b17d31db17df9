//! Exponentiations per GE/LE-OCBE stage (paper Fig 2's three series),
//! asserted exactly for `D = ⌈ℓ/4⌉` digits: `prepare` 2D (a `g`/`h` comb
//! pair per digit commitment), `compose` D + 3 (one `cᵢ^y` per digit, plus
//! `η = h^y`, the shift `g^{−y}` and the difference commitment's
//! `g^{∓x₀}`) and `open` D (`η^{rᵢ}` per digit; none for an unqualified
//! receiver). The `pbcd_group::ops` counters are process-wide, so this
//! binary holds exactly one test.

use pbcd_commit::Pedersen;
use pbcd_group::ops::exp_total;
use pbcd_group::{CyclicGroup, ModpGroup, P256Group};
use pbcd_ocbe::bitwise::{compose, open, prepare};
use pbcd_ocbe::Direction;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `f`'s result and the exponentiations it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = exp_total();
    let out = f();
    (out, exp_total() - before)
}

/// `[prepare, compose, open]` counts of one round.
fn stage_counts<G: CyclicGroup>(group: G, x: u64, x0: u64, ell: u32, dir: Direction) -> [u64; 3] {
    let ped = Pedersen::new(group);
    let mut rng = StdRng::seed_from_u64(u64::from(ell));
    let (c, opening) = ped.commit_u64(x, &mut rng);
    let ((proof, secrets), prepare_n) =
        counted(|| prepare(&ped, x, &opening, x0, ell, dir, &mut rng).unwrap());
    let (env, compose_n) =
        counted(|| compose(&ped, &c, x0, ell, dir, &proof, b"k", &mut rng).unwrap());
    let (opened, open_n) = counted(|| open(ped.group(), &env, &secrets));
    assert_eq!(opened.is_some(), dir.eval(x, x0), "ℓ={ell} x={x} x0={x0}");
    [prepare_n, compose_n, open_n]
}

#[test]
fn exponentiations_per_stage_follow_the_digit_count() {
    for (ell, d) in [(3u32, 1u64), (4, 1), (5, 2), (48, 12), (63, 16)] {
        let qualified = [2 * d, d + 3, d];
        let unqualified = [2 * d, d + 3, 0];
        let x0 = 1 << (ell - 1);
        for dir in [Direction::Ge, Direction::Le] {
            let (above, below) = (x0 + 1, x0 - 1);
            let (yes, no) = match dir {
                Direction::Ge => (above, below),
                Direction::Le => (below, above),
            };
            assert_eq!(stage_counts(P256Group::new(), yes, x0, ell, dir), qualified);
            assert_eq!(
                stage_counts(P256Group::new(), no, x0, ell, dir),
                unqualified
            );
            if ell < 48 {
                assert_eq!(stage_counts(ModpGroup::new(), yes, x0, ell, dir), qualified);
                assert_eq!(
                    stage_counts(ModpGroup::new(), no, x0, ell, dir),
                    unqualified
                );
            }
        }
    }
    // One GE registration, 4⌈ℓ/4⌉ + 3 in all: 51 at the deployed ℓ = 48
    // (24 + 15 + 12).
    for (ell, total) in [(4u32, 7u64), (5, 11), (47, 51), (48, 51)] {
        let counts = stage_counts(P256Group::new(), 9, 5, ell, Direction::Ge);
        assert_eq!(counts.iter().sum::<u64>(), total, "ℓ={ell}");
        assert_eq!(total, 4 * u64::from(ell.div_ceil(4)) + 3);
    }
}
