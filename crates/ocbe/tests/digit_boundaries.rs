//! GE/LE-OCBE at the radix-16 digit boundaries: widths ℓ whose top digit
//! has 1, 2, 3 or 4 bits (ℓ mod 4 = 1, 2, 3, 0), thresholds at both ends of the ℓ-bit range, values
//! on either side of them, just above `2^ℓ` and at the decoy's `2^63 − 1`.
//! The envelope opens iff the inequality holds and `x < 2^ℓ`.

use pbcd_commit::Pedersen;
use pbcd_group::{CyclicGroup, ModpGroup, P256Group};
use pbcd_ocbe::bitwise::{compose, open, prepare};
use pbcd_ocbe::Direction;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAYLOAD: &[u8] = b"conditional subscription secret";

/// One round; whether the receiver recovered the payload.
fn opens<G: CyclicGroup>(
    ped: &Pedersen<G>,
    x: u64,
    x0: u64,
    ell: u32,
    dir: Direction,
    rng: &mut StdRng,
) -> bool {
    let (c, opening) = ped.commit_u64(x, rng);
    let (proof, secrets) = prepare(ped, x, &opening, x0, ell, dir, rng).unwrap();
    let env = compose(ped, &c, x0, ell, dir, &proof, PAYLOAD, rng)
        .expect("the sender's check passes for every receiver");
    let opened = open(ped.group(), &env, &secrets);
    assert!(opened.is_none() || opened.as_deref() == Some(PAYLOAD));
    opened.is_some()
}

fn check_grid<G: CyclicGroup>(group: G, ells: &[u32], seed: u64) {
    let ped = Pedersen::new(group);
    let mut rng = StdRng::seed_from_u64(seed);
    for &ell in ells {
        let top = (1u64 << ell) - 1;
        for x0 in [0, 1, top] {
            let mut xs: Vec<u64> = [x0.checked_sub(1), Some(x0), Some(x0 + 1)]
                .into_iter()
                .flatten()
                .chain([top, top + 1, (1 << 63) - 1])
                .collect();
            xs.sort_unstable();
            xs.dedup();
            for x in xs {
                for dir in [Direction::Ge, Direction::Le] {
                    assert_eq!(
                        opens(&ped, x, x0, ell, dir, &mut rng),
                        dir.eval(x, x0) && x <= top,
                        "{} ℓ={ell} x0={x0} x={x} {dir:?}",
                        ped.group().name()
                    );
                }
            }
        }
    }
}

/// Top digits of width 1, 2, 3 and 4 at both ends of the ℓ range: the
/// one- and two-digit widths 1–8 and 45–48 here, 62/63 in a test of
/// their own, so the two share the CPUs.
#[test]
fn p256_opens_iff_the_inequality_holds_in_range() {
    check_grid(
        P256Group::new(),
        &[1, 2, 3, 4, 5, 6, 7, 8, 45, 46, 47, 48],
        0xD161_0256,
    );
}

#[test]
fn p256_opens_iff_the_inequality_holds_in_range_at_the_widest_values() {
    check_grid(P256Group::new(), &[62, 63], 0xD161_0263);
}

/// modp exponentiations cost several times P-256's, so its grid keeps to
/// the first two-digit widths, whose top digits have 1, 2, 3 and 4 bits.
#[test]
fn modp_opens_iff_the_inequality_holds_in_range() {
    check_grid(ModpGroup::new(), &[5, 6, 7, 8], 0xD161_5114);
}

/// `d = 0x76543210` and `0xfedcba98`: one digit of every value `0..=15`
/// between them, in both directions.
fn check_every_digit_value<G: CyclicGroup>(group: G, seed: u64) {
    let ped = Pedersen::new(group);
    let mut rng = StdRng::seed_from_u64(seed);
    for d in [0x7654_3210, 0xfedc_ba98] {
        assert!(opens(&ped, 1000 + d, 1000, 40, Direction::Ge, &mut rng));
        assert!(opens(&ped, 1000, 1000 + d, 40, Direction::Le, &mut rng));
    }
}

#[test]
fn a_difference_with_every_digit_value_opens() {
    check_every_digit_value(P256Group::new(), 0xD161_0007);
    check_every_digit_value(ModpGroup::new(), 0xD161_5007);
}
