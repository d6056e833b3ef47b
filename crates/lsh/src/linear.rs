//! Linear permutations `π(x) = a·x + b mod p` (the paper's §5.1, after
//! Broder et al.).
//!
//! The paper evaluates this family by enumerating every value of the range
//! set ([`LinearPerm::min_hash_enumerate`]). An affine map sends a
//! contiguous interval to an arithmetic progression mod `p`, so its minimum
//! can instead be found without touching the values, as in Gudmundsson &
//! Pagh's range-efficient consistent sampling: [`min_affine_mod`] runs a
//! Euclidean recursion over the progression's wraparounds, at most
//! `2·⌈log_φ p⌉` levels per interval ([`LinearPerm::min_hash`],
//! DESIGN.md §6.2). Both evaluations agree; property tests enforce it.

use crate::range::RangeSet;
use ars_common::DetRng;

/// The modulus: the largest prime below 2³², so identifiers stay in the
/// 32-bit identifier space. (2³² − 5 = 4294967291.)
pub const MODULUS: u64 = 4_294_967_291;

/// A small modulus just above the paper's §5.1 attribute domain
/// (`[0, 1000]`): permutations of the *domain* rather than of the 32-bit
/// space. Min-hashes then live in `[0, 1009)`, so group identifiers
/// (XORs of 20 of them) occupy only ~10 bits — dissimilar ranges collide
/// far more often, giving the "loose matching" behaviour the paper
/// describes for its linear permutations (poor Fig. 7 similarity but the
/// best Fig. 8 complete-answer rate).
pub const DOMAIN_MODULUS: u64 = 1009;

/// A linear (affine) permutation of `Z_p`, `p = `[`MODULUS`].
///
/// Values in `[p, 2³²)` (the top 5 values of the `u32` domain) alias values
/// in `[0, 5)`; the attribute domains used in the paper (e.g. ages,
/// dates-as-integers) are far below `p`, so this never matters in practice,
/// but callers mapping full 32-bit data through this family should be aware
/// the bijection holds on `[0, p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearPerm {
    a: u64,
    b: u64,
    m: u64,
}

impl LinearPerm {
    /// Draw random coefficients over the 32-bit modulus:
    /// `a ∈ [1, p)`, `b ∈ [0, p)`.
    pub fn random(rng: &mut DetRng) -> LinearPerm {
        LinearPerm::random_with_modulus(rng, MODULUS)
    }

    /// Draw random coefficients over an arbitrary prime modulus (e.g.
    /// [`DOMAIN_MODULUS`] for permutations of the attribute domain).
    pub fn random_with_modulus(rng: &mut DetRng, m: u64) -> LinearPerm {
        assert!((2..=MODULUS).contains(&m), "modulus out of range");
        let a = 1 + rng.gen_range_u64(m - 1);
        let b = rng.gen_range_u64(m);
        LinearPerm { a, b, m }
    }

    /// Build from explicit coefficients over the 32-bit modulus.
    ///
    /// # Panics
    /// Panics if `a == 0` (not a permutation) or a coefficient is ≥ p.
    pub fn new(a: u64, b: u64) -> LinearPerm {
        LinearPerm::with_modulus(a, b, MODULUS)
    }

    /// Build from explicit coefficients and modulus.
    ///
    /// # Panics
    /// Panics if `a == 0`, a coefficient is ≥ m, or m is out of range.
    pub fn with_modulus(a: u64, b: u64, m: u64) -> LinearPerm {
        assert!((2..=MODULUS).contains(&m), "modulus out of range");
        assert!(a != 0, "a = 0 is not a permutation");
        assert!(a < m && b < m, "coefficients must be < p");
        LinearPerm { a, b, m }
    }

    /// Coefficients `(a, b)`.
    pub fn coefficients(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.m
    }

    /// Apply the permutation to one value.
    #[inline]
    pub fn permute(&self, x: u32) -> u32 {
        // a, b < m ≤ 2³² and x < 2³², so a·x + b < 2⁶⁴.
        ((self.a * x as u64 + self.b) % self.m) as u32
    }

    /// Min-hash by enumerating every value of the set — the evaluation the
    /// paper's Fig. 5 times. `O(|Q|)`.
    pub fn min_hash_enumerate(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        q.iter().map(|v| self.permute(v)).min().unwrap()
    }

    /// Min-hash in closed form: `O(log p)` per interval of the set.
    pub fn min_hash(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        q.intervals()
            .iter()
            .map(|&(lo, hi)| self.min_interval(lo, hi))
            .min()
            .unwrap()
    }

    /// `min π(x)` over `x ∈ [lo, hi]`, in closed form: the interval's
    /// values map to `(a·i + π(lo)) mod p` for `i ∈ [0, hi − lo]`.
    #[inline]
    pub(crate) fn min_interval(&self, lo: u32, hi: u32) -> u32 {
        min_affine_mod(self.a, self.permute(lo) as u64, self.m, (hi - lo) as u64) as u32
    }
}

/// Minimum of `(a·i + b) mod m` over `i ∈ [0, n]` (inclusive), in
/// `O(log m)` time.
///
/// Between wraparounds the sequence increases by `a`, so the minimum is
/// the start of some ramp. The ramp starts `(b − j·m) mod a` decrease by
/// `m mod a` (modulo `a`) from one wrap to the next, and the minimum of a
/// decreasing sequence is the end of one of *its* ramps (or its last
/// term); those ramp ends increase again, by `a mod (m mod a)` modulo
/// `m mod a`. Alternating the two phases walks the moduli down Euclid's
/// sequence `m → a → m mod a → …`, so a call takes at most
/// `2·⌈log_φ m⌉` levels whatever the coefficients (about seven for a
/// random step over a 1,000-value range at `m = 2³² − 5`).
///
/// With `m < 2³²` and `n < 2³²` every product `a·n + b` stays below
/// `2⁶⁴`, so 64-bit arithmetic suffices.
///
/// # Panics
/// Panics if `m == 0`, `m ≥ 2³²` or `n ≥ 2³²`.
pub fn min_affine_mod(a: u64, b: u64, m: u64, n: u64) -> u64 {
    min_affine_mod_levels(a, b, m, n).0
}

/// [`min_affine_mod`] and the number of phases (recursion levels) it ran.
#[inline(always)]
fn min_affine_mod_levels(a: u64, b: u64, m: u64, n: u64) -> (u64, u32) {
    assert!(m > 0, "modulus must be positive");
    assert!(
        m <= u32::MAX as u64 && n <= u32::MAX as u64,
        "operands must fit in 32 bits"
    );
    // Moduli, steps and values stay below 2³², so only the `a·n` products
    // need 64 bits; the reductions by the next step are 32-bit.
    let (mut a, mut b, mut m, mut n) = ((a % m) as u32, (b % m) as u32, m as u32, n as u32);
    let mut best = u32::MAX;
    let mut levels = 0;
    loop {
        // Increasing phase: min over i ∈ [0, n] of (a·i + b) mod m.
        levels += 1;
        best = best.min(b);
        if a == 0 || best == 0 {
            return (best as u64, levels);
        }
        let wraps = ((a as u64 * n as u64 + b as u64) / m as u64) as u32;
        if wraps == 0 {
            return (best as u64, levels);
        }
        // Ramp j ∈ [1, wraps] starts at (b − j·m) mod a: first value
        // (b − m) mod a, then down by m mod a each wrap.
        let r = m % a;
        let b_mod = b % a;
        let first = if b_mod >= r {
            b_mod - r
        } else {
            b_mod + (a - r)
        };
        (a, b, m, n) = (r, first, a, wraps - 1);

        // Decreasing phase: min over j ∈ [0, n] of (b − a·j) mod m. Each
        // ramp bottoms out just before a wrap (at a value < a), or at the
        // last term.
        levels += 1;
        let an = a as u64 * n as u64;
        let (q, rem) = ((an / m as u64) as u32, (an % m as u64) as u32);
        let last = if b >= rem { b - rem } else { b + (m - rem) };
        best = best.min(last);
        if a == 0 || best == 0 {
            return (best as u64, levels);
        }
        // Wraps within j ∈ [0, n]: ⌈(a·n − b) / m⌉ clamped at 0.
        let wraps = q + (rem > b) as u32;
        if wraps == 0 {
            return (best as u64, levels);
        }
        // The first ramp ends at b mod a; each later one at the previous
        // end plus m, reduced mod a: an increasing sequence again.
        (a, b, m, n) = (m % a, b % a, a, wraps - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn modulus_is_prime() {
        // Trial division up to sqrt(2^32-5) ≈ 65536.
        let m = MODULUS;
        assert!(!m.is_multiple_of(2));
        let mut d = 3u64;
        while d * d <= m {
            assert!(!m.is_multiple_of(d), "MODULUS divisible by {d}");
            d += 2;
        }
    }

    #[test]
    fn permute_is_bijection_on_small_sample() {
        let mut rng = DetRng::new(1);
        let p = LinearPerm::random(&mut rng);
        let mut outs: Vec<u32> = (0u32..10_000).map(|x| p.permute(x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn zero_a_rejected() {
        LinearPerm::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "must be < p")]
    fn oversized_coefficient_rejected() {
        LinearPerm::new(MODULUS, 0);
    }

    #[test]
    fn identity_permutation() {
        let p = LinearPerm::new(1, 0);
        for x in [0u32, 1, 1000, 4_000_000_000] {
            assert_eq!(p.permute(x), x);
        }
        let q = RangeSet::interval(30, 50);
        assert_eq!(p.min_hash(&q), 30);
        assert_eq!(p.min_hash_enumerate(&q), 30);
    }

    #[test]
    fn min_affine_mod_worked_examples() {
        // a=3, b=1, m=10, i in 0..=4 → 1,4,7,0,3 → 0
        assert_eq!(min_affine_mod(3, 1, 10, 4), 0);
        // a=5, b=3, m=7, i in 0..=5 → 3,1,6,4,2,0 → 0
        assert_eq!(min_affine_mod(5, 3, 7, 5), 0);
        // a=2, b=0, m=7, i in 0..=3 → 0,2,4,6 → 0 (no wrap)
        assert_eq!(min_affine_mod(2, 0, 7, 3), 0);
        // a=4, b=5, m=9, i in 0..=2 → 5, 0, 4 → 0
        assert_eq!(min_affine_mod(4, 5, 9, 2), 0);
        // single point
        assert_eq!(min_affine_mod(123, 456, 1000, 0), 456);
    }

    #[test]
    fn min_affine_mod_matches_brute_force_grid() {
        for m in [2u64, 3, 7, 10, 16, 97] {
            for a in 0..m.min(20) {
                for b in 0..m.min(20) {
                    for n in 0..30u64 {
                        let brute = (0..=n).map(|i| (a * i + b) % m).min().unwrap();
                        assert_eq!(min_affine_mod(a, b, m, n), brute, "a={a} b={b} m={m} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_enumeration() {
        let mut rng = DetRng::new(5);
        for _ in 0..50 {
            let p = LinearPerm::random(&mut rng);
            let lo = rng.gen_inclusive_u32(0, 5000);
            let hi = lo + rng.gen_inclusive_u32(0, 2000);
            let q = RangeSet::interval(lo, hi);
            assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
        }
    }

    #[test]
    fn closed_form_matches_enumeration_multi_interval() {
        let mut rng = DetRng::new(6);
        for _ in 0..30 {
            let p = LinearPerm::random(&mut rng);
            let q = RangeSet::from_intervals([(10, 50), (100, 130), (1000, 1001)]);
            assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
            let _ = rng.next_u64();
        }
    }

    #[test]
    fn closed_form_handles_huge_ranges() {
        // Enumeration would take ~2³² steps; the closed form is instant.
        let mut rng = DetRng::new(7);
        let p = LinearPerm::random(&mut rng);
        let q = RangeSet::interval(0, MODULUS as u32 - 1);
        // A permutation of [0, p) over the whole domain attains 0.
        assert_eq!(p.min_hash(&q), 0);
        // a = p − 1 is the subtractive recursion's worst case (one level
        // per unit of range); the Euclidean one needs a few levels.
        for b in [0, 1, 12_345, MODULUS - 1] {
            let p = LinearPerm::new(MODULUS - 1, b);
            assert_eq!(p.min_hash(&q), 0);
            assert_eq!(p.min_hash(&RangeSet::interval(0, u32::MAX)), 0);
        }
    }

    /// The coefficients that stall a subtractive recursion: tiny steps and
    /// steps just below `p/3`, `p/2` and `p`.
    fn adversarial_coefficients(p: u64) -> [u64; 6] {
        [1, 2, (p - 1) / 3, (p - 1) / 2, p - 2, p - 1]
    }

    #[test]
    fn adversarial_coefficients_match_enumeration() {
        for (p, widths) in [
            (MODULUS, &[0u32, 1, 2, 999, 2_000, 3_460][..]),
            (DOMAIN_MODULUS, &[0, 1, 2, 336, 504, 1_008, 1_500][..]),
        ] {
            for a in adversarial_coefficients(p) {
                for b in [0, 1, p / 2, p - 1] {
                    let perm = LinearPerm::with_modulus(a, b, p);
                    for lo in [0u32, 1, 500, 1_000] {
                        for &w in widths {
                            let q = RangeSet::interval(lo, lo + w);
                            assert_eq!(
                                perm.min_hash(&q),
                                perm.min_hash_enumerate(&q),
                                "p={p} a={a} b={b} [{lo}, {}]",
                                lo + w
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let golden = (1.0 + 5f64.sqrt()) / 2.0;
        for p in [MODULUS, DOMAIN_MODULUS] {
            let bound = 2 * ((p as f64).ln() / golden.ln()).ceil() as u32;
            // Euclid's worst case: a step near p/φ makes every quotient 1.
            let fib = (p as f64 / golden) as u64;
            let mut coeffs = adversarial_coefficients(p).to_vec();
            coeffs.extend([fib, fib + 1, p - fib]);
            let mut rng = DetRng::new(13);
            coeffs.extend((0..200).map(|_| 1 + rng.gen_range_u64(p - 1)));
            for a in coeffs {
                for b in [0, 1, p / 3, p - 1] {
                    for n in [1, 1_000, p / 2, p - 1, (1 << 32) - 1] {
                        let (_, levels) = min_affine_mod_levels(a, b, p, n);
                        assert!(
                            levels <= bound,
                            "p={p} a={a} b={b} n={n}: {levels} > {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn domain_modulus_permutes_small_domain() {
        let mut rng = DetRng::new(12);
        let p = LinearPerm::random_with_modulus(&mut rng, DOMAIN_MODULUS);
        assert_eq!(p.modulus(), DOMAIN_MODULUS);
        // Bijection on [0, 1009).
        let mut outs: Vec<u32> = (0..DOMAIN_MODULUS as u32).map(|x| p.permute(x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), DOMAIN_MODULUS as usize);
        assert!(outs.iter().all(|&v| v < DOMAIN_MODULUS as u32));
        // Closed form matches enumeration on the small modulus too.
        for (lo, hi) in [(0u32, 50u32), (30, 50), (900, 1000)] {
            let q = RangeSet::interval(lo, hi);
            assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
        }
    }

    #[test]
    fn collision_probability_tracks_jaccard() {
        let q = RangeSet::interval(0, 99);
        let r = RangeSet::interval(50, 149); // J = 1/3
        let mut rng = DetRng::new(42);
        let trials = 4000;
        let hits = (0..trials)
            .filter(|_| {
                let p = LinearPerm::random(&mut rng);
                p.min_hash(&q) == p.min_hash(&r)
            })
            .count();
        let est = hits as f64 / trials as f64;
        // Linear permutations are known to be only approximately min-wise;
        // pairwise independence gives expectation close to Jaccard for
        // interval sets.
        assert!(
            (est - 1.0 / 3.0).abs() < 0.1,
            "estimated {est:.3} too far from 1/3"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn min_affine_mod_matches_brute_force(
            a in 0u64..10_000,
            b in 0u64..10_000,
            m in 1u64..10_000,
            n in 0u64..2_000,
        ) {
            let brute = (0..=n).map(|i| (a % m * i % m + b % m) % m).min().unwrap();
            prop_assert_eq!(min_affine_mod(a, b, m, n), brute);
        }

        #[test]
        fn closed_form_equals_enumeration(
            seed in any::<u64>(),
            lo in 0u32..100_000,
            w in 0u32..3_000,
        ) {
            let mut rng = DetRng::new(seed);
            let p = LinearPerm::random(&mut rng);
            let q = RangeSet::interval(lo, lo + w);
            prop_assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
        }

        #[test]
        fn permute_injective(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let p = LinearPerm::random(&mut rng);
            // Bijection holds on [0, MODULUS); clamp test inputs there.
            let a = a % MODULUS as u32;
            let b = b % MODULUS as u32;
            prop_assert_eq!(a == b, p.permute(a) == p.permute(b));
        }
    }
}
