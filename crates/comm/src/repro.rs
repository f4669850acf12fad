//! Bitwise-reproducible floating-point reductions.
//!
//! The recovery supervisor restarts a crashed job on *fewer* ranks and
//! asserts that the recomputed solution is bitwise identical to the
//! fault-free run. Plain `allreduce_sum_f64` folds contributions in rank
//! order, so the same physical sum evaluated on 3 ranks and on 2 ranks
//! rounds differently — a single ULP that then amplifies through a Krylov
//! recurrence. This module provides a sum whose result depends only on the
//! *multiset* of terms, never on how they are partitioned across ranks:
//!
//! 1. a max-allreduce establishes a shared power-of-two grid strictly
//!    above every |term| (max is grouping-invariant, so every rank derives
//!    the same grid);
//! 2. each term is scaled by an exact power of two and rounded once onto
//!    that grid as an `i128` ([`FixedPoint::encode`]);
//! 3. integers are summed locally and allreduced — integer addition is
//!    associative and commutative, so any partitioning yields the same
//!    total;
//! 4. the total is converted back to `f64` with a single final rounding.
//!
//! With [`HEADROOM`] = 96 bits above the grid spacing, the quantization
//! error per term is below `2^-96 · max|term|` — far beneath the `f64`
//! roundoff the naive fold already commits — and an `i128` accumulator
//! tolerates ~`2^30` terms before overflow, orders of magnitude beyond any
//! nodal valence or rank count in the workspace.

use crate::communicator::Communicator;

/// Encoded magnitudes stay below `2^HEADROOM`; the gap to `i128::MAX`
/// (`2^127`) is the summation capacity (~`2^30` terms).
pub const HEADROOM: i32 = 96;

/// `2^e` as an exact `f64`, valid for `e` in `[-1074, 1023]`.
///
/// Subnormal results (`e < -1022`) are still exact powers of two.
fn pow2(e: i32) -> f64 {
    debug_assert!(
        (-1074..=1023).contains(&e),
        "pow2 exponent {e} out of range"
    );
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

/// Smallest convenient `e` with `|v| < 2^e`, read off the bit pattern.
///
/// Normals: `|v| = 1.m × 2^(biased-1023) < 2^(biased-1022)`.
/// Subnormals (and zero): `|v| < 2^-1022`.
fn exponent_above(v: f64) -> i32 {
    debug_assert!(v.is_finite());
    let biased = (v.to_bits() >> 52) & 0x7ff;
    if biased == 0 {
        -1022
    } else {
        biased as i32 - 1022
    }
}

/// `x.round() as i128` from the bit pattern of `x`: rounding half away
/// from zero, saturating at the `i128` range, and `NaN` to 0, exactly as
/// the cast does.
///
/// `x = m · 2^e` with the 53-bit significand `m`. For `e ≥ 0` the value
/// is an integer and `m << e` is exact; for `-53 ≤ e < 0` adding half an
/// integer step below the binary point and truncating rounds half away
/// from zero on the magnitude.
#[inline]
fn round_to_i128(x: f64) -> i128 {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i32;
    let negative = bits >> 63 != 0;
    if biased < 1022 {
        // |x| < 1/2, including zeros and subnormals.
        return 0;
    }
    if biased >= 1023 + 127 {
        // |x| ≥ 2^127, infinite or NaN: the cast saturates.
        return match (x.is_nan(), negative) {
            (true, _) => 0,
            (false, true) => i128::MIN,
            (false, false) => i128::MAX,
        };
    }
    let m = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    let e = biased - 1075;
    let magnitude = if e >= 0 {
        (m as i128) << e
    } else {
        let s = -e;
        ((m + (1u64 << (s - 1))) >> s) as i128
    };
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

/// `q as f64` without the software `i128` conversion: round to nearest,
/// ties to even.
///
/// A magnitude above 64 bits keeps its top 64 bits with the bits shifted
/// out folded into the lowest as a sticky bit. That bit lies below the
/// rounding position of the 53-bit significand, so the hardware
/// `u64 → f64` conversion rounds exactly as the full value would, and
/// the scaling back by `2^shift` is exact.
#[inline]
fn i128_to_f64(q: i128) -> f64 {
    let m = q.unsigned_abs();
    let magnitude = if m >> 64 == 0 {
        m as u64 as f64
    } else {
        let shift = 64 - m.leading_zeros();
        let top = (m >> shift) as u64;
        let sticky = (m & ((1u128 << shift) - 1) != 0) as u64;
        (top | sticky) as f64 * pow2(shift as i32)
    };
    if q < 0 {
        -magnitude
    } else {
        magnitude
    }
}

/// A shared fixed-point grid for one reduction epoch.
///
/// Built from the *global* maximum absolute term, so every rank quantizes
/// onto the identical grid. `shift` reserves low bits below the grid for
/// exact dyadic-weight arithmetic (e.g. hanging-node weights `{1/2, 1/4}`
/// become integer shifts when `shift = 2`).
#[derive(Debug, Clone, Copy)]
pub struct FixedPoint {
    /// Scale split into two exactly-representable power-of-two factors
    /// (a single `2^s` can overflow/underflow `f64` when the data is
    /// extreme; the two-step product never does, and each step is exact
    /// wherever the rounding decision matters).
    m1: f64,
    m2: f64,
    d1: f64,
    d2: f64,
    shift: u32,
}

impl FixedPoint {
    /// Grid for terms bounded by `max_abs` (globally reduced beforehand).
    ///
    /// Returns `None` when `max_abs` is zero or non-finite — the caller
    /// must handle those uniformly across ranks (all ranks see the same
    /// reduced `max_abs`, so all take the same branch).
    pub fn for_global_max(max_abs: f64, shift: u32) -> Option<Self> {
        if !max_abs.is_finite() || max_abs == 0.0 {
            return None;
        }
        debug_assert!(shift <= 8, "shift {shift} leaves too little headroom");
        let s = HEADROOM - exponent_above(max_abs);
        let s1 = s / 2;
        let t = -(s + shift as i32);
        let t1 = t / 2;
        Some(Self {
            m1: pow2(s1),
            m2: pow2(s - s1),
            d1: pow2(t1),
            d2: pow2(t - t1),
            shift,
        })
    }

    /// Quantize one term onto the grid. A deterministic function of the
    /// value alone — identical on every rank regardless of partitioning.
    ///
    /// Bitwise `(v * m1 * m2).round() as i128`, computed on the bit
    /// pattern rather than through the software float-to-`i128`
    /// conversion.
    #[inline]
    pub fn encode(&self, v: f64) -> i128 {
        debug_assert!(v.is_finite());
        round_to_i128(v * self.m1 * self.m2) << self.shift
    }

    /// Convert an accumulated integer back to `f64` (one final rounding).
    ///
    /// Bitwise `(q as f64) * d1 * d2`, converting through a 64-bit
    /// significand with a sticky bit rather than the software
    /// `i128`-to-float conversion.
    #[inline]
    pub fn decode(&self, q: i128) -> f64 {
        i128_to_f64(q) * self.d1 * self.d2
    }
}

/// `max(a, b)` that propagates a `NaN` from either side, where
/// `f64::max` drops it: a fold with it over values that hold a `NaN`
/// yields one, so a caller's non-finite branch sees it.
pub fn max_nan(a: f64, b: f64) -> f64 {
    if b > a || b.is_nan() {
        b
    } else {
        a
    }
}

/// `hi − lo` over `values`, or a `NaN` if any value is one, where a
/// `f64::min`/`max` fold skips it: a range indicator that met a `NaN`
/// compares false against every threshold. `-inf` when there are none.
pub fn nan_range(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        lo = if v.is_nan() || v < lo { v } else { lo };
        hi = max_nan(hi, v);
    }
    hi - lo
}

/// Largest `|t|` over `terms`, as `0.0` when there are none; a `NaN` if
/// any term is one.
///
/// Folds the bit patterns with the sign cleared as `u64`: on non-negative
/// floats the integer order is the float order, so on finite and infinite
/// data the result is bitwise the [`max_nan`] fold, and every `NaN`
/// pattern lies above `+inf`'s. A branch-free integer max vectorises
/// where the `NaN`-checking float fold does not.
fn local_max_abs(terms: impl IntoIterator<Item = f64>) -> f64 {
    const MAGNITUDE: u64 = !(1 << 63);
    let bits = terms
        .into_iter()
        .fold(0, |m, t| m.max(t.to_bits() & MAGNITUDE));
    f64::from_bits(bits)
}

/// Global maximum of `|t|` over every rank's `terms`; `NaN` if any rank
/// holds a `NaN` term, so a caller's non-finite branch sees it.
///
/// Collective: one allreduce, folded in rank order on every rank.
pub fn allreduce_max_abs(comm: &impl Communicator, terms: impl IntoIterator<Item = f64>) -> f64 {
    comm.allreduce(local_max_abs(terms), max_nan)
}

/// Sum-allreduce of `f64` terms whose result is bitwise independent of how
/// the terms are distributed across ranks.
///
/// Collective: every rank must call it, each contributing its local part
/// of the global term multiset. `terms` produces that part and is called
/// twice, once for the grid and once to encode, so a caller never
/// collects its terms into a buffer. Costs one max-allreduce plus one
/// `i128` sum-allreduce. Falls back to the naive fold if the data contains
/// non-finite values (reproducibility is moot then, and the global max
/// keeps all ranks on the same branch).
pub fn allreduce_sum_f64_exact<I: IntoIterator<Item = f64>>(
    comm: &impl Communicator,
    terms: impl Fn() -> I,
) -> f64 {
    let gmax = allreduce_max_abs(comm, terms());
    match FixedPoint::for_global_max(gmax, 0) {
        Some(fx) => {
            let local: i128 = terms().into_iter().map(|t| fx.encode(t)).sum();
            fx.decode(comm.allreduce(local, |a, b| a + b))
        }
        None if gmax == 0.0 => 0.0,
        None => comm.allreduce_sum_f64(terms().into_iter().sum()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::run_spmd;

    #[test]
    fn pow2_matches_powi_in_normal_range() {
        for e in [-1022, -700, -52, -1, 0, 1, 53, 700, 1023] {
            assert_eq!(pow2(e), 2.0f64.powi(e), "e = {e}");
        }
        // Subnormal range: compare against repeated halving.
        assert_eq!(pow2(-1074), f64::from_bits(1));
        assert_eq!(pow2(-1023), pow2(-1022) / 2.0);
    }

    #[test]
    fn exponent_above_bounds_the_value() {
        for v in [
            1.0,
            0.5,
            1.5,
            1e-300,
            1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            3.7e9,
        ] {
            let e = exponent_above(v);
            assert!(v < pow2(e), "v = {v:e}, e = {e}");
            if v >= f64::MIN_POSITIVE {
                assert!(v >= pow2(e - 1), "v = {v:e} not tight for e = {e}");
            }
        }
    }

    /// Deterministic value stream spanning many magnitudes and signs.
    fn stream(n: usize) -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mag = ((state >> 32) % 40) as i32 - 20;
                let frac = 1.0 + (state & 0xFFFF) as f64 / 65536.0;
                let sign = if state & 0x10000 == 0 { 1.0 } else { -1.0 };
                sign * frac * 2.0f64.powi(mag)
            })
            .collect()
    }

    #[test]
    fn exact_sum_is_partition_invariant() {
        let terms = stream(257);
        let mut per_p = Vec::new();
        for p in [1usize, 2, 3, 4] {
            let terms = terms.clone();
            let results = run_spmd(p, move |c| {
                // Deal terms round-robin so every rank count induces a
                // different partition of the same multiset.
                let mine: Vec<f64> = terms
                    .iter()
                    .copied()
                    .skip(c.rank())
                    .step_by(c.size())
                    .collect();
                allreduce_sum_f64_exact(c, || mine.iter().copied())
            });
            assert!(results.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
            per_p.push(results[0]);
        }
        assert!(
            per_p.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()),
            "rank-count dependent: {per_p:?}"
        );
    }

    #[test]
    fn exact_sum_beats_naive_fold_on_cancellation() {
        // Catastrophic cancellation: the naive rank-ordered fold loses the
        // small term depending on grouping; the fixed-point sum keeps it.
        let terms = [1e16, 1.0, -1e16, 1.0];
        let exact = run_spmd(2, move |c| {
            let mine: Vec<f64> = terms.iter().copied().skip(c.rank()).step_by(2).collect();
            allreduce_sum_f64_exact(c, || mine.iter().copied())
        });
        assert_eq!(exact[0], 2.0);
    }

    #[test]
    fn degenerate_inputs() {
        let zeros = run_spmd(2, |c| allreduce_sum_f64_exact(c, || [0.0, -0.0]));
        assert_eq!(zeros, vec![0.0, 0.0]);
        let empty = run_spmd(2, |c| allreduce_sum_f64_exact(c, || []));
        assert_eq!(empty, vec![0.0, 0.0]);
        // Subnormal-only data still reduces without over/underflowing the
        // scale factors.
        let tiny = f64::from_bits(3);
        let got = run_spmd(2, move |c| allreduce_sum_f64_exact(c, || [tiny]));
        assert_eq!(got[0], tiny + tiny);
        // Huge data near the top of the f64 range.
        let huge = f64::MAX / 4.0;
        let got = run_spmd(2, move |c| allreduce_sum_f64_exact(c, || [huge]));
        assert_eq!(got[0], huge + huge);
    }

    /// A 2-rank exact sum whose second rank holds a `NaN` term. `f64::max`
    /// dropped the `NaN` from the grid, which then encoded it as 0 and
    /// returned 6; the sum must take its non-finite branch instead.
    #[test]
    fn nan_term_propagates_through_the_exact_sum() {
        let got = run_spmd(2, |c| {
            let mine: &[f64] = if c.rank() == 0 {
                &[3.0]
            } else {
                &[1.0, f64::NAN, 2.0]
            };
            allreduce_sum_f64_exact(c, || mine.iter().copied())
        });
        assert!(got.iter().all(|v| v.is_nan()), "{got:?}");
        let inf = run_spmd(2, |c| {
            allreduce_sum_f64_exact(c, || [if c.rank() == 1 { f64::INFINITY } else { 1.0 }])
        });
        assert_eq!(inf, vec![f64::INFINITY; 2]);
    }

    /// The bit-pattern fold is the `max_nan` fold, bit for bit, on seeded
    /// finite streams with ±0, subnormals and ±inf mixed in; a `NaN` at the
    /// first, a middle or the last position comes out as a `NaN`.
    #[test]
    fn bit_pattern_max_is_the_nan_propagating_max() {
        let max_nan_fold = |xs: &[f64]| xs.iter().fold(0.0, |m: f64, &t| max_nan(m, t.abs()));
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        assert_eq!(local_max_abs([]).to_bits(), 0.0f64.to_bits());
        for len in [1usize, 2, 7, 8, 9, 31, 64, 257] {
            for round in 0..64 {
                let mut xs: Vec<f64> = (0..len)
                    .map(|_| match next() % 8 {
                        0 => specials[(next() % 8) as usize],
                        // Any bit pattern that is not a NaN: every sign,
                        // exponent and significand, subnormals included.
                        _ => Some(f64::from_bits(next()))
                            .filter(|x| !x.is_nan())
                            .unwrap_or(-0.0),
                    })
                    .collect();
                if round % 2 == 0 {
                    // Keep infinities out of half the rounds so the finite
                    // maximum decides.
                    xs.retain(|x| x.is_finite());
                }
                let (want, got) = (max_nan_fold(&xs), local_max_abs(xs.iter().copied()));
                assert_eq!(got.to_bits(), want.to_bits(), "{xs:?}");
                for at in [0, len / 2, len - 1] {
                    let mut with_nan = xs.clone();
                    with_nan.resize(len, 1.0);
                    with_nan[at] = if next() % 2 == 0 { f64::NAN } else { -f64::NAN };
                    assert!(local_max_abs(with_nan.iter().copied()).is_nan());
                    assert!(max_nan_fold(&with_nan).is_nan());
                }
            }
        }
    }

    /// Seeded `f64` stream for the conversion tests: ±0, subnormals, every
    /// binary magnitude from 2^-2 to 2^97 with random significands, `.5`
    /// ties, and the saturating and non-finite cases of the cast.
    fn encode_inputs() -> Vec<f64> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut xs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.49999999999999994,
            2f64.powi(127),
            -2f64.powi(127),
            2f64.powi(200),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for e in -2..=97 {
            for _ in 0..64 {
                let frac = 1.0 + (next() >> 12) as f64 / 2f64.powi(52);
                xs.push(frac * 2f64.powi(e));
            }
        }
        for _ in 0..4096 {
            // k + 1/2 is exact up to 2^52.
            let k = (next() >> (12 + next() % 52)) as f64;
            xs.push(k + 0.5);
        }
        let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        xs
    }

    #[test]
    fn encode_is_the_rounding_cast() {
        for x in encode_inputs() {
            assert_eq!(round_to_i128(x), x.round() as i128, "x = {x:e}");
        }
        // Through the grid, as the solvers call it.
        for (max, shift) in [(1.0, 0), (3.7e9, 2), (1e-300, 2), (f64::MAX / 4.0, 0)] {
            let fx = FixedPoint::for_global_max(max, shift).unwrap();
            for v in encode_inputs()
                .into_iter()
                .filter(|v| v.abs() < 2f64.powi(98))
            {
                let v = v / 2f64.powi(98) * max;
                let want = ((v * fx.m1 * fx.m2).round() as i128) << shift;
                assert_eq!(fx.encode(v), want, "v = {v:e} on the grid of {max:e}");
            }
        }
    }

    #[test]
    fn decode_is_the_conversion_cast() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut qs = vec![0i128, 1, -1, i128::MAX, i128::MIN, i128::MIN + 1];
        for bits in 1..=127u32 {
            for _ in 0..64 {
                let r = ((next() as u128) << 64) | next() as u128;
                qs.push((r >> (128 - bits)) as i128 | 1 << (bits - 1));
            }
            if bits >= 55 {
                // Exactly halfway between two doubles (a 53-bit significand,
                // then a one bit, then zeros), and a hair either side of it.
                let s = bits - 54;
                let m = ((next() >> 11) | 1 << 52) as i128;
                let half = ((m << 1) | 1) << s;
                qs.extend([half, half - 1, half + 1]);
            }
        }
        let negated: Vec<i128> = qs.iter().map(|q| q.wrapping_neg()).collect();
        qs.extend(negated);
        for q in qs {
            assert_eq!(i128_to_f64(q).to_bits(), (q as f64).to_bits(), "q = {q}");
        }
        let fx = FixedPoint::for_global_max(3.7e9, 2).unwrap();
        for q in [1i128 << 90, -(3 << 100) + 7, 12345] {
            assert_eq!(fx.decode(q).to_bits(), (q as f64 * fx.d1 * fx.d2).to_bits());
        }
    }

    /// `nan_range` is `max − min` on finite and infinite values and a
    /// `NaN` wherever a `NaN` sits, which a `f64::min`/`max` fold drops.
    #[test]
    fn nan_range_is_the_range_unless_a_nan_is_in_it() {
        assert_eq!(nan_range([2.0, -1.5, 0.5]), 3.5);
        assert_eq!(nan_range([7.0]), 0.0);
        assert_eq!(nan_range([1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(nan_range([]), f64::NEG_INFINITY);
        for at in 0..3 {
            let mut v = [1.0, 4.0, -2.0];
            v[at] = f64::NAN;
            assert!(nan_range(v).is_nan(), "NaN at {at}");
            let skipping = v.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x))
                - v.iter().fold(f64::INFINITY, |m, &x| m.min(x));
            assert!(!skipping.is_nan());
        }
    }
}
