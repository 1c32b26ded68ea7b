//! Float-to-integer rounding without the soft-float `round` call.
//!
//! The x86-64 baseline has no `roundsd` (it arrived with SSE4.1), so
//! `f64::round` compiles to a call into compiler-builtins' software
//! implementation. Frame-size generation and every `from_secs_f64` on the
//! event path round a float, and that call showed up as a large share of
//! profile samples. [`round_u64`] gets the same answer from a truncating
//! cast and one subtraction.

/// `x` rounded to the nearest integer, ties away from zero, as a `u64`:
/// exactly `x.round() as u64` for every `f64`.
///
/// The cast truncates toward zero and saturates (negative numbers and NaN
/// give 0, values at or above 2⁶⁴ give `u64::MAX`). For `0 ≤ x < 2⁵²`
/// both `t as f64` and `x - t` are exact, so the fraction test is exact;
/// from 2⁵² up every `f64` is an integer and the fraction is 0.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    fn check(x: f64) {
        assert_eq!(
            round_u64(x),
            x.round() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn edge_inputs_match_f64_round() {
        let two = |e: i32| 2f64.powi(e);
        for k in [0u64, 1, 2, 7, 1_000_000, (1 << 52) - 1] {
            let half = k as f64 + 0.5;
            for x in [k as f64, half, next_down(half), next_down(k as f64 + 1.0)] {
                check(x);
            }
        }
        for e in [52, 53, 63, 64, 65, 1000] {
            let x = two(e);
            for y in [next_down(x), x, f64::from_bits(x.to_bits() + 1)] {
                check(y);
            }
        }
        for x in [
            -0.0,
            0.0,
            0.49999999999999994,
            -0.5,
            -1.5,
            f64::MIN_POSITIVE,
        ] {
            check(x);
        }
        for x in [f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            check(x);
        }
        assert_eq!(round_u64(two(64)), u64::MAX);
        assert_eq!(round_u64(f64::MAX), u64::MAX);
        assert_eq!(round_u64(-0.0), 0);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(next_down(2.5)), 2);
    }

    #[test]
    fn random_inputs_match_f64_round() {
        let mut rng = SimRng::new(0x40d);
        for i in 0..1_000_000u32 {
            let x = match i % 4 {
                // Any bit pattern: every exponent, both signs, NaN and ±∞.
                0 => f64::from_bits(rng.next_u64_raw()),
                // Non-negative, magnitudes from 2⁻¹⁰ to 2⁶⁶.
                1 => rng.f64() * 2f64.powi(rng.index(77) as i32 - 10),
                // Halves and their neighbours below 2⁵³.
                2 => {
                    let half = (rng.next_u64_raw() >> (11 + rng.index(53))) as f64 + 0.5;
                    [half, next_down(half), f64::from_bits(half.to_bits() + 1)][rng.index(3)]
                }
                // Frame-size and time-like values.
                _ => rng.f64() * 1e6,
            };
            check(x);
        }
    }
}
