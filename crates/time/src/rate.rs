//! Exact rational clock rates.
//!
//! The paper's Assumption 1 bounds the *drift rate* of every clock:
//! `|dC/dt − 1| ≤ δ` with `δ ≤ 1/7`. Representing rates as `f64` would make
//! event ordering in the asynchronous engine depend on floating-point
//! rounding, so rates are exact rationals `num/den` evaluated in exact
//! integer arithmetic: `u64` when the intermediate product fits, `u128`
//! otherwise.

use serde::Serialize;
use std::fmt;

/// An exact rational clock rate `num/den` (local seconds per real second).
///
/// A perfect clock has rate 1. A rate above 1 is a *fast* clock (positive
/// drift), below 1 a *slow* clock.
///
/// # Examples
///
/// ```
/// use mmhew_time::Rate;
///
/// let fast = Rate::new(8, 7); // drift +1/7, the paper's limit
/// assert!((fast.drift() - 1.0 / 7.0).abs() < 1e-12);
/// assert_eq!(fast.local_elapsed(7_000), 8_000);
/// assert_eq!(fast.real_elapsed_to_reach(8_000), 7_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Rate {
    num: u64,
    den: u64,
}

impl Rate {
    /// The perfect rate 1/1.
    pub const ONE: Self = Self { num: 1, den: 1 };

    /// Creates the rate `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if either part is zero.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "rate parts must be positive");
        Self { num, den }
    }

    /// Creates the rate `1 + drift_num/drift_den` (signed drift).
    ///
    /// # Panics
    ///
    /// Panics if `drift_den == 0` or the drift is ≤ −1 (non-positive rate).
    pub fn from_drift(drift_num: i64, drift_den: u64) -> Self {
        assert!(drift_den > 0, "drift denominator must be positive");
        let den = drift_den;
        let num = den as i128 + drift_num as i128;
        assert!(num > 0, "drift must be > -1");
        Self::new(num as u64, den)
    }

    /// Numerator.
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator.
    pub fn den(&self) -> u64 {
        self.den
    }

    /// The drift rate `num/den − 1` as a float (reporting only).
    pub fn drift(&self) -> f64 {
        self.num as f64 / self.den as f64 - 1.0
    }

    /// True if `|rate − 1| ≤ bound_num/bound_den`, evaluated exactly.
    pub fn drift_within(&self, bound_num: u64, bound_den: u64) -> bool {
        // |num/den - 1| <= bn/bd  <=>  |num - den| * bd <= bn * den
        let diff = self.num.abs_diff(self.den) as u128;
        diff * bound_den as u128 <= bound_num as u128 * self.den as u128
    }

    /// Local nanoseconds elapsed over `real_ns` real nanoseconds, flooring
    /// and saturating at `u64::MAX`.
    #[inline]
    pub fn local_elapsed(&self, real_ns: u64) -> u64 {
        match real_ns.checked_mul(self.num) {
            Some(product) => product / self.den,
            None => u64::try_from(real_ns as u128 * self.num as u128 / self.den as u128)
                .unwrap_or(u64::MAX),
        }
    }

    /// The least number of real nanoseconds `r` such that
    /// `local_elapsed(r) ≥ local_ns`, saturating at `u64::MAX`.
    ///
    /// This is the exact inverse used for scheduling: a node asks "when does
    /// my clock reach local offset `l`?" and the engine gets the earliest
    /// real instant at which that holds.
    #[inline]
    pub fn real_elapsed_to_reach(&self, local_ns: u64) -> u64 {
        // least r with floor(r*num/den) >= l  <=>  r*num >= l*den
        // <=> r >= ceil(l*den/num)
        match local_ns.checked_mul(self.den) {
            Some(product) => product.div_ceil(self.num),
            None => u64::try_from((local_ns as u128 * self.den as u128).div_ceil(self.num as u128))
                .unwrap_or(u64::MAX),
        }
    }
}

impl Default for Rate {
    fn default() -> Self {
        Self::ONE
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_identity() {
        assert_eq!(Rate::ONE.local_elapsed(12345), 12345);
        assert_eq!(Rate::ONE.real_elapsed_to_reach(12345), 12345);
        assert_eq!(Rate::ONE.drift(), 0.0);
        assert_eq!(Rate::default(), Rate::ONE);
    }

    #[test]
    fn from_drift_constructors() {
        assert_eq!(Rate::from_drift(1, 7), Rate::new(8, 7));
        assert_eq!(Rate::from_drift(-1, 7), Rate::new(6, 7));
        assert_eq!(Rate::from_drift(0, 3), Rate::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "drift must be > -1")]
    fn from_drift_rejects_stopped_clock() {
        let _ = Rate::from_drift(-7, 7);
    }

    #[test]
    fn drift_within_exact() {
        assert!(Rate::new(8, 7).drift_within(1, 7));
        assert!(!Rate::new(8, 7).drift_within(1, 8));
        assert!(Rate::new(6, 7).drift_within(1, 7));
        assert!(Rate::ONE.drift_within(0, 1));
        // 1.1 has drift exactly 1/10.
        assert!(Rate::new(11, 10).drift_within(1, 10));
        assert!(!Rate::new(11, 10).drift_within(99, 1000));
    }

    #[test]
    fn elapsed_floors() {
        let r = Rate::new(3, 7);
        assert_eq!(r.local_elapsed(7), 3);
        assert_eq!(r.local_elapsed(8), 3); // 24/7 = 3.43 -> 3
        assert_eq!(r.local_elapsed(13), 5); // 39/7 = 5.57 -> 5
    }

    #[test]
    fn inverse_is_exact_least_preimage() {
        for (num, den) in [(8u64, 7u64), (6, 7), (1, 1), (1_000_001, 1_000_000)] {
            let r = Rate::new(num, den);
            for local in [0u64, 1, 2, 3, 100, 999, 12_345] {
                let real = r.real_elapsed_to_reach(local);
                assert!(
                    r.local_elapsed(real) >= local,
                    "{r}: local_elapsed({real}) < {local}"
                );
                if real > 0 {
                    assert!(
                        r.local_elapsed(real - 1) < local,
                        "{r}: real {real} not minimal for {local}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_overflow_at_large_times() {
        // A century of nanoseconds under a fast clock with a large denominator.
        let r = Rate::new(1_000_000_001, 1_000_000_000);
        let century_ns = 100u64 * 365 * 24 * 3600 * 1_000_000_000;
        let local = r.local_elapsed(century_ns);
        assert!(local > century_ns);
        let back = r.real_elapsed_to_reach(local);
        assert!(back <= century_ns);
        assert!(century_ns - back <= 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Rate::new(0, 1);
    }
}
