//! Exact binary rationals `num / 2^log_den`.
//!
//! Every state value manipulated by the BinAA sub-protocol of Delphi is of
//! this form: inputs are 0 or 1, and each round replaces a value by the
//! midpoint of at most two values from the previous round (Algorithm 1,
//! line 20). Representing them exactly lets the test-suite check agreement
//! and validity *exactly*, and makes wire encodings canonical.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

use crate::wire::{Decode, Encode, Reader, WireError, Writer};

/// Largest supported exponent (`log2` of the denominator).
///
/// 62 keeps all internal comparisons within `u128` arithmetic. Protocols
/// impose much tighter caps (Delphi's parameter engine caps the BinAA round
/// count, and thereby the exponent, at 32) and must validate attacker-
/// supplied values against their own cap; this constant is the structural
/// limit below which [`Dyadic`] arithmetic itself is exact and panic-free.
pub const MAX_LOG_DEN: u8 = 62;

/// An exact non-negative binary rational `num / 2^log_den`.
///
/// Values are kept normalized (the numerator is odd, or the exponent is 0),
/// so equality is structural and encodings are canonical.
///
/// # Example
///
/// ```
/// use delphi_primitives::Dyadic;
///
/// let a = Dyadic::ZERO;
/// let b = Dyadic::ONE;
/// let mid = a.midpoint(b);
/// assert_eq!(mid, Dyadic::new(1, 1));        // 1/2
/// assert_eq!(mid.midpoint(b), Dyadic::new(3, 2)); // 3/4
/// assert_eq!(mid.to_f64(), 0.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dyadic {
    num: u64,
    log_den: u8,
}

/// Error returned by [`Dyadic::try_new`] when the exponent exceeds
/// [`MAX_LOG_DEN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DyadicRangeError {
    log_den: u8,
}

impl fmt::Display for DyadicRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dyadic exponent {} exceeds maximum {}", self.log_den, MAX_LOG_DEN)
    }
}

impl Error for DyadicRangeError {}

impl Dyadic {
    /// The value 0.
    pub const ZERO: Dyadic = Dyadic { num: 0, log_den: 0 };
    /// The value 1.
    pub const ONE: Dyadic = Dyadic { num: 1, log_den: 0 };

    /// Creates `num / 2^log_den`, normalizing the representation.
    ///
    /// # Panics
    ///
    /// Panics if `log_den > MAX_LOG_DEN`. Use [`Dyadic::try_new`] for
    /// untrusted exponents.
    ///
    /// ```
    /// use delphi_primitives::Dyadic;
    /// assert_eq!(Dyadic::new(2, 2), Dyadic::new(1, 1)); // 2/4 == 1/2
    /// ```
    pub fn new(num: u64, log_den: u8) -> Dyadic {
        Dyadic::try_new(num, log_den).expect("dyadic exponent out of range")
    }

    /// Creates `num / 2^log_den`, normalizing the representation.
    ///
    /// # Errors
    ///
    /// Returns [`DyadicRangeError`] if `log_den > MAX_LOG_DEN`.
    pub fn try_new(num: u64, log_den: u8) -> Result<Dyadic, DyadicRangeError> {
        if log_den > MAX_LOG_DEN {
            return Err(DyadicRangeError { log_den });
        }
        Ok(Dyadic::normalized(num, log_den))
    }

    fn normalized(mut num: u64, mut log_den: u8) -> Dyadic {
        if num == 0 {
            return Dyadic::ZERO;
        }
        let reducible = num.trailing_zeros().min(u32::from(log_den)) as u8;
        num >>= reducible;
        log_den -= reducible;
        Dyadic { num, log_den }
    }

    /// Creates 0 or 1 from a binary input, as fed into BinAA.
    ///
    /// ```
    /// use delphi_primitives::Dyadic;
    /// assert_eq!(Dyadic::from_bit(true), Dyadic::ONE);
    /// assert_eq!(Dyadic::from_bit(false), Dyadic::ZERO);
    /// ```
    pub fn from_bit(bit: bool) -> Dyadic {
        if bit {
            Dyadic::ONE
        } else {
            Dyadic::ZERO
        }
    }

    /// The normalized numerator.
    pub fn num(self) -> u64 {
        self.num
    }

    /// The normalized exponent (`log2` of the denominator).
    pub fn log_den(self) -> u8 {
        self.log_den
    }

    /// Whether this is exactly 0.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Converts to `f64`. Exact whenever `log_den ≤ 52` and the numerator
    /// fits in 53 bits, which holds for all values BinAA produces under the
    /// parameter engine's `r_M ≤ 32` cap.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / 2f64.powi(i32::from(self.log_den))
    }

    /// Exact midpoint `(self + other) / 2`.
    ///
    /// This is the BinAA state-update operation (Algorithm 1, line 20).
    ///
    /// # Panics
    ///
    /// Panics if the result's exponent would exceed [`MAX_LOG_DEN`] or its
    /// numerator would overflow. Use [`Dyadic::checked_midpoint`] when the
    /// operands may come from an untrusted source.
    pub fn midpoint(self, other: Dyadic) -> Dyadic {
        self.checked_midpoint(other).expect("dyadic midpoint out of range")
    }

    /// Exact midpoint `(self + other) / 2`, or `None` if the result cannot
    /// be represented (exponent above [`MAX_LOG_DEN`] or numerator overflow).
    pub fn checked_midpoint(self, other: Dyadic) -> Option<Dyadic> {
        let den = self.log_den.max(other.log_den);
        let a = u128::from(self.num) << (den - self.log_den);
        let b = u128::from(other.num) << (den - other.log_den);
        let sum = a + b; // ≤ 2^65: cannot overflow u128.
        let mut num = sum;
        let mut log_den = u32::from(den) + 1;
        let reducible = (num.trailing_zeros()).min(log_den);
        num >>= reducible;
        log_den -= reducible;
        if log_den > u32::from(MAX_LOG_DEN) {
            return None;
        }
        let num = u64::try_from(num).ok()?;
        Some(Dyadic { num, log_den: log_den as u8 })
    }

    /// Exact absolute difference `|self − other|`, or `None` on overflow.
    pub fn checked_abs_diff(self, other: Dyadic) -> Option<Dyadic> {
        let den = self.log_den.max(other.log_den);
        let a = u128::from(self.num) << (den - self.log_den);
        let b = u128::from(other.num) << (den - other.log_den);
        let diff = a.abs_diff(b);
        let mut num = diff;
        let mut log_den = u32::from(den);
        if num > 0 {
            let reducible = num.trailing_zeros().min(log_den);
            num >>= reducible;
            log_den -= reducible;
        } else {
            log_den = 0;
        }
        let num = u64::try_from(num).ok()?;
        Some(Dyadic { num, log_den: log_den as u8 })
    }

    /// Exact absolute difference `|self − other|`.
    ///
    /// # Panics
    ///
    /// Panics on numerator overflow; impossible for values in `[0, 1]`.
    pub fn abs_diff(self, other: Dyadic) -> Dyadic {
        self.checked_abs_diff(other).expect("dyadic abs_diff overflow")
    }

    /// Whether the value lies in the closed unit interval `[0, 1]`.
    ///
    /// All BinAA weights satisfy this; decoders use it to reject Byzantine
    /// values early.
    pub fn in_unit_interval(self) -> bool {
        self <= Dyadic::ONE
    }
}

#[cfg(test)]
impl Dyadic {
    /// Whether this is exactly 1.
    pub fn is_one(self) -> bool {
        self == Dyadic::ONE
    }
}

impl Default for Dyadic {
    fn default() -> Self {
        Dyadic::ZERO
    }
}

impl PartialOrd for Dyadic {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dyadic {
    fn cmp(&self, other: &Self) -> Ordering {
        let den = self.log_den.max(other.log_den);
        let a = u128::from(self.num) << (den - self.log_den);
        let b = u128::from(other.num) << (den - other.log_den);
        a.cmp(&b)
    }
}

impl fmt::Debug for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dyadic({}/2^{})", self.num, self.log_den)
    }
}

impl fmt::Display for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.log_den == 0 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/2^{}", self.num, self.log_den)
        }
    }
}

impl From<Dyadic> for f64 {
    fn from(d: Dyadic) -> f64 {
        d.to_f64()
    }
}

impl Encode for Dyadic {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.num);
        w.put_raw_u8(self.log_den);
    }
}

impl Decode for Dyadic {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let num = r.get_u64()?;
        let log_den = r.get_raw_u8()?;
        Dyadic::try_new(num, log_den).map_err(|_| WireError::InvalidValue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;
    use proptest::prelude::*;

    #[test]
    fn constants_and_predicates() {
        assert!(Dyadic::ZERO.is_zero());
        assert!(!Dyadic::ZERO.is_one());
        assert!(Dyadic::ONE.is_one());
        assert_eq!(Dyadic::ZERO.to_f64(), 0.0);
        assert_eq!(Dyadic::ONE.to_f64(), 1.0);
        assert_eq!(Dyadic::default(), Dyadic::ZERO);
        assert!(Dyadic::new(1, 1).in_unit_interval());
        assert!(!Dyadic::new(3, 1).in_unit_interval());
    }

    #[test]
    fn normalization_canonicalizes() {
        assert_eq!(Dyadic::new(4, 3), Dyadic::new(1, 1));
        assert_eq!(Dyadic::new(0, 17), Dyadic::ZERO);
        assert_eq!(Dyadic::new(6, 1), Dyadic::new(3, 0));
        let d = Dyadic::new(12, 2);
        assert_eq!((d.num(), d.log_den()), (3, 0));
    }

    #[test]
    fn try_new_rejects_large_exponent() {
        assert!(Dyadic::try_new(1, MAX_LOG_DEN).is_ok());
        let err = Dyadic::try_new(1, MAX_LOG_DEN + 1).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn midpoint_matches_paper_iteration() {
        // Binary inputs converge by halving: 0, 1 -> 1/2 -> 1/4 or 3/4 ...
        let m1 = Dyadic::ZERO.midpoint(Dyadic::ONE);
        assert_eq!(m1, Dyadic::new(1, 1));
        let m2 = Dyadic::ZERO.midpoint(m1);
        assert_eq!(m2, Dyadic::new(1, 2));
        let m3 = m1.midpoint(Dyadic::ONE);
        assert_eq!(m3, Dyadic::new(3, 2));
        // Midpoint of equal values is the value itself.
        assert_eq!(m3.midpoint(m3), m3);
    }

    #[test]
    fn checked_midpoint_detects_exponent_overflow() {
        let deep = Dyadic::new(1, MAX_LOG_DEN);
        // (1/2^62 + 0)/2 = 1/2^63: out of range.
        assert_eq!(deep.checked_midpoint(Dyadic::ZERO), None);
        // (1/2^62 + 1/2^62)/2 = 1/2^62: fine.
        assert_eq!(deep.checked_midpoint(deep), Some(deep));
    }

    #[test]
    fn abs_diff_basic() {
        let a = Dyadic::new(3, 2); // 3/4
        let b = Dyadic::new(1, 1); // 1/2
        assert_eq!(a.abs_diff(b), Dyadic::new(1, 2));
        assert_eq!(b.abs_diff(a), Dyadic::new(1, 2));
        assert_eq!(a.abs_diff(a), Dyadic::ZERO);
    }

    #[test]
    fn ordering_matches_value() {
        let vals = [
            Dyadic::ZERO,
            Dyadic::new(1, 3),
            Dyadic::new(1, 2),
            Dyadic::new(1, 1),
            Dyadic::new(5, 3),
            Dyadic::new(3, 2),
            Dyadic::ONE,
            Dyadic::new(3, 1),
        ];
        let mut sorted = vals;
        sorted.sort();
        let as_f64: Vec<f64> = sorted.iter().map(|d| d.to_f64()).collect();
        let mut expect = as_f64.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(as_f64, expect);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dyadic::new(3, 2).to_string(), "3/2^2");
        assert_eq!(Dyadic::ONE.to_string(), "1");
        assert_eq!(format!("{:?}", Dyadic::new(3, 2)), "Dyadic(3/2^2)");
    }

    #[test]
    fn decode_rejects_out_of_range_exponent() {
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_raw_u8(MAX_LOG_DEN + 1);
        let bytes = w.into_vec();
        assert_eq!(Dyadic::from_bytes(&bytes), Err(WireError::InvalidValue));
    }

    #[test]
    fn decode_normalizes_non_canonical_input() {
        // 2/2^1 should decode equal to 1.
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_raw_u8(1);
        let bytes = w.into_vec();
        assert_eq!(Dyadic::from_bytes(&bytes).unwrap(), Dyadic::ONE);
    }

    fn arb_unit_dyadic(max_exp: u8) -> impl Strategy<Value = Dyadic> {
        (0..=max_exp).prop_flat_map(|e| (0..=(1u64 << e)).prop_map(move |num| Dyadic::new(num, e)))
    }

    proptest! {
        #[test]
        fn prop_roundtrip(d in arb_unit_dyadic(32)) {
            prop_assert_eq!(roundtrip(&d).unwrap(), d);
        }

        #[test]
        fn prop_normalized_invariant(num in 0u64..u32::MAX as u64, e in 0u8..=52) {
            let d = Dyadic::new(num, e);
            prop_assert!(d.num() % 2 == 1 || d.log_den() == 0);
            // Same rational value as the raw inputs.
            let expect = num as f64 / 2f64.powi(i32::from(e));
            prop_assert_eq!(d.to_f64(), expect);
        }

        #[test]
        fn prop_midpoint_between_operands(a in arb_unit_dyadic(30), b in arb_unit_dyadic(30)) {
            let m = a.midpoint(b);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(lo <= m && m <= hi, "mid {m} not within [{lo}, {hi}]");
            // Exactness: m - lo == hi - m.
            prop_assert_eq!(m.abs_diff(lo), hi.abs_diff(m));
        }

        #[test]
        fn prop_midpoint_halves_range(a in arb_unit_dyadic(30), b in arb_unit_dyadic(30)) {
            let m = a.midpoint(b);
            let range = a.abs_diff(b);
            let half = m.abs_diff(a);
            prop_assert_eq!(half.midpoint(half), range.midpoint(Dyadic::ZERO));
        }

        #[test]
        fn prop_ordering_consistent_with_f64(a in arb_unit_dyadic(40), b in arb_unit_dyadic(40)) {
            let cmp = a.cmp(&b);
            let fcmp = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
            prop_assert_eq!(cmp, fcmp);
        }

        #[test]
        fn prop_abs_diff_triangle(a in arb_unit_dyadic(20), b in arb_unit_dyadic(20), c in arb_unit_dyadic(20)) {
            // |a - c| <= |a - b| + |b - c| checked in f64 (sums may not be dyadic-exact).
            let ac = a.abs_diff(c).to_f64();
            let ab = a.abs_diff(b).to_f64();
            let bc = b.abs_diff(c).to_f64();
            prop_assert!(ac <= ab + bc + 1e-12);
        }
    }
}
