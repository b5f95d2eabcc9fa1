//! 16-bit fixed-point arithmetic for the ShiDianNao reproduction.
//!
//! ShiDianNao (ISCA 2015, §5) uses 16-bit fixed-point operators throughout
//! both computational structures: "using 16-bit fixed-point operators brings
//! in negligible accuracy loss to neural networks" and "a 16-bit truncated
//! fixed-point multiplier is 6.10× smaller ... than a 32-bit floating-point
//! multiplier". This crate provides:
//!
//! * [`Fx`] — a Q7.8 16-bit two's-complement fixed-point number with
//!   saturating addition/subtraction and a truncated multiplier,
//! * [`Accum`] — the widened accumulator a processing element keeps while
//!   summing partial products (the product of two Q7.8 values is held at
//!   Q*.16 precision until read-out),
//! * [`Pla`] — the 16-segment piecewise-linear interpolator the ALU uses for
//!   activation functions (`f(x) = aᵢ·x + bᵢ` for `x ∈ [xᵢ, xᵢ₊₁]`, §5.2).
//!
//! # Examples
//!
//! ```
//! use shidiannao_fixed::{Fx, Accum, Pla};
//!
//! let a = Fx::from_f32(1.5);
//! let b = Fx::from_f32(-0.25);
//! assert_eq!((a * b).to_f32(), -0.375);
//!
//! let mut acc = Accum::new();
//! acc.mac(a, b);
//! acc.mac(a, a);
//! assert_eq!(acc.to_fx().to_f32(), -0.375 + 2.25);
//!
//! let tanh = Pla::tanh();
//! let y = tanh.eval(Fx::from_f32(0.5));
//! assert!((y.to_f32() - 0.5f32.tanh()).abs() < 0.02);
//! ```

// Arithmetic saturates instead of panicking; contract violations still use
// `assert!`/`.expect()`, which these lints do not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![forbid(unsafe_code)]

mod accum;
mod pla;

pub use accum::Accum;
pub use pla::Pla;

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of fractional bits in [`Fx`] (Q7.8 format).
pub const FRAC_BITS: u32 = 8;

/// Scale factor between the integer representation and the real value.
pub const SCALE: f32 = (1i32 << FRAC_BITS) as f32;

/// A 16-bit two's-complement fixed-point number in Q7.8 format.
///
/// This is the datum ShiDianNao's datapath moves and computes on: neuron
/// activations and synaptic weights are both 16-bit fixed point (§5).
/// Arithmetic matches what small fixed-point hardware does:
///
/// * addition and subtraction **saturate** at the representable range,
/// * multiplication computes the full 32-bit product and **truncates**
///   (arithmetic shift right by [`FRAC_BITS`], then saturates to 16 bits),
/// * division computes `(a << FRAC_BITS) / b`, saturating.
///
/// The representable range is `[-128.0, 127.99609375]` with a resolution of
/// `2⁻⁸ = 0.00390625`.
///
/// # Examples
///
/// ```
/// use shidiannao_fixed::Fx;
/// let x = Fx::from_f32(2.0);
/// assert_eq!((x + x).to_f32(), 4.0);
/// assert_eq!(Fx::MAX + Fx::MAX, Fx::MAX); // saturates
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fx(i16);

impl Fx {
    /// The additive identity.
    pub const ZERO: Fx = Fx(0);
    /// The multiplicative identity (`1.0`).
    pub const ONE: Fx = Fx(1 << FRAC_BITS);
    /// The largest representable value (`127.99609375`).
    pub const MAX: Fx = Fx(i16::MAX);
    /// The smallest representable value (`-128.0`).
    pub const MIN: Fx = Fx(i16::MIN);
    /// The smallest positive value (`2⁻⁸`).
    pub const EPSILON: Fx = Fx(1);

    /// Creates a value from its raw 16-bit two's-complement representation.
    #[inline]
    pub const fn from_bits(bits: i16) -> Fx {
        Fx(bits)
    }

    /// Returns the raw 16-bit two's-complement representation.
    #[inline]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest and saturating to the
    /// representable range. NaN maps to zero.
    #[inline]
    pub fn from_f32(v: f32) -> Fx {
        if v.is_nan() {
            return Fx::ZERO;
        }
        let scaled = (v * SCALE).round();
        Fx(scaled.clamp(i16::MIN as f32, i16::MAX as f32) as i16)
    }

    /// Converts from `f64`, rounding to nearest and saturating. NaN maps to
    /// zero.
    #[inline]
    pub fn from_f64(v: f64) -> Fx {
        if v.is_nan() {
            return Fx::ZERO;
        }
        let scaled = (v * SCALE as f64).round();
        Fx(scaled.clamp(i16::MIN as f64, i16::MAX as f64) as i16)
    }

    /// Converts to `f32` (exact: every `Fx` is representable in `f32`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE
    }

    /// Converts to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Creates a value from a small integer, saturating (e.g. `Fx::from_int(3)`
    /// is `3.0`).
    #[inline]
    pub fn from_int(v: i32) -> Fx {
        let shifted = (v as i64) << FRAC_BITS;
        Fx(shifted.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_sub(rhs.0))
    }

    /// The truncated fixed-point multiply of the paper's PE datapath: full
    /// 32-bit product, arithmetic shift right by [`FRAC_BITS`], saturate to
    /// 16 bits.
    #[inline]
    pub fn saturating_mul(self, rhs: Fx) -> Fx {
        let prod = (self.0 as i32) * (rhs.0 as i32);
        let shifted = prod >> FRAC_BITS;
        Fx(shifted.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Fixed-point division as performed by the ALU (§5.2), saturating.
    ///
    /// Division by zero saturates to [`Fx::MAX`] or [`Fx::MIN`] depending on
    /// the sign of the dividend (`0 / 0` yields zero), mirroring a saturating
    /// hardware divider rather than panicking.
    #[inline]
    pub fn saturating_div(self, rhs: Fx) -> Fx {
        if rhs.0 == 0 {
            return match self.0.cmp(&0) {
                core::cmp::Ordering::Greater => Fx::MAX,
                core::cmp::Ordering::Less => Fx::MIN,
                core::cmp::Ordering::Equal => Fx::ZERO,
            };
        }
        let num = (self.0 as i32) << FRAC_BITS;
        let q = num / (rhs.0 as i32);
        Fx(q.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Absolute value, saturating (`|MIN|` yields [`Fx::MAX`]).
    #[inline]
    pub fn saturating_abs(self) -> Fx {
        Fx(self.0.saturating_abs())
    }

    /// Returns the larger of `self` and `rhs` (the max-pooling comparator).
    #[inline]
    pub fn max(self, rhs: Fx) -> Fx {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of `self` and `rhs`.
    #[inline]
    pub fn min(self, rhs: Fx) -> Fx {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// `true` if the value is negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Element-wise square with the truncated multiplier (used by the LRN /
    /// LCN decompositions of §8.4).
    #[inline]
    pub fn squared(self) -> Fx {
        self.saturating_mul(self)
    }

    /// Requantizes the value as if it were stored with only
    /// `frac_bits ≤ 8` fractional bits and `total_bits ≤ 16` bits overall
    /// (round to nearest, saturate to the narrower range) — the §5
    /// storage/accuracy knob: narrower weights shrink the SB at the cost
    /// of precision.
    ///
    /// # Panics
    ///
    /// Panics if `total_bits` is 0 or exceeds 16, or `frac_bits` exceeds
    /// both 8 and `total_bits − 1`.
    pub fn quantized(self, total_bits: u32, frac_bits: u32) -> Fx {
        assert!(
            (1..=16).contains(&total_bits) && frac_bits <= FRAC_BITS && frac_bits < total_bits,
            "unsupported quantization Q{total_bits}.{frac_bits}"
        );
        let shift = FRAC_BITS - frac_bits;
        // Round to nearest multiple of 2^shift (ties away from zero).
        let half = (1i32 << shift) >> 1;
        let v = self.0 as i32;
        let rounded = if v >= 0 { v + half } else { v - half } >> shift;
        let max = (1i32 << (total_bits - 1)) - 1;
        let clamped = rounded.clamp(-max - 1, max);
        Fx((clamped << shift) as i16)
    }
}

impl fmt::Debug for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fx({})", self.to_f32())
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&(self.0 as u16), f)
    }
}

impl fmt::UpperHex for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&(self.0 as u16), f)
    }
}

impl fmt::Binary for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&(self.0 as u16), f)
    }
}

impl Add for Fx {
    type Output = Fx;
    #[inline]
    fn add(self, rhs: Fx) -> Fx {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Fx {
    #[inline]
    fn add_assign(&mut self, rhs: Fx) {
        *self = *self + rhs;
    }
}

impl Sub for Fx {
    type Output = Fx;
    #[inline]
    fn sub(self, rhs: Fx) -> Fx {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Fx {
    #[inline]
    fn sub_assign(&mut self, rhs: Fx) {
        *self = *self - rhs;
    }
}

impl Mul for Fx {
    type Output = Fx;
    #[inline]
    fn mul(self, rhs: Fx) -> Fx {
        self.saturating_mul(rhs)
    }
}

impl Div for Fx {
    type Output = Fx;
    #[inline]
    fn div(self, rhs: Fx) -> Fx {
        self.saturating_div(rhs)
    }
}

impl Neg for Fx {
    type Output = Fx;
    #[inline]
    fn neg(self) -> Fx {
        Fx(self.0.saturating_neg())
    }
}

impl From<i8> for Fx {
    /// Converts an integer to its fixed-point value (`3i8` becomes `3.0`);
    /// every `i8` is representable.
    #[inline]
    fn from(v: i8) -> Fx {
        Fx((v as i16) << FRAC_BITS)
    }
}

impl core::iter::Sum for Fx {
    fn sum<I: Iterator<Item = Fx>>(iter: I) -> Fx {
        iter.fold(Fx::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Fx::ZERO.to_f32(), 0.0);
        assert_eq!(Fx::ONE.to_f32(), 1.0);
        assert_eq!(Fx::MAX.to_bits(), i16::MAX);
        assert_eq!(Fx::MIN.to_f32(), -128.0);
        assert_eq!(Fx::EPSILON.to_f32(), 1.0 / 256.0);
        assert_eq!(Fx::default(), Fx::ZERO);
    }

    #[test]
    fn roundtrip_exact_values() {
        for bits in [-32768i16, -1, 0, 1, 256, 12345, 32767] {
            let x = Fx::from_bits(bits);
            assert_eq!(Fx::from_f32(x.to_f32()), x);
            assert_eq!(Fx::from_f64(x.to_f64()), x);
        }
    }

    #[test]
    fn from_f32_rounds_to_nearest() {
        // 0.001953125 is exactly half an LSB; ties round away from zero.
        assert_eq!(Fx::from_f32(0.001953125).to_bits(), 1);
        assert_eq!(Fx::from_f32(0.0009).to_bits(), 0);
        assert_eq!(Fx::from_f32(-0.0009).to_bits(), 0);
    }

    #[test]
    fn from_f32_saturates_and_handles_nan() {
        assert_eq!(Fx::from_f32(1e9), Fx::MAX);
        assert_eq!(Fx::from_f32(-1e9), Fx::MIN);
        assert_eq!(Fx::from_f32(f32::NAN), Fx::ZERO);
        assert_eq!(Fx::from_f64(f64::INFINITY), Fx::MAX);
    }

    #[test]
    fn add_saturates() {
        assert_eq!(Fx::MAX + Fx::ONE, Fx::MAX);
        assert_eq!(Fx::MIN - Fx::ONE, Fx::MIN);
        assert_eq!(Fx::from_f32(1.5) + Fx::from_f32(2.25), Fx::from_f32(3.75));
    }

    #[test]
    fn mul_truncates_toward_negative_infinity() {
        // (-1 bit) * (1 bit) = -1/65536, which truncates (>>8) to -1 bit.
        let tiny = Fx::EPSILON;
        assert_eq!((-tiny * tiny).to_bits(), -1);
        // Positive underflow truncates to zero.
        assert_eq!((tiny * tiny).to_bits(), 0);
    }

    #[test]
    fn mul_saturates() {
        assert_eq!(Fx::from_f32(100.0) * Fx::from_f32(100.0), Fx::MAX);
        assert_eq!(Fx::from_f32(-100.0) * Fx::from_f32(100.0), Fx::MIN);
        assert_eq!(Fx::MIN * Fx::MIN, Fx::MAX);
    }

    #[test]
    fn div_matches_reference() {
        assert_eq!(Fx::from_f32(3.0) / Fx::from_f32(2.0), Fx::from_f32(1.5));
        assert_eq!(Fx::from_f32(1.0) / Fx::from_f32(-4.0), Fx::from_f32(-0.25));
    }

    #[test]
    fn div_by_zero_saturates() {
        assert_eq!(Fx::ONE / Fx::ZERO, Fx::MAX);
        assert_eq!(-Fx::ONE / Fx::ZERO, Fx::MIN);
        assert_eq!(Fx::ZERO / Fx::ZERO, Fx::ZERO);
    }

    #[test]
    fn neg_and_abs_saturate_at_min() {
        assert_eq!(-Fx::MIN, Fx::MAX);
        assert_eq!(Fx::MIN.saturating_abs(), Fx::MAX);
        assert_eq!(Fx::from_f32(-2.0).saturating_abs(), Fx::from_f32(2.0));
    }

    #[test]
    fn min_max_follow_ordering() {
        let a = Fx::from_f32(-1.0);
        let b = Fx::from_f32(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a < b);
    }

    #[test]
    fn sum_folds_saturating() {
        let xs = [Fx::from_f32(1.0); 4];
        let s: Fx = xs.iter().copied().sum();
        assert_eq!(s, Fx::from_f32(4.0));
        let big = [Fx::MAX; 3];
        let s: Fx = big.iter().copied().sum();
        assert_eq!(s, Fx::MAX);
    }

    #[test]
    fn formatting_is_never_empty() {
        assert_eq!(format!("{:?}", Fx::ZERO), "Fx(0)");
        assert_eq!(format!("{}", Fx::ONE), "1");
        assert_eq!(format!("{:x}", Fx::from_bits(-1)), "ffff");
        assert_eq!(format!("{:b}", Fx::from_bits(5)), "101");
    }

    #[test]
    fn from_i8_is_exact() {
        assert_eq!(Fx::from(-128i8).to_f32(), -128.0);
        assert_eq!(Fx::from(127i8).to_f32(), 127.0);
    }

    #[test]
    fn from_int_saturates() {
        assert_eq!(Fx::from_int(3).to_f32(), 3.0);
        assert_eq!(Fx::from_int(1000), Fx::MAX);
        assert_eq!(Fx::from_int(-1000), Fx::MIN);
    }

    #[test]
    fn quantized_rounds_and_saturates() {
        // Q4.3 grid: multiples of 1/8, range [-1, 0.875] × 2^... : max
        // magnitude (2^3 − 1)/8 = 0.875, min −1.0.
        let q = |v: f32| Fx::from_f32(v).quantized(4, 3);
        assert_eq!(q(0.2), Fx::from_f32(0.25));
        assert_eq!(q(0.05), Fx::ZERO); // nearest 1/8 multiple is 0
        assert_eq!(q(5.0), Fx::from_f32(0.875), "saturates to the narrow range");
        assert_eq!(q(-5.0), Fx::from_f32(-1.0));
        // Full-width quantization is the identity.
        let x = Fx::from_bits(12345);
        assert_eq!(x.quantized(16, 8), x);
    }

    #[test]
    #[should_panic(expected = "unsupported quantization")]
    fn quantized_rejects_wide_formats() {
        let _ = Fx::ONE.quantized(17, 8);
    }

    #[test]
    fn fx_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fx>();
    }
}
