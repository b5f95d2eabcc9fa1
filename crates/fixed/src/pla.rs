//! The ALU's 16-segment piecewise-linear activation interpolator (§5.2).

use crate::Fx;
use core::fmt;
use std::sync::{Arc, OnceLock};

/// Number of linear segments the ALU divides the approximation domain into.
///
/// The paper (§5.2): "We use a piecewise linear interpolation
/// (`f(x) = aᵢ·x + bᵢ`, when `x ∈ [xᵢ, xᵢ₊₁]` and where `i = 0, …, 15`)".
pub const SEGMENTS: usize = 16;

/// A 16-segment piecewise-linear approximation of a non-linear function.
///
/// "Segment coefficients aᵢ and bᵢ are stored in registers in advance, so
/// that the approximation can be efficiently computed with a multiplier and
/// an adder" (§5.2). `Pla` models exactly that: sixteen `(aᵢ, bᵢ)` register
/// pairs over a uniform partition of `[lo, hi]`, with constant clamping
/// outside the domain, evaluated with one fixed-point multiply and one add.
///
/// The host evaluates that datapath from a table: [`Pla::from_fn`] runs
/// the segment formula `aᵢ·x + bᵢ` once for every input in `[lo, hi)`,
/// so [`Pla::eval`] is one clamped index and one load, bit-identical to
/// the multiply and add. The ready-made tables are built once per
/// process and shared (`Clone` is a reference-count bump). Equality and
/// `Debug` see only the defining registers, never the table.
///
/// Ready-made tables are provided for the activation functions the paper
/// names ([`Pla::tanh`], [`Pla::sigmoid`]) and the ALU's root
/// ([`Pla::sqrt`]); arbitrary functions can be tabulated with
/// [`Pla::from_fn`] (used by the LRN/LCN decompositions for exponentials,
/// §8.4).
///
/// # Examples
///
/// ```
/// use shidiannao_fixed::{Fx, Pla};
/// let sig = Pla::sigmoid();
/// let y = sig.eval(Fx::from_f32(1.0)).to_f32();
/// assert!((y - 0.7310586).abs() < 0.02);
/// // Outside the domain the output clamps to the asymptote.
/// assert_eq!(sig.eval(Fx::from_f32(100.0)), sig.eval(Fx::from_f32(8.0)));
/// ```
#[derive(Clone)]
pub struct Pla {
    lo: Fx,
    hi: Fx,
    below: Fx,
    above: Fx,
    seg_a: [Fx; SEGMENTS],
    seg_b: [Fx; SEGMENTS],
    /// The output for every input: `below`, then one entry per input
    /// from `lo` up to (not including) `hi`, then `above`.
    table: Arc<[Fx]>,
}

impl PartialEq for Pla {
    fn eq(&self, other: &Pla) -> bool {
        // The defining registers; the table is derived from them.
        self.lo == other.lo
            && self.hi == other.hi
            && self.below == other.below
            && self.above == other.above
            && self.seg_a == other.seg_a
            && self.seg_b == other.seg_b
    }
}

impl Eq for Pla {}

impl fmt::Debug for Pla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pla")
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .field("below", &self.below)
            .field("above", &self.above)
            .field("seg_a", &self.seg_a)
            .field("seg_b", &self.seg_b)
            .finish()
    }
}

impl Pla {
    /// Tabulates a function over `[lo, hi]` into sixteen linear segments.
    ///
    /// Each segment uses the chord slope with a minimax offset (the line is
    /// shifted to split the maximum deviation evenly), halving the error of
    /// plain endpoint interpolation; coefficients are quantized to [`Fx`].
    /// Inputs below `lo` clamp to `f(lo)`, inputs above `hi` clamp to
    /// `f(hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn from_fn(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> Pla {
        assert!(lo < hi, "PLA domain must be non-empty: lo={lo} hi={hi}");
        let step = (hi - lo) / SEGMENTS as f64;
        let mut seg_a = [Fx::ZERO; SEGMENTS];
        let mut seg_b = [Fx::ZERO; SEGMENTS];
        for i in 0..SEGMENTS {
            let x0 = lo + i as f64 * step;
            let x1 = x0 + step;
            let (y0, y1) = (f(x0), f(x1));
            let a = (y1 - y0) / (x1 - x0);
            // Minimax offset: centre the chord between the extreme
            // deviations sampled across the segment.
            let chord_b = y0 - a * x0;
            let (mut dmax, mut dmin) = (f64::MIN, f64::MAX);
            const SAMPLES: usize = 32;
            for s in 0..=SAMPLES {
                let x = x0 + (x1 - x0) * s as f64 / SAMPLES as f64;
                let d = a * x + chord_b - f(x);
                dmax = dmax.max(d);
                dmin = dmin.min(d);
            }
            let b = chord_b - (dmax + dmin) / 2.0;
            seg_a[i] = Fx::from_f64(a);
            seg_b[i] = Fx::from_f64(b);
        }
        let (below, above) = (Fx::from_f64(f(lo)), Fx::from_f64(f(hi)));
        let (lo, hi) = (Fx::from_f64(lo), Fx::from_f64(hi));
        let (first, span) = (i32::from(lo.to_bits()), span(lo, hi));
        let in_domain = (0..span).map(|off| {
            let x = Fx::from_bits((first + off) as i16);
            // The segment `x` falls into, of `span` inputs split evenly.
            let i = (i64::from(off) * SEGMENTS as i64 / i64::from(span)) as usize;
            seg_a[i] * x + seg_b[i]
        });
        let table = core::iter::once(below)
            .chain(in_domain)
            .chain(core::iter::once(above))
            .collect();
        Pla {
            lo,
            hi,
            below,
            above,
            seg_a,
            seg_b,
            table,
        }
    }

    /// The hyperbolic-tangent table over `[-4, 4]` (tanh is within one LSB
    /// of ±1 outside that range), shared process-wide.
    pub fn tanh() -> Pla {
        static TANH: OnceLock<Pla> = OnceLock::new();
        TANH.get_or_init(|| Pla::from_fn(f64::tanh, -4.0, 4.0))
            .clone()
    }

    /// The logistic-sigmoid table over `[-8, 8]`, shared process-wide.
    pub fn sigmoid() -> Pla {
        static SIGMOID: OnceLock<Pla> = OnceLock::new();
        SIGMOID
            .get_or_init(|| Pla::from_fn(|x| 1.0 / (1.0 + (-x).exp()), -8.0, 8.0))
            .clone()
    }

    /// The ALU's square-root table over `[0, 127]` (the LCN
    /// decomposition's root, §8.4), shared process-wide.
    pub fn sqrt() -> Pla {
        static SQRT: OnceLock<Pla> = OnceLock::new();
        SQRT.get_or_init(|| Pla::from_fn(|x| x.max(0.0).sqrt(), 0.0, 127.0))
            .clone()
    }

    /// The identity table (used when a layer has no activation; evaluating
    /// through it still models the ALU pass).
    pub fn identity() -> Pla {
        Pla::from_fn(|x| x, -128.0, 127.99)
    }

    /// Evaluates the approximation the ALU datapath computes: the
    /// clamped value outside `[lo, hi)`, else one segment lookup, one
    /// fixed-point multiply and one fixed-point add (here read from the
    /// table those built).
    #[inline]
    pub fn eval(&self, x: Fx) -> Fx {
        let off = i32::from(x.to_bits()) - i32::from(self.lo.to_bits());
        self.table[(off.clamp(-1, span(self.lo, self.hi)) + 1) as usize]
    }

    /// The approximation domain `[lo, hi]`.
    pub fn domain(&self) -> (Fx, Fx) {
        (self.lo, self.hi)
    }

    /// The segment coefficients `(aᵢ, bᵢ)` as stored in the ALU registers.
    pub fn coefficients(&self) -> impl Iterator<Item = (Fx, Fx)> + '_ {
        self.seg_a.iter().copied().zip(self.seg_b.iter().copied())
    }
}

/// The number of inputs in `[lo, hi)`.
#[inline]
fn span(lo: Fx, hi: Fx) -> i32 {
    i32::from(hi.to_bits()) - i32::from(lo.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_error(pla: &Pla, f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
        let mut worst: f64 = 0.0;
        let n = 2000;
        for i in 0..=n {
            let x = lo + (hi - lo) * i as f64 / n as f64;
            let approx = pla.eval(Fx::from_f64(x)).to_f64();
            worst = worst.max((approx - f(x)).abs());
        }
        worst
    }

    #[test]
    fn tanh_error_is_negligible() {
        // "known to bring only negligible accuracy loss" (§5.2); with Q7.8
        // quantization a ~1.5e-2 bound comfortably holds over the domain.
        let e = max_error(&Pla::tanh(), f64::tanh, -6.0, 6.0);
        assert!(e < 0.02, "tanh PLA error {e}");
    }

    #[test]
    fn sigmoid_error_is_negligible() {
        let sig = |x: f64| 1.0 / (1.0 + (-x).exp());
        let e = max_error(&Pla::sigmoid(), sig, -10.0, 10.0);
        assert!(e < 0.015, "sigmoid PLA error {e}");
    }

    #[test]
    fn clamps_outside_domain() {
        let t = Pla::tanh();
        assert_eq!(t.eval(Fx::from_f32(50.0)), t.eval(Fx::from_f32(4.0)));
        assert_eq!(t.eval(Fx::from_f32(-50.0)), Fx::from_f64(f64::tanh(-4.0)));
    }

    #[test]
    fn tanh_is_odd_shaped_and_monotone() {
        let t = Pla::tanh();
        assert!(t.eval(Fx::ZERO).to_f32().abs() < 0.01);
        let mut prev = t.eval(Fx::from_f32(-5.0));
        for i in -40..=40 {
            let y = t.eval(Fx::from_f32(i as f32 / 8.0));
            assert!(y >= prev - Fx::EPSILON, "tanh PLA not monotone at {i}");
            prev = y;
        }
    }

    #[test]
    fn identity_passes_values_through() {
        let id = Pla::identity();
        for v in [-100.0f32, -1.0, 0.0, 0.5, 100.0] {
            let x = Fx::from_f32(v);
            let y = id.eval(x);
            assert!((y.to_f32() - v).abs() < 0.1, "identity({v}) = {y}");
        }
    }

    #[test]
    fn custom_function_tabulation() {
        // The LRN decomposition needs x ↦ (k + αx)^(−β) style tables (§8.4).
        let f = |x: f64| (2.0 + 1e-4 * x).powf(-0.75);
        let pla = Pla::from_fn(f, 0.0, 64.0);
        let e = max_error(&pla, f, 0.0, 64.0);
        assert!(e < 0.01, "LRN power PLA error {e}");
    }

    #[test]
    fn sixteen_segments_exactly() {
        let t = Pla::tanh();
        assert_eq!(t.coefficients().count(), SEGMENTS);
        assert_eq!(SEGMENTS, 16);
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn empty_domain_panics() {
        let _ = Pla::from_fn(|x| x, 1.0, 1.0);
    }

    /// The segment formula the ALU datapath computes (§5.2): the clamped
    /// value outside `[lo, hi)`, else `aᵢ·x + bᵢ` for the segment `x`
    /// falls into, one fixed-point multiply and one add. The oracle for
    /// the table.
    fn formula(pla: &Pla, x: Fx) -> Fx {
        let (lo, hi) = pla.domain();
        if x < lo {
            return pla.below;
        }
        if x >= hi {
            return pla.above;
        }
        let span = i64::from(hi.to_bits()) - i64::from(lo.to_bits());
        let off = i64::from(x.to_bits()) - i64::from(lo.to_bits());
        let (a, b) = pla
            .coefficients()
            .nth((off * SEGMENTS as i64 / span) as usize)
            .expect("sixteen segments");
        a * x + b
    }

    /// FNV-1a of `text`.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn table_equals_the_segment_formula_on_every_input() {
        // The activation tables, the ALU root, the identity and the
        // steep tanh `shidiannao_quant::sign_pla` tabulates, each with
        // the FNV-1a of its `Debug` text as the segment-formula PLA
        // printed it: the registers (and so `coefficients()`) and the
        // text the harness fingerprints are unchanged.
        let cases = [
            ("tanh", Pla::tanh(), 0x61b2_3a12_ed41_acc1),
            ("sigmoid", Pla::sigmoid(), 0x8c97_3db4_e88c_bcec),
            ("sqrt", Pla::sqrt(), 0xf238_26bd_5553_4586),
            ("identity", Pla::identity(), 0x87d2_aede_9e44_f4bf),
            (
                "sign",
                Pla::from_fn(|x| (64.0 * x).tanh(), -1.0, 1.0),
                0xa750_d547_733e_e01f,
            ),
        ];
        for (name, pla, debug_fnv) in cases {
            assert_eq!(fnv1a(&format!("{pla:?}")), debug_fnv, "{name}");
            let (lo, hi) = pla.domain();
            for bits in i16::MIN..=i16::MAX {
                let x = Fx::from_bits(bits);
                assert_eq!(pla.eval(x), formula(&pla, x), "{name}({bits})");
                if x < lo {
                    assert_eq!(pla.eval(x), pla.below, "{name}({bits})");
                } else if x >= hi {
                    assert_eq!(pla.eval(x), pla.above, "{name}({bits})");
                }
            }
        }
    }

    #[test]
    fn ready_made_tables_are_built_once() {
        assert!(Arc::ptr_eq(&Pla::tanh().table, &Pla::tanh().table));
        assert!(Arc::ptr_eq(&Pla::sigmoid().table, &Pla::sigmoid().table));
        assert!(Arc::ptr_eq(&Pla::sqrt().table, &Pla::sqrt().table));
        // Equality sees the registers, not where the table lives.
        assert_eq!(Pla::tanh(), Pla::from_fn(f64::tanh, -4.0, 4.0));
        assert_ne!(Pla::tanh(), Pla::sigmoid());
    }

    #[test]
    fn a_domain_narrower_than_one_lsb_clamps_everything() {
        // `lo` and `hi` quantize to the same value: no input is in range.
        let pla = Pla::from_fn(|x| x + 1.0, 0.0, 0.001);
        assert_eq!(pla.domain().0, pla.domain().1);
        for bits in [i16::MIN, -1, 0, 1, i16::MAX] {
            let want = if bits < 0 { pla.below } else { pla.above };
            assert_eq!(pla.eval(Fx::from_bits(bits)), want, "{bits}");
        }
    }

    #[test]
    fn domain_accessor() {
        let t = Pla::tanh();
        assert_eq!(t.domain(), (Fx::from_f32(-4.0), Fx::from_f32(4.0)));
    }
}
