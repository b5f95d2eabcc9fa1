//! XNOR-popcount value kernels.
//!
//! A binary layer's operands are sign-binarized: every value is
//! `±val_mag` and every weight `±wt_mag`. On such operands each product
//! is `±(val_mag·wt_mag)` and the whole dot product collapses to
//!
//! ```text
//! dot = s · val_mag · wt_mag,   s = Σᵢ (signᵥᵢ XNOR signᵤᵢ ? +1 : −1)
//! ```
//!
//! which is what a 1-bit datapath computes: XNOR the sign bits,
//! popcount, `s = 2·matches − n`. Both kernels here implement the same
//! [`ValueKernel`] trait the engine's 16-bit `LaneKernel`/`ScalarKernel`
//! pair implements:
//!
//! * [`XnorScalarKernel`] — the literal per-element reference,
//! * [`XnorLaneKernel`] — the XNOR-popcount over the operands' raw sign
//!   bits, a branch-free count the compiler vectorises.
//!
//! # Bit-identity contract
//!
//! On genuinely sign-binarized operands all four kernels agree exactly:
//! each elementwise product is the *same* `i64` value
//! (`±val_mag·wt_mag` in raw-bit arithmetic), the partial sums cannot
//! approach the `i64` edge (31-bit products, far fewer than 2^20
//! terms), and overflow-free integer addition is associative — so the
//! popcount re-association changes nothing. [`certify_xnor`] checks
//! this exhaustively over splitmix-driven random sign patterns; the
//! cascade bench runs it as one of its gates. That equivalence is what
//! justifies charging the XNOR datapath's cheaper per-precision
//! energy/area (`WeightPrecision` scaling) against unchanged cycle
//! counts and bit-identical outputs.

use shidiannao_core::kernel::{LaneKernel, ScalarKernel, ValueKernel};
use shidiannao_fixed::Fx;

use crate::pack::sign_is_positive;

/// The reference XNOR kernel: per-element sign agreement in the exact
/// order the cycle-accurate executors issue operations. Only operand
/// *signs* are read; magnitudes come from the kernel itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XnorScalarKernel {
    /// Magnitude of every binarized value (`|v|`).
    pub val_mag: Fx,
    /// Magnitude of every binarized weight (`|w|`).
    pub wt_mag: Fx,
}

/// The production XNOR kernel: counts sign disagreements straight off
/// the operands' raw sign bits ([`xnor_popcount_dot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XnorLaneKernel {
    /// Magnitude of every binarized value (`|v|`).
    pub val_mag: Fx,
    /// Magnitude of every binarized weight (`|w|`).
    pub wt_mag: Fx,
}

impl XnorScalarKernel {
    /// Creates a kernel for operands binarized to `±val_mag` / `±wt_mag`.
    pub fn new(val_mag: Fx, wt_mag: Fx) -> XnorScalarKernel {
        XnorScalarKernel { val_mag, wt_mag }
    }
}

impl XnorLaneKernel {
    /// Creates a kernel for operands binarized to `±val_mag` / `±wt_mag`.
    pub fn new(val_mag: Fx, wt_mag: Fx) -> XnorLaneKernel {
        XnorLaneKernel { val_mag, wt_mag }
    }
}

/// Raw product magnitude of one binarized MAC: `val_mag·wt_mag` in
/// Q*.16 raw-bit arithmetic.
#[inline]
fn prod_mag(val_mag: Fx, wt_mag: Fx) -> i64 {
    i64::from(val_mag.to_bits()) * i64::from(wt_mag.to_bits())
}

/// `s = Σ signᵥ·signᵤ` over equal-length slices: the pairs whose signs
/// agree minus those whose signs differ, `n − 2·d`. A pair's signs
/// differ exactly when the XOR of its raw bits has the sign bit set, so
/// `d` is the popcount of those XOR sign bits — the 1-bit datapath's
/// XNOR-popcount — counted without a branch or a packed word, in a loop
/// the compiler vectorises.
#[inline]
pub fn xnor_popcount_dot(vals: &[Fx], wts: &[Fx]) -> i64 {
    debug_assert_eq!(vals.len(), wts.len(), "dot operand mismatch");
    // 32-bit counts vectorise twice as wide as 64-bit ones; a chunk of
    // at most 2^16 pairs cannot overflow one.
    let mut s = 0i64;
    for (v, w) in vals.chunks(1 << 16).zip(wts.chunks(1 << 16)) {
        let differ: u32 = v
            .iter()
            .zip(w)
            .map(|(v, w)| u32::from((v.to_bits() ^ w.to_bits()) as u16 >> 15))
            .sum();
        s += v.len().min(w.len()) as i64 - 2 * i64::from(differ);
    }
    s
}

impl ValueKernel for XnorScalarKernel {
    fn dot_raw(&self, vals: &[Fx], wts: &[Fx]) -> i64 {
        debug_assert_eq!(vals.len(), wts.len(), "dot operand mismatch");
        let pm = prod_mag(self.val_mag, self.wt_mag);
        let mut sum = 0i64;
        for (v, w) in vals.iter().zip(wts) {
            sum += if sign_is_positive(*v) == sign_is_positive(*w) {
                pm
            } else {
                -pm
            };
        }
        sum
    }

    fn shifted_mac(&self, row: &[Fx], stride: usize, k: Fx, lanes: &mut [i64]) {
        let pm = prod_mag(self.val_mag, self.wt_mag);
        let ks = sign_is_positive(k);
        for (i, l) in lanes.iter_mut().enumerate() {
            *l += if sign_is_positive(row[i * stride]) == ks {
                pm
            } else {
                -pm
            };
        }
    }

    fn shifted_max(&self, row: &[Fx], stride: usize, cmps: &mut [Fx]) {
        // Max is a pure comparator either way — identical to the 16-bit
        // reference kernel.
        ScalarKernel.shifted_max(row, stride, cmps);
    }

    fn shifted_sum(&self, row: &[Fx], stride: usize, lanes: &mut [i64]) {
        // A binarized value's raw bits are ±val_mag's bits.
        let mv = i64::from(self.val_mag.to_bits());
        for (i, l) in lanes.iter_mut().enumerate() {
            *l += if sign_is_positive(row[i * stride]) {
                mv
            } else {
                -mv
            };
        }
    }
}

impl ValueKernel for XnorLaneKernel {
    fn dot_raw(&self, vals: &[Fx], wts: &[Fx]) -> i64 {
        xnor_popcount_dot(vals, wts) * prod_mag(self.val_mag, self.wt_mag)
    }

    fn shifted_mac(&self, row: &[Fx], stride: usize, k: Fx, lanes: &mut [i64]) {
        let pm = prod_mag(self.val_mag, self.wt_mag);
        // k's sign flips every lane uniformly: fold it into the step.
        let pm = if sign_is_positive(k) { pm } else { -pm };
        if stride == 1 {
            let row = &row[..lanes.len()];
            for (l, &v) in lanes.iter_mut().zip(row) {
                // Branchless sign-select keeps the unit-stride hot loop
                // vectorizable: +pm when non-negative, −pm otherwise.
                let sel = i64::from(v.to_bits() >> 15); // 0 or −1
                *l += (pm ^ sel) - sel; // pm or −pm
            }
        } else {
            for (i, l) in lanes.iter_mut().enumerate() {
                *l += if sign_is_positive(row[i * stride]) {
                    pm
                } else {
                    -pm
                };
            }
        }
    }

    fn shifted_max(&self, row: &[Fx], stride: usize, cmps: &mut [Fx]) {
        LaneKernel.shifted_max(row, stride, cmps);
    }

    fn shifted_sum(&self, row: &[Fx], stride: usize, lanes: &mut [i64]) {
        let mv = i64::from(self.val_mag.to_bits());
        for (i, l) in lanes.iter_mut().enumerate() {
            let v = row[i * stride].to_bits();
            let sel = i64::from(v >> 15);
            *l += (mv ^ sel) - sel;
        }
    }
}

/// Certifies the XNOR kernels bit-identical to each other *and* to the
/// engine's 16-bit kernels on sign-binarized operands, over `trials`
/// splitmix-driven random shapes (lengths 1–200, strides 1–3, all four
/// `ValueKernel` operations). Returns `true` iff every comparison
/// agreed exactly — the cascade bench runs this as a gate.
pub fn certify_xnor(val_mag: Fx, wt_mag: Fx, seed: u64, trials: usize) -> bool {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let xs = XnorScalarKernel::new(val_mag, wt_mag);
    let xl = XnorLaneKernel::new(val_mag, wt_mag);
    for _ in 0..trials {
        let n = (next() % 200 + 1) as usize;
        let vals: Vec<Fx> = (0..n)
            .map(|_| if next() % 2 == 0 { val_mag } else { -val_mag })
            .collect();
        let wts: Vec<Fx> = (0..n)
            .map(|_| if next() % 2 == 0 { wt_mag } else { -wt_mag })
            .collect();
        let want = ScalarKernel.dot_raw(&vals, &wts);
        if xs.dot_raw(&vals, &wts) != want
            || xl.dot_raw(&vals, &wts) != want
            || LaneKernel.dot_raw(&vals, &wts) != want
        {
            return false;
        }
        let stride = (next() % 3 + 1) as usize;
        let lanes = (n - 1) / stride + 1;
        let k = if next() % 2 == 0 { wt_mag } else { -wt_mag };
        let mut m_ref = vec![0i64; lanes];
        let mut m_xs = vec![0i64; lanes];
        let mut m_xl = vec![0i64; lanes];
        ScalarKernel.shifted_mac(&vals, stride, k, &mut m_ref);
        xs.shifted_mac(&vals, stride, k, &mut m_xs);
        xl.shifted_mac(&vals, stride, k, &mut m_xl);
        if m_xs != m_ref || m_xl != m_ref {
            return false;
        }
        let mut s_ref = vec![0i64; lanes];
        let mut s_xs = vec![0i64; lanes];
        let mut s_xl = vec![0i64; lanes];
        ScalarKernel.shifted_sum(&vals, stride, &mut s_ref);
        xs.shifted_sum(&vals, stride, &mut s_xs);
        xl.shifted_sum(&vals, stride, &mut s_xl);
        if s_xs != s_ref || s_xl != s_ref {
            return false;
        }
        let mut c_ref = vec![Fx::MIN; lanes];
        let mut c_xs = vec![Fx::MIN; lanes];
        let mut c_xl = vec![Fx::MIN; lanes];
        ScalarKernel.shifted_max(&vals, stride, &mut c_ref);
        xs.shifted_max(&vals, stride, &mut c_xs);
        xl.shifted_max(&vals, stride, &mut c_xl);
        if c_xs != c_ref || c_xl != c_ref {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xnor_kernels_match_sixteen_bit_kernels_on_binarized_operands() {
        assert!(certify_xnor(Fx::ONE, Fx::from_bits(37), 0x5eed_cafe, 64));
        assert!(certify_xnor(
            Fx::from_bits(200),
            Fx::from_bits(1),
            0xdead_beef,
            64
        ));
    }

    #[test]
    fn popcount_dot_handles_chunk_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 128, 130] {
            let vals: Vec<Fx> = (0..n)
                .map(|i| if i % 3 == 0 { Fx::ONE } else { -Fx::ONE })
                .collect();
            let wts: Vec<Fx> = (0..n)
                .map(|i| if i % 5 == 0 { -Fx::ONE } else { Fx::ONE })
                .collect();
            let want: i64 = vals
                .iter()
                .zip(&wts)
                .map(|(v, w)| {
                    if sign_is_positive(*v) == sign_is_positive(*w) {
                        1
                    } else {
                        -1
                    }
                })
                .sum();
            assert_eq!(xnor_popcount_dot(&vals, &wts), want, "n={n}");
        }
    }

    #[test]
    fn certify_fails_on_a_broken_kernel_premise() {
        // Sanity that the certificate is not vacuous: a "binarized"
        // magnitude of zero collapses every XNOR dot to 0 while the
        // 16-bit kernels still see ±0 = 0 operands — those agree — so
        // instead check a direct mismatch case by hand.
        let xs = XnorScalarKernel::new(Fx::ONE, Fx::ONE);
        let vals = [Fx::from_f32(0.5)]; // NOT ±1: premise violated
        let wts = [Fx::ONE];
        let xnor = xs.dot_raw(&vals, &wts);
        let exact = ScalarKernel.dot_raw(&vals, &wts);
        assert_ne!(xnor, exact, "off-premise operands must disagree");
    }
}
