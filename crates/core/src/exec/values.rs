//! Value kernels: the arithmetic that actually produces neuron values,
//! factored behind one trait so every schedule-replay body shares a
//! single reduction implementation, bit-identical to the live decoder's
//! per-cycle fold.
//!
//! # Bit-identity contract
//!
//! The cycle-accurate executors fold one product per cycle into a PE's
//! [`Accum`] with a saturating add. The lane kernels instead reduce
//! whole rows as *wrapping* `i64` partial sums (chunked so the compiler
//! can autovectorize the i16 multiplies) and fold the total into the
//! accumulator with one saturating [`Accum::add_raw`]. The two are
//! bit-identical because intermediate saturation is unreachable: every
//! product of two 16-bit operands fits in 31 bits, and the NB/SB
//! capacities bound any accumulation chain far below 2^20 terms, so no
//! partial sum can approach the i64 edge. Integer addition is
//! associative and commutative when it cannot overflow, so the chunked
//! re-association changes nothing. Max folds are order-independent
//! outright, and average-pool sums use `(Σ bits) << FRAC_BITS`, which
//! equals `Σ (bits << FRAC_BITS)` exactly.
//!
//! [`ScalarKernel`] mirrors the per-cycle operation order literally and
//! exists as the reference the microbenches compare against.

use shidiannao_fixed::{Fx, FRAC_BITS};

/// Width of the inner lane chunks. Eight i16 products per step keeps the
/// partial-sum state in two SIMD registers on any 128-bit target while
/// still giving the autovectorizer a full block to work with.
const LANES: usize = 8;

/// The value-reduction kernel shared by all execution paths.
pub trait ValueKernel {
    /// Raw Q*.16 dot product of equal-length value/weight slices.
    fn dot_raw(&self, vals: &[Fx], wts: &[Fx]) -> i64;

    /// One kernel-offset step of a window MAC row: adds
    /// `row[i · stride] × k` into `lanes[i]` for every lane.
    fn shifted_mac(&self, row: &[Fx], stride: usize, k: Fx, lanes: &mut [i64]);

    /// One kernel-offset step of a max-pool row: folds `row[i · stride]`
    /// into `cmps[i]`.
    fn shifted_max(&self, row: &[Fx], stride: usize, cmps: &mut [Fx]);

    /// One kernel-offset step of a sum row (average pooling): adds the
    /// raw bits of `row[i · stride]` into `lanes[i]`. Callers shift the
    /// final total by [`FRAC_BITS`] (see [`sum_to_raw`]).
    fn shifted_sum(&self, row: &[Fx], stride: usize, lanes: &mut [i64]);
}

/// Aligns an accumulated raw-bits sum to the accumulator's Q*.16 format.
#[inline]
pub fn sum_to_raw(bits: i64) -> i64 {
    bits << FRAC_BITS
}

/// The production kernel: chunked `i64` lane accumulators over
/// contiguous slices, written so the unit-stride hot case
/// autovectorizes. No unsafe anywhere.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneKernel;

/// The reference kernel: literal per-element loops in the exact order
/// the cycle-accurate executors issue operations. Used by the
/// vectorized-vs-scalar microbenches and the kernel unit tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarKernel;

impl ValueKernel for LaneKernel {
    #[inline]
    fn dot_raw(&self, vals: &[Fx], wts: &[Fx]) -> i64 {
        debug_assert_eq!(vals.len(), wts.len(), "dot operand mismatch");
        let mut lanes = [0i64; LANES];
        let mut vc = vals.chunks_exact(LANES);
        let mut wc = wts.chunks_exact(LANES);
        for (v, w) in (&mut vc).zip(&mut wc) {
            for j in 0..LANES {
                lanes[j] += i64::from(v[j].to_bits()) * i64::from(w[j].to_bits());
            }
        }
        let mut sum: i64 = lanes.iter().sum();
        for (v, w) in vc.remainder().iter().zip(wc.remainder()) {
            sum += i64::from(v.to_bits()) * i64::from(w.to_bits());
        }
        sum
    }

    #[inline]
    fn shifted_mac(&self, row: &[Fx], stride: usize, k: Fx, lanes: &mut [i64]) {
        let kb = i64::from(k.to_bits());
        if stride == 1 {
            // Unit stride: neighbouring PEs read neighbouring neurons, so
            // the lane slice is contiguous and the chunks vectorize.
            let row = &row[..lanes.len()];
            let mut lc = lanes.chunks_exact_mut(LANES);
            let mut rc = row.chunks_exact(LANES);
            for (l, r) in (&mut lc).zip(&mut rc) {
                for j in 0..LANES {
                    l[j] += i64::from(r[j].to_bits()) * kb;
                }
            }
            for (l, r) in lc.into_remainder().iter_mut().zip(rc.remainder()) {
                *l += i64::from(r.to_bits()) * kb;
            }
        } else {
            for (i, l) in lanes.iter_mut().enumerate() {
                *l += i64::from(row[i * stride].to_bits()) * kb;
            }
        }
    }

    #[inline]
    fn shifted_max(&self, row: &[Fx], stride: usize, cmps: &mut [Fx]) {
        if stride == 1 {
            let row = &row[..cmps.len()];
            for (c, &v) in cmps.iter_mut().zip(row) {
                *c = (*c).max(v);
            }
        } else {
            for (i, c) in cmps.iter_mut().enumerate() {
                *c = (*c).max(row[i * stride]);
            }
        }
    }

    #[inline]
    fn shifted_sum(&self, row: &[Fx], stride: usize, lanes: &mut [i64]) {
        if stride == 1 {
            let row = &row[..lanes.len()];
            for (l, &v) in lanes.iter_mut().zip(row) {
                *l += i64::from(v.to_bits());
            }
        } else {
            for (i, l) in lanes.iter_mut().enumerate() {
                *l += i64::from(row[i * stride].to_bits());
            }
        }
    }
}

impl ValueKernel for ScalarKernel {
    fn dot_raw(&self, vals: &[Fx], wts: &[Fx]) -> i64 {
        debug_assert_eq!(vals.len(), wts.len(), "dot operand mismatch");
        let mut sum = 0i64;
        for (v, w) in vals.iter().zip(wts) {
            sum += i64::from(v.to_bits()) * i64::from(w.to_bits());
        }
        sum
    }

    fn shifted_mac(&self, row: &[Fx], stride: usize, k: Fx, lanes: &mut [i64]) {
        let kb = i64::from(k.to_bits());
        for (i, l) in lanes.iter_mut().enumerate() {
            *l += i64::from(row[i * stride].to_bits()) * kb;
        }
    }

    fn shifted_max(&self, row: &[Fx], stride: usize, cmps: &mut [Fx]) {
        for (i, c) in cmps.iter_mut().enumerate() {
            *c = (*c).max(row[i * stride]);
        }
    }

    fn shifted_sum(&self, row: &[Fx], stride: usize, lanes: &mut [i64]) {
        for (i, l) in lanes.iter_mut().enumerate() {
            *l += i64::from(row[i * stride].to_bits());
        }
    }
}

/// Dot product of a (possibly sparse) classifier weight row against the
/// mode (d)-flattened input: dense rows (index set exactly `0..len`)
/// take the contiguous chunked path, sparse rows gather.
#[inline]
pub fn classifier_dot_raw<K: ValueKernel>(
    kernel: &K,
    flat: &[Fx],
    row: &[(usize, Fx)],
    wrow: &[Fx],
) -> i64 {
    if row.len() == flat.len() {
        // Rows are sorted and distinct, so a full-length row's index set
        // is exactly 0..in_count — a contiguous dot over the flat input.
        kernel.dot_raw(flat, wrow)
    } else {
        let mut sum = 0i64;
        for (&(idx, _), &w) in row.iter().zip(wrow) {
            sum += i64::from(flat[idx].to_bits()) * i64::from(w.to_bits());
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_fixed::Accum;

    fn fx(i: i32) -> Fx {
        Fx::from_bits((i % 1000) as i16)
    }

    #[test]
    fn lane_dot_matches_scalar_and_sequential_mac() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 100] {
            let vals: Vec<Fx> = (0..n as i32).map(|i| fx(i * 37 - 300)).collect();
            let wts: Vec<Fx> = (0..n as i32).map(|i| fx(i * 91 + 11)).collect();
            let lane = LaneKernel.dot_raw(&vals, &wts);
            let scalar = ScalarKernel.dot_raw(&vals, &wts);
            assert_eq!(lane, scalar, "n={n}");
            let mut acc = Accum::new();
            for (&v, &w) in vals.iter().zip(&wts) {
                acc.mac(v, w);
            }
            let mut raw = Accum::new();
            raw.add_raw(lane);
            assert_eq!(acc, raw, "n={n}");
        }
    }

    #[test]
    fn shifted_primitives_match_scalar_for_all_strides() {
        let row: Vec<Fx> = (0..64).map(|i| fx(i * 53 - 700)).collect();
        for stride in [1usize, 2, 3] {
            for aw in [1usize, 5, 8, 16] {
                if (aw - 1) * stride >= row.len() {
                    continue;
                }
                let k = fx(321);
                let mut a = vec![0i64; aw];
                let mut b = vec![0i64; aw];
                LaneKernel.shifted_mac(&row, stride, k, &mut a);
                ScalarKernel.shifted_mac(&row, stride, k, &mut b);
                assert_eq!(a, b, "mac stride={stride} aw={aw}");
                let mut s1 = vec![0i64; aw];
                let mut s2 = vec![0i64; aw];
                LaneKernel.shifted_sum(&row, stride, &mut s1);
                ScalarKernel.shifted_sum(&row, stride, &mut s2);
                assert_eq!(s1, s2, "sum stride={stride} aw={aw}");
                let mut c1 = vec![Fx::MIN; aw];
                let mut c2 = vec![Fx::MIN; aw];
                LaneKernel.shifted_max(&row, stride, &mut c1);
                ScalarKernel.shifted_max(&row, stride, &mut c2);
                assert_eq!(c1, c2, "max stride={stride} aw={aw}");
            }
        }
    }

    #[test]
    fn classifier_dot_handles_sparse_and_dense_rows() {
        let flat: Vec<Fx> = (0..32).map(|i| fx(i * 77 - 1000)).collect();
        // Dense: indices 0..32.
        let dense_row: Vec<(usize, Fx)> = (0..32).map(|i| (i, Fx::ZERO)).collect();
        let wrow: Vec<Fx> = (0..32).map(|i| fx(i * 13 + 5)).collect();
        let dense = classifier_dot_raw(&LaneKernel, &flat, &dense_row, &wrow);
        assert_eq!(dense, LaneKernel.dot_raw(&flat, &wrow));
        // Sparse: every third index.
        let sparse_row: Vec<(usize, Fx)> = (0..10).map(|i| (i * 3, Fx::ZERO)).collect();
        let swrow: Vec<Fx> = (0..10).map(|i| fx(i * 29 - 60)).collect();
        let got = classifier_dot_raw(&LaneKernel, &flat, &sparse_row, &swrow);
        let mut want = Accum::new();
        for (&(idx, _), &w) in sparse_row.iter().zip(&swrow) {
            want.mac(flat[idx], w);
        }
        assert_eq!(want.raw(), got);
    }

    #[test]
    fn avg_sum_alignment_is_exact() {
        // One lane fed several kernel-offset steps must equal the
        // sequential add_fx chain: (Σ bits) << F == Σ (bits << F).
        let row: Vec<Fx> = (0..16).map(|i| fx(i * 211 - 1500)).collect();
        let mut lanes = [0i64; 1];
        for kx in 0..5 {
            LaneKernel.shifted_sum(&row[kx..], 1, &mut lanes);
        }
        let mut raw = Accum::new();
        raw.add_raw(sum_to_raw(lanes[0]));
        let mut acc = Accum::new();
        for &v in &row[..5] {
            acc.add_fx(v);
        }
        assert_eq!(acc, raw);
    }
}
