//! The arithmetic logic unit (§5.2): activations via piecewise-linear
//! interpolation, divisions, and square roots.

use crate::stats::LayerStats;
use shidiannao_cnn::Activation;
use shidiannao_fixed::{Fx, Pla};

/// The lightweight ALU complementing the PE mesh.
///
/// It holds the pre-loaded PLA register files for `tanh`, `sigmoid`, and
/// `√x` (the LCN decomposition needs a root, §8.4), a fixed-point divider,
/// and `lanes` parallel 16-bit operators — the model drains the `Px`-wide
/// output register array at one value per lane per cycle. The PLA tables
/// are the process-wide shared ones ([`Pla::tanh`] and friends), so a new
/// ALU builds nothing.
#[derive(Clone, Debug)]
pub struct Alu {
    lanes: usize,
    tanh: Pla,
    sigmoid: Pla,
    sqrt: Pla,
}

impl Alu {
    /// Creates an ALU with the given lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Alu {
        assert!(lanes > 0, "ALU needs at least one lane");
        Alu {
            lanes,
            tanh: Pla::tanh(),
            sigmoid: Pla::sigmoid(),
            sqrt: Pla::sqrt(),
        }
    }

    /// Lane count.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Applies an activation in place to a batch of PE results, charging
    /// ALU ops and returning the cycles consumed (`⌈n / lanes⌉`, zero for
    /// [`Activation::None`]). Inlined, so the replay bodies' dispatch
    /// twins each compile their own copy.
    #[inline]
    pub fn activate(
        &self,
        values: &mut [Fx],
        activation: Activation,
        stats: &mut LayerStats,
    ) -> u64 {
        let pla = match activation {
            Activation::None => return 0,
            Activation::Tanh => &self.tanh,
            Activation::Sigmoid => &self.sigmoid,
        };
        for v in values.iter_mut() {
            *v = pla.eval(*v);
        }
        stats.alu_acts += values.len() as u64;
        self.cycles_for(values.len())
    }

    /// Divides each value by `divisor` in place, charging ALU divisions
    /// and returning the cycles consumed.
    pub fn divide(&self, values: &mut [Fx], divisor: Fx, stats: &mut LayerStats) -> u64 {
        for v in values.iter_mut() {
            *v = *v / divisor;
        }
        stats.alu_divs += values.len() as u64;
        self.cycles_for(values.len())
    }

    /// Element-wise division `a / b` in place, charging ALU divisions and
    /// returning the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn divide_elementwise(
        &self,
        values: &mut [Fx],
        divisors: &[Fx],
        stats: &mut LayerStats,
    ) -> u64 {
        assert_eq!(values.len(), divisors.len(), "divisor batch mismatch");
        for (v, d) in values.iter_mut().zip(divisors) {
            *v = *v / *d;
        }
        stats.alu_divs += values.len() as u64;
        self.cycles_for(values.len())
    }

    /// Square root via the PLA, in place; charges activation ops.
    #[inline]
    pub fn sqrt(&self, values: &mut [Fx], stats: &mut LayerStats) -> u64 {
        for v in values.iter_mut() {
            *v = self.sqrt.eval(*v);
        }
        stats.alu_acts += values.len() as u64;
        self.cycles_for(values.len())
    }

    /// Cycles to stream `n` values through the lanes.
    #[inline]
    pub fn cycles_for(&self, n: usize) -> u64 {
        n.div_ceil(self.lanes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_matches_pla_tables() {
        let alu = Alu::new(8);
        let mut v = [Fx::from_f32(0.5)];
        let mut s = LayerStats::new("t");
        let cycles = alu.activate(&mut v, Activation::Tanh, &mut s);
        assert_eq!(cycles, 1);
        assert_eq!(v[0], Pla::tanh().eval(Fx::from_f32(0.5)));
        assert_eq!(s.alu_acts, 1);
    }

    #[test]
    fn none_activation_is_free() {
        let alu = Alu::new(8);
        let mut v = [Fx::ONE; 64];
        let mut s = LayerStats::new("t");
        assert_eq!(alu.activate(&mut v, Activation::None, &mut s), 0);
        assert_eq!(s.alu_acts, 0);
        assert!(v.iter().all(|&x| x == Fx::ONE));
    }

    #[test]
    fn lane_count_sets_throughput() {
        let alu = Alu::new(8);
        assert_eq!(alu.cycles_for(64), 8);
        assert_eq!(alu.cycles_for(65), 9);
        assert_eq!(alu.cycles_for(0), 0);
        assert_eq!(alu.lanes(), 8);
    }

    #[test]
    fn divide_by_scalar_and_elementwise() {
        let alu = Alu::new(4);
        let mut s = LayerStats::new("t");
        let mut v = [Fx::from_int(6), Fx::from_int(9)];
        let cycles = alu.divide(&mut v, Fx::from_int(3), &mut s);
        assert_eq!(v, [Fx::from_int(2), Fx::from_int(3)]);
        assert_eq!(cycles, 1);
        let mut w = [Fx::from_int(8)];
        alu.divide_elementwise(&mut w, &[Fx::from_int(2)], &mut s);
        assert_eq!(w, [Fx::from_int(4)]);
        assert_eq!(s.alu_divs, 3);
    }

    #[test]
    fn sqrt_tracks_reference() {
        let alu = Alu::new(1);
        let mut s = LayerStats::new("t");
        let mut v = [Fx::from_int(9)];
        alu.sqrt(&mut v, &mut s);
        assert!((v[0].to_f32() - 3.0).abs() < 0.35, "sqrt(9) ≈ {}", v[0]);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = Alu::new(0);
    }
}
