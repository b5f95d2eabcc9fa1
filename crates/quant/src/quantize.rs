//! Sign/threshold binarization of trained networks.
//!
//! Quantization is weights-only and per-group: every convolution output
//! map and every classifier row gets one magnitude `α` (the mean
//! absolute weight of the group, the standard BinaryConnect/XNOR-Net
//! scaling), and each weight collapses to
//!
//! * **W1** — `sign(w)·α`,
//! * **W2** — the nearest of `{±1, ±3}·s` with step `s = α/2`,
//!
//! all as ordinary `Fx` values written back through the network's
//! `set_conv_kernel`/`set_fc_row` geometry-checked setters. The
//! quantized network is therefore a plain `shidiannao_cnn::Network`:
//! `prepare()` compiles it and recorded schedules replay it with zero
//! engine changes, while [`PackedWeights`] carries the proof of the
//! 1/2-bit SB footprint. Biases stay 16-bit — they are one word per
//! *output neuron group*, not per synapse, so packing them would save
//! nothing measurable while costing accuracy.
//!
//! Activation binarization reuses the ALU's PLA machinery:
//! [`sign_pla`] is a steep-tanh 16-segment table and [`binarize_stack`]
//! models the 1-bit register capture after it (exact `±mag` snap).
//!
//! [`accuracy_study`] measures what the precision knob costs: the
//! quantized network's fixed-point outputs against the *original*
//! network's `f64` golden forward pass, plus top-1 agreement.

use shidiannao_cnn::{LayerBody, Network};
use shidiannao_fixed::{Fx, Pla};
use shidiannao_tensor::MapStack;

use crate::pack::{sign_is_positive, PackedWeights};
use crate::QuantError;
use shidiannao_core::WeightPrecision;

/// Largest W2 step whose outer level `3·s` still fits in `i16`.
const MAX_W2_STEP_BITS: i16 = i16::MAX / 3;

/// A network with its weights collapsed to a low-bit grid, plus the
/// packed-storage evidence.
#[derive(Clone, Debug)]
pub struct QuantizedNetwork {
    /// The rewritten network — runs on the unchanged engine.
    pub network: Network,
    /// The precision the weights were collapsed to.
    pub precision: WeightPrecision,
    /// One packed group per convolution output map / classifier row, in
    /// layer order (empty for `W16`, which stays in the 16-bit store).
    pub packed: Vec<PackedWeights>,
    /// Total SB bytes for the synaptic weights, packed.
    pub packed_sb_bytes: usize,
    /// Total SB bytes for the same weights in the 16-bit store.
    pub baseline_sb_bytes: usize,
}

impl QuantizedNetwork {
    /// Storage compression vs the 16-bit SB (≈16× for W1, ≈8× for W2).
    pub fn compression(&self) -> f64 {
        if self.packed_sb_bytes == 0 {
            1.0
        } else {
            self.baseline_sb_bytes as f64 / self.packed_sb_bytes as f64
        }
    }
}

/// Per-group magnitude: mean |w|, clamped to at least one LSB.
fn group_alpha(ws: &[Fx]) -> Fx {
    if ws.is_empty() {
        return Fx::EPSILON;
    }
    let mean = ws.iter().map(|w| w.to_f64().abs()).sum::<f64>() / ws.len() as f64;
    Fx::from_f64(mean).max(Fx::EPSILON)
}

/// The group scale actually stored: `α` for W1, the clamped step
/// `s = α/2` for W2.
fn group_scale(ws: &[Fx], precision: WeightPrecision) -> Fx {
    let alpha = group_alpha(ws);
    match precision {
        WeightPrecision::W1 | WeightPrecision::W16 => alpha,
        WeightPrecision::W2 => Fx::from_bits((alpha.to_bits() / 2).clamp(1, MAX_W2_STEP_BITS)),
    }
}

/// Collapses one weight onto the precision's grid for the group scale.
fn level_for(w: Fx, precision: WeightPrecision, scale: Fx) -> Fx {
    let s = scale.to_bits();
    match precision {
        WeightPrecision::W16 => w,
        WeightPrecision::W1 => {
            if sign_is_positive(w) {
                scale
            } else {
                -scale
            }
        }
        WeightPrecision::W2 => {
            // Nearest of {1, 3}·s in magnitude: the midpoint is 2·s.
            let mag = if w.to_bits().unsigned_abs() >= 2 * s.unsigned_abs() {
                3 * s
            } else {
                s
            };
            if sign_is_positive(w) {
                Fx::from_bits(mag)
            } else {
                Fx::from_bits(-mag)
            }
        }
    }
}

/// Rewrites every convolution kernel and classifier row of `net` onto
/// the `precision` grid (per-output-map / per-row scales) and packs the
/// result. `W16` is the identity (no packing, baseline footprint).
pub fn quantize_network(
    net: &Network,
    precision: WeightPrecision,
) -> Result<QuantizedNetwork, QuantError> {
    let mut out = net.clone();
    let mut packed = Vec::new();
    let mut packed_bytes = 0usize;
    let mut baseline_bytes = 0usize;
    for i in 0..net.layers().len() {
        match net.layers()[i].body() {
            LayerBody::Conv { table, weights, .. } => {
                for o in 0..table.out_maps() {
                    let group: Vec<Fx> = (0..table.inputs_of(o).len())
                        .flat_map(|j| weights.kernel(o, j).as_slice().iter().copied())
                        .collect();
                    let scale = group_scale(&group, precision);
                    let quant: Vec<Fx> = group
                        .iter()
                        .map(|&w| level_for(w, precision, scale))
                        .collect();
                    if precision != WeightPrecision::W16 {
                        let pw = PackedWeights::pack(&quant, precision, scale)?;
                        packed_bytes += pw.sb_bytes();
                        baseline_bytes += pw.baseline_sb_bytes();
                        packed.push(pw);
                    } else {
                        baseline_bytes += 2 * quant.len();
                        packed_bytes += 2 * quant.len();
                    }
                    let mut offset = 0usize;
                    for j in 0..table.inputs_of(o).len() {
                        let k = weights.kernel(o, j);
                        let n = k.len();
                        let vals = &quant[offset..offset + n];
                        let mut it = vals.iter().copied();
                        let qk = k.map(|_| it.next().unwrap_or(Fx::ZERO));
                        out.set_conv_kernel(i, o, j, qk)?;
                        offset += n;
                    }
                }
            }
            LayerBody::Fc { weights, .. } => {
                for n in 0..weights.out_count() {
                    let group: Vec<Fx> = weights.row(n).iter().map(|&(_, w)| w).collect();
                    let scale = group_scale(&group, precision);
                    let quant: Vec<Fx> = group
                        .iter()
                        .map(|&w| level_for(w, precision, scale))
                        .collect();
                    if precision != WeightPrecision::W16 {
                        let pw = PackedWeights::pack(&quant, precision, scale)?;
                        packed_bytes += pw.sb_bytes();
                        baseline_bytes += pw.baseline_sb_bytes();
                        packed.push(pw);
                    } else {
                        baseline_bytes += 2 * quant.len();
                        packed_bytes += 2 * quant.len();
                    }
                    out.set_fc_row(i, n, &quant, weights.bias(n))?;
                }
            }
            _ => {}
        }
    }
    Ok(QuantizedNetwork {
        network: out,
        precision,
        packed,
        packed_sb_bytes: packed_bytes,
        baseline_sb_bytes: baseline_bytes,
    })
}

/// The activation binarizer's PLA: a steep tanh (`tanh(64·x)`) over
/// `[-1, 1]`, i.e. the closest thing the ALU's 16-segment interpolator
/// has to a sign function. The 1-bit capture after it is
/// [`binarize_stack`]'s exact snap.
pub fn sign_pla() -> Pla {
    Pla::from_fn(|x| (64.0 * x).tanh(), -1.0, 1.0)
}

/// Binarizes every value of a stack to exactly `±mag`: the PLA drives
/// the value toward ±1, the 1-bit register capture keeps only the sign
/// (zero captures as `+mag`, matching the kernels' sign predicate).
pub fn binarize_stack(stack: &MapStack<Fx>, mag: Fx) -> MapStack<Fx> {
    let pla = sign_pla();
    stack.map(|&v| {
        if sign_is_positive(pla.eval(v)) {
            mag
        } else {
            -mag
        }
    })
}

/// One row of the precision-vs-accuracy study.
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyRow {
    /// Network name.
    pub net: String,
    /// Precision label (`w16`/`w2`/`w1`).
    pub precision: &'static str,
    /// Mean |quantized fixed-point output − original f64 golden output|
    /// over all inputs and output neurons.
    pub mean_abs_err: f64,
    /// Fraction of inputs whose output argmax matches the original f64
    /// golden model's.
    pub top1_match: f64,
    /// Packed SB bytes for the synaptic weights.
    pub sb_bytes: usize,
    /// 16-bit SB bytes for the same weights.
    pub sb_bytes_baseline: usize,
}

/// Index of the maximum element (ties to the first, the usual argmax).
fn argmax(xs: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Quantizes `net` at `precision` and measures it against the original
/// network's `f64` golden forward pass over `inputs` deterministic
/// random inputs seeded from `seed`.
pub fn accuracy_study(
    net: &Network,
    precision: WeightPrecision,
    inputs: usize,
    seed: u64,
) -> Result<AccuracyRow, QuantError> {
    let q = quantize_network(net, precision)?;
    let mut abs_err = 0.0f64;
    let mut terms = 0usize;
    let mut matches = 0usize;
    for k in 0..inputs {
        let input = net.random_input(seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
        let golden_stacks = net.forward_f32(&input.map(|&v| v.to_f32()));
        let golden: Vec<f64> = golden_stacks
            .last()
            .map(|s| s.flatten().iter().map(|&v| f64::from(v)).collect())
            .unwrap_or_default();
        let quant: Vec<f64> = q
            .network
            .forward_fixed(&input)
            .output()
            .iter()
            .map(|v| v.to_f64())
            .collect();
        for (g, v) in golden.iter().zip(&quant) {
            abs_err += (g - v).abs();
            terms += 1;
        }
        if !golden.is_empty() && argmax(&golden) == argmax(&quant) {
            matches += 1;
        }
    }
    Ok(AccuracyRow {
        net: net.name().to_string(),
        precision: precision.label(),
        mean_abs_err: if terms == 0 {
            0.0
        } else {
            abs_err / terms as f64
        },
        top1_match: if inputs == 0 {
            1.0
        } else {
            matches as f64 / inputs as f64
        },
        sb_bytes: q.packed_sb_bytes,
        sb_bytes_baseline: q.baseline_sb_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_cnn::zoo;

    #[test]
    fn w1_collapses_every_group_to_two_levels() {
        let net = zoo::gabor().build(42).unwrap();
        let q = quantize_network(&net, WeightPrecision::W1).unwrap();
        for layer in q.network.layers() {
            match layer.body() {
                LayerBody::Conv { table, weights, .. } => {
                    for o in 0..table.out_maps() {
                        let mut mags = std::collections::BTreeSet::new();
                        for j in 0..table.inputs_of(o).len() {
                            for &w in weights.kernel(o, j).as_slice() {
                                mags.insert(w.to_bits().unsigned_abs());
                            }
                        }
                        assert!(mags.len() <= 1, "one magnitude per output map");
                    }
                }
                LayerBody::Fc { weights, .. } => {
                    for n in 0..weights.out_count() {
                        let mut mags = std::collections::BTreeSet::new();
                        for &(_, w) in weights.row(n) {
                            mags.insert(w.to_bits().unsigned_abs());
                        }
                        assert!(mags.len() <= 1, "one magnitude per row");
                    }
                }
                _ => {}
            }
        }
        // 1-bit packing shrinks the SB by ~16×.
        // Small per-group remainders (⌈len/8⌉ bytes) keep this below the
        // asymptotic 16×, but it must clear 8× comfortably.
        assert!(q.compression() > 8.0, "compression {}", q.compression());
        assert!(!q.packed.is_empty());
    }

    #[test]
    fn w2_levels_are_one_and_three_steps() {
        let net = zoo::simple_conv().build(7).unwrap();
        let q = quantize_network(&net, WeightPrecision::W2).unwrap();
        for pw in &q.packed {
            let s = pw.scale().to_bits().unsigned_abs();
            for w in pw.unpack() {
                let m = w.to_bits().unsigned_abs();
                assert!(m == s || m == 3 * s, "level {m} vs step {s}");
            }
        }
        assert!(q.compression() > 6.0, "compression {}", q.compression());
    }

    #[test]
    fn w16_is_the_identity() {
        let net = zoo::gabor().build(42).unwrap();
        let q = quantize_network(&net, WeightPrecision::W16).unwrap();
        let input = net.random_input(3);
        assert_eq!(
            q.network.forward_fixed(&input).output(),
            net.forward_fixed(&input).output()
        );
        assert!(q.packed.is_empty());
        assert_eq!(q.packed_sb_bytes, q.baseline_sb_bytes);
    }

    #[test]
    fn quantized_network_runs_on_the_unchanged_engine_bit_identically() {
        use shidiannao_core::{Accelerator, AcceleratorConfig};
        let net = zoo::gabor().build(42).unwrap();
        let q = quantize_network(&net, WeightPrecision::W1).unwrap();
        let input = net.random_input(11);
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let run = accel
            .prepare(&q.network)
            .and_then(|p| p.session().run(&input))
            .unwrap();
        assert_eq!(run.output(), q.network.forward_fixed(&input).output());
    }

    #[test]
    fn binarize_stack_is_pure_signs() {
        let stack = MapStack::from_fn(4, 4, 2, |m| {
            shidiannao_tensor::FeatureMap::from_fn(4, 4, |x, y| {
                Fx::from_f32((x as f32 - 1.5) * 0.3 + (y as f32 - 1.5) * 0.1 + m as f32 * 0.05)
            })
        });
        let mag = Fx::from_bits(100);
        let b = binarize_stack(&stack, mag);
        for m in b.iter() {
            for &v in m.as_slice() {
                assert!(v == mag || v == -mag);
            }
        }
    }

    #[test]
    fn accuracy_degrades_monotonically_with_precision() {
        let net = zoo::gabor().build(42).unwrap();
        let w16 = accuracy_study(&net, WeightPrecision::W16, 4, 99).unwrap();
        let w1 = accuracy_study(&net, WeightPrecision::W1, 4, 99).unwrap();
        // W16's only error vs f64 is fixed-point rounding; W1 adds
        // quantization error on top.
        assert!(w16.mean_abs_err <= w1.mean_abs_err);
        assert!(w1.sb_bytes * 8 < w1.sb_bytes_baseline);
        assert_eq!(w16.precision, "w16");
        assert_eq!(w1.precision, "w1");
    }
}
