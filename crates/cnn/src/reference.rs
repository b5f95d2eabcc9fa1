//! The golden reference executors.
//!
//! [`forward_layer_fixed`] defines the **canonical fixed-point semantics**
//! of every layer type: accumulation in the widened [`Accum`] register,
//! truncating read-out, ALU activations through the 16-segment PLA, ALU
//! divisions. The cycle-level simulator in `shidiannao-core` must reproduce
//! these results bit-for-bit — integration tests enforce that.
//!
//! [`forward_layer_f32`] mirrors the same computation in `f32` (with the
//! already-quantized weights) for accuracy comparisons.

use crate::layer::{Activation, LrnSpec, PoolKind};
use crate::network::{Layer, LayerBody};
use shidiannao_fixed::{Accum, Fx, Pla};
use shidiannao_tensor::{FeatureMap, MapStack};

/// Executes one layer in fixed point.
///
/// # Panics
///
/// Panics if `input` does not match the layer's declared input shape.
pub fn forward_layer_fixed(layer: &Layer, input: &MapStack<Fx>) -> MapStack<Fx> {
    assert_eq!(
        (input.len(), input.map_dims()),
        (layer.in_maps(), layer.in_dims()),
        "layer {} fed wrong input shape",
        layer.index()
    );
    match layer.body() {
        LayerBody::Conv {
            table,
            kernel,
            stride,
            weights,
            activation,
        } => {
            let (ow, oh) = layer.out_dims();
            let pla = activation.pla();
            MapStack::from_fn(ow, oh, layer.out_maps(), |o| {
                FeatureMap::from_fn(ow, oh, |x, y| {
                    let mut acc = Accum::from_fx(weights.bias(o));
                    for (j, &im) in table.inputs_of(o).iter().enumerate() {
                        let k = weights.kernel(o, j);
                        let map = &input[im];
                        for ky in 0..kernel.1 {
                            for kx in 0..kernel.0 {
                                acc.mac(map[(x * stride.0 + kx, y * stride.1 + ky)], k[(kx, ky)]);
                            }
                        }
                    }
                    activation.apply_fixed(acc.to_fx(), pla.as_ref())
                })
            })
        }
        LayerBody::Pool {
            window,
            stride,
            kind,
            activation,
            ..
        } => {
            let (ow, oh) = layer.out_dims();
            let (iw, ih) = layer.in_dims();
            let pla = activation.pla();
            MapStack::from_fn(ow, oh, layer.out_maps(), |m| {
                let map = &input[m];
                FeatureMap::from_fn(ow, oh, |x, y| {
                    let x0 = x * stride.0;
                    let y0 = y * stride.1;
                    // Ceiling-rounded layers clip trailing windows at the
                    // input edge (§layer::Rounding).
                    let x1 = (x0 + window.0).min(iw);
                    let y1 = (y0 + window.1).min(ih);
                    let v = match kind {
                        PoolKind::Max => {
                            let mut best = Fx::MIN;
                            for yy in y0..y1 {
                                for xx in x0..x1 {
                                    best = best.max(map[(xx, yy)]);
                                }
                            }
                            best
                        }
                        PoolKind::Avg => {
                            let mut acc = Accum::new();
                            for yy in y0..y1 {
                                for xx in x0..x1 {
                                    acc.add_fx(map[(xx, yy)]);
                                }
                            }
                            acc.mean((x1 - x0) * (y1 - y0))
                        }
                    };
                    activation.apply_fixed(v, pla.as_ref())
                })
            })
        }
        LayerBody::Fc {
            weights,
            activation,
        } => {
            let flat = input.flatten();
            let pla = activation.pla();
            MapStack::from_fn(1, 1, layer.out_maps(), |n| {
                let mut acc = Accum::from_fx(weights.bias(n));
                for &(i, w) in weights.row(n) {
                    acc.mac(flat[i], w);
                }
                FeatureMap::filled(1, 1, activation.apply_fixed(acc.to_fx(), pla.as_ref()))
            })
        }
        LayerBody::Lrn(spec) => lrn_fixed(layer, input, spec),
        LayerBody::Lcn { gauss, .. } => lcn_fixed(layer, input, gauss),
    }
}

/// LRN per formula (3), following the Fig. 15 decomposition: element-wise
/// square (NFU), cross-map matrix addition (NFU), scale-and-offset plus
/// division (ALU): `O = I / (k + α · Σⱼ Iⱼ²)`.
fn lrn_fixed(layer: &Layer, input: &MapStack<Fx>, spec: &LrnSpec) -> MapStack<Fx> {
    let (w, h) = layer.in_dims();
    let maps = layer.in_maps();
    let half = spec.window_maps / 2;
    let (k, alpha) = (spec.k_fx(), spec.alpha_fx());
    MapStack::from_fn(w, h, maps, |mi| {
        let lo = mi.saturating_sub(half);
        let hi = (mi + half).min(maps - 1);
        FeatureMap::from_fn(w, h, |x, y| {
            let mut acc = Accum::new();
            for j in lo..=hi {
                let v = input[j][(x, y)];
                acc.mac(v, v);
            }
            let denom = k + alpha * acc.to_fx();
            input[mi][(x, y)] / denom
        })
    })
}

/// LCN per formulae (4)–(6), following the Fig. 16 decomposition: a
/// Gaussian-weighted subtractive pass (convolutional sub-layer + matrix
/// subtraction), a weighted-variance pass (square + convolutional
/// sub-layer), an ALU square root (PLA) and division. Window positions
/// falling outside the map are skipped (edge clipping).
fn lcn_fixed(layer: &Layer, input: &MapStack<Fx>, gauss: &FeatureMap<Fx>) -> MapStack<Fx> {
    let (w, h) = layer.in_dims();
    let maps = layer.in_maps();
    let win = gauss.width();
    let half = win / 2;
    let sqrt_pla = Pla::sqrt();

    // Weighted cross-map local mean μ(x, y).
    let mu = FeatureMap::from_fn(w, h, |x, y| {
        let mut acc = Accum::new();
        for j in 0..maps {
            for q in 0..win {
                for p in 0..win {
                    let (xx, yy) = (x + p, y + q);
                    if xx < half || yy < half || xx - half >= w || yy - half >= h {
                        continue;
                    }
                    acc.mac(gauss[(p, q)], input[j][(xx - half, yy - half)]);
                }
            }
        }
        acc.to_fx()
    });

    // Subtractive normalization v = I − μ.
    let v: Vec<FeatureMap<Fx>> = (0..maps)
        .map(|j| FeatureMap::from_fn(w, h, |x, y| input[j][(x, y)] - mu[(x, y)]))
        .collect();

    // Weighted local standard deviation δ = √(Σ ω v²).
    let delta = FeatureMap::from_fn(w, h, |x, y| {
        let mut acc = Accum::new();
        for vj in &v {
            for q in 0..win {
                for p in 0..win {
                    let (xx, yy) = (x + p, y + q);
                    if xx < half || yy < half || xx - half >= w || yy - half >= h {
                        continue;
                    }
                    let s = vj[(xx - half, yy - half)].squared();
                    acc.mac(gauss[(p, q)], s);
                }
            }
        }
        sqrt_pla.eval(acc.to_fx())
    });

    // Divisive normalization by max(mean(δ), δ).
    let mut sum = Accum::new();
    for d in delta.iter() {
        sum.add_fx(*d);
    }
    let mean_delta = sum.mean(w * h);
    MapStack::from_fn(w, h, maps, |j| {
        FeatureMap::from_fn(w, h, |x, y| {
            let d = mean_delta.max(delta[(x, y)]);
            if d == Fx::ZERO {
                v[j][(x, y)]
            } else {
                v[j][(x, y)] / d
            }
        })
    })
}

/// Executes one layer in `f32` with the quantized weights.
///
/// # Panics
///
/// Panics if `input` does not match the layer's declared input shape.
pub fn forward_layer_f32(layer: &Layer, input: &MapStack<f32>) -> MapStack<f32> {
    assert_eq!(
        (input.len(), input.map_dims()),
        (layer.in_maps(), layer.in_dims()),
        "layer {} fed wrong input shape",
        layer.index()
    );
    match layer.body() {
        LayerBody::Conv {
            table,
            kernel,
            stride,
            weights,
            activation,
        } => {
            let (ow, oh) = layer.out_dims();
            MapStack::from_fn(ow, oh, layer.out_maps(), |o| {
                FeatureMap::from_fn(ow, oh, |x, y| {
                    let mut acc = weights.bias(o).to_f32();
                    for (j, &im) in table.inputs_of(o).iter().enumerate() {
                        let k = weights.kernel(o, j);
                        let map = &input[im];
                        for ky in 0..kernel.1 {
                            for kx in 0..kernel.0 {
                                acc += map[(x * stride.0 + kx, y * stride.1 + ky)]
                                    * k[(kx, ky)].to_f32();
                            }
                        }
                    }
                    activation.apply_f32(acc)
                })
            })
        }
        LayerBody::Pool {
            window,
            stride,
            kind,
            activation,
            ..
        } => {
            let (ow, oh) = layer.out_dims();
            let (iw, ih) = layer.in_dims();
            MapStack::from_fn(ow, oh, layer.out_maps(), |m| {
                let map = &input[m];
                FeatureMap::from_fn(ow, oh, |x, y| {
                    let x0 = x * stride.0;
                    let y0 = y * stride.1;
                    let x1 = (x0 + window.0).min(iw);
                    let y1 = (y0 + window.1).min(ih);
                    let v = match kind {
                        PoolKind::Max => {
                            let mut best = f32::MIN;
                            for yy in y0..y1 {
                                for xx in x0..x1 {
                                    best = best.max(map[(xx, yy)]);
                                }
                            }
                            best
                        }
                        PoolKind::Avg => {
                            let mut s = 0.0;
                            for yy in y0..y1 {
                                for xx in x0..x1 {
                                    s += map[(xx, yy)];
                                }
                            }
                            s / ((x1 - x0) * (y1 - y0)) as f32
                        }
                    };
                    activation.apply_f32(v)
                })
            })
        }
        LayerBody::Fc {
            weights,
            activation,
        } => {
            let flat = input.flatten();
            MapStack::from_fn(1, 1, layer.out_maps(), |n| {
                let mut acc = weights.bias(n).to_f32();
                for &(i, w) in weights.row(n) {
                    acc += flat[i] * w.to_f32();
                }
                FeatureMap::filled(1, 1, activation.apply_f32(acc))
            })
        }
        LayerBody::Lrn(spec) => {
            let (w, h) = layer.in_dims();
            let maps = layer.in_maps();
            let half = spec.window_maps / 2;
            MapStack::from_fn(w, h, maps, |mi| {
                let lo = mi.saturating_sub(half);
                let hi = (mi + half).min(maps - 1);
                FeatureMap::from_fn(w, h, |x, y| {
                    let s: f32 = (lo..=hi).map(|j| input[j][(x, y)].powi(2)).sum();
                    input[mi][(x, y)] / (spec.k + spec.alpha * s)
                })
            })
        }
        LayerBody::Lcn { gauss, .. } => {
            // Float mirror of `lcn_fixed` (same clipping, same weights).
            let (w, h) = layer.in_dims();
            let maps = layer.in_maps();
            let win = gauss.width();
            let half = win / 2;
            let weight = |p: usize, q: usize| gauss[(p, q)].to_f32();
            let mu = FeatureMap::from_fn(w, h, |x, y| {
                let mut s = 0.0;
                for j in 0..maps {
                    for q in 0..win {
                        for p in 0..win {
                            let (xx, yy) = (x + p, y + q);
                            if xx < half || yy < half || xx - half >= w || yy - half >= h {
                                continue;
                            }
                            s += weight(p, q) * input[j][(xx - half, yy - half)];
                        }
                    }
                }
                s
            });
            let v: Vec<FeatureMap<f32>> = (0..maps)
                .map(|j| FeatureMap::from_fn(w, h, |x, y| input[j][(x, y)] - mu[(x, y)]))
                .collect();
            let delta = FeatureMap::from_fn(w, h, |x, y| {
                let mut s = 0.0;
                for vj in &v {
                    for q in 0..win {
                        for p in 0..win {
                            let (xx, yy) = (x + p, y + q);
                            if xx < half || yy < half || xx - half >= w || yy - half >= h {
                                continue;
                            }
                            s += weight(p, q) * vj[(xx - half, yy - half)].powi(2);
                        }
                    }
                }
                s.max(0.0).sqrt()
            });
            let mean_delta = delta.iter().sum::<f32>() / (w * h) as f32;
            MapStack::from_fn(w, h, maps, |j| {
                FeatureMap::from_fn(w, h, |x, y| {
                    let d = mean_delta.max(delta[(x, y)]);
                    if d == 0.0 {
                        v[j][(x, y)]
                    } else {
                        v[j][(x, y)] / d
                    }
                })
            })
        }
    }
}

/// Applies an activation to every element of a stack — the NFU + ALU pass
/// used when a decomposed normalization sub-layer finishes.
pub fn activate_stack(stack: &MapStack<Fx>, activation: Activation) -> MapStack<Fx> {
    let pla = activation.pla();
    stack.map(|v| activation.apply_fixed(*v, pla.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvSpec, FcSpec, PoolSpec};
    use crate::network::NetworkBuilder;

    #[test]
    fn conv_hand_example() {
        // 1 input map 3×3 of ones, one 2×2 kernel of ones, no activation,
        // bias forced by seed — verify the sum structurally instead: use
        // uniform input so every output equals bias + Σ kernel.
        let net = NetworkBuilder::new("t", 1, (3, 3))
            .conv(ConvSpec::new(1, (2, 2)).with_activation(Activation::None))
            .build(11)
            .unwrap();
        let input = MapStack::filled(3, 3, 1, Fx::ONE);
        let out = net.forward_fixed(&input);
        let o = out.layer_output(0).unwrap();
        assert_eq!(o.map_dims(), (2, 2));
        // All four outputs identical under uniform input.
        let v = o[0][(0, 0)];
        assert!(o[0].iter().all(|&x| x == v));
        // And equal to bias + kernel sum (full-precision accumulate).
        let LayerBody::Conv { weights, .. } = net.layers()[0].body() else {
            panic!()
        };
        let mut acc = Accum::from_fx(weights.bias(0));
        for kv in weights.kernel(0, 0).iter() {
            acc.mac(Fx::ONE, *kv);
        }
        assert_eq!(v, acc.to_fx());
    }

    #[test]
    fn max_pool_hand_example() {
        let net = NetworkBuilder::new("t", 1, (4, 4))
            .pool(PoolSpec::max((2, 2)))
            .build(0)
            .unwrap();
        let map = FeatureMap::from_fn(4, 4, |x, y| Fx::from_int((y * 4 + x) as i32 % 7));
        let mut stack = MapStack::new(4, 4);
        stack.push(map).unwrap();
        let out = net.forward_fixed(&stack);
        let o = out.layer_output(0).unwrap();
        // values: row0 0 1 2 3 / row1 4 5 6 0 / row2 1 2 3 4 / row3 5 6 0 1
        assert_eq!(o[0][(0, 0)], Fx::from_int(5));
        assert_eq!(o[0][(1, 0)], Fx::from_int(6));
        assert_eq!(o[0][(0, 1)], Fx::from_int(6));
        assert_eq!(o[0][(1, 1)], Fx::from_int(4));
    }

    #[test]
    fn avg_pool_divides_by_window() {
        let net = NetworkBuilder::new("t", 1, (2, 2))
            .pool(PoolSpec::avg((2, 2)))
            .build(0)
            .unwrap();
        let map = FeatureMap::from_vec(
            2,
            2,
            vec![
                Fx::from_int(1),
                Fx::from_int(2),
                Fx::from_int(3),
                Fx::from_int(6),
            ],
        )
        .unwrap();
        let mut stack = MapStack::new(2, 2);
        stack.push(map).unwrap();
        let out = net.forward_fixed(&stack);
        assert_eq!(out.layer_output(0).unwrap()[0][(0, 0)], Fx::from_int(3));
    }

    #[test]
    fn ceil_pooling_clips_trailing_window() {
        let net = NetworkBuilder::new("t", 1, (5, 4))
            .pool(PoolSpec::max((2, 2)).with_ceil())
            .build(0)
            .unwrap();
        assert_eq!(net.layers()[0].out_dims(), (3, 2));
        let map = FeatureMap::from_fn(5, 4, |x, y| Fx::from_int((x + y) as i32));
        let mut stack = MapStack::new(5, 4);
        stack.push(map).unwrap();
        let out = net.forward_fixed(&stack);
        // Last column window covers only x=4: max(4+y0, 4+y0+1).
        assert_eq!(out.layer_output(0).unwrap()[0][(2, 0)], Fx::from_int(5));
    }

    #[test]
    fn fc_matches_manual_dot_product() {
        let net = NetworkBuilder::new("t", 1, (2, 2))
            .fc(FcSpec::new(3).with_activation(Activation::None))
            .build(5)
            .unwrap();
        let input = net.random_input(1);
        let out = net.forward_fixed(&input);
        let flat = input.flatten();
        let LayerBody::Fc { weights, .. } = net.layers()[0].body() else {
            panic!()
        };
        for n in 0..3 {
            let mut acc = Accum::from_fx(weights.bias(n));
            for &(i, w) in weights.row(n) {
                acc.mac(flat[i], w);
            }
            assert_eq!(out.output()[n], acc.to_fx());
        }
    }

    #[test]
    fn lrn_suppresses_when_neighbours_large() {
        use crate::layer::LrnSpec;
        let spec = LrnSpec {
            window_maps: 3,
            k: 1.0,
            alpha: 0.5,
        };
        let net = NetworkBuilder::new("t", 3, (1, 1))
            .lrn(spec)
            .build(0)
            .unwrap();
        let mut weak = MapStack::new(1, 1);
        for v in [1.0f32, 0.1, 0.1] {
            weak.push(FeatureMap::filled(1, 1, Fx::from_f32(v)))
                .unwrap();
        }
        let mut strong = MapStack::new(1, 1);
        for v in [1.0f32, 4.0, 4.0] {
            strong
                .push(FeatureMap::filled(1, 1, Fx::from_f32(v)))
                .unwrap();
        }
        let ow = net.forward_fixed(&weak).output()[0];
        let os = net.forward_fixed(&strong).output()[0];
        assert!(os < ow, "competition should suppress: {os:?} !< {ow:?}");
    }

    #[test]
    fn lcn_centres_constant_input_near_zero() {
        use crate::layer::LcnSpec;
        let net = NetworkBuilder::new("t", 1, (9, 9))
            .lcn(LcnSpec::new(5))
            .build(0)
            .unwrap();
        let input = MapStack::filled(9, 9, 1, Fx::from_f32(0.5));
        let out = net.forward_fixed(&input);
        // Interior of a constant map has v ≈ 0 after subtractive
        // normalization.
        let centre = out.layer_output(0).unwrap()[0][(4, 4)];
        assert!(centre.to_f32().abs() < 0.1, "centre = {centre}");
    }

    #[test]
    fn fixed_tracks_float_through_deep_stack() {
        let net = NetworkBuilder::new("t", 1, (16, 16))
            .conv(ConvSpec::new(4, (3, 3)))
            .pool(PoolSpec::avg((2, 2)))
            .conv(ConvSpec::new(6, (3, 3)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(8))
            .build(21)
            .unwrap();
        let input = net.random_input(3);
        let fixed = net.forward_fixed(&input).output();
        let float = net.forward_f32(&input.map(|v| v.to_f32()));
        for (a, b) in fixed.iter().zip(float.last().unwrap().flatten()) {
            assert!((a.to_f32() - b).abs() < 0.15, "{} vs {b}", a.to_f32());
        }
    }

    #[test]
    fn activate_stack_applies_pla() {
        let s = MapStack::filled(2, 2, 1, Fx::from_f32(0.5));
        let t = activate_stack(&s, Activation::Tanh);
        assert!((t[0][(0, 0)].to_f32() - 0.5f32.tanh()).abs() < 0.02);
    }
}
