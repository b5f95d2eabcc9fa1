//! Normalization-layer live executors (§8.4, Figs. 15–16).
//!
//! LRN and LCN layers are decomposed into NFU primitives (element-wise
//! square, matrix addition, convolution-like weighted sums) plus ALU
//! operations (division, square root via the PLA), exactly mirroring the
//! golden reference's operation ordering so results stay bit-identical.
//!
//! These executors are the recording and fault path: `prepare()` runs
//! them once to capture each layer's statistics delta, and sessions run
//! them under an active fault plan (LCN's staged NBout re-reads are
//! fault-filtered here, outside the recorded address streams), on
//! stuck-PE meshes and with replay off. Clean sessions replay the
//! recorded delta and compute values with the row-wise bodies in
//! `exec/replay.rs`. Every buffer comes from the session's
//! [`NormScratch`], so a warmed run allocates nothing.

use super::window::blocks;
use super::{Engine, NormScratch};
use crate::accel::RunError;
use core::mem;
use shidiannao_cnn::{Layer, LayerBody, LrnSpec};
use shidiannao_fixed::{Accum, Fx};
use shidiannao_tensor::FeatureMap;

// NBout staged-read tags for the fault filter: LCN stages μ and v through
// NBout and re-reads them in later sub-passes; each re-read pass is its
// own fault address space.
const STAGE_MU: u64 = 0;
const STAGE_V_SQUARE: u64 = 1;
const STAGE_V_DIVIDE: u64 = 2;

/// Dispatches a normalization layer.
pub(super) fn run(eng: &mut Engine<'_>, layer: &Layer) -> Result<(), RunError> {
    // The buffers go back even when a read faults out with `?`.
    let mut buf = mem::take(&mut eng.scratch.norm);
    let result = match layer.body() {
        LayerBody::Lrn(spec) => run_lrn(eng, layer, spec, &mut buf),
        LayerBody::Lcn { gauss, .. } => run_lcn(eng, layer, gauss, &mut buf),
        _ => unreachable!("norm executor fed a non-normalization layer"),
    };
    eng.scratch.norm = buf;
    result
}

/// LRN (formula (3), Fig. 15): per position, square-accumulate the
/// cross-map window in the PEs, apply the `k + α·s` scale in the NFU, and
/// divide in the ALU.
fn run_lrn(
    eng: &mut Engine<'_>,
    layer: &Layer,
    spec: &LrnSpec,
    buf: &mut NormScratch,
) -> Result<(), RunError> {
    let dims = layer.in_dims();
    let maps = layer.in_maps();
    let half = spec.window_maps / 2;
    let (k, alpha) = (spec.k_fx(), spec.alpha_fx());
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);
    let NormScratch { tile, vals, .. } = buf;

    for mi in 0..maps {
        let lo = mi.saturating_sub(half);
        let hi = (mi + half).min(maps - 1);
        for (origin, active) in blocks(dims, pe_dims) {
            let (aw, ah) = active;
            for py in 0..ah {
                for px in 0..aw {
                    let i = eng.nfu.index(px, py);
                    eng.nfu.reset_accumulator(i, Fx::ZERO);
                }
            }
            // Square-accumulate pass: one tile read + one square MAC per
            // window map per cycle.
            for j in lo..=hi {
                eng.nb_tile_into(j, origin, active, (1, 1), tile)?;
                for py in 0..ah {
                    for px in 0..aw {
                        let v = tile[py * aw + px];
                        let i = eng.nfu.index(px, py);
                        eng.nfu.mac(i, v, v);
                        eng.stats.pe_muls += 1;
                        eng.stats.pe_adds += 1;
                    }
                }
                eng.tick(aw * ah);
            }
            // Scale-and-offset in the NFU (one cycle): denom = k + α·s.
            vals.clear();
            for py in 0..ah {
                for px in 0..aw {
                    vals.push(k + alpha * eng.nfu.accumulator(eng.nfu.index(px, py)));
                }
            }
            eng.stats.pe_muls += (aw * ah) as u64;
            eng.stats.pe_adds += (aw * ah) as u64;
            eng.tick(aw * ah);
            // Divide the layer's own neurons in the ALU and flush.
            eng.nb_tile_into(mi, origin, active, (1, 1), tile)?;
            let div_cycles = eng.alu.divide_elementwise(tile, vals, eng.stats);
            eng.tick_idle(div_cycles.max(1));
            eng.nbout.write_block(mi, origin, active, tile, eng.stats);
        }
    }
    Ok(())
}

/// LCN (formulae (4)–(6), Fig. 16): Gaussian subtractive pass, weighted
/// variance, ALU square root, mean, and divisive pass.
///
/// Intermediate maps (μ, v, δ) are staged through NBout like the paper's
/// decomposed sub-layers; their traffic is charged to NBout. On the host
/// they are flat row-major planes in `buf` (v one plane per map).
fn run_lcn(
    eng: &mut Engine<'_>,
    layer: &Layer,
    gauss: &FeatureMap<Fx>,
    buf: &mut NormScratch,
) -> Result<(), RunError> {
    let (w, h) = layer.in_dims();
    let maps = layer.in_maps();
    let win = gauss.width();
    let half = win / 2;
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);
    let NormScratch {
        tile,
        vals,
        coords,
        lanes,
        mu,
        v,
        delta,
        ..
    } = buf;
    // Tap (p, q) of output (x, y) reads input (x + p − half, y + q − half)
    // when that lies inside the map (edge clipping).
    let tap = |x: usize, y: usize, p: usize, q: usize| {
        let (xx, yy) = (x + p, y + q);
        (xx >= half && yy >= half && xx - half < w && yy - half < h).then(|| (xx - half, yy - half))
    };

    // Pass 1: μ = Σ_{j,p,q} ω(p,q) · I_j (clipped at edges), computed
    // blockwise with one gather + one MAC per (j, p, q) cycle.
    mu.clear();
    mu.resize(w * h, Fx::ZERO);
    for (origin, active) in blocks((w, h), pe_dims) {
        let (aw, ah) = active;
        for py in 0..ah {
            for px in 0..aw {
                let i = eng.nfu.index(px, py);
                eng.nfu.reset_accumulator(i, Fx::ZERO);
            }
        }
        for j in 0..maps {
            for q in 0..win {
                for p in 0..win {
                    let wgt = gauss[(p, q)];
                    coords.clear();
                    lanes.clear();
                    for py in 0..ah {
                        for px in 0..aw {
                            if let Some(c) = tap(origin.0 + px, origin.1 + py, p, q) {
                                coords.push(c);
                                lanes.push((px, py));
                            }
                        }
                    }
                    eng.nb_gather_into(j, coords, tile)?;
                    for (&(px, py), &val) in lanes.iter().zip(tile.iter()) {
                        let i = eng.nfu.index(px, py);
                        eng.nfu.mac(i, wgt, val);
                        eng.stats.pe_muls += 1;
                        eng.stats.pe_adds += 1;
                    }
                    eng.tick(lanes.len());
                }
            }
        }
        for py in 0..ah {
            for px in 0..aw {
                mu[(origin.1 + py) * w + origin.0 + px] =
                    eng.nfu.accumulator(eng.nfu.index(px, py));
            }
        }
        // Stage μ through NBout (decomposed sub-layer write).
        eng.stats.nbout.write((aw * ah * 2) as u64);
        eng.tick_idle(1);
    }

    // Pass 2: v_j = I_j − μ (matrix subtraction in the NFU).
    v.clear();
    v.resize(maps * w * h, Fx::ZERO);
    for (j, vj) in v.chunks_exact_mut(w * h).enumerate() {
        for (origin, active) in blocks((w, h), pe_dims) {
            let (aw, ah) = active;
            eng.nb_tile_into(j, origin, active, (1, 1), tile)?;
            // μ arrives back from NBout (a staged re-read: fault-filtered
            // per word).
            eng.stats.nbout.read((aw * ah * 2) as u64);
            for py in 0..ah {
                for px in 0..aw {
                    let (x, y) = (origin.0 + px, origin.1 + py);
                    let m = eng.nbout_value(STAGE_MU, (x, y), mu[y * w + x])?;
                    vj[y * w + x] = tile[py * aw + px] - m;
                }
            }
            eng.stats.pe_adds += (aw * ah) as u64;
            eng.tick(aw * ah);
            eng.stats.nbout.write((aw * ah * 2) as u64);
        }
    }

    // Pass 3: δ = √(Σ ω v²), squares in the NFU, root in the ALU.
    delta.clear();
    delta.resize(w * h, Fx::ZERO);
    for (origin, active) in blocks((w, h), pe_dims) {
        let (aw, ah) = active;
        for py in 0..ah {
            for px in 0..aw {
                let i = eng.nfu.index(px, py);
                eng.nfu.reset_accumulator(i, Fx::ZERO);
            }
        }
        for vj in v.chunks_exact(w * h) {
            for q in 0..win {
                for p in 0..win {
                    let wgt = gauss[(p, q)];
                    let mut busy = 0;
                    for py in 0..ah {
                        for px in 0..aw {
                            let Some(c) = tap(origin.0 + px, origin.1 + py, p, q) else {
                                continue;
                            };
                            // v is staged in NBout; charge (and fault-
                            // filter) the re-read.
                            let s = eng
                                .nbout_value(STAGE_V_SQUARE, c, vj[c.1 * w + c.0])?
                                .squared();
                            let i = eng.nfu.index(px, py);
                            eng.nfu.mac(i, wgt, s);
                            eng.stats.pe_muls += 2; // square + weight
                            eng.stats.pe_adds += 1;
                            busy += 1;
                        }
                    }
                    eng.stats.nbout.read((busy * 2) as u64);
                    eng.tick(busy);
                }
            }
        }
        vals.clear();
        for py in 0..ah {
            for px in 0..aw {
                vals.push(eng.nfu.accumulator(eng.nfu.index(px, py)));
            }
        }
        let cycles = eng.alu.sqrt(vals, eng.stats);
        eng.tick_idle(cycles.max(1));
        for py in 0..ah {
            for px in 0..aw {
                delta[(origin.1 + py) * w + origin.0 + px] = vals[py * aw + px];
            }
        }
        eng.stats.nbout.write((aw * ah * 2) as u64);
    }

    // Mean of δ (running sum in the NFU, one ALU division).
    let mut sum = Accum::new();
    for &d in delta.iter() {
        sum.add_fx(d);
    }
    eng.stats.pe_adds += (w * h) as u64;
    eng.tick_idle(((w * h).div_ceil(eng.cfg.pe_count())) as u64);
    let mean_delta = sum.mean(w * h);
    eng.stats.alu_divs += 1;
    eng.tick_idle(1);

    // Pass 4: O = v / max(mean(δ), δ) in the ALU, flushed per block.
    for (j, vj) in v.chunks_exact(w * h).enumerate() {
        for (origin, active) in blocks((w, h), pe_dims) {
            let (aw, ah) = active;
            vals.clear();
            for py in 0..ah {
                for px in 0..aw {
                    let (x, y) = (origin.0 + px, origin.1 + py);
                    let d = mean_delta.max(delta[y * w + x]);
                    let vv = eng.nbout_value(STAGE_V_DIVIDE, (x, y), vj[y * w + x])?;
                    vals.push(if d == Fx::ZERO { vv } else { vv / d });
                }
            }
            eng.stats.nbout.read((aw * ah * 2) as u64);
            eng.stats.alu_divs += (aw * ah) as u64;
            eng.tick_idle(eng.alu.cycles_for(aw * ah).max(1));
            eng.nbout.write_block(j, origin, active, vals, eng.stats);
        }
    }
    Ok(())
}
