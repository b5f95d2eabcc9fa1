//! The schedule-replay executor: runs a layer whose control stream was
//! precompiled at `prepare()` time.
//!
//! The live executors spend most of their time *re-deriving* the static
//! control sequence — HFSM transitions, NB read-mode selection, address
//! arithmetic, per-access fault filtering, per-cycle statistics. Replay
//! skips all of it: the layer's complete [`LayerStats`] delta is
//! absorbed from the schedule in one call, silent-fault decisions were
//! resolved ahead of time into an overlay (NB cells pre-patched in the
//! input stack, SB words patched at fetch below), and only the
//! arithmetic that actually produces neuron values runs.
//!
//! The modeled cost of the paper's `Px×Py` block tiling (§5–§6) comes
//! wholly from the schedule, so the host arithmetic need not follow it:
//! conv and pool replay one whole output row per lane-kernel sweep, and
//! only the classifier still accumulates on the real PE mesh. Every
//! output pixel receives the same exact integer sum the instrumented
//! path folds per cycle, so outputs are bit-identical by construction
//! (see the bit-identity contract in [`super::values`]).
//!
//! Layers the replay executor does not model — normalization layers and
//! multi-map-packed convolutions ([`crate::schedule::layer_replayable`])
//! — and layers whose fault overlay detects an uncorrectable error
//! (which must abort at the exact live access, with exact partial
//! statistics) fall back to live decode in `accel.rs`.

use super::values::{classifier_dot_raw, sum_to_raw, LaneKernel, ValueKernel};
use super::{bias_addr, conv_weight_addr, fc_weight_addr, Engine};
use crate::accel::RunError;
use crate::hfsm::FirstState;
use crate::schedule::{patch_fx, LayerSchedule};
use crate::stats::LayerStats;
use core::mem;
use shidiannao_cnn::Activation;
use shidiannao_cnn::{ConnectionTable, FcWeights, Layer, LayerBody, PoolKind};
use shidiannao_fixed::{Accum, Fx};

/// SB patches of the layer's fault overlay (empty on clean runs).
pub(crate) type SbPatches = [([u64; 3], u16)];

/// Replays one layer from its precompiled schedule. The caller has
/// already applied the overlay's NB patches to the input stack and
/// absorbed the overlay's fault-counter delta; bank-conflict folding
/// stays in the caller (shared with the live path).
pub(crate) fn run_layer(
    eng: &mut Engine<'_>,
    layer: &Layer,
    sched: &LayerSchedule,
    sb_patches: &SbPatches,
) -> Result<(), RunError> {
    debug_assert!(sched.replayable(), "non-replayable layer reached replay");
    match layer.body() {
        LayerBody::Conv {
            table,
            kernel,
            stride,
            activation,
            ..
        } => {
            eng.hfsm.enter(FirstState::Conv).expect("HFSM: conv entry");
            conv_rows(eng, layer, table, *kernel, *stride, *activation, sb_patches);
        }
        LayerBody::Pool {
            window,
            stride,
            kind,
            activation,
            ..
        } => {
            eng.hfsm.enter(FirstState::Pool).expect("HFSM: pool entry");
            pool_rows(eng, layer, *window, *stride, *kind, *activation);
        }
        LayerBody::Fc {
            weights,
            activation,
        } => {
            eng.hfsm
                .enter(FirstState::Classifier)
                .expect("HFSM: classifier entry");
            fc(eng, layer, weights, *activation, sb_patches);
        }
        LayerBody::Lrn(_) | LayerBody::Lcn { .. } => {
            unreachable!("non-replayable layer kind reached the replay executor")
        }
    }
    // The whole layer's statistics in one absorb (counter sums, FIFO
    // peak maxes — the recorded delta was captured before bank-conflict
    // folding, which the caller applies identically to both paths).
    eng.stats.absorb(&sched.stats);
    // Advance the mesh's monotone cumulative FIFO-peak trackers to the
    // recorded after-layer value, so any later *live*-decoded layer
    // folds the same cumulative peaks it would have seen live.
    let (h, v) = sched.fifo_peaks_after;
    eng.nfu.note_fifo_peaks(h as u32, v as u32);
    Ok(())
}

/// Convolution replay, one lane sweep per output row (`ow` lanes).
/// Bit-identical to the window sweep: each output pixel's accumulator
/// receives `bias` plus one raw add of the exact i64 sum of all its
/// `(j, ky, kx)` products, and integer adds re-associate exactly.
/// Clean runs borrow each kernel straight out of the SB image; a fault
/// overlay stages the map's kernels once, patched.
fn conv_rows(
    eng: &mut Engine<'_>,
    layer: &Layer,
    table: &ConnectionTable,
    kernel: (usize, usize),
    stride: (usize, usize),
    activation: Activation,
    patches: &SbPatches,
) {
    let (ow, oh) = layer.out_dims();
    let (kx_max, ky_max) = kernel;
    let ksz = kx_max * ky_max;
    let (sx, sy) = stride;
    let layer_index = eng.layer_index;
    let store = eng.store;
    let stack = eng.nbin.contents().expect("session loaded the input");
    let kern = LaneKernel;
    let mut vals = mem::take(&mut eng.scratch.vals);
    let mut weights = mem::take(&mut eng.scratch.values);
    let mut lanes = mem::take(&mut eng.scratch.sums);
    // Metering discard: the epilogue helpers charge their statistics
    // here; the real counters arrive wholesale from the schedule.
    let mut meter = LayerStats::default();

    for o in 0..layer.out_maps() {
        let bias = patch_fx(patches, bias_addr(o), store.bias(layer_index, o));
        let inputs = table.inputs_of(o);
        if !patches.is_empty() {
            weights.clear();
            for j in 0..inputs.len() {
                for ky in 0..ky_max {
                    for kx in 0..kx_max {
                        let w = store.conv_weight(layer_index, o, j, (kx, ky), kernel);
                        weights.push(patch_fx(patches, conv_weight_addr(o, j, (kx, ky)), w));
                    }
                }
            }
        }
        for y in 0..oh {
            lanes.clear();
            lanes.resize(ow, 0);
            for (j, &im) in inputs.iter().enumerate() {
                let wts = if patches.is_empty() {
                    store.conv_kernel(layer_index, o, j, kernel)
                } else {
                    &weights[j * ksz..(j + 1) * ksz]
                };
                let fm = &stack[im];
                for ky in 0..ky_max {
                    let row = fm.row(y * sy + ky);
                    for (kx, &k) in wts[ky * kx_max..(ky + 1) * kx_max].iter().enumerate() {
                        kern.shifted_mac(&row[kx..], sx, k, &mut lanes);
                    }
                }
            }
            vals.clear();
            for &l in &lanes {
                let mut a = Accum::from_fx(bias);
                a.add_raw(l);
                vals.push(a.to_fx());
            }
            let _ = eng.alu.activate(&mut vals, activation, &mut meter);
            eng.nbout.write_block(o, (0, y), (ow, 1), &vals, &mut meter);
        }
    }
    eng.scratch.vals = vals;
    eng.scratch.values = weights;
    eng.scratch.sums = lanes;
}

/// Pooling replay, one output row at a time: the unclipped lane prefix
/// of each row runs on the chunked lane kernel; lanes whose window
/// clips at the right input edge reduce per pixel exactly like the mode
/// (e) gather loop. Overlapping windows always fit (the window sweep
/// reads them unclipped). Max and exact integer sums are
/// order-independent, so results are bit-identical to the live pooling
/// executor. Pooling uses no synapses, so the SB overlay never applies.
fn pool_rows(
    eng: &mut Engine<'_>,
    layer: &Layer,
    window: (usize, usize),
    stride: (usize, usize),
    kind: PoolKind,
    activation: Activation,
) {
    let (ow, oh) = layer.out_dims();
    let in_dims = layer.in_dims();
    let overlapping = stride.0 < window.0 || stride.1 < window.1;
    // Lanes 0..n_unclip have full windows in x (monotone in the lane
    // index); overlapping windows always fit.
    let n_unclip = if overlapping {
        ow
    } else if in_dims.0 >= window.0 {
        ow.min((in_dims.0 - window.0) / stride.0 + 1)
    } else {
        0
    };
    let kern = LaneKernel;
    let mut vals = mem::take(&mut eng.scratch.vals);
    let mut lanes = mem::take(&mut eng.scratch.sums);
    let mut cmps = mem::take(&mut eng.scratch.aux);
    let mut meter = LayerStats::default();

    for m in 0..layer.out_maps() {
        let fm = &eng.nbin.contents().expect("session loaded the input")[m];
        for y in 0..oh {
            let y0 = y * stride.1;
            let ye = if overlapping {
                y0 + window.1
            } else {
                (y0 + window.1).min(in_dims.1)
            };
            vals.clear();
            match kind {
                PoolKind::Max => {
                    cmps.clear();
                    cmps.resize(ow, Fx::MIN);
                    if n_unclip > 0 {
                        for yy in y0..ye {
                            let row = fm.row(yy);
                            for wx in 0..window.0 {
                                kern.shifted_max(&row[wx..], stride.0, &mut cmps[..n_unclip]);
                            }
                        }
                    }
                    for (px, c) in cmps.iter_mut().enumerate().skip(n_unclip) {
                        let x0 = px * stride.0;
                        let xe = (x0 + window.0).min(in_dims.0);
                        for yy in y0..ye {
                            for &v in &fm.row(yy)[x0..xe] {
                                *c = (*c).max(v);
                            }
                        }
                    }
                    vals.extend_from_slice(&cmps);
                }
                PoolKind::Avg => {
                    lanes.clear();
                    lanes.resize(n_unclip, 0);
                    if n_unclip > 0 {
                        for yy in y0..ye {
                            let row = fm.row(yy);
                            for wx in 0..window.0 {
                                kern.shifted_sum(&row[wx..], stride.0, &mut lanes);
                            }
                        }
                    }
                    for px in 0..ow {
                        let x0 = px * stride.0;
                        let xe = (x0 + window.0).min(in_dims.0);
                        let mut a = Accum::from_fx(Fx::ZERO);
                        // Lanes cover the first `n_unclip` windows; the
                        // clipped tail recomputes directly.
                        if let Some(&sum) = lanes.get(px) {
                            a.add_raw(sum_to_raw(sum));
                        } else {
                            for yy in y0..ye {
                                for &v in &fm.row(yy)[x0..xe] {
                                    a.add_fx(v);
                                }
                            }
                        }
                        vals.push(a.mean((xe - x0) * (ye - y0)));
                    }
                }
            }
            let _ = eng.alu.activate(&mut vals, activation, &mut meter);
            eng.nbout.write_block(m, (0, y), (ow, 1), &vals, &mut meter);
        }
    }
    eng.scratch.vals = vals;
    eng.scratch.sums = lanes;
    eng.scratch.aux = cmps;
}

/// Classifier replay: each PE's MAC stream is its weight row in
/// ascending index order — exactly the order the union-loop cursors
/// walk — over the mode (d)-flattened (and NB-patched) input.
fn fc(
    eng: &mut Engine<'_>,
    layer: &Layer,
    weights: &FcWeights,
    activation: Activation,
    patches: &SbPatches,
) {
    let pe_count = eng.cfg.pe_count();
    let px = eng.cfg.pe_cols;
    let out_count = layer.out_maps();
    let layer_index = eng.layer_index;
    let mut flat = mem::take(&mut eng.scratch.values);
    let mut vals = mem::take(&mut eng.scratch.vals);
    let mut meter = LayerStats::default();

    // Flatten once per layer, in mode (d)'s flat addressing order
    // (map-major, row-major). NB patches were applied to the stack.
    flat.clear();
    for fm in eng
        .nbin
        .contents()
        .expect("session loaded the input")
        .iter()
    {
        flat.extend_from_slice(fm.as_slice());
    }

    for group_start in (0..out_count).step_by(pe_count) {
        let group_len = pe_count.min(out_count - group_start);
        for i in 0..group_len {
            let o = group_start + i;
            let bias = patch_fx(patches, bias_addr(o), eng.store.bias(layer_index, o));
            eng.nfu.pe_mut(i % px, i / px).reset_accumulator(bias);
        }

        let store = eng.store;
        for i in 0..group_len {
            let o = group_start + i;
            let row = weights.row(o);
            let wrow = store.fc_row(layer_index, o, row.len());
            if patches.is_empty() {
                // Clean run: one chunked-lane dot product per PE
                // (contiguous when the row is dense), landed in a single
                // raw add — bit-identical to the `mac` chain.
                let dot = classifier_dot_raw(&LaneKernel, &flat, row, wrow);
                eng.nfu.acc_mut(i % px, i / px).add_raw(dot);
            } else {
                // The live path filters each weight at its (row, slot)
                // SB-image coordinate — the slot is the cursor position,
                // i.e. the entry's index within the row.
                let acc = eng.nfu.acc_mut(i % px, i / px);
                for (slot, (&(idx, _), &w)) in row.iter().zip(wrow).enumerate() {
                    acc.mac(flat[idx], patch_fx(patches, fc_weight_addr(o, slot), w));
                }
            }
        }

        vals.clear();
        for i in 0..group_len {
            vals.push(eng.nfu.pe(i % px, i / px).accumulator());
        }
        let _ = eng.alu.activate(&mut vals, activation, &mut meter);
        eng.nbout.write_scalar_group(group_start, &vals, &mut meter);
    }
    eng.scratch.values = flat;
    eng.scratch.vals = vals;
}
