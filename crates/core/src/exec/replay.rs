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
//! The modeled cost of the paper's `Px×Py` block tiling (§5–§6) and of
//! the Figs. 15–16 normalization sub-layer passes comes wholly from the
//! schedule, so the host arithmetic need not follow it: conv, pool, LRN
//! and LCN replay one whole output row per lane sweep, and only the
//! classifier still accumulates on the real PE mesh. Every output pixel
//! receives the same exact integer sum the instrumented path folds per
//! cycle, so outputs are bit-identical by construction (see the
//! bit-identity contract in [`super::values`]).
//!
//! Multi-map-packed convolutions ([`crate::schedule::layer_replayable`])
//! always live-decode in `accel.rs`. Under an active fault plan so do
//! normalization layers (their staged NBout re-reads are priced only
//! live, [`crate::schedule::layer_overlayable`]) and layers whose fault
//! overlay detects an uncorrectable error (which must abort at the exact
//! live access, with exact partial statistics).

use super::values::{classifier_dot_raw, sum_to_raw, LaneKernel, ValueKernel};
use super::{bias_addr, conv_weight_addr, fc_weight_addr, Engine, NormScratch, Scratch};
use crate::accel::RunError;
use crate::alu::Alu;
use crate::buffer::EmptyBufferError;
use crate::hfsm::FirstState;
use crate::sb::SynapseStore;
use crate::schedule::{patch_fx, LayerSchedule};
use crate::stats::LayerStats;
use core::mem;
use shidiannao_cnn::{
    Activation, ConnectionTable, FcWeights, Layer, LayerBody, LrnSpec, PoolKind, Rounding,
};
use shidiannao_fixed::{Accum, Fx};
use shidiannao_tensor::{FeatureMap, MapStack};

/// SB patches of the layer's fault overlay (empty on clean runs).
pub(crate) type SbPatches = [([u64; 3], u16)];

/// Replays one layer from its precompiled schedule. The caller has
/// already applied the overlay's NB patches to the input stack and
/// absorbed the overlay's fault-counter delta; bank-conflict folding
/// stays in the caller (shared with the live path).
///
/// With `compute` false the layer is *charge-only*: the HFSM entry, the
/// recorded statistics and the FIFO peaks are charged exactly as below,
/// but no value is computed and NBout is not touched — the layer's
/// output was computed elsewhere (a shared strip prefix, see
/// [`prefix`]).
pub(crate) fn run_layer(
    eng: &mut Engine<'_>,
    layer: &Layer,
    sched: &LayerSchedule,
    sb_patches: &SbPatches,
    compute: bool,
) -> Result<(), RunError> {
    debug_assert!(sched.replayable(), "non-replayable layer reached replay");
    let state = match layer.body() {
        LayerBody::Conv { .. } => FirstState::Conv,
        LayerBody::Pool { .. } => FirstState::Pool,
        LayerBody::Fc { .. } => FirstState::Classifier,
        LayerBody::Lrn(_) | LayerBody::Lcn { .. } => FirstState::Norm,
    };
    eng.hfsm.enter(state)?;
    if compute {
        values(eng, layer, sb_patches)?;
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

/// Computes a replayed layer's output values into NBout.
fn values(eng: &mut Engine<'_>, layer: &Layer, sb_patches: &SbPatches) -> Result<(), RunError> {
    let nbin = eng.nbin;
    let stack = nbin.contents().ok_or(EmptyBufferError {
        buffer: "NB (input role)",
    })?;
    // Metering discard for NBout writes: the real counters arrive
    // wholesale from the schedule.
    let mut meter = LayerStats::default();
    let mut write_row = |m: usize, y: usize, row: &[Fx]| {
        eng.nbout
            .write_block(m, (0, y), (row.len(), 1), row, &mut meter);
    };
    match layer.body() {
        LayerBody::Conv { .. } => {
            let conv = Conv::of(layer, eng.layer_index, eng.store).expect("a conv layer");
            for o in 0..layer.out_maps() {
                conv.map(stack, o, eng.alu, sb_patches, eng.scratch, |y, row| {
                    write_row(o, y, row)
                });
            }
        }
        LayerBody::Pool { .. } => {
            let pool = Pool::of(layer).expect("a pool layer");
            for (m, fm) in stack.iter().enumerate() {
                pool.map(fm, eng.alu, eng.scratch, |y, row| write_row(m, y, row));
            }
        }
        LayerBody::Lrn(spec) => lrn(stack, spec, eng.scratch, write_row),
        LayerBody::Lcn { gauss, .. } => lcn(stack, gauss, eng.alu, eng.scratch, write_row),
        LayerBody::Fc {
            weights,
            activation,
        } => fc(eng, layer, weights, *activation, sb_patches),
    }
    Ok(())
}

/// An i64 lane sum read out of a PE accumulator: one raw add into an
/// empty register, truncated and saturated to 16 bits.
fn lane_fx(sum: i64) -> Fx {
    let mut a = Accum::new();
    a.add_raw(sum);
    a.to_fx()
}

/// LRN replay (formula (3)): per output map and row, each lane sums the
/// exact squares `bits²` of its pixel over the clipped cross-map window
/// — the raw sum the live executor's square MACs fold — and the output
/// is `own / (k + α·s)`. Rows go to `sink(map, y, row)`.
fn lrn(
    stack: &MapStack<Fx>,
    spec: &LrnSpec,
    scratch: &mut Scratch,
    mut sink: impl FnMut(usize, usize, &[Fx]),
) {
    let maps = stack.len();
    let (w, h) = stack.map_dims();
    let half = spec.window_maps / 2;
    let (k, alpha) = (spec.k_fx(), spec.alpha_fx());
    let Scratch {
        vals, sums: lanes, ..
    } = scratch;
    for mi in 0..maps {
        let (lo, hi) = (mi.saturating_sub(half), (mi + half).min(maps - 1));
        for y in 0..h {
            lanes.clear();
            lanes.resize(w, 0);
            for fm in stack.iter().take(hi + 1).skip(lo) {
                for (l, &v) in lanes.iter_mut().zip(fm.row(y)) {
                    let b = i64::from(v.to_bits());
                    *l += b * b;
                }
            }
            vals.clear();
            vals.extend(
                lanes
                    .iter()
                    .zip(stack[mi].row(y))
                    .map(|(&s, &own)| own / (k + alpha * lane_fx(s))),
            );
            sink(mi, y, vals);
        }
    }
}

/// LCN replay (formulae (4)–(6)). An edge-clipped tap contributes
/// exactly nothing to the live executor's integer sums, so each input
/// map is zero-padded by half the window once and μ becomes a same-size
/// correlation summed over maps, on the conv body's lane kernel. The
/// squared `v = I − μ` overwrite the padded interiors for the second
/// correlation (the borders stay zero), δ is its PLA square root, and
/// `O = v / max(mean δ, δ)`, keeping `v` where that max is 0. Rows go to
/// `sink(map, y, row)`.
fn lcn(
    stack: &MapStack<Fx>,
    gauss: &FeatureMap<Fx>,
    alu: &Alu,
    scratch: &mut Scratch,
    mut sink: impl FnMut(usize, usize, &[Fx]),
) {
    let maps = stack.len();
    let (w, h) = stack.map_dims();
    let win = gauss.width();
    let half = win / 2;
    let pw = w + 2 * half;
    let plane = pw * (h + 2 * half);
    let kern = LaneKernel;
    let Scratch {
        vals,
        sums: lanes,
        norm,
        ..
    } = scratch;
    let NormScratch {
        mu, delta, padded, ..
    } = norm;
    // Where input row `y` sits inside a padded plane.
    let interior = |y: usize| (y + half) * pw + half..(y + half) * pw + half + w;
    // Meters the ALU root; the real counters come from the schedule.
    let mut meter = LayerStats::default();

    padded.clear();
    padded.resize(maps * plane, Fx::ZERO);
    for (fm, pj) in stack.iter().zip(padded.chunks_exact_mut(plane)) {
        for y in 0..h {
            pj[interior(y)].copy_from_slice(fm.row(y));
        }
    }
    // One output row of Σ_{j,p,q} ω(p,q)·P_j(x + p, y + q) into `lanes`.
    let correlate = |y: usize, padded: &[Fx], lanes: &mut Vec<i64>| {
        lanes.clear();
        lanes.resize(w, 0);
        for pj in padded.chunks_exact(plane) {
            for q in 0..win {
                let row = &pj[(y + q) * pw..(y + q + 1) * pw];
                for p in 0..win {
                    kern.shifted_mac(&row[p..], 1, gauss[(p, q)], lanes);
                }
            }
        }
    };

    mu.clear();
    for y in 0..h {
        correlate(y, padded, lanes);
        mu.extend(lanes.iter().map(|&s| lane_fx(s)));
    }
    for (fm, pj) in stack.iter().zip(padded.chunks_exact_mut(plane)) {
        for y in 0..h {
            let mu_row = &mu[y * w..(y + 1) * w];
            for ((sq, &i), &m) in pj[interior(y)].iter_mut().zip(fm.row(y)).zip(mu_row) {
                *sq = (i - m).squared();
            }
        }
    }
    delta.clear();
    for y in 0..h {
        correlate(y, padded, lanes);
        vals.clear();
        vals.extend(lanes.iter().map(|&s| lane_fx(s)));
        let _ = alu.sqrt(vals, &mut meter);
        delta.extend_from_slice(vals);
    }
    let mut sum = Accum::new();
    for &d in delta.iter() {
        sum.add_fx(d);
    }
    let mean = sum.mean(w * h);
    for (j, fm) in stack.iter().enumerate() {
        for y in 0..h {
            let rows = fm.row(y).iter().zip(&mu[y * w..(y + 1) * w]);
            vals.clear();
            vals.extend(rows.zip(&delta[y * w..(y + 1) * w]).map(|((&i, &m), &d)| {
                let (v, d) = (i - m, mean.max(d));
                if d == Fx::ZERO {
                    v
                } else {
                    v / d
                }
            }));
            sink(j, y, vals);
        }
    }
}

/// A conv layer's value body, shared by replay and the strip prefix.
struct Conv<'a> {
    store: &'a SynapseStore,
    layer_index: usize,
    table: &'a ConnectionTable,
    kernel: (usize, usize),
    stride: (usize, usize),
    activation: Activation,
}

impl<'a> Conv<'a> {
    /// The conv body of network layer `index`, or `None` for other kinds.
    fn of(layer: &'a Layer, index: usize, store: &'a SynapseStore) -> Option<Conv<'a>> {
        match layer.body() {
            LayerBody::Conv {
                table,
                kernel,
                stride,
                activation,
                ..
            } => Some(Conv {
                store,
                layer_index: index,
                table,
                kernel: *kernel,
                stride: *stride,
                activation: *activation,
            }),
            _ => None,
        }
    }

    /// Output map `o` over `stack` (of any width), one lane sweep per
    /// output row; each activated row goes to `sink(y, row)`.
    /// Bit-identical to the window sweep: each output pixel's
    /// accumulator receives `bias` plus one raw add of the exact i64 sum
    /// of all its `(j, ky, kx)` products, and integer adds re-associate
    /// exactly. Clean runs borrow each kernel straight out of the SB
    /// image; a fault overlay stages the map's kernels once, patched.
    /// Output dimensions over an input of `(w, h)`: the layer's own
    /// `out_dims()` at the region's size, a strip's at a wider one.
    fn out_dims(&self, (w, h): (usize, usize)) -> (usize, usize) {
        let (kx, ky) = self.kernel;
        ((w - kx) / self.stride.0 + 1, (h - ky) / self.stride.1 + 1)
    }

    fn map(
        &self,
        stack: &MapStack<Fx>,
        o: usize,
        alu: &Alu,
        patches: &SbPatches,
        scratch: &mut Scratch,
        mut sink: impl FnMut(usize, &[Fx]),
    ) {
        let (kx_max, ky_max) = self.kernel;
        let (sx, sy) = self.stride;
        let (ow, oh) = self.out_dims(stack.map_dims());
        let ksz = kx_max * ky_max;
        let (store, li) = (self.store, self.layer_index);
        let kern = LaneKernel;
        let Scratch {
            vals,
            values: weights,
            sums: lanes,
            ..
        } = scratch;
        // Metering discard: the epilogue charges its statistics here; the
        // real counters arrive wholesale from the schedule.
        let mut meter = LayerStats::default();

        let bias = patch_fx(patches, bias_addr(o), store.bias(li, o));
        let inputs = self.table.inputs_of(o);
        if !patches.is_empty() {
            weights.clear();
            for j in 0..inputs.len() {
                for ky in 0..ky_max {
                    for kx in 0..kx_max {
                        let w = store.conv_weight(li, o, j, (kx, ky), self.kernel);
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
                    store.conv_kernel(li, o, j, self.kernel)
                } else {
                    &weights[j * ksz..(j + 1) * ksz]
                };
                let fm = &stack[im];
                for ky in 0..ky_max {
                    let row = fm.row(y * sy + ky);
                    for (kx, &k) in wts[ky * kx_max..(ky + 1) * kx_max].iter().enumerate() {
                        kern.shifted_mac(&row[kx..], sx, k, lanes);
                    }
                }
            }
            vals.clear();
            for &l in lanes.iter() {
                let mut a = Accum::from_fx(bias);
                a.add_raw(l);
                vals.push(a.to_fx());
            }
            let _ = alu.activate(vals, self.activation, &mut meter);
            sink(y, vals);
        }
    }
}

/// A pooling layer's value body, shared by replay and the strip prefix.
struct Pool {
    window: (usize, usize),
    stride: (usize, usize),
    kind: PoolKind,
    rounding: Rounding,
    activation: Activation,
}

impl Pool {
    /// The pooling body of `layer`, or `None` for other kinds.
    fn of(layer: &Layer) -> Option<Pool> {
        match layer.body() {
            LayerBody::Pool {
                window,
                stride,
                kind,
                rounding,
                activation,
            } => Some(Pool {
                window: *window,
                stride: *stride,
                kind: *kind,
                rounding: *rounding,
                activation: *activation,
            }),
            _ => None,
        }
    }

    /// Pools one input map (of any width), one output row at a time into
    /// `sink(y, row)`: the unclipped lane prefix of each row runs on the
    /// chunked lane kernel; lanes whose window clips at the right input
    /// edge reduce per pixel exactly like the mode (e) gather loop.
    /// Overlapping windows always fit (the window sweep reads them
    /// unclipped). Max and exact integer sums are order-independent, so
    /// results are bit-identical to the live pooling executor. Pooling
    /// uses no synapses, so the SB overlay never applies.
    /// Output dimensions over an input of `(w, h)`, by the layer's
    /// rounding.
    fn out_dims(&self, (w, h): (usize, usize)) -> (usize, usize) {
        let extent = |n, k, s| self.rounding.extent(n, k, s).unwrap_or(0);
        (
            extent(w, self.window.0, self.stride.0),
            extent(h, self.window.1, self.stride.1),
        )
    }

    fn map(
        &self,
        fm: &FeatureMap<Fx>,
        alu: &Alu,
        scratch: &mut Scratch,
        mut sink: impl FnMut(usize, &[Fx]),
    ) {
        let (window, stride) = (self.window, self.stride);
        let in_dims = fm.dims();
        let (ow, oh) = self.out_dims(in_dims);
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
        let Scratch {
            vals,
            sums: lanes,
            aux: cmps,
            ..
        } = scratch;
        let mut meter = LayerStats::default();

        for y in 0..oh {
            let y0 = y * stride.1;
            let ye = if overlapping {
                y0 + window.1
            } else {
                (y0 + window.1).min(in_dims.1)
            };
            vals.clear();
            match self.kind {
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
                    vals.extend_from_slice(cmps);
                }
                PoolKind::Avg => {
                    lanes.clear();
                    lanes.resize(n_unclip, 0);
                    if n_unclip > 0 {
                        for yy in y0..ye {
                            let row = fm.row(yy);
                            for wx in 0..window.0 {
                                kern.shifted_sum(&row[wx..], stride.0, lanes);
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
            let _ = alu.activate(vals, self.activation, &mut meter);
            sink(y, vals);
        }
    }
}

/// Evaluates a network's leading conv/pool `layers` over `strip` — the
/// network's input maps and height at any width — into `out`, with the
/// very bodies replay runs, so every output column equals the column a
/// region replay computes at the same offset. A conv followed by a pool
/// runs fused one map at a time: conv map `o` lands in a one-map scratch
/// and pools straight into map `o` of the next stage, so no conv-output
/// stack is ever held. Intermediate stages ping-pong between two
/// session-owned stacks.
pub(crate) fn prefix(
    layers: &[Layer],
    store: &SynapseStore,
    alu: &Alu,
    scratch: &mut Scratch,
    strip: &MapStack<Fx>,
    out: &mut MapStack<Fx>,
) {
    // `held` is the previous stage's output once `staged`; `free` is the
    // other stack's storage.
    let [mut held, mut free] = mem::take(&mut scratch.stages);
    let mut staged = false;
    let mut conv_out = scratch.conv_out.take();
    let mut i = 0;
    while i < layers.len() {
        let fused = matches!(layers[i].body(), LayerBody::Conv { .. })
            && matches!(
                layers.get(i + 1).map(Layer::body),
                Some(LayerBody::Pool { .. })
            );
        let span = 1 + usize::from(fused);
        let input = held.as_ref().filter(|_| staged).unwrap_or(strip);
        let unit = &layers[i..i + span];
        if i + span == layers.len() {
            stage(unit, i, input, out, &mut conv_out, store, alu, scratch);
        } else {
            let mut dst = free.take().unwrap_or_else(|| MapStack::new(1, 1));
            stage(unit, i, input, &mut dst, &mut conv_out, store, alu, scratch);
            free = held.replace(dst);
            staged = true;
        }
        i += span;
    }
    scratch.stages = [held, free];
    scratch.conv_out = conv_out;
}

/// A row sink that stores each row into `map`.
fn copy_row(map: &mut FeatureMap<Fx>) -> impl FnMut(usize, &[Fx]) + '_ {
    move |y, row| map.row_mut(y).copy_from_slice(row)
}

/// One prefix stage: a conv, a pool, or a conv fused with its pool
/// (`unit` holds network layers `index..`), from `input` into `dst`.
#[allow(clippy::too_many_arguments)]
fn stage(
    unit: &[Layer],
    index: usize,
    input: &MapStack<Fx>,
    dst: &mut MapStack<Fx>,
    conv_out: &mut Option<FeatureMap<Fx>>,
    store: &SynapseStore,
    alu: &Alu,
    scratch: &mut Scratch,
) {
    let first = &unit[0];
    if let Some(pool) = Pool::of(first) {
        let (w, h) = pool.out_dims(input.map_dims());
        dst.refill(w, h, input.len(), Fx::ZERO);
        for (m, fm) in input.iter().enumerate() {
            let target = dst.get_mut(m).expect("refilled to the input's maps");
            pool.map(fm, alu, scratch, copy_row(target));
        }
        return;
    }
    let conv = Conv::of(first, index, store).expect("prefix stages are conv or pool");
    let maps = first.out_maps();
    let (w, h) = conv.out_dims(input.map_dims());
    match unit.get(1).and_then(Pool::of) {
        Some(pool) => {
            let (pw, ph) = pool.out_dims((w, h));
            dst.refill(pw, ph, maps, Fx::ZERO);
            let conv_map = conv_out.get_or_insert_with(|| FeatureMap::filled(1, 1, Fx::ZERO));
            conv_map.refill(w, h, Fx::ZERO);
            for o in 0..maps {
                conv.map(input, o, alu, &[], scratch, copy_row(conv_map));
                let target = dst.get_mut(o).expect("refilled to the layer's maps");
                pool.map(conv_map, alu, scratch, copy_row(target));
            }
        }
        None => {
            dst.refill(w, h, maps, Fx::ZERO);
            for o in 0..maps {
                let target = dst.get_mut(o).expect("refilled to the layer's maps");
                conv.map(input, o, alu, &[], scratch, copy_row(target));
            }
        }
    }
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
