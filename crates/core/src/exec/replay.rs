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

/// Computes a replayed layer's output values into NBout: a dispatcher
/// that runs [`values_body`] compiled for AVX2 when the host has it, and
/// as compiled for the baseline target otherwise.
fn values(eng: &mut Engine<'_>, layer: &Layer, sb_patches: &SbPatches) -> Result<(), RunError> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, as checked on the line above.
        #[allow(unsafe_code)]
        return unsafe { values_avx2(eng, layer, sb_patches) };
    }
    values_body(eng, layer, sb_patches)
}

/// [`values_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn values_avx2(
    eng: &mut Engine<'_>,
    layer: &Layer,
    sb_patches: &SbPatches,
) -> Result<(), RunError> {
    values_body(eng, layer, sb_patches)
}

/// The one value body behind [`values`]. It and every layer body it
/// calls are `#[inline(always)]`, so each dispatch twin compiles its own
/// copy for its target. Every lane sum is an exact integer sum (the
/// contract in [`super::values`]), so the vector width the compiler
/// picks cannot change a bit of the output.
#[inline(always)]
fn values_body(
    eng: &mut Engine<'_>,
    layer: &Layer,
    sb_patches: &SbPatches,
) -> Result<(), RunError> {
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
#[inline(always)]
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
#[inline(always)]
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
    // A function, not a closure, so that it inlines into both dispatch
    // twins of `values` and compiles for each one's target.
    #[inline(always)]
    fn correlate(
        gauss: &FeatureMap<Fx>,
        padded: &[Fx],
        plane: usize,
        (w, pw): (usize, usize),
        y: usize,
        lanes: &mut Vec<i64>,
    ) {
        let win = gauss.width();
        lanes.clear();
        lanes.resize(w, 0);
        for pj in padded.chunks_exact(plane) {
            for q in 0..win {
                let row = &pj[(y + q) * pw..(y + q + 1) * pw];
                for p in 0..win {
                    LaneKernel.shifted_mac(&row[p..], 1, gauss[(p, q)], lanes);
                }
            }
        }
    }

    mu.clear();
    for y in 0..h {
        correlate(gauss, padded, plane, (w, pw), y, lanes);
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
        correlate(gauss, padded, plane, (w, pw), y, lanes);
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

    /// Output dimensions over an input of `(w, h)`: the layer's own
    /// `out_dims()` at the region's size, a strip's at a wider one.
    fn out_dims(&self, (w, h): (usize, usize)) -> (usize, usize) {
        let (kx, ky) = self.kernel;
        ((w - kx) / self.stride.0 + 1, (h - ky) / self.stride.1 + 1)
    }

    /// Output map `o` over `stack` (of any width), one lane sweep per
    /// output row; each activated row goes to `sink(y, row)`.
    /// Bit-identical to the window sweep: each output pixel's
    /// accumulator receives `bias` plus one raw add of the exact i64 sum
    /// of all its `(j, ky, kx)` products, and integer adds re-associate
    /// exactly. Clean runs borrow each kernel straight out of the SB
    /// image; a fault overlay stages the map's kernels once, patched.
    #[inline(always)]
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

    /// Output dimensions over an input of `(w, h)`, by the layer's
    /// rounding.
    fn out_dims(&self, (w, h): (usize, usize)) -> (usize, usize) {
        let extent = |n, k, s| self.rounding.extent(n, k, s).unwrap_or(0);
        (
            extent(w, self.window.0, self.stride.0),
            extent(h, self.window.1, self.stride.1),
        )
    }

    /// Pools one input map (of any width), one output row at a time into
    /// `sink(y, row)`: the unclipped lane prefix of each row runs on the
    /// chunked lane kernel; lanes whose window clips at the right input
    /// edge reduce per pixel exactly like the mode (e) gather loop.
    /// Overlapping windows always fit (the window sweep reads them
    /// unclipped). Max and exact integer sums are order-independent, so
    /// results are bit-identical to the live pooling executor. Pooling
    /// uses no synapses, so the SB overlay never applies.
    #[inline(always)]
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

/// Evaluates a network's leading conv/pool `layers` over a strip — the
/// network's input maps at any width — into `out`, with the very bodies
/// replay runs, so every output column equals the column a region replay
/// computes at the same offset. A conv followed by a pool runs fused one
/// map at a time: conv map `o` lands in a one-map scratch and pools
/// straight into map `o` of the next stage, so no conv-output stack is
/// ever held.
///
/// The strip *rolls*. Each stage's input lives in a session-owned stack
/// (`scratch.stages`) that holds the rows it carried from the previous
/// strip, then its new rows. A fresh strip (`continues` false) carries
/// nothing: `rows` is the whole region-height band and every stage runs
/// over all of it. A continued strip's `rows` are only the input rows
/// below the previous strip's; each stage carries the rows its next
/// output row starts at ([`carry`]), computes only its new output rows,
/// and `out` keeps its last rows above them, so `out` again holds the
/// current strip's full output. The caller checks that a continuation
/// fits ([`crate::PreparedNetwork::prefix_rolls`]). Dispatches like
/// [`values`]: [`prefix_body`] compiled for AVX2 when the host has it,
/// for the baseline otherwise.
pub(crate) fn prefix(
    layers: &[Layer],
    store: &SynapseStore,
    alu: &Alu,
    scratch: &mut Scratch,
    rows: &MapStack<Fx>,
    continues: bool,
    out: &mut MapStack<Fx>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, as checked on the line above.
        #[allow(unsafe_code)]
        return unsafe { prefix_avx2(layers, store, alu, scratch, rows, continues, out) };
    }
    prefix_body(layers, store, alu, scratch, rows, continues, out)
}

/// [`prefix_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn prefix_avx2(
    layers: &[Layer],
    store: &SynapseStore,
    alu: &Alu,
    scratch: &mut Scratch,
    rows: &MapStack<Fx>,
    continues: bool,
    out: &mut MapStack<Fx>,
) {
    prefix_body(layers, store, alu, scratch, rows, continues, out)
}

/// The one strip body behind [`prefix`] (see [`values_body`]).
#[inline(always)]
fn prefix_body(
    layers: &[Layer],
    store: &SynapseStore,
    alu: &Alu,
    scratch: &mut Scratch,
    rows: &MapStack<Fx>,
    continues: bool,
    out: &mut MapStack<Fx>,
) {
    let mut stages = mem::take(&mut scratch.stages);
    let mut conv_out = scratch.conv_out.take();
    let keep = |unit: &[Layer]| if continues { carry(unit) } else { 0 };
    let count = units(layers).count();
    if stages.len() < count {
        stages.resize_with(count, || MapStack::new(1, 1));
    }
    // Stage 0's new rows are the caller's.
    let mut pending = units(layers).enumerate().peekable();
    if let Some((_, (_, first))) = pending.peek() {
        let at = keep(first);
        roll(&mut stages[0], at, rows.map_dims(), rows.len());
        for (src, dst) in rows.iter().zip(stages[0].iter_mut()) {
            for y in 0..rows.height() {
                dst.row_mut(at + y).copy_from_slice(src.row(y));
            }
        }
    }
    // A continued strip's output keeps its rows above the new ones.
    let out_keep = match layers.last() {
        Some(last) if continues => last.out_dims().1 - rows.height() / y_stride(layers),
        _ => 0,
    };
    while let Some((s, (index, unit))) = pending.next() {
        let (input, rest) = stages[s..].split_first_mut().expect("one stack per stage");
        let (dst, at) = match pending.peek() {
            Some((_, (_, next))) => (&mut rest[0], keep(next)),
            None => (&mut *out, out_keep),
        };
        stage(
            unit,
            index,
            input,
            dst,
            at,
            &mut conv_out,
            store,
            alu,
            scratch,
        );
    }
    scratch.stages = stages;
    scratch.conv_out = conv_out;
}

/// The prefix's stages in order, each with its first network layer's
/// index: a conv fused with the pool that follows it, or one layer.
fn units(layers: &[Layer]) -> impl Iterator<Item = (usize, &[Layer])> {
    let mut i = 0;
    core::iter::from_fn(move || {
        let first = layers.get(i)?;
        let fused = matches!(first.body(), LayerBody::Conv { .. })
            && matches!(
                layers.get(i + 1).map(Layer::body),
                Some(LayerBody::Pool { .. })
            );
        let unit = (i, &layers[i..i + 1 + usize::from(fused)]);
        i = unit.0 + unit.1.len();
        Some(unit)
    })
}

/// The cumulative `y`-stride of conv/pool `layers` (other kinds step 1).
pub(crate) fn y_stride(layers: &[Layer]) -> usize {
    layers
        .iter()
        .map(|layer| match layer.body() {
            LayerBody::Conv { stride, .. } | LayerBody::Pool { stride, .. } => stride.1,
            _ => 1,
        })
        .product()
}

/// Input rows a rolling stage carries into the next strip: those from
/// its next output row's first input row on, `in_h − out_h · sy` at the
/// region's size. For a conv that is `ky − sy` (plus rows no output
/// reads); for a conv fused with its pool, `(wy − sy_pool)·sy_conv + ky −
/// sy_conv`.
fn carry(unit: &[Layer]) -> usize {
    let (first, last) = (&unit[0], &unit[unit.len() - 1]);
    first.in_dims().1 - last.out_dims().1 * y_stride(unit)
}

/// Readies `dst` for `h` new rows of `w` columns and `maps` maps after
/// the last `keep` rows it holds; `keep` 0 starts it afresh.
fn roll(dst: &mut MapStack<Fx>, keep: usize, (w, h): (usize, usize), maps: usize) {
    if keep == 0 {
        dst.refill(w, h, maps, Fx::ZERO);
    } else {
        dst.roll_rows(keep, keep + h, Fx::ZERO);
    }
}

/// A row sink that stores row `y` as row `at + y` of `map`.
fn copy_row(map: &mut FeatureMap<Fx>, at: usize) -> impl FnMut(usize, &[Fx]) + '_ {
    move |y, row| map.row_mut(at + y).copy_from_slice(row)
}

/// One prefix stage: a conv, a pool, or a conv fused with its pool
/// (`unit` holds network layers `index..`), from `input` into `dst` after
/// the `at` rows it keeps.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn stage(
    unit: &[Layer],
    index: usize,
    input: &MapStack<Fx>,
    dst: &mut MapStack<Fx>,
    at: usize,
    conv_out: &mut Option<FeatureMap<Fx>>,
    store: &SynapseStore,
    alu: &Alu,
    scratch: &mut Scratch,
) {
    let first = &unit[0];
    if let Some(pool) = Pool::of(first) {
        roll(dst, at, pool.out_dims(input.map_dims()), input.len());
        for (fm, target) in input.iter().zip(dst.iter_mut()) {
            pool.map(fm, alu, scratch, copy_row(target, at));
        }
        return;
    }
    let conv = Conv::of(first, index, store).expect("prefix stages are conv or pool");
    let maps = first.out_maps();
    let dims = conv.out_dims(input.map_dims());
    match unit.get(1).and_then(Pool::of) {
        Some(pool) => {
            roll(dst, at, pool.out_dims(dims), maps);
            let conv_map = conv_out.get_or_insert_with(|| FeatureMap::filled(1, 1, Fx::ZERO));
            conv_map.refill(dims.0, dims.1, Fx::ZERO);
            for (o, target) in dst.iter_mut().enumerate() {
                conv.map(input, o, alu, &[], scratch, copy_row(conv_map, 0));
                pool.map(conv_map, alu, scratch, copy_row(target, at));
            }
        }
        None => {
            roll(dst, at, dims, maps);
            for (o, target) in dst.iter_mut().enumerate() {
                conv.map(input, o, alu, &[], scratch, copy_row(target, at));
            }
        }
    }
}

/// Classifier replay: each PE's MAC stream is its weight row in
/// ascending index order — exactly the order the union-loop cursors
/// walk — over the mode (d)-flattened (and NB-patched) input.
#[inline(always)]
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

#[cfg(test)]
mod tests {
    //! The dispatch twins against the directly called bodies: on an AVX2
    //! host `values` and `prefix` run their AVX2-compiled twins, while a
    //! direct call of `values_body` or `prefix_body` is compiled into
    //! this (baseline-target) test, so each case runs one source body
    //! under both code generations and compares every output bit.

    use super::*;
    use crate::buffer::{NeuronBuffer, SynapseBuffer};
    use crate::config::AcceleratorConfig;
    use crate::exec::values::ScalarKernel;
    use crate::hfsm::Hfsm;
    use crate::nfu::Nfu;
    use shidiannao_cnn::{ConvSpec, FcSpec, LcnSpec, Network, NetworkBuilder, PoolSpec};
    use shidiannao_faults::FaultState;

    /// `true` when the dispatchers run their AVX2 twins on this host;
    /// otherwise both sides of every comparison are one baseline body.
    fn avx2_twins() -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return true;
        }
        eprintln!("skipped: no AVX2 on this host, so only the baseline body exists");
        false
    }

    /// Deterministic 16-bit values, with `i16::MIN` and `i16::MAX` mixed
    /// in at fixed positions.
    fn values_from(seed: u64, n: usize) -> Vec<Fx> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match i % 11 {
                    0 => Fx::MIN,
                    6 => Fx::MAX,
                    _ => Fx::from_bits(x as i16),
                }
            })
            .collect()
    }

    fn map_of(w: usize, h: usize, seed: u64) -> FeatureMap<Fx> {
        let v = values_from(seed, w * h);
        FeatureMap::from_fn(w, h, |x, y| v[y * w + x])
    }

    fn stack_of(maps: usize, (w, h): (usize, usize), seed: u64) -> MapStack<Fx> {
        MapStack::from_fn(w, h, maps, |m| map_of(w, h, seed + m as u64))
    }

    /// Runs a conv/pool-only network over `input` through [`prefix`]
    /// (`twin`) or the directly called [`prefix_body`].
    fn strip(net: &Network, input: &MapStack<Fx>, twin: bool) -> MapStack<Fx> {
        let store = SynapseStore::load(net, 1 << 22).expect("fits");
        let alu = Alu::new(AcceleratorConfig::paper().alu_lanes);
        let mut scratch = Scratch::default();
        let mut out = MapStack::new(1, 1);
        if twin {
            prefix(
                net.layers(),
                &store,
                &alu,
                &mut scratch,
                input,
                false,
                &mut out,
            );
        } else {
            prefix_body(
                net.layers(),
                &store,
                &alu,
                &mut scratch,
                input,
                false,
                &mut out,
            );
        }
        out
    }

    /// Runs layer 0 of `net` over `input` through [`values`] (`twin`) or
    /// the directly called [`values_body`], and returns NBout.
    fn layer(net: &Network, input: &MapStack<Fx>, patches: &SbPatches, twin: bool) -> MapStack<Fx> {
        let cfg = AcceleratorConfig::paper();
        let store = SynapseStore::load(net, 1 << 22).expect("fits");
        let mut nbin = NeuronBuffer::new(cfg.pe_cols, cfg.pe_rows, 1 << 22);
        nbin.load_from(input).expect("fits");
        let mut nbout = NeuronBuffer::new(cfg.pe_cols, cfg.pe_rows, 1 << 22);
        let first = &net.layers()[0];
        let (w, h) = first.out_dims();
        nbout.begin_output(w, h, first.out_maps()).expect("fits");
        let (sb, alu) = (SynapseBuffer::new(1 << 22), Alu::new(cfg.alu_lanes));
        let mut nfu = Nfu::new(cfg.pe_cols, cfg.pe_rows);
        let (mut hfsm, mut stats) = (Hfsm::new(), LayerStats::default());
        let (mut faults, mut scratch) = (FaultState::none(), Scratch::default());
        let mut eng = Engine {
            cfg: &cfg,
            nbin: &nbin,
            nbout: &mut nbout,
            sb: &sb,
            store: &store,
            layer_index: 0,
            nfu: &mut nfu,
            alu: &alu,
            hfsm: &mut hfsm,
            stats: &mut stats,
            faults: &mut faults,
            scratch: &mut scratch,
            recorder: None,
        };
        if twin {
            values(&mut eng, first, patches)
        } else {
            values_body(&mut eng, first, patches)
        }
        .expect("NBin is loaded");
        nbout.finish_output().expect("output begun")
    }

    /// A one-conv network whose kernels and biases carry `i16::MIN`;
    /// returns it with its kernels as `kernels[o][j]`.
    fn conv_net(
        maps: usize,
        out_maps: usize,
        k: usize,
        stride: usize,
        in_dims: (usize, usize),
    ) -> (Network, Vec<Vec<FeatureMap<Fx>>>) {
        let spec = ConvSpec::new(out_maps, (k, k))
            .with_stride((stride, stride))
            .with_activation(Activation::None);
        let mut net = NetworkBuilder::new("conv", maps, in_dims)
            .conv(spec)
            .build(1)
            .expect("valid conv");
        let LayerBody::Conv { table, .. } = net.layers()[0].body() else {
            unreachable!("built a conv layer")
        };
        let table = table.clone();
        let mut kernels = Vec::new();
        for o in 0..out_maps {
            let mut row = Vec::new();
            for j in 0..table.inputs_of(o).len() {
                let kernel = map_of(k, k, 100 + (o * maps + j) as u64);
                net.set_conv_kernel(0, o, j, kernel.clone()).expect("fits");
                row.push(kernel);
            }
            let bias = if o % 2 == 0 {
                Fx::MIN
            } else {
                Fx::from_bits(77)
            };
            net.set_conv_bias(0, o, bias).expect("fits");
            kernels.push(row);
        }
        (net, kernels)
    }

    #[test]
    fn conv_twins_match_each_other_and_the_scalar_oracle() {
        if !avx2_twins() {
            return;
        }
        for (maps, out_maps, k, stride) in [(1, 2, 3, 1), (3, 4, 5, 1), (2, 3, 3, 2), (4, 2, 2, 2)]
        {
            for ow in 1..=40 {
                let oh = 3;
                let dims = ((ow - 1) * stride + k, (oh - 1) * stride + k);
                let (net, kernels) = conv_net(maps, out_maps, k, stride, dims);
                let input = stack_of(maps, dims, ow as u64);
                let case = format!("maps={maps} k={k} stride={stride} ow={ow}");
                let got = strip(&net, &input, true);
                assert_eq!(got, strip(&net, &input, false), "{case}");
                let LayerBody::Conv { table, .. } = net.layers()[0].body() else {
                    unreachable!("built a conv layer")
                };
                let store = SynapseStore::load(&net, 1 << 22).expect("fits");
                for (o, kernels) in kernels.iter().enumerate() {
                    for y in 0..oh {
                        let mut lanes = vec![0i64; ow];
                        for (kernel, &im) in kernels.iter().zip(table.inputs_of(o)) {
                            for ky in 0..k {
                                let row = input[im].row(y * stride + ky);
                                for kx in 0..k {
                                    let w = kernel[(kx, ky)];
                                    ScalarKernel.shifted_mac(&row[kx..], stride, w, &mut lanes);
                                }
                            }
                        }
                        let want: Vec<Fx> = lanes
                            .iter()
                            .map(|&l| {
                                let mut a = Accum::from_fx(store.bias(0, o));
                                a.add_raw(l);
                                a.to_fx()
                            })
                            .collect();
                        assert_eq!(got[o].row(y), want, "{case} o={o} y={y}");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_twins_match_with_and_without_right_edge_clipping() {
        if !avx2_twins() {
            return;
        }
        let specs = [
            PoolSpec::max((2, 2)),
            PoolSpec::avg((2, 2)),
            PoolSpec::max((3, 3)).with_ceil(),
            PoolSpec::avg((3, 3)).with_ceil(),
            PoolSpec::max((3, 3)).with_stride((2, 2)),
            PoolSpec::avg((3, 3)).with_stride((2, 2)),
        ];
        for spec in specs {
            for w in 3..=41 {
                let net = NetworkBuilder::new("pool", 2, (w, 7))
                    .pool(spec)
                    .build(1)
                    .expect("valid pool");
                let input = stack_of(2, (w, 7), w as u64);
                let (got, want) = (strip(&net, &input, true), strip(&net, &input, false));
                assert_eq!(got, want, "{spec:?} w={w}");
            }
        }
    }

    #[test]
    fn fused_conv_pool_strip_twins_match() {
        if !avx2_twins() {
            return;
        }
        for w in [8, 13, 21, 40] {
            let net = NetworkBuilder::new("strip", 2, (w, 12))
                .conv(ConvSpec::new(3, (3, 3)))
                .pool(PoolSpec::max((2, 2)))
                .conv(ConvSpec::new(2, (3, 3)))
                .build(5)
                .expect("valid strip");
            let input = stack_of(2, (w, 12), w as u64);
            assert_eq!(
                strip(&net, &input, true),
                strip(&net, &input, false),
                "w={w}"
            );
        }
    }

    #[test]
    fn rolled_strip_twins_match() {
        if !avx2_twins() {
            return;
        }
        // C1/S2 steps 2 input rows per output row and carries 2; C3
        // carries 2 of S2's rows; the strip outputs 3 rows.
        let net = NetworkBuilder::new("roll", 2, (9, 12))
            .conv(ConvSpec::new(3, (3, 3)))
            .pool(PoolSpec::max((2, 2)))
            .conv(ConvSpec::new(2, (3, 3)))
            .build(5)
            .expect("valid strip");
        let store = SynapseStore::load(&net, 1 << 22).expect("fits");
        let alu = Alu::new(AcceleratorConfig::paper().alu_lanes);
        let (mut twin, mut body) = (Scratch::default(), Scratch::default());
        let (mut twin_out, mut body_out) = (MapStack::new(1, 1), MapStack::new(1, 1));
        for (i, h) in [12, 2, 4, 6, 2].into_iter().enumerate() {
            let rows = stack_of(2, (21, h), i as u64);
            let continues = i > 0;
            prefix(
                net.layers(),
                &store,
                &alu,
                &mut twin,
                &rows,
                continues,
                &mut twin_out,
            );
            let out = &mut body_out;
            prefix_body(net.layers(), &store, &alu, &mut body, &rows, continues, out);
            assert_eq!(twin_out, body_out, "strip {i}");
        }
    }

    #[test]
    fn patched_conv_twins_match() {
        if !avx2_twins() {
            return;
        }
        let (net, _) = conv_net(2, 3, 3, 1, (19, 6));
        let input = stack_of(2, (19, 6), 9);
        let patches = [
            (conv_weight_addr(1, 0, (1, 2)), 0x8000),
            (bias_addr(2), 0x7fff),
        ];
        let got = layer(&net, &input, &patches, true);
        assert_eq!(got, layer(&net, &input, &patches, false));
        assert_ne!(
            got,
            layer(&net, &input, &[], true),
            "the patches change values"
        );
    }

    #[test]
    fn normalization_twins_match() {
        if !avx2_twins() {
            return;
        }
        for (maps, w) in [(1, 1), (3, 7), (5, 9), (6, 17), (4, 33)] {
            for window_maps in [1, 3, 5] {
                let net = NetworkBuilder::new("lrn", maps, (w, 5))
                    .lrn(LrnSpec {
                        window_maps,
                        k: 2.0,
                        alpha: 0.25,
                    })
                    .build(1)
                    .expect("valid lrn");
                let input = stack_of(maps, (w, 5), w as u64);
                let got = layer(&net, &input, &[], true);
                assert_eq!(
                    got,
                    layer(&net, &input, &[], false),
                    "lrn maps={maps} w={w}"
                );
            }
            for window in [3, 5].into_iter().filter(|&win| win <= w) {
                let net = NetworkBuilder::new("lcn", maps, (w, 6))
                    .lcn(LcnSpec::new(window))
                    .build(1)
                    .expect("valid lcn");
                let input = stack_of(maps, (w, 6), w as u64);
                let got = layer(&net, &input, &[], true);
                assert_eq!(
                    got,
                    layer(&net, &input, &[], false),
                    "lcn maps={maps} w={w}"
                );
            }
        }
    }

    #[test]
    fn classifier_twins_match_on_dense_and_sparse_rows() {
        if !avx2_twins() {
            return;
        }
        for (maps, dims, outs, per_output) in [
            (3, (5, 7), 70, None),
            (1, (1, 1), 3, None),
            (2, (4, 4), 9, Some(5)),
            (4, (6, 5), 130, Some(37)),
        ] {
            let mut spec = FcSpec::new(outs);
            if let Some(count) = per_output {
                spec = spec.with_synapses_per_output(count);
            }
            let mut net = NetworkBuilder::new("fc", maps, dims)
                .fc(spec)
                .build(3)
                .expect("valid fc");
            let LayerBody::Fc { weights, .. } = net.layers()[0].body() else {
                unreachable!("built a classifier")
            };
            let lens: Vec<usize> = (0..outs).map(|n| weights.row(n).len()).collect();
            for (n, len) in lens.into_iter().enumerate() {
                let row = values_from(300 + n as u64, len);
                net.set_fc_row(0, n, &row, row[len / 2]).expect("fits");
            }
            let input = stack_of(maps, dims, 17);
            let got = layer(&net, &input, &[], true);
            assert_eq!(got, layer(&net, &input, &[], false), "fc outs={outs}");
        }
    }
}
