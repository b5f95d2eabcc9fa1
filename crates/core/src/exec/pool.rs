//! Pooling-layer executor (§8.2, Fig. 14).

use super::window::{blocks, run_pass, Pass};
use super::{Engine, WindowOp};
use crate::accel::RunError;
use core::mem;
use shidiannao_cnn::{Layer, LayerBody, PoolKind};
use shidiannao_fixed::Fx;

/// Executes a pooling layer.
///
/// In the common non-overlapping case (stride = window) "at each cycle,
/// each PE reads an input neuron (row-first and left-first in the pooling
/// window) from NBin (with Read Mode (e)); PEs do not mutually propagate
/// data because there is no data reuse between PEs". Overlapping pooling
/// "can be treated in a way similar to a convolutional layer, except that
/// there is no synapse" — it routes through the shared window sweep with
/// inter-PE propagation.
pub(super) fn run(eng: &mut Engine<'_>, layer: &Layer) -> Result<(), RunError> {
    let LayerBody::Pool {
        window,
        stride,
        kind,
        activation,
        ..
    } = layer.body()
    else {
        unreachable!("pool executor fed a non-pool layer");
    };
    let out_dims = layer.out_dims();
    let in_dims = layer.in_dims();
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);
    let overlapping = stride.0 < window.0 || stride.1 < window.1;

    for m in 0..layer.out_maps() {
        for (origin, active) in blocks(out_dims, pe_dims) {
            // Reset PE state for the new output neurons.
            for py in 0..active.1 {
                for px in 0..active.0 {
                    let i = eng.nfu.index(px, py);
                    match kind {
                        PoolKind::Max => eng.nfu.reset_comparator(i),
                        PoolKind::Avg => eng.nfu.reset_accumulator(i, Fx::ZERO),
                    }
                }
            }

            if overlapping {
                run_pass(
                    eng,
                    Pass {
                        map: m,
                        block: origin,
                        active,
                        kernel: *window,
                        stride: *stride,
                    },
                    match kind {
                        PoolKind::Max => WindowOp::Max,
                        PoolKind::Avg => WindowOp::Add,
                    },
                    |_, _, _| Ok(Fx::ZERO),
                )?;
            } else {
                // Fig. 14 flow: one gather per window element, mode (e).
                // The coordinate / lane / value buffers come from the
                // session's scratch arena so the steady-state loop stays
                // allocation-free.
                let mut coords = mem::take(&mut eng.scratch.coords);
                let mut lanes = mem::take(&mut eng.scratch.lanes);
                let mut vals = mem::take(&mut eng.scratch.values);
                let result = gather_windows(
                    eng,
                    m,
                    origin,
                    active,
                    *window,
                    *stride,
                    in_dims,
                    *kind,
                    &mut coords,
                    &mut lanes,
                    &mut vals,
                );
                eng.scratch.coords = coords;
                eng.scratch.lanes = lanes;
                eng.scratch.values = vals;
                result?;
            }

            // Epilogue: read out, divide (average) through the ALU, apply
            // the optional activation, flush the block.
            let mut vals = mem::take(&mut eng.scratch.vals);
            vals.clear();
            for py in 0..active.1 {
                for px in 0..active.0 {
                    let i = eng.nfu.index(px, py);
                    let v = match kind {
                        PoolKind::Max => eng.nfu.comparator(i),
                        PoolKind::Avg => {
                            let x0 = (origin.0 + px) * stride.0;
                            let y0 = (origin.1 + py) * stride.1;
                            let w = (x0 + window.0).min(in_dims.0) - x0;
                            let h = (y0 + window.1).min(in_dims.1) - y0;
                            eng.nfu.accumulator_mean(i, w * h)
                        }
                    };
                    vals.push(v);
                }
            }
            if *kind == PoolKind::Avg {
                // The mean read-out is the ALU division of formula (2)'s
                // average variant; charge the ops (latency overlaps the
                // next block, as for conv epilogues).
                eng.stats.alu_divs += vals.len() as u64;
            }
            let _ = eng.alu.activate(&mut vals, *activation, eng.stats);
            eng.tick_idle(1);
            eng.nbout.write_block(m, origin, active, &vals, eng.stats);
            eng.scratch.vals = vals;
        }
    }
    Ok(())
}

/// The non-overlapping gather loop, split out so the scratch buffers can
/// be restored even when a gather faults out with `?`.
#[allow(clippy::too_many_arguments)]
fn gather_windows(
    eng: &mut Engine<'_>,
    map: usize,
    origin: (usize, usize),
    active: (usize, usize),
    window: (usize, usize),
    stride: (usize, usize),
    in_dims: (usize, usize),
    kind: PoolKind,
    coords: &mut Vec<(usize, usize)>,
    lanes: &mut Vec<(usize, usize)>,
    vals: &mut Vec<Fx>,
) -> Result<(), RunError> {
    for wy in 0..window.1 {
        for wx in 0..window.0 {
            // PEs whose (ceiling-rounded) window is clipped at the input
            // edge idle on out-of-bounds elements.
            coords.clear();
            lanes.clear();
            for py in 0..active.1 {
                for px in 0..active.0 {
                    let x = (origin.0 + px) * stride.0 + wx;
                    let y = (origin.1 + py) * stride.1 + wy;
                    if x < in_dims.0 && y < in_dims.1 {
                        coords.push((x, y));
                        lanes.push((px, py));
                    }
                }
            }
            eng.nb_gather_into(map, coords, vals)?;
            for (&(px, py), &v) in lanes.iter().zip(vals.iter()) {
                let i = eng.nfu.index(px, py);
                match kind {
                    PoolKind::Max => {
                        eng.nfu.compare(i, v);
                        eng.stats.pe_cmps += 1;
                    }
                    PoolKind::Avg => {
                        eng.nfu.add(i, v);
                        eng.stats.pe_adds += 1;
                    }
                }
            }
            eng.tick(lanes.len());
        }
    }
    Ok(())
}
