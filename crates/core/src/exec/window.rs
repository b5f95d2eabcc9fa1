//! The shared sliding-window sweep engine (Fig. 13's dataflow).
//!
//! Convolutional layers and overlapping pooling layers share the same
//! access pattern: a `Px × Py` block of PEs sweeps a `Kx × Ky` window
//! row-major (`kx` fastest); fresh neurons enter at the rightmost PE
//! column (read mode (f)) or the bottom PE row (mode (c)), everything else
//! propagates through the FIFOs. This module implements one *window pass*
//! — one (output block × input map) sweep — exactly as the paper's Fig. 13
//! walkthrough prescribes.

use super::Engine;
use crate::accel::RunError;
use crate::hfsm::SecondState;
use core::mem;
use shidiannao_fixed::Fx;

/// What each PE does with the neuron it receives in a sweep cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WindowOp {
    /// Multiply by the broadcast kernel value and accumulate
    /// (convolution).
    Mac,
    /// Compare into the max register (max pooling).
    Max,
    /// Accumulate (average pooling / matrix sums).
    Add,
}

/// Geometry of one window pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pass {
    /// Input map index being swept.
    pub map: usize,
    /// Output-block origin in output coordinates `(ox0, oy0)`.
    pub block: (usize, usize),
    /// Active PE extent `(aw, ah)` — fewer than `Px × Py` at map edges.
    pub active: (usize, usize),
    /// Kernel / window `(Kx, Ky)`.
    pub kernel: (usize, usize),
    /// Stride `(Sx, Sy)`.
    pub stride: (usize, usize),
}

impl Pass {
    /// Input-space coordinate PE `(px, py)` needs at kernel offset
    /// `(kx, ky)`.
    #[inline]
    fn input_at(&self, px: usize, py: usize, kx: usize, ky: usize) -> (usize, usize) {
        (
            (self.block.0 + px) * self.stride.0 + kx,
            (self.block.1 + py) * self.stride.1 + ky,
        )
    }
}

/// Runs one window pass, feeding each active PE one neuron per cycle and
/// applying `op`. For [`WindowOp::Mac`], `kernel_value(eng, kx, ky)`
/// supplies the synapse broadcast from SB that cycle (the engine charges
/// the SB read; the closure routes the word through the fault filter).
///
/// Accumulation lives in the PEs. The per-cycle storage comes from the
/// session's scratch arena, so a steady-state sweep cycle allocates
/// nothing.
pub(crate) fn run_pass(
    eng: &mut Engine<'_>,
    pass: Pass,
    op: WindowOp,
    mut kernel_value: impl FnMut(&mut Engine<'_>, usize, usize) -> Result<Fx, RunError>,
) -> Result<(), RunError> {
    let mut values = mem::take(&mut eng.scratch.values);
    let mut aux = mem::take(&mut eng.scratch.aux);
    let result = sweep(eng, pass, op, &mut kernel_value, &mut values, &mut aux);
    eng.scratch.values = values;
    eng.scratch.aux = aux;
    result
}

// Kept out of line: inlined into the generic conv/pool pass loops it ran
// measurably slower (`prepare()`'s recording run, which is this loop,
// took ~10% longer on a 2-core x86-64 VM).
#[inline(never)]
fn sweep(
    eng: &mut Engine<'_>,
    pass: Pass,
    op: WindowOp,
    kernel_value: &mut impl FnMut(&mut Engine<'_>, usize, usize) -> Result<Fx, RunError>,
    values: &mut Vec<Fx>,
    aux: &mut Vec<Fx>,
) -> Result<(), RunError> {
    let (aw, ah) = pass.active;
    let (kx_max, ky_max) = pass.kernel;
    let (sx, sy) = pass.stride;
    let propagate = eng.cfg.inter_pe_propagation;

    // Window-pass boundary: stale FIFO-V (and FIFO-H) contents from the
    // previous pass are discarded, and the phase ring advances.
    if eng.hfsm.second() != SecondState::Init {
        eng.hfsm
            .step(SecondState::NextWindow)
            .expect("HFSM: next window");
    }
    eng.nfu.set_fifo_depths(sx, sy);
    eng.nfu.clear_fifos_v();

    for ky in 0..ky_max {
        // Kernel-row boundary: FIFO-H keeps only values of the current row.
        eng.nfu.clear_fifos_h();
        for kx in 0..kx_max {
            // Values received this cycle, row-major over the active block.
            if !propagate {
                // Fig. 7 ablation: every PE re-reads from NBin each cycle.
                eng.nb_tile_into(
                    pass.map,
                    pass.input_at(0, 0, kx, ky),
                    (aw, ah),
                    (sx, sy),
                    values,
                )?;
            } else if kx == 0 && ky == 0 {
                // Fig. 13 cycle #0: full tile fill, read mode (a)/(b)
                // (or (e) when strided).
                eng.hfsm.step(SecondState::Fill).expect("HFSM: fill");
                eng.nb_tile_into(
                    pass.map,
                    pass.input_at(0, 0, 0, 0),
                    (aw, ah),
                    (sx, sy),
                    values,
                )?;
            } else if kx == 0 {
                // New kernel row (Fig. 13 cycle #3).
                eng.hfsm.step(SecondState::NextRow).expect("HFSM: next row");
                eng.hfsm.step(SecondState::VMode).expect("HFSM: v-mode");
                if ky < sy {
                    // The row below never read this input row within this
                    // window: everyone refills from NBin.
                    eng.nb_tile_into(
                        pass.map,
                        pass.input_at(0, 0, 0, ky),
                        (aw, ah),
                        (sx, sy),
                        values,
                    )?;
                } else {
                    // Upper rows pop the FIFO-V of the PE below; the bottom
                    // active row reads Px neurons from one bank (mode (c)).
                    values.resize(aw * ah, Fx::ZERO);
                    for py in 0..ah - 1 {
                        for px in 0..aw {
                            values[py * aw + px] = eng.nfu.propagate_from_below(px, py);
                            eng.stats.fifo_pops += 1;
                        }
                    }
                    eng.nb_row_into(pass.map, pass.input_at(0, ah - 1, 0, ky), aw, sx, aux)?;
                    values[(ah - 1) * aw..].copy_from_slice(aux);
                }
            } else {
                // Horizontal step (Fig. 13 cycles #1–#2).
                eng.hfsm.step(SecondState::HMode).expect("HFSM: h-mode");
                if kx < sx {
                    eng.nb_tile_into(
                        pass.map,
                        pass.input_at(0, 0, kx, ky),
                        (aw, ah),
                        (sx, sy),
                        values,
                    )?;
                } else {
                    // Left PEs pop the right neighbour's FIFO-H; the
                    // rightmost active column reads a column (mode (f)).
                    values.resize(aw * ah, Fx::ZERO);
                    for py in 0..ah {
                        for px in 0..aw - 1 {
                            values[py * aw + px] = eng.nfu.propagate_from_right(px, py);
                            eng.stats.fifo_pops += 1;
                        }
                    }
                    eng.nb_col_into(pass.map, pass.input_at(aw - 1, 0, kx, ky), ah, sy, aux)?;
                    for py in 0..ah {
                        values[py * aw + (aw - 1)] = aux[py];
                    }
                }
            }

            // Every PE collects its received neuron into FIFO-H; first-
            // column values additionally enter FIFO-V (Fig. 13 legend).
            let k = if op == WindowOp::Mac {
                eng.sb.read_broadcast(eng.stats);
                kernel_value(eng, kx, ky)?
            } else {
                Fx::ZERO
            };
            for py in 0..ah {
                for px in 0..aw {
                    let v = values[py * aw + px];
                    let mut pe = eng.nfu.pe_mut(px, py);
                    if propagate {
                        pe.push_h(v);
                        eng.stats.fifo_pushes += 1;
                        if kx == 0 {
                            pe.push_v(v);
                            eng.stats.fifo_pushes += 1;
                        }
                    }
                    match op {
                        WindowOp::Mac => {
                            pe.mac(v, k);
                            eng.stats.pe_muls += 1;
                            eng.stats.pe_adds += 1;
                        }
                        WindowOp::Max => {
                            pe.compare(v);
                            eng.stats.pe_cmps += 1;
                        }
                        WindowOp::Add => {
                            pe.add(v);
                            eng.stats.pe_adds += 1;
                        }
                    }
                }
            }
            eng.tick(aw * ah);
        }
    }
    eng.nfu.record_fifo_peaks(eng.stats);
    Ok(())
}

/// Enumerates the `Px × Py`-aligned output blocks covering a `w × h`
/// output map, yielding `(origin, active_extent)`.
pub(crate) fn blocks(
    out_dims: (usize, usize),
    pe_dims: (usize, usize),
) -> impl Iterator<Item = ((usize, usize), (usize, usize))> {
    let (w, h) = out_dims;
    let (px, py) = pe_dims;
    let bx = w.div_ceil(px);
    let by = h.div_ceil(py);
    (0..by).flat_map(move |j| {
        (0..bx).map(move |i| {
            let origin = (i * px, j * py);
            let active = ((w - origin.0).min(px), (h - origin.1).min(py));
            (origin, active)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_output() {
        let all: Vec<_> = blocks((10, 10), (8, 8)).collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], ((0, 0), (8, 8)));
        assert_eq!(all[1], ((8, 0), (2, 8)));
        assert_eq!(all[3], ((8, 8), (2, 2)));
        let covered: usize = all.iter().map(|&(_, (w, h))| w * h).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn blocks_handle_small_maps() {
        let all: Vec<_> = blocks((5, 5), (8, 8)).collect();
        assert_eq!(all, vec![((0, 0), (5, 5))]);
    }

    #[test]
    fn pass_input_coordinates_follow_stride() {
        let p = Pass {
            map: 0,
            block: (2, 1),
            active: (4, 4),
            kernel: (3, 3),
            stride: (2, 2),
        };
        assert_eq!(p.input_at(0, 0, 0, 0), (4, 2));
        assert_eq!(p.input_at(1, 2, 2, 1), (8, 7));
    }
}
