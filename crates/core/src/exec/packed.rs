//! The §10.2 design alternative ShiDianNao considered and rejected:
//! "allowing different PEs to simultaneously work on different feature
//! maps" when output maps are smaller than the PE array.
//!
//! The paper: "we played with the idea of alleviating this issue by
//! adding complicated control logic to each PE … we ultimately decided
//! against this option as it appeared a poor trade-off with a detrimental
//! impact on the programming model." This module implements the
//! alternative so the trade-off can be *measured* (see the
//! `ablation_multimap` bench): PE utilization improves on benchmarks like
//! Simple Conv, but every packed sub-block needs its own NB gather and
//! its own SB kernel stream each cycle (the "large MUX mesh"), and the
//! regular inter-PE propagation schedule no longer applies across
//! sub-block boundaries, so the FIFOs sit unused.

use super::{bias_addr, conv_weight_addr, Engine};
use crate::accel::RunError;
use crate::config::AcceleratorConfig;
use shidiannao_cnn::{ConnectionTable, Layer, LayerBody};
use shidiannao_fixed::Fx;

/// How many output maps a `Px × Py` mesh can host side by side for an
/// `ow × oh` output map (0 when the map does not fit at all).
pub(crate) fn pack_factor(pe: (usize, usize), out: (usize, usize)) -> usize {
    if out.0 > pe.0 || out.1 > pe.1 {
        0
    } else {
        (pe.0 / out.0) * (pe.1 / out.1)
    }
}

/// `true` when the packed path applies: packing is enabled, at least two
/// maps fit, and there is more than one output map to pack. Depends only
/// on the configuration and the layer, so schedule construction can ask
/// the same question without an engine in hand.
pub(crate) fn applies_cfg(cfg: &AcceleratorConfig, layer: &Layer) -> bool {
    cfg.multi_map_packing
        && layer.out_maps() > 1
        && pack_factor((cfg.pe_cols, cfg.pe_rows), layer.out_dims()) >= 2
}

/// [`applies_cfg`] for an engine in hand.
pub(crate) fn applies(eng: &Engine<'_>, layer: &Layer) -> bool {
    applies_cfg(eng.cfg, layer)
}

/// Executes a convolutional layer with multi-map packing.
///
/// Sub-block `s` of a group occupies PEs
/// `[sx·ow .. sx·ow+ow) × [sy·oh .. sy·oh+oh)` and owns output map
/// `group_start + s`. Each cycle sweeps one kernel position for one input
/// map of the group's *union* of connected inputs; sub-blocks whose map
/// is not connected to that input idle.
pub(super) fn run_conv(eng: &mut Engine<'_>, layer: &Layer) -> Result<(), RunError> {
    let LayerBody::Conv {
        table,
        kernel,
        stride,
        activation,
        ..
    } = layer.body()
    else {
        unreachable!("packed executor fed a non-conv layer");
    };
    let (ow, oh) = layer.out_dims();
    let pack_x = eng.cfg.pe_cols / ow;
    let pack_y = eng.cfg.pe_rows / oh;
    let pack = pack_x * pack_y;

    let mut group_start = 0;
    while group_start < layer.out_maps() {
        let group_len = pack.min(layer.out_maps() - group_start);

        // Reset each sub-block with its map's bias (one SB broadcast per
        // packed map — already more control traffic than the baseline).
        for s in 0..group_len {
            let (bx, by) = (s % pack_x, s / pack_x);
            eng.sb.read_broadcast(eng.stats);
            let bias = eng.store.bias(eng.layer_index, group_start + s);
            let bias = eng.sb_value(bias_addr(group_start + s), bias)?;
            for py in 0..oh {
                for px in 0..ow {
                    let i = eng.nfu.index(bx * ow + px, by * oh + py);
                    eng.nfu.reset_accumulator(i, bias);
                }
            }
        }

        // The union of input maps any packed map reads, ascending (each
        // map's own connections stay in ascending order, preserving the
        // golden reference's accumulation order).
        let union = union_inputs(table, group_start, group_len);

        for &im in &union {
            for ky in 0..kernel.1 {
                for kx in 0..kernel.0 {
                    let mut busy = 0;
                    for s in 0..group_len {
                        let o = group_start + s;
                        let Some(j) = table.inputs_of(o).iter().position(|&i| i == im) else {
                            continue;
                        };
                        let (bx, by) = (s % pack_x, s / pack_x);
                        // Every sub-block gathers its own tile (no shared
                        // tile read is possible across sub-blocks: their
                        // input coordinates coincide but land in the same
                        // banks — the MUX-mesh cost is modeled as one
                        // access per sub-block) and streams its own
                        // kernel value.
                        let vals = eng.nb_tile(im, (kx, ky), (ow, oh), (stride.0, stride.1))?;
                        eng.sb.read_broadcast(eng.stats);
                        let k = eng
                            .store
                            .conv_weight(eng.layer_index, o, j, (kx, ky), *kernel);
                        let k = eng.sb_value(conv_weight_addr(o, j, (kx, ky)), k)?;
                        for py in 0..oh {
                            for px in 0..ow {
                                let i = eng.nfu.index(bx * ow + px, by * oh + py);
                                eng.nfu.mac(i, vals[py * ow + px], k);
                                eng.stats.pe_muls += 1;
                                eng.stats.pe_adds += 1;
                            }
                        }
                        busy += ow * oh;
                    }
                    eng.tick(busy);
                }
            }
        }

        // Epilogue: drain and flush each packed map (one write per map).
        for s in 0..group_len {
            let o = group_start + s;
            let (bx, by) = (s % pack_x, s / pack_x);
            let mut vals: Vec<Fx> = Vec::with_capacity(ow * oh);
            for py in 0..oh {
                for px in 0..ow {
                    vals.push(
                        eng.nfu
                            .accumulator(eng.nfu.index(bx * ow + px, by * oh + py)),
                    );
                }
            }
            let _ = eng.alu.activate(&mut vals, *activation, eng.stats);
            eng.nbout.write_block(o, (0, 0), (ow, oh), &vals, eng.stats);
        }
        eng.tick_idle(group_len as u64);

        group_start += group_len;
    }
    Ok(())
}

fn union_inputs(table: &ConnectionTable, start: usize, len: usize) -> Vec<usize> {
    let mut union: Vec<usize> = (start..start + len)
        .flat_map(|o| table.inputs_of(o).iter().copied())
        .collect();
    union.sort_unstable();
    union.dedup();
    union
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_factor_geometry() {
        assert_eq!(pack_factor((8, 8), (5, 5)), 1);
        assert_eq!(pack_factor((8, 8), (4, 4)), 4);
        assert_eq!(pack_factor((8, 8), (2, 3)), 8);
        assert_eq!(pack_factor((8, 8), (1, 1)), 64);
        assert_eq!(pack_factor((8, 8), (9, 2)), 0);
        assert_eq!(pack_factor((8, 8), (8, 8)), 1);
    }

    #[test]
    fn union_respects_order_and_dedup() {
        let t = ConnectionTable::from_lists(4, vec![vec![2, 0], vec![3, 2], vec![1]]);
        assert_eq!(union_inputs(&t, 0, 2), vec![0, 2, 3]);
        assert_eq!(union_inputs(&t, 0, 3), vec![0, 1, 2, 3]);
        assert_eq!(union_inputs(&t, 2, 1), vec![1]);
    }
}
