//! Classifier-layer executor (§8.3).

use super::{bias_addr, fc_weight_addr, Engine};
use crate::accel::RunError;
use core::mem;
use shidiannao_cnn::{FcWeights, Layer, LayerBody};
use shidiannao_fixed::Fx;

/// Executes a (fully or partially connected) classifier layer.
///
/// "Each cycle of a classifier layer reads `Px × Py` different synaptic
/// weights and a single input neuron for all `Px × Py` PEs" — the input
/// neuron arrives through read mode (d) and is broadcast; each PE owns one
/// output neuron until it completes. Sparse classifiers (Table 2's
/// sub-full kernel counts) iterate the *union* of the group's input
/// indices; PEs whose row skips an index idle that cycle.
pub(super) fn run(eng: &mut Engine<'_>, layer: &Layer) -> Result<(), RunError> {
    let mut idxs = mem::take(&mut eng.scratch.idxs);
    let mut cursors = mem::take(&mut eng.scratch.cursors);
    let mut vals = mem::take(&mut eng.scratch.vals);
    let result = run_groups(eng, layer, &mut idxs, &mut cursors, &mut vals);
    eng.scratch.idxs = idxs;
    eng.scratch.cursors = cursors;
    eng.scratch.vals = vals;
    result
}

/// The group loop proper, split out so the scratch buffers above can be
/// restored even when a faulted access exits early with `?`.
fn run_groups(
    eng: &mut Engine<'_>,
    layer: &Layer,
    idxs: &mut Vec<usize>,
    cursors: &mut Vec<usize>,
    vals: &mut Vec<Fx>,
) -> Result<(), RunError> {
    let LayerBody::Fc {
        weights,
        activation,
    } = layer.body()
    else {
        unreachable!("classifier executor fed a non-classifier layer");
    };
    let pe_count = eng.cfg.pe_count();
    let out_count = layer.out_maps();

    for group_start in (0..out_count).step_by(pe_count) {
        let group_len = pe_count.min(out_count - group_start);

        // Load the group's biases (one wide SB read).
        eng.sb.read_wide(group_len, eng.stats);
        for i in 0..group_len {
            let bias = eng.store.bias(eng.layer_index, group_start + i);
            let bias = eng.sb_value(bias_addr(group_start + i), bias)?;
            eng.nfu.reset_accumulator(i, bias);
        }

        mac_group(eng, weights, group_start, group_len, idxs, cursors)?;

        // Epilogue: activation through the ALU, then one grouped write.
        vals.clear();
        for i in 0..group_len {
            vals.push(eng.nfu.accumulator(i));
        }
        // Pipelined ALU: activation latency hides behind the next
        // group's MAC stream; one flush cycle remains.
        let _ = eng.alu.activate(vals, *activation, eng.stats);
        eng.tick_idle(1);
        eng.nbout.write_scalar_group(group_start, vals, eng.stats);
    }
    Ok(())
}

/// The union loop: one mode (d) broadcast + one wide SB read per distinct
/// input index, PEs matching via per-row cursors.
fn mac_group(
    eng: &mut Engine<'_>,
    weights: &FcWeights,
    group_start: usize,
    group_len: usize,
    idxs: &mut Vec<usize>,
    cursors: &mut Vec<usize>,
) -> Result<(), RunError> {
    // The distinct input indices any PE in the group needs, ascending
    // (rows are sorted, so per-PE cursors advance monotonically).
    idxs.clear();
    for i in 0..group_len {
        idxs.extend(weights.row(group_start + i).iter().map(|&(idx, _)| idx));
    }
    idxs.sort_unstable();
    idxs.dedup();
    cursors.clear();
    cursors.resize(group_len, 0);

    for &idx in idxs.iter() {
        // One broadcast neuron (mode (d)) + one wide synapse read.
        let neuron = eng.nb_single(idx)?;
        eng.sb.read_wide(eng.cfg.pe_count(), eng.stats);
        let mut busy = 0;
        for (i, cursor) in cursors.iter_mut().enumerate() {
            let row = weights.row(group_start + i);
            if *cursor < row.len() && row[*cursor].0 == idx {
                // The row's sparsity pattern is decoder metadata; the
                // weight itself streams from the SB image.
                let w = eng
                    .store
                    .fc_weight(eng.layer_index, group_start + i, *cursor);
                let w = eng.sb_value(fc_weight_addr(group_start + i, *cursor), w)?;
                eng.nfu.mac(i, neuron, w);
                eng.stats.pe_muls += 1;
                eng.stats.pe_adds += 1;
                *cursor += 1;
                busy += 1;
            }
        }
        eng.tick(busy);
    }
    Ok(())
}
