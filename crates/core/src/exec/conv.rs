//! Convolutional-layer executor (§8.1, Fig. 13).

use super::window::{blocks, run_pass, Pass};
use super::{bias_addr, conv_weight_addr, Engine, WindowOp};
use crate::accel::RunError;
use core::mem;
use shidiannao_cnn::{Layer, LayerBody};

/// Executes a convolutional layer.
///
/// The accelerator "continuously performs the computations of an output
/// feature map, and will not move to the next output feature map until the
/// current map has been constructed"; within a map, each PE owns one
/// output neuron per block. For every (block × connected input map) pair a
/// window pass sweeps the kernel, accumulating into the PEs; the ALU then
/// applies the activation and the output register array flushes the block
/// to NBout.
pub(super) fn run(eng: &mut Engine<'_>, layer: &Layer) -> Result<(), RunError> {
    let LayerBody::Conv {
        table,
        kernel,
        stride,
        activation,
        ..
    } = layer.body()
    else {
        unreachable!("conv executor fed a non-conv layer");
    };
    let out_dims = layer.out_dims();
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);

    for o in 0..layer.out_maps() {
        for (origin, active) in blocks(out_dims, pe_dims) {
            // Load the output map's bias into every active PE (one SB
            // broadcast). Weights are served from the resident SB image
            // (§6), not from the network description.
            eng.sb.read_broadcast(eng.stats);
            let bias = eng.store.bias(eng.layer_index, o);
            let bias = eng.sb_value(bias_addr(o), bias)?;
            for py in 0..active.1 {
                for px in 0..active.0 {
                    let i = eng.nfu.index(px, py);
                    eng.nfu.reset_accumulator(i, bias);
                }
            }

            // One window pass per connected input map; the PE accumulators
            // carry partial sums across maps (formula (1)'s Σ over A_mo).
            for (j, &im) in table.inputs_of(o).iter().enumerate() {
                run_pass(
                    eng,
                    Pass {
                        map: im,
                        block: origin,
                        active,
                        kernel: *kernel,
                        stride: *stride,
                    },
                    WindowOp::Mac,
                    |eng, kx, ky| {
                        let w = eng
                            .store
                            .conv_weight(eng.layer_index, o, j, (kx, ky), *kernel);
                        eng.sb_value(conv_weight_addr(o, j, (kx, ky)), w)
                    },
                )?;
            }

            // Epilogue: drain accumulators through the ALU and flush the
            // block (Fig. 9's output register array).
            let mut vals = mem::take(&mut eng.scratch.vals);
            eng.nfu.read_accumulators_into(active, &mut vals);
            // The ALU is pipelined behind double-buffered output
            // registers: its latency overlaps the next block's compute, so
            // only the one-cycle block flush shows on the critical path.
            let _ = eng.alu.activate(&mut vals, *activation, eng.stats);
            eng.tick_idle(1);
            eng.nbout.write_block(o, origin, active, &vals, eng.stats);
            eng.scratch.vals = vals;
        }
    }
    Ok(())
}
