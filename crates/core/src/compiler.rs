//! The network-to-instruction compiler (§7.2).

use crate::isa::{Fields, Instruction, Opcode, INSTRUCTION_BYTES};
use core::cell::Cell;
use core::fmt;
use shidiannao_cnn::{Layer, LayerBody, Network, PoolKind};

thread_local! {
    /// Per-thread count of [`compile`] invocations (diagnostic). Per
    /// thread so concurrently running tests cannot land in each other's
    /// before/after window.
    static COMPILE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`compile`] has run on the calling thread. Tests use
/// this to assert that a prepared-network pipeline compiles each
/// topology exactly once, no matter how many inferences it executes.
pub fn compile_calls() -> u64 {
    COMPILE_CALLS.with(Cell::get)
}

/// Error produced while lowering a network to the 61-bit ISA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot compile network: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// A compiled control program: the instruction stream the IB holds and the
/// decoder walks.
///
/// Granularity follows the HFSM design: one instruction per *output
/// feature map* for convolutional and pooling layers (the second-level
/// states expand it into per-cycle control), one per classifier /
/// normalization layer, plus `LoadImage`, per-layer `SwapBuffers`, and a
/// final `End`. A LeNet-5-class CNN compiles to a few hundred bytes,
/// reproducing §7.2's observation that ~1 KB of instruction storage
/// replaces a ≥600 KB raw control store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the program is empty (never for compiled networks).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// IB footprint in bytes (8 bytes per 61-bit instruction).
    pub fn bytes(&self) -> usize {
        self.instructions.len() * INSTRUCTION_BYTES
    }

    /// Instructions belonging to layer `index` (excluding load/swap/end
    /// plumbing) — used by the executor to charge IB fetches.
    pub fn layer_instruction_count(&self, network: &Network, index: usize) -> usize {
        let layer = &network.layers()[index];
        match layer.body() {
            LayerBody::Conv { .. } | LayerBody::Pool { .. } => layer.out_maps(),
            _ => 1,
        }
    }
}

fn activation_of(layer: &Layer) -> shidiannao_cnn::Activation {
    match layer.body() {
        LayerBody::Conv { activation, .. }
        | LayerBody::Pool { activation, .. }
        | LayerBody::Fc { activation, .. } => *activation,
        _ => shidiannao_cnn::Activation::None,
    }
}

/// Lowers a network to its control program.
///
/// # Errors
///
/// Returns [`CompileError`] when a dimension exceeds the ISA's field
/// widths (e.g. feature maps wider than 511 neurons).
pub fn compile(network: &Network) -> Result<Program, CompileError> {
    COMPILE_CALLS.with(|n| n.set(n.get() + 1));
    let mut instructions = Vec::new();
    let err = |layer: usize, e: crate::isa::EncodeError| CompileError {
        message: format!("layer {layer}: {e}"),
    };

    instructions.push(
        Instruction::encode(&Fields {
            opcode: Opcode::LoadImage,
            out_w: network.input_dims().0 as u16,
            out_h: network.input_dims().1 as u16,
            in_maps: network.input_maps() as u16,
            ..Fields::default()
        })
        .map_err(|e| err(0, e))?,
    );

    for (i, layer) in network.layers().iter().enumerate() {
        let (ow, oh) = layer.out_dims();
        let act = activation_of(layer);
        match layer.body() {
            LayerBody::Conv {
                table,
                kernel,
                stride,
                ..
            } => {
                for o in 0..layer.out_maps() {
                    instructions.push(
                        Instruction::encode(&Fields {
                            opcode: Opcode::Conv,
                            out_w: ow as u16,
                            out_h: oh as u16,
                            kx: kernel.0 as u8,
                            ky: kernel.1 as u8,
                            sx: stride.0 as u8,
                            sy: stride.1 as u8,
                            in_maps: table.inputs_of(o).len() as u16,
                            out_sel: o as u16,
                            act,
                            flag: false,
                        })
                        .map_err(|e| err(i, e))?,
                    );
                }
            }
            LayerBody::Pool {
                window,
                stride,
                kind,
                ..
            } => {
                for m in 0..layer.out_maps() {
                    instructions.push(
                        Instruction::encode(&Fields {
                            opcode: Opcode::Pool,
                            out_w: ow as u16,
                            out_h: oh as u16,
                            kx: window.0 as u8,
                            ky: window.1 as u8,
                            sx: stride.0 as u8,
                            sy: stride.1 as u8,
                            in_maps: 1,
                            out_sel: m as u16,
                            act,
                            flag: *kind == PoolKind::Avg,
                        })
                        .map_err(|e| err(i, e))?,
                    );
                }
            }
            LayerBody::Fc { .. } => {
                instructions.push(
                    Instruction::encode(&Fields {
                        opcode: Opcode::Classifier,
                        out_w: 1,
                        out_h: 1,
                        kx: layer.in_dims().0.min(31) as u8,
                        ky: layer.in_dims().1.min(31) as u8,
                        in_maps: layer.in_maps().min(511) as u16,
                        out_sel: layer.out_maps() as u16,
                        act,
                        ..Fields::default()
                    })
                    .map_err(|e| err(i, e))?,
                );
            }
            LayerBody::Lrn(spec) => {
                instructions.push(
                    Instruction::encode(&Fields {
                        opcode: Opcode::Lrn,
                        out_w: ow as u16,
                        out_h: oh as u16,
                        kx: spec.window_maps as u8,
                        in_maps: layer.in_maps() as u16,
                        out_sel: layer.out_maps().min(511) as u16,
                        ..Fields::default()
                    })
                    .map_err(|e| err(i, e))?,
                );
            }
            LayerBody::Lcn { spec, .. } => {
                instructions.push(
                    Instruction::encode(&Fields {
                        opcode: Opcode::Lcn,
                        out_w: ow as u16,
                        out_h: oh as u16,
                        kx: spec.window as u8,
                        ky: spec.window as u8,
                        in_maps: layer.in_maps() as u16,
                        out_sel: layer.out_maps().min(511) as u16,
                        ..Fields::default()
                    })
                    .map_err(|e| err(i, e))?,
                );
            }
        }
        instructions.push(
            Instruction::encode(&Fields {
                opcode: Opcode::SwapBuffers,
                ..Fields::default()
            })
            .map_err(|e| err(i, e))?,
        );
    }

    instructions.push(
        Instruction::encode(&Fields {
            opcode: Opcode::End,
            ..Fields::default()
        })
        .map_err(|e| err(usize::MAX, e))?,
    );

    Ok(Program { instructions })
}

/// Checks a compiled program against the network it claims to encode:
/// every decoded instruction's geometry must match the corresponding
/// layer. This is the decoder-side contract the executor relies on.
///
/// # Errors
///
/// Returns [`CompileError`] describing the first mismatch.
pub fn validate(program: &Program, network: &Network) -> Result<(), CompileError> {
    let err = |msg: String| CompileError { message: msg };
    let mut stream = program.instructions().iter();
    let mut next = || -> Result<crate::isa::Fields, CompileError> {
        stream
            .next()
            .ok_or_else(|| err("program ends early".into()))?
            .decode()
            .map_err(&err)
    };
    let first = next()?;
    if first.opcode != Opcode::LoadImage
        || (first.out_w as usize, first.out_h as usize) != network.input_dims()
        || first.in_maps as usize != network.input_maps()
    {
        return Err(err(
            "LoadImage header does not match the network input".into()
        ));
    }
    for (i, layer) in network.layers().iter().enumerate() {
        let (ow, oh) = layer.out_dims();
        match layer.body() {
            LayerBody::Conv {
                table,
                kernel,
                stride,
                ..
            } => {
                for o in 0..layer.out_maps() {
                    let f = next()?;
                    let ok = f.opcode == Opcode::Conv
                        && (f.out_w as usize, f.out_h as usize) == (ow, oh)
                        && (f.kx as usize, f.ky as usize) == *kernel
                        && (f.sx as usize, f.sy as usize) == *stride
                        && f.in_maps as usize == table.inputs_of(o).len()
                        && f.out_sel as usize == o;
                    if !ok {
                        return Err(err(format!("layer {i} map {o}: conv mismatch")));
                    }
                }
            }
            LayerBody::Pool {
                window,
                stride,
                kind,
                ..
            } => {
                for m in 0..layer.out_maps() {
                    let f = next()?;
                    let ok = f.opcode == Opcode::Pool
                        && (f.kx as usize, f.ky as usize) == *window
                        && (f.sx as usize, f.sy as usize) == *stride
                        && f.out_sel as usize == m
                        && f.flag == (*kind == PoolKind::Avg);
                    if !ok {
                        return Err(err(format!("layer {i} map {m}: pool mismatch")));
                    }
                }
            }
            LayerBody::Fc { .. } => {
                let f = next()?;
                if f.opcode != Opcode::Classifier || f.out_sel as usize != layer.out_maps() {
                    return Err(err(format!("layer {i}: classifier mismatch")));
                }
            }
            LayerBody::Lrn(_) => {
                let f = next()?;
                if f.opcode != Opcode::Lrn {
                    return Err(err(format!("layer {i}: LRN mismatch")));
                }
            }
            LayerBody::Lcn { .. } => {
                let f = next()?;
                if f.opcode != Opcode::Lcn {
                    return Err(err(format!("layer {i}: LCN mismatch")));
                }
            }
        }
        let f = next()?;
        if f.opcode != Opcode::SwapBuffers {
            return Err(err(format!("layer {i}: missing buffer swap")));
        }
    }
    let f = next()?;
    if f.opcode != Opcode::End {
        return Err(err("program does not end with End".into()));
    }
    if stream.next().is_some() {
        return Err(err("trailing instructions after End".into()));
    }
    Ok(())
}

/// Bytes a raw control store would need for the same execution: 97 bits of
/// control signals per cycle (§7.2's rejected alternative, the ablation
/// baseline for `ablation_isa_size`).
pub fn raw_control_store_bytes(cycles: u64) -> u64 {
    (cycles * 97).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_cnn::zoo;

    #[test]
    fn lenet_compiles_compactly() {
        let net = zoo::lenet5().build(0).unwrap();
        let p = compile(&net).unwrap();
        // Load + (6 conv + 6 pool + 16 conv + 16 pool + 3 fc) + 7 swaps + end.
        assert_eq!(p.len(), 1 + 6 + 6 + 16 + 16 + 3 + 7 + 1);
        assert!(p.bytes() < 1024, "LeNet-5 program is {} bytes", p.bytes());
        assert!(!p.is_empty());
    }

    #[test]
    fn program_starts_with_load_and_ends_with_end() {
        let net = zoo::gabor().build(0).unwrap();
        let p = compile(&net).unwrap();
        let first = p.instructions()[0].decode().unwrap();
        assert_eq!(first.opcode, Opcode::LoadImage);
        assert_eq!((first.out_w, first.out_h), (20, 20));
        let last = p.instructions().last().unwrap().decode().unwrap();
        assert_eq!(last.opcode, Opcode::End);
    }

    #[test]
    fn conv_instructions_carry_geometry() {
        let net = zoo::lenet5().build(0).unwrap();
        let p = compile(&net).unwrap();
        let c1 = p.instructions()[1].decode().unwrap();
        assert_eq!(c1.opcode, Opcode::Conv);
        assert_eq!((c1.out_w, c1.out_h), (28, 28));
        assert_eq!((c1.kx, c1.ky), (5, 5));
        assert_eq!((c1.sx, c1.sy), (1, 1));
    }

    #[test]
    fn every_benchmark_compiles_under_ib_capacity() {
        for b in zoo::all() {
            let net = b.build(0).unwrap();
            let p = compile(&net).unwrap();
            assert!(
                p.bytes() <= 32 * 1024,
                "{} program is {} bytes",
                net.name(),
                p.bytes()
            );
        }
    }

    #[test]
    fn raw_control_store_matches_paper_example() {
        // §7.2: 97 bits × 50K cycles ≈ 600 KB.
        let bytes = raw_control_store_bytes(50_000);
        assert!(bytes > 590_000 && bytes < 610_000, "{bytes}");
    }

    #[test]
    fn compiled_programs_validate_for_every_benchmark() {
        for b in zoo::all() {
            let net = b.build(0).unwrap();
            let p = compile(&net).unwrap();
            validate(&p, &net).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        }
        for b in zoo::extended::all() {
            let net = b.build(0).unwrap();
            validate(&compile(&net).unwrap(), &net).unwrap();
        }
    }

    #[test]
    fn validation_rejects_a_foreign_program() {
        let lenet = zoo::lenet5().build(0).unwrap();
        let gabor = zoo::gabor().build(0).unwrap();
        let p = compile(&gabor).unwrap();
        assert!(validate(&p, &lenet).is_err());
    }

    #[test]
    fn layer_instruction_counts() {
        let net = zoo::lenet5().build(0).unwrap();
        let p = compile(&net).unwrap();
        assert_eq!(p.layer_instruction_count(&net, 0), 6);
        assert_eq!(p.layer_instruction_count(&net, 2), 16);
        assert_eq!(p.layer_instruction_count(&net, 4), 1);
    }
}
