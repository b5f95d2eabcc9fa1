//! Property-based equivalence: random layer geometries, random PE grids,
//! random seeds — the simulator must always match the golden reference
//! bit-for-bit, and its invariants must always hold.

use proptest::prelude::*;
use shidiannao_cnn::{
    Activation, ConvSpec, FcSpec, LrnSpec, Network, NetworkBuilder, PoolKind, PoolSpec,
};
use shidiannao_core::isa::{Fields, Instruction, Opcode};
use shidiannao_core::{Accelerator, AcceleratorConfig};

fn check(net: &Network, cfg: AcceleratorConfig, seed: u64) -> Result<(), TestCaseError> {
    let input = net.random_input(seed);
    let golden = net.forward_fixed(&input);
    let accel = Accelerator::new(cfg);
    let run = accel
        .prepare(net)
        .and_then(|p| p.session().run(&input))
        .expect("network fits");
    for (i, out) in run.layer_outputs().iter().enumerate() {
        prop_assert_eq!(out, golden.layer_output(i).unwrap(), "layer {} diverged", i);
    }
    // Cycle accounting sanity: enough cycles for the busy slots, and
    // busy never exceeds capacity.
    let total = run.stats().total();
    prop_assert!(total.pe_busy_slots <= total.pe_total_slots);
    prop_assert!(run.stats().cycles() > 0);
    Ok(())
}

fn activations() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_conv_layers_match(
        in_maps in 1usize..4,
        out_maps in 1usize..6,
        w in 6usize..20,
        h in 6usize..20,
        kx in 1usize..6,
        ky in 1usize..6,
        sx in 1usize..4,
        sy in 1usize..4,
        act in activations(),
        px in 2usize..9,
        py in 2usize..9,
        seed in 0u64..1000,
    ) {
        prop_assume!(kx <= w && ky <= h);
        let net = NetworkBuilder::new("p", in_maps, (w, h))
            .conv(
                ConvSpec::new(out_maps, (kx, ky))
                    .with_stride((sx, sy))
                    .with_activation(act),
            )
            .build(seed)
            .unwrap();
        check(&net, AcceleratorConfig::with_pe_grid(px, py), seed ^ 77)?;
    }

    #[test]
    fn random_partial_conv_layers_match(
        in_maps in 2usize..5,
        out_maps in 2usize..6,
        pair_frac in 1usize..100,
        seed in 0u64..1000,
    ) {
        let max_pairs = in_maps * out_maps;
        let pairs = (max_pairs * pair_frac / 100).max(out_maps).min(max_pairs);
        let net = NetworkBuilder::new("p", in_maps, (10, 10))
            .conv(ConvSpec::new(out_maps, (3, 3)).with_pairs(pairs))
            .build(seed)
            .unwrap();
        check(&net, AcceleratorConfig::paper(), seed)?;
    }

    #[test]
    fn random_pooling_layers_match(
        maps in 1usize..4,
        w in 4usize..22,
        h in 4usize..22,
        win in 2usize..5,
        stride in 1usize..5,
        avg in any::<bool>(),
        ceil in any::<bool>(),
        seed in 0u64..1000,
    ) {
        prop_assume!(win <= w && win <= h);
        // Ceiling rounding is defined for non-overlapping pooling only
        // (enforced by the builder; all Table 2 uses have stride == window).
        prop_assume!(stride == win || !ceil);
        let mut spec = if avg { PoolSpec::avg((win, win)) } else { PoolSpec::max((win, win)) };
        spec = spec.with_stride((stride, stride));
        if ceil {
            spec = spec.with_ceil();
        }
        let net = NetworkBuilder::new("p", maps, (w, h)).pool(spec).build(seed).unwrap();
        prop_assert_eq!(
            matches!(spec.kind, PoolKind::Avg),
            avg
        );
        check(&net, AcceleratorConfig::paper(), seed)?;
    }

    #[test]
    fn random_classifiers_match(
        w in 2usize..8,
        h in 2usize..8,
        maps in 1usize..4,
        out in 1usize..100,
        sparse in any::<bool>(),
        act in activations(),
        seed in 0u64..1000,
    ) {
        let in_count = w * h * maps;
        let mut spec = FcSpec::new(out).with_activation(act);
        if sparse && in_count > 2 {
            spec = spec.with_synapses_per_output(in_count / 2);
        }
        let net = NetworkBuilder::new("p", maps, (w, h)).fc(spec).build(seed).unwrap();
        check(&net, AcceleratorConfig::paper(), seed)?;
    }

    #[test]
    fn random_deep_stacks_match(
        w in 14usize..26,
        h in 14usize..26,
        c1_maps in 2usize..5,
        k in 2usize..5,
        avg in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let pool = if avg { PoolSpec::avg((2, 2)) } else { PoolSpec::max((2, 2)) };
        let net = NetworkBuilder::new("p", 1, (w, h))
            .conv(ConvSpec::new(c1_maps, (k, k)))
            .pool(pool)
            .conv(ConvSpec::new(4, (2, 2)))
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        check(&net, AcceleratorConfig::paper(), seed)?;
    }

    #[test]
    fn random_lrn_layers_match(
        maps in 1usize..6,
        window in 1usize..7,
        w in 3usize..10,
        alpha in 0.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let net = NetworkBuilder::new("p", maps, (w, w))
            .lrn(LrnSpec { window_maps: window, k: 1.0, alpha })
            .build(seed)
            .unwrap();
        check(&net, AcceleratorConfig::paper(), seed)?;
    }

    #[test]
    fn propagation_never_changes_results(
        w in 8usize..16,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(2, (k, k)))
            .build(seed)
            .unwrap();
        let input = net.random_input(seed);
        let a = Accelerator::new(AcceleratorConfig::paper())
            .prepare(&net)
            .and_then(|p| p.session().run(&input))
            .unwrap();
        let b = Accelerator::new(AcceleratorConfig::paper().without_propagation())
            .prepare(&net)
            .and_then(|p| p.session().run(&input))
            .unwrap();
        prop_assert_eq!(a.output(), b.output());
        // And propagation can only reduce NBin traffic.
        prop_assert!(
            a.stats().total().nbin.read_bytes <= b.stats().total().nbin.read_bytes
        );
    }

    #[test]
    fn fifo_peaks_never_exceed_strides(
        sx in 1usize..4,
        sy in 1usize..4,
        k in 2usize..7,
        seed in 0u64..500,
    ) {
        let dim = 4 * k + 7;
        let net = NetworkBuilder::new("p", 1, (dim, dim))
            .conv(ConvSpec::new(1, (k, k)).with_stride((sx, sy)))
            .build(seed)
            .unwrap();
        let run = Accelerator::new(AcceleratorConfig::paper())
            .prepare(&net)
            .and_then(|p| p.session().run(&net.random_input(seed)))
            .unwrap();
        let t = run.stats().total();
        prop_assert!(t.fifo_h_peak <= sx, "FIFO-H peak {} > Sx {}", t.fifo_h_peak, sx);
        prop_assert!(t.fifo_v_peak <= sy, "FIFO-V peak {} > Sy {}", t.fifo_v_peak, sy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn isa_roundtrips_any_in_range_fields(
        op in 0u8..8,
        out_w in 0u16..512,
        out_h in 0u16..512,
        kx in 0u8..32,
        ky in 0u8..32,
        sx in 0u8..16,
        sy in 0u8..16,
        in_maps in 0u16..512,
        out_sel in 0u16..512,
        act in 0u8..3,
        flag in any::<bool>(),
    ) {
        let opcode = match op {
            0 => Opcode::LoadImage,
            1 => Opcode::Conv,
            2 => Opcode::Pool,
            3 => Opcode::Classifier,
            4 => Opcode::Lrn,
            5 => Opcode::Lcn,
            6 => Opcode::SwapBuffers,
            _ => Opcode::End,
        };
        let act = match act {
            0 => shidiannao_cnn::Activation::None,
            1 => shidiannao_cnn::Activation::Tanh,
            _ => shidiannao_cnn::Activation::Sigmoid,
        };
        let f = Fields {
            opcode, out_w, out_h, kx, ky, sx, sy, in_maps, out_sel, act, flag,
        };
        let inst = Instruction::encode(&f).unwrap();
        prop_assert!(inst.to_bits() < 1u64 << 61, "61-bit budget");
        prop_assert_eq!(inst.decode().unwrap(), f);
    }

    #[test]
    fn compiled_programs_always_validate(
        w in 10usize..20,
        maps in 1usize..3,
        k in 2usize..4,
        out in 1usize..12,
        seed in 0u64..200,
    ) {
        use shidiannao_core::compiler::{compile, validate};
        let net = NetworkBuilder::new("p", maps, (w, w))
            .conv(ConvSpec::new(3, (k, k)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(out))
            .build(seed)
            .unwrap();
        let program = compile(&net).unwrap();
        validate(&program, &net).unwrap();
        // Instruction footprint stays far below the 32 KB IB.
        prop_assert!(program.bytes() <= 32 * 1024);
    }
}
