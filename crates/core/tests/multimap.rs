//! The §10.2 multi-map packing alternative: still bit-exact, measurably
//! better utilization on small-map workloads, measurably worse buffer
//! traffic — the quantified version of the paper's "poor trade-off"
//! judgement.

use shidiannao_cnn::{zoo, ConvSpec, NetworkBuilder};
use shidiannao_core::{Accelerator, AcceleratorConfig};

#[test]
fn packing_is_bit_exact_on_all_benchmarks() {
    for builder in zoo::all() {
        let net = builder.build(5).unwrap();
        let input = net.random_input(6);
        let golden = net.forward_fixed(&input);
        let run = Accelerator::new(AcceleratorConfig::paper().with_multi_map_packing())
            .prepare(&net)
            .and_then(|p| p.session().run(&input))
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        assert_eq!(run.output(), golden.output(), "{}", net.name());
    }
}

#[test]
fn packing_speeds_up_simple_conv() {
    // Simple Conv's 5×5 C2 maps are the §10.2 motivating case — but 5×5
    // does not pack into 8×8 (only one fits). The 1×1-map C5-style layers
    // and small-map layers do. Use CNP, whose C5 output maps are 1×1
    // (80 maps on 64 PEs: utilization 1/64 without packing).
    let net = zoo::cnp().build(5).unwrap();
    let input = net.random_input(6);
    let base = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let packed = Accelerator::new(AcceleratorConfig::paper().with_multi_map_packing())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(base.output(), packed.output());
    // C5 is layer index 5 (Load, C1, S2, C3, S4, C5).
    let base_c5 = &base.stats().layers()[5];
    let packed_c5 = &packed.stats().layers()[5];
    assert_eq!(base_c5.label, "C5");
    assert!(
        packed_c5.cycles < base_c5.cycles / 10,
        "packing should collapse the 1x1-map layer: {} vs {}",
        packed_c5.cycles,
        base_c5.cycles
    );
    assert!(packed_c5.pe_utilization() > 5.0 * base_c5.pe_utilization());
    assert!(packed.stats().cycles() < base.stats().cycles());
}

#[test]
fn packing_pays_in_buffer_accesses() {
    // The "large MUX mesh" cost: per-cycle NB accesses multiply by the
    // pack factor and SB broadcasts are no longer shared.
    let net = NetworkBuilder::new("small-maps", 2, (8, 8))
        .conv(ConvSpec::new(8, (5, 5))) // 4×4 outputs: 4 maps pack
        .build(5)
        .unwrap();
    let input = net.random_input(6);
    let base = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let packed = Accelerator::new(AcceleratorConfig::paper().with_multi_map_packing())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(base.output(), packed.output());
    let (b, p) = (base.stats().total(), packed.stats().total());
    assert!(p.cycles < b.cycles, "{} vs {}", p.cycles, b.cycles);
    // The MUX-mesh cost: per-cycle SB streams and NB accesses multiply by
    // the pack factor (four kernel broadcasts and four gathers per cycle
    // instead of one).
    let per_cycle = |bytes: u64, t: &shidiannao_core::LayerStats| bytes as f64 / t.cycles as f64;
    assert!(per_cycle(p.sb.read_bytes, &p) > 2.0 * per_cycle(b.sb.read_bytes, &b));
    assert!(per_cycle(p.nbin.read_accesses, &p) > 2.0 * per_cycle(b.nbin.read_accesses, &b));
    // And the inter-PE FIFOs sit unused in packed mode.
    assert_eq!(p.fifo_pops, 0);
    assert!(b.fifo_pops > 0);
}

#[test]
fn packing_leaves_large_maps_on_the_standard_path() {
    // LeNet-5 C1 (28×28 maps) cannot pack; stats must be identical with
    // and without the flag.
    let net = NetworkBuilder::new("big-maps", 1, (32, 32))
        .conv(ConvSpec::new(6, (5, 5)))
        .build(5)
        .unwrap();
    let input = net.random_input(6);
    let base = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let packed = Accelerator::new(AcceleratorConfig::paper().with_multi_map_packing())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(base.stats(), packed.stats());
}

#[test]
fn packing_handles_partial_connectivity() {
    // Packed maps with different input sets: idle sub-blocks on
    // non-connected inputs, still bit-exact.
    let net = NetworkBuilder::new("partial", 4, (6, 6))
        .conv(ConvSpec::new(6, (3, 3)).with_pairs(9)) // 4×4 outputs
        .build(5)
        .unwrap();
    let input = net.random_input(6);
    let golden = net.forward_fixed(&input);
    let run = Accelerator::new(AcceleratorConfig::paper().with_multi_map_packing())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(run.output(), golden.output());
}
