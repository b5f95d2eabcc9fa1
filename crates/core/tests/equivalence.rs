//! The simulator's functional contract: every layer type, every benchmark
//! network, bit-identical to the golden reference.

use shidiannao_cnn::{
    zoo, Activation, ConvSpec, FcSpec, LcnSpec, LrnSpec, NetworkBuilder, PoolSpec,
};
use shidiannao_core::{Accelerator, AcceleratorConfig};

fn assert_bit_identical(builder: NetworkBuilder, seed: u64) {
    let net = builder.build(seed).unwrap();
    let input = net.random_input(seed.wrapping_mul(31) + 1);
    let golden = net.forward_fixed(&input);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let run = accel
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
    for (i, sim_out) in run.layer_outputs().iter().enumerate() {
        assert_eq!(
            sim_out,
            golden.layer_output(i).unwrap(),
            "{} layer {i} diverges from the golden reference",
            net.name()
        );
    }
}

#[test]
fn all_ten_benchmarks_are_bit_identical() {
    for builder in zoo::all() {
        assert_bit_identical(builder, 42);
    }
}

#[test]
fn extended_zoo_networks_are_bit_identical() {
    for builder in zoo::extended::all() {
        assert_bit_identical(builder, 43);
    }
}

#[test]
fn conv_with_stride_matches() {
    assert_bit_identical(
        NetworkBuilder::new("stride", 1, (17, 15))
            .conv(ConvSpec::new(3, (3, 3)).with_stride((2, 2))),
        7,
    );
    assert_bit_identical(
        NetworkBuilder::new("stride-asym", 2, (20, 12))
            .conv(ConvSpec::new(3, (5, 3)).with_stride((3, 1))),
        8,
    );
}

#[test]
fn conv_kernel_larger_than_pe_array_matches() {
    // Fig. 8's "most complex case": Kx > Px and Ky > Py.
    assert_bit_identical(
        NetworkBuilder::new("bigkernel", 1, (16, 16))
            .conv(ConvSpec::new(2, (11, 10)).with_activation(Activation::Sigmoid)),
        9,
    );
}

#[test]
fn one_by_one_kernel_matches() {
    assert_bit_identical(
        NetworkBuilder::new("1x1", 3, (9, 9)).conv(ConvSpec::new(4, (1, 1))),
        10,
    );
}

#[test]
fn overlapping_pooling_matches() {
    // §8.2's "rare cases": stride smaller than the window, treated like a
    // convolution.
    assert_bit_identical(
        NetworkBuilder::new("overlap-max", 1, (12, 12))
            .pool(PoolSpec::max((3, 3)).with_stride((2, 2))),
        11,
    );
    assert_bit_identical(
        NetworkBuilder::new("overlap-avg", 2, (10, 10))
            .pool(PoolSpec::avg((3, 3)).with_stride((1, 1))),
        12,
    );
}

#[test]
fn ceiling_pooling_matches() {
    assert_bit_identical(
        NetworkBuilder::new("ceil", 2, (21, 26)).pool(PoolSpec::max((2, 2)).with_ceil()),
        13,
    );
    assert_bit_identical(
        NetworkBuilder::new("ceil-avg", 1, (9, 11)).pool(PoolSpec::avg((2, 2)).with_ceil()),
        14,
    );
}

#[test]
fn pooling_with_activation_matches() {
    assert_bit_identical(
        NetworkBuilder::new("pool-act", 1, (8, 8))
            .pool(PoolSpec::avg((2, 2)).with_activation(Activation::Tanh)),
        15,
    );
}

#[test]
fn sparse_classifier_matches() {
    assert_bit_identical(
        NetworkBuilder::new("sparse-fc", 1, (12, 15))
            .fc(FcSpec::new(30).with_synapses_per_output(20)),
        16,
    );
}

#[test]
fn classifier_group_spillover_matches() {
    // More outputs than PEs: multiple §8.3 groups.
    assert_bit_identical(
        NetworkBuilder::new("big-fc", 1, (10, 10)).fc(FcSpec::new(200)),
        17,
    );
}

#[test]
fn lrn_matches() {
    assert_bit_identical(
        NetworkBuilder::new("lrn", 5, (9, 9)).lrn(LrnSpec {
            window_maps: 3,
            k: 1.0,
            alpha: 0.25,
        }),
        18,
    );
}

#[test]
fn lcn_matches() {
    assert_bit_identical(
        NetworkBuilder::new("lcn", 2, (11, 11)).lcn(LcnSpec::new(5)),
        19,
    );
}

#[test]
fn norm_inside_deep_network_matches() {
    assert_bit_identical(
        NetworkBuilder::new("deep-norm", 1, (20, 20))
            .conv(ConvSpec::new(4, (3, 3)))
            .lrn(LrnSpec {
                window_maps: 3,
                k: 1.0,
                alpha: 0.5,
            })
            .pool(PoolSpec::max((2, 2)))
            .lcn(LcnSpec::new(3))
            .fc(FcSpec::new(7)),
        20,
    );
}

#[test]
fn results_match_across_pe_grid_sizes() {
    // The mapping is PE-grid agnostic: outputs must not change with the
    // array dimensions.
    let net = zoo::lenet5().build(5).unwrap();
    let input = net.random_input(6);
    let golden = net.forward_fixed(&input).output();
    for (px, py) in [(1, 1), (2, 3), (4, 4), (8, 8), (16, 16), (5, 7)] {
        let accel = Accelerator::new(AcceleratorConfig::with_pe_grid(px, py));
        let run = accel
            .prepare(&net)
            .and_then(|p| p.session().run(&input))
            .unwrap();
        assert_eq!(run.output(), golden, "diverges on {px}x{py} PE grid");
    }
}

#[test]
fn results_match_without_propagation() {
    // Inter-PE propagation is a pure bandwidth optimisation: turning it
    // off must not change results, only NBin traffic.
    let net = zoo::cff().build(3).unwrap();
    let input = net.random_input(4);
    let with = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let without = Accelerator::new(AcceleratorConfig::paper().without_propagation())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(with.output(), without.output());
    let with_reads = with.stats().total().nbin.read_bytes;
    let without_reads = without.stats().total().nbin.read_bytes;
    assert!(
        with_reads < without_reads,
        "propagation must reduce NBin reads ({with_reads} vs {without_reads})"
    );
}
