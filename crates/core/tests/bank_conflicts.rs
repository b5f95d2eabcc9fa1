//! Bank-conflict accounting: the paper's six read modes are conflict-free
//! for stride-1 workloads, and the measured stall count quantifies what a
//! naive banked SRAM would lose on strided workloads.

use shidiannao_cnn::{zoo, ConvSpec, NetworkBuilder, PoolSpec};
use shidiannao_core::{Accelerator, AcceleratorConfig};

#[test]
fn stride_one_convolutions_are_conflict_free() {
    // Every benchmark conv layer slides by 1: mode (a)/(b) tiles touch
    // each bank once, mode (c) rows touch one bank, mode (f) columns
    // touch one neuron per bank — zero conflicts by design (§7.1).
    let net = NetworkBuilder::new("s1", 2, (20, 20))
        .conv(ConvSpec::new(4, (5, 5)))
        .build(1)
        .unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    assert_eq!(run.stats().total().bank_conflict_cycles, 0);
}

#[test]
fn strided_convolutions_conflict() {
    // Stride 2 on an 8-row mesh: a column read spans 16 input rows, so
    // pairs of requests land in the same bank (row mod 8).
    let net = NetworkBuilder::new("s2", 1, (21, 21))
        .conv(ConvSpec::new(2, (5, 5)).with_stride((2, 2)))
        .build(1)
        .unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    assert!(run.stats().total().bank_conflict_cycles > 0);
}

#[test]
fn stride_two_pooling_conflicts_but_stride_one_load_does_not() {
    let net = NetworkBuilder::new("pool", 1, (16, 16))
        .pool(PoolSpec::max((2, 2)))
        .build(1)
        .unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    // The 8×8 gather at stride 2 spans 16 rows → two requests per bank.
    let pool = &run.stats().layers()[1];
    assert!(pool.bank_conflict_cycles > 0);
    assert_eq!(run.stats().layers()[0].bank_conflict_cycles, 0, "Load");
}

#[test]
fn stall_modeling_extends_cycles_without_changing_results() {
    let net = zoo::simple_conv().build(3).unwrap();
    let input = net.random_input(4);
    let ideal = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let stalled = Accelerator::new(AcceleratorConfig::paper().with_bank_conflicts())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(ideal.output(), stalled.output());
    let conflicts = ideal.stats().total().bank_conflict_cycles;
    assert!(conflicts > 0, "SimpleConv's stride-2 convs must conflict");
    assert_eq!(
        stalled.stats().cycles(),
        ideal.stats().cycles() + conflicts,
        "stall modeling adds exactly the measured conflict cycles"
    );
}

#[test]
fn benchmark_conflict_profile_matches_stride_usage() {
    // Only SimpleConv (stride-2 convolutions) and the stride-2 pooling
    // layers should show conflicts; LeNet's conv layers should not.
    let lenet = zoo::lenet5().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&lenet)
        .and_then(|p| p.session().run(&lenet.random_input(1)))
        .unwrap();
    for layer in run.stats().layers() {
        if layer.label.starts_with('C') || layer.label.starts_with('F') {
            assert_eq!(
                layer.bank_conflict_cycles, 0,
                "{} should be conflict-free",
                layer.label
            );
        }
    }
}
