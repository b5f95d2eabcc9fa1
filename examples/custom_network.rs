//! Define your own CNN with the builder API — including the layer types
//! the benchmarks don't exercise (strided convolution, overlapping
//! pooling, LRN and LCN normalization, sparse classifiers) — and run it on
//! the accelerator.
//!
//! ```text
//! cargo run --release --example custom_network
//! ```

use shidiannao::cnn::{Activation, ConvSpec, FcSpec, LcnSpec, LrnSpec, NetworkBuilder, PoolSpec};
use shidiannao::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-channel 40×40 input through one of everything.
    let network = NetworkBuilder::new("kitchen-sink", 3, (40, 40))
        // Strided convolution with partial connectivity and sigmoid.
        .conv(
            ConvSpec::new(8, (5, 5))
                .with_stride((2, 2))
                .with_pairs(16)
                .with_activation(Activation::Sigmoid),
        )
        // Cross-map response normalization (decomposed per Fig. 15).
        .lrn(LrnSpec {
            window_maps: 3,
            k: 1.0,
            alpha: 0.25,
        })
        // Overlapping max pooling — the "rare case" handled like a
        // convolution (§8.2).
        .pool(PoolSpec::max((3, 3)).with_stride((2, 2)))
        // Local contrast normalization (decomposed per Fig. 16).
        .lcn(LcnSpec::new(5))
        .conv(ConvSpec::new(12, (3, 3)))
        .pool(PoolSpec::avg((2, 2)))
        // A sparse classifier: each output reads 32 of the inputs.
        .fc(FcSpec::new(24).with_synapses_per_output(32))
        .fc(FcSpec::new(4).with_activation(Activation::None))
        .build(7)?;

    println!("{}:", network.name());
    for layer in network.layers() {
        println!(
            "  {:<3} {:<5} {:>3} maps of {:>3}x{:<3} ({} synapses)",
            layer.label(),
            layer.kind().to_string(),
            layer.out_maps(),
            layer.out_dims().0,
            layer.out_dims().1,
            layer.synapse_count()
        );
    }

    let report = shidiannao::cnn::storage::report(&network);
    println!(
        "storage: largest layer {:.2} KB, synapses {:.2} KB, total {:.2} KB",
        report.largest_layer_kb(),
        report.synapse_kb(),
        report.total_kb()
    );

    let accel = Accelerator::new(AcceleratorConfig::paper());
    let input = network.random_input(3);
    let run = accel.prepare(&network)?.session().run(&input)?;
    assert_eq!(run.output(), network.forward_fixed(&input).output());
    println!(
        "ran in {} cycles ({:.1} us); output = {:?}",
        run.stats().cycles(),
        run.seconds() * 1e6,
        run.output()
    );

    // Compare against the baselines for context.
    let cpu = CpuModel::xeon_e7_8830().run_seconds(&network);
    let dn = DianNao::new(DianNaoConfig::paper()).run(&network);
    println!(
        "speedups: {:.1}x over the CPU model, {:.2}x over the DianNao model",
        cpu / run.seconds(),
        dn.seconds() / run.seconds()
    );
    Ok(())
}
