//! Digit-recognition pipeline: LeNet-5 inference with a per-layer
//! breakdown of cycles, buffer traffic, read modes, and energy — the view
//! an architect uses to see where the accelerator spends its time.
//!
//! ```text
//! cargo run --release --example digit_pipeline
//! ```

use shidiannao::prelude::*;
use shidiannao::sim::ReadMode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = zoo::lenet5().build(42)?;
    let accel = Accelerator::new(AcceleratorConfig::paper());

    // A deterministic synthetic "digit" (the paper evaluates layer shapes,
    // not trained accuracy — weights and inputs are seeded).
    let input = network.random_input(1234);
    let run = accel.prepare(&network)?.session().run(&input)?;

    println!("LeNet-5 on ShiDianNao (8x8 PEs, 1 GHz)");
    println!(
        "{:<6} {:>9} {:>8} {:>11} {:>11} {:>9} {:>7}",
        "layer", "cycles", "PE util", "NBin reads", "SB reads", "FIFO pops", "modes"
    );
    for layer in run.stats().layers() {
        let modes: String = ReadMode::ALL
            .iter()
            .filter(|&&m| layer.reads_by_mode[m as usize] > 0)
            .map(|m| m.to_string())
            .collect();
        println!(
            "{:<6} {:>9} {:>7.1}% {:>10}B {:>10}B {:>9} {:>7}",
            layer.label,
            layer.cycles,
            100.0 * layer.pe_utilization(),
            layer.nbin.read_bytes,
            layer.sb.read_bytes,
            layer.fifo_pops,
            modes
        );
    }

    let total = run.stats().total();
    println!(
        "\ntotal: {} cycles, {:.1} us, {} | inter-PE transfers saved {} NBin reads",
        run.stats().cycles(),
        run.seconds() * 1e6,
        run.energy(),
        total.fifo_pops
    );

    // Classify: the winning output neuron is the predicted digit.
    let output = run.output();
    let (digit, score) = output
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1))
        .expect("LeNet-5 has ten outputs");
    println!("predicted digit: {digit} (score {score})");

    // Cross-check against the golden reference and the float model.
    let golden = network.forward_fixed(&input);
    assert_eq!(output, golden.output());
    println!("bit-identical to the fixed-point golden reference ✓");
    Ok(())
}
