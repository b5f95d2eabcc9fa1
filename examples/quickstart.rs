//! Quickstart: build LeNet-5, run one inference on the simulated
//! ShiDianNao accelerator, and verify it against the golden reference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use shidiannao::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a benchmark CNN with deterministic weights (Table 2's
    //    LeNet-5: two conv, two pooling, three classifier layers).
    let network = zoo::lenet5().build(42)?;
    println!(
        "network: {} ({} layers)",
        network.name(),
        network.layers().len()
    );

    // 2. Instantiate the accelerator with the paper's parameters
    //    (8×8 PEs, 64 KB NBin, 64 KB NBout, 128 KB SB, 32 KB IB, 1 GHz).
    let accel = Accelerator::new(AcceleratorConfig::paper());

    // 3. Run one inference cycle-by-cycle.
    let input = network.random_input(7);
    let run = accel.prepare(&network)?.session().run(&input)?;

    // 4. The simulator is bit-identical to the fixed-point golden model.
    let golden = network.forward_fixed(&input);
    assert_eq!(run.output(), golden.output());
    println!("output  : {:?}", run.output());

    // 5. Performance and energy come straight from the event counters.
    let stats = run.stats();
    println!(
        "cycles  : {} ({:.1} us at 1 GHz)",
        stats.cycles(),
        run.seconds() * 1e6
    );
    println!("PE util : {:.1} %", 100.0 * stats.total().pe_utilization());
    println!("energy  : {}", run.energy());
    println!("power   : {:.1} mW", run.average_power_mw());
    println!(
        "GOP/s   : {:.1} effective of {:.0} peak",
        run.effective_gops(),
        accel.config().peak_gops()
    );
    Ok(())
}
