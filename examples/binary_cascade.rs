//! The two-stage sensor-side cascade: a 1-bit binarized front-end
//! scores every region tile of a synthetic scene, and only regions
//! clearing the escalation threshold run the full-precision LeNet-5.
//!
//! ```text
//! cargo run --release --example binary_cascade
//! ```
//!
//! Both stages run on the real simulator and replay bit-identically to
//! the fixed-point golden reference; the front-end charges the `W1`
//! energy scaling its XNOR-popcount datapath earns. `harness cascade`
//! is the gated, artifact-writing version of this scenario.

use shidiannao::prelude::*;
use shidiannao::quant::{binary_front, run_cascade};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = CascadeConfig::smoke();
    let front = binary_front(cfg.net_seed, cfg.region)?;
    println!(
        "front-end: {} at w1 — SB {} bytes packed vs {} at 16 bits ({:.1}x smaller)",
        front.network.name(),
        front.packed_sb_bytes,
        front.baseline_sb_bytes,
        front.compression()
    );

    let report = run_cascade(&cfg)?;
    println!(
        "scene    : {} frames of {}x{}, {} region tiles",
        cfg.frames,
        cfg.frame.0,
        cfg.frame.1,
        report.regions.len()
    );
    println!(
        "stages   : front {} cycles / {:.1} nJ, full {} cycles / {:.1} nJ ({:.1}x advantage)",
        report.front_cycles,
        report.front_energy_nj,
        report.full_cycles,
        report.full_energy_nj,
        report.front_advantage()
    );
    println!(
        "cascade  : {}/{} escalated ({:.0}%), missed positives {}",
        report.escalated,
        report.regions.len(),
        100.0 * report.escalation_rate,
        report.missed_positives
    );
    println!(
        "savings  : {:.1}% cycles, {:.1}% energy vs running LeNet-5 everywhere",
        100.0 * report.cycles_saved(),
        100.0 * report.energy_saved()
    );
    assert!(report.front_bit_identical && report.full_bit_identical);
    assert!(report.kernel_certified);
    println!("certified: both stages bit-identical to golden, XNOR kernels certified");
    Ok(())
}
