//! Design-space exploration: sweep the PE array and buffer sizes around
//! the paper's 8×8 / 288 KB design point and report performance, area,
//! and energy for each — the study behind §10.2's design choices.
//!
//! ```text
//! cargo run --release --example design_space [benchmark]
//! ```

use shidiannao::prelude::*;
use shidiannao::sim::area::area_of;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "LeNet-5".into());
    let builder = zoo::by_name(&which)
        .ok_or_else(|| format!("unknown benchmark '{which}' (try `LeNet-5`, `ConvNN`, …)"))?;
    let network = builder.build(42)?;
    let input = network.random_input(7);

    println!("design-space sweep on {}", network.name());
    println!(
        "{:>6} {:>10} {:>9} {:>10} {:>11} {:>10}",
        "PEs", "cycles", "PE util", "area mm2", "energy nJ", "nJ x mm2"
    );

    let mut golden: Option<Vec<Fx>> = None;
    for side in [2usize, 4, 6, 8, 12, 16] {
        let cfg = AcceleratorConfig::with_pe_grid(side, side);
        let area = area_of(&cfg).total_mm2();
        let run = Accelerator::new(cfg)
            .prepare(&network)?
            .session()
            .run(&input)?;
        // Functional results must not depend on the design point.
        match &golden {
            None => golden = Some(run.output()),
            Some(g) => assert_eq!(&run.output(), g, "results changed with PE grid"),
        }
        let energy = run.energy().total_nj();
        println!(
            "{:>3}x{:<3} {:>9} {:>8.1}% {:>10.2} {:>11.1} {:>10.1}",
            side,
            side,
            run.stats().cycles(),
            100.0 * run.stats().total().pe_utilization(),
            area,
            energy,
            energy * area
        );
    }

    println!("\nbuffer sweep at 8x8 PEs (NBin = NBout):");
    println!("{:>9} {:>10} {:>10}", "NB KB", "fits?", "cycles");
    for kb in [4usize, 16, 32, 64, 128] {
        let mut cfg = AcceleratorConfig::paper();
        cfg.nbin_bytes = kb * 1024;
        cfg.nbout_bytes = kb * 1024;
        match Accelerator::new(cfg)
            .prepare(&network)
            .and_then(|p| p.session().run(&input))
        {
            Ok(run) => println!("{:>9} {:>10} {:>10}", kb, "yes", run.stats().cycles()),
            Err(e) => println!("{:>9} {:>10} ({e})", kb, "no"),
        }
    }
    println!(
        "\nthe paper's point: performance is buffer-threshold limited (a layer either \
         fits on chip or cannot run), so capacity follows Table 1's worst case."
    );
    Ok(())
}
