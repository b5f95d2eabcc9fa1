//! Sensor streaming (§10.2): run the ConvNN text detector over the
//! overlapping regions of a synthetic 640×480 frame and report the
//! sustained frame rate — the paper's real-time argument.
//!
//! Processing all 1 073 regions takes a little while in a debug build;
//! use `--release`. Pass a region budget to subsample:
//!
//! ```text
//! cargo run --release --example sensor_stream        # full frame
//! cargo run --release --example sensor_stream 50     # first 50 regions
//! ```

use shidiannao::prelude::*;
use shidiannao::sensor::{frames_per_second, RegionGrid, RowBuffer, SyntheticSensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(usize::MAX);

    let grid = RegionGrid::paper_convnn();
    let network = zoo::convnn().build(42)?;
    let prepared = Accelerator::new(AcceleratorConfig::paper()).prepare(&network)?;
    let mut session = prepared.session();
    assert_eq!(grid.region_dims(), network.input_dims());

    let mut cam = SyntheticSensor::vga(99);
    let frame = cam.next_frame();
    println!("sensor : {grid}");
    let buffer = RowBuffer::for_grid(&grid, 2);
    println!(
        "buffer : {} rows = {:.1} KB (fits a 256 KB image processor: {})",
        buffer.rows(),
        buffer.bytes() as f64 / 1024.0,
        buffer.fits_commercial_sram()
    );

    let mut processed = 0usize;
    let mut cycles_total = 0u64;
    let mut detections = 0usize;
    let mut per_region_s = 0.0;
    for region in grid.try_stream(&frame, network.input_maps())?.take(budget) {
        let run = session.run(&region)?;
        per_region_s = run.seconds();
        cycles_total += run.stats().cycles();
        if run.output()[0] > Fx::ZERO {
            detections += 1;
        }
        processed += 1;
    }

    println!(
        "regions: {processed} processed, {} cycles total, {detections} positive scores",
        cycles_total
    );
    println!(
        "timing : {:.3} ms/region -> {:.1} ms/frame -> {:.1} fps (paper: 0.047 ms, ~50 ms, 20 fps)",
        per_region_s * 1e3,
        per_region_s * grid.count() as f64 * 1e3,
        frames_per_second(grid.count(), per_region_s)
    );
    Ok(())
}
