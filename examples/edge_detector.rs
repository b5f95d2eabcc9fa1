//! A semantically meaningful workload: hand-crafted Sobel edge-detection
//! kernels loaded into a ShiDianNao network (the §3 deployment model —
//! weights trained/designed off-line, shipped to the sensor), run on a
//! synthetic frame, and cross-checked against a hand-computed response.
//!
//! ```text
//! cargo run --release --example edge_detector
//! ```

use shidiannao::cnn::{io, Activation, ConvSpec, NetworkBuilder};
use shidiannao::prelude::*;
use shidiannao::tensor::FeatureMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Topology: one conv layer, two output maps (Sobel X / Sobel Y).
    let mut network = NetworkBuilder::new("sobel", 1, (16, 16))
        .conv(ConvSpec::new(2, (3, 3)).with_activation(Activation::None))
        .build(0)?;

    // 2. Replace the random weights with the classic Sobel kernels,
    //    scaled by 1/8 to keep responses within Q7.8.
    let s = 1.0 / 8.0;
    let sobel_x = FeatureMap::from_vec(
        3,
        3,
        [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0]
            .iter()
            .map(|v| Fx::from_f32(v * s))
            .collect(),
    )?;
    let sobel_y = FeatureMap::from_vec(
        3,
        3,
        [-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0]
            .iter()
            .map(|v| Fx::from_f32(v * s))
            .collect(),
    )?;
    network.set_conv_kernel(0, 0, 0, sobel_x.clone())?;
    network.set_conv_kernel(0, 1, 0, sobel_y.clone())?;
    network.set_conv_bias(0, 0, Fx::ZERO)?;
    network.set_conv_bias(0, 1, Fx::ZERO)?;

    // 3. A synthetic scene: dark left half, bright right half — one sharp
    //    vertical edge at column 8.
    let scene = FeatureMap::from_fn(16, 16, |x, _| Fx::from_f32(if x < 8 { 0.1 } else { 0.9 }));
    let mut input = shidiannao::tensor::MapStack::new(16, 16);
    input.push(scene.clone())?;

    // 4. Run on the accelerator.
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let run = accel.prepare(&network)?.session().run(&input)?;
    let maps = &run.layer_outputs()[0];
    let (gx, gy) = (&maps[0], &maps[1]);

    // 5. The X response must spike exactly where kernels straddle the
    //    edge (output columns 6 and 7) and vanish elsewhere; the Y
    //    response must be zero everywhere (no horizontal edges).
    let mut peak_cols = Vec::new();
    for x in 0..14 {
        if gx[(x, 7)].to_f32().abs() > 0.2 {
            peak_cols.push(x);
        }
    }
    assert_eq!(peak_cols, vec![6, 7], "X response peaks at the edge");
    assert!(gy.iter().all(|v| v.to_f32().abs() < 0.01), "no Y response");

    // 6. And the whole thing matches a hand-computed convolution.
    let hand = |kernel: &FeatureMap<Fx>, x: usize, y: usize| {
        let mut acc = shidiannao::fixed::Accum::new();
        for ky in 0..3 {
            for kx in 0..3 {
                acc.mac(scene[(x + kx, y + ky)], kernel[(kx, ky)]);
            }
        }
        acc.to_fx()
    };
    for y in 0..14 {
        for x in 0..14 {
            assert_eq!(gx[(x, y)], hand(&sobel_x, x, y));
            assert_eq!(gy[(x, y)], hand(&sobel_y, x, y));
        }
    }
    println!("Sobel X response along row 7 (output columns 0..14):");
    for x in 0..14 {
        print!("{:>6.2}", gx[(x, 7)].to_f32());
    }
    println!("\nedge located at columns 6–7, exactly under the brightness step ✓");

    // 7. Ship the detector: the model round-trips through the binary
    //    format for deployment.
    let mut bytes = Vec::new();
    io::save(&network, &mut bytes)?;
    let reloaded = io::load(bytes.as_slice())?;
    let rerun = accel.prepare(&reloaded)?.session().run(&input)?;
    assert_eq!(rerun.output(), run.output());
    println!(
        "model serialized to {} bytes and re-verified after reload ✓",
        bytes.len()
    );
    Ok(())
}
