//! Cross-crate integration: the full sensor → accelerator → host pipeline,
//! exercised through the facade crate's public API.

use shidiannao::prelude::*;
use shidiannao::sensor::{RegionGrid, SyntheticSensor};

#[test]
fn quickstart_flow_is_bit_exact() {
    let network = zoo::lenet5().build(42).unwrap();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let input = network.random_input(7);
    let run = accel
        .prepare(&network)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    assert_eq!(run.output(), network.forward_fixed(&input).output());
    assert!(run.stats().cycles() > 0);
    assert!(run.energy().total_nj() > 0.0);
}

#[test]
fn sensor_regions_run_through_the_accelerator() {
    // A small frame streamed region-by-region into Gabor (20×20 input).
    let mut cam = SyntheticSensor::new(52, 36, 3);
    let frame = cam.next_frame();
    let grid = RegionGrid::new((52, 36), (20, 20), (16, 16));
    let net = zoo::gabor().build(9).unwrap();
    let prepared = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .unwrap();
    let mut session = prepared.session();
    let mut outputs = Vec::new();
    for region in grid.stream(&frame, net.input_maps()) {
        let run = session.run(&region).unwrap();
        assert_eq!(run.output(), net.forward_fixed(&region).output());
        outputs.push(run.output()[0]);
    }
    assert_eq!(outputs.len(), grid.count());
    // Different regions of a textured frame produce different scores.
    assert!(outputs.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn convnn_region_matches_paper_geometry() {
    // §10.2's streaming benchmark: the ConvNN input shape is exactly one
    // sensor region.
    let grid = RegionGrid::paper_convnn();
    let net = zoo::convnn().build(1).unwrap();
    assert_eq!(grid.region_dims(), net.input_dims());
    let mut cam = SyntheticSensor::vga(5);
    let frame = cam.next_frame();
    let region = frame
        .try_region_stacked(grid.origin(36, 28), grid.region_dims(), 3)
        .unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&region))
        .unwrap();
    assert_eq!(run.output().len(), 1);
}

#[test]
fn oversized_network_is_rejected_with_the_right_buffer() {
    // A CNN whose synapses exceed the 128 KB SB must fail capacity checks.
    let net = NetworkBuilder::new("too-big", 1, (16, 16))
        .fc(shidiannao::cnn::FcSpec::new(300))
        .build(1)
        .unwrap();
    let mut cfg = AcceleratorConfig::paper();
    cfg.sb_bytes = 16;
    let accel = Accelerator::new(cfg);
    let err = accel
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap_err();
    assert!(err.to_string().contains("SB"), "{err}");
}

#[test]
fn wrong_input_shape_is_rejected() {
    let net = zoo::lenet5().build(1).unwrap();
    let wrong = zoo::gabor().build(1).unwrap().random_input(1);
    let err = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&wrong))
        .unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn fixed_point_tracks_floating_point_on_lenet() {
    // §5's premise: 16-bit fixed point brings negligible accuracy loss.
    let net = zoo::lenet5().build(11).unwrap();
    let input = net.random_input(13);
    let fixed = net.forward_fixed(&input).output();
    let float = net.forward_f32(&input.map(|v| v.to_f32()));
    let float_out = float.last().unwrap().flatten();
    for (a, b) in fixed.iter().zip(&float_out) {
        assert!((a.to_f32() - b).abs() < 0.12, "{} vs {b}", a.to_f32());
    }
    // The winning class agrees between the two arithmetics.
    let argmax = |v: &[f32]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    };
    let fixed_f: Vec<f32> = fixed.iter().map(|v| v.to_f32()).collect();
    assert_eq!(argmax(&fixed_f), argmax(&float_out));
}

#[test]
fn facade_prelude_exposes_the_whole_flow() {
    // Every name the README quickstart uses resolves through the prelude.
    let _cfg: AcceleratorConfig = AcceleratorConfig::paper();
    let _cpu = CpuModel::xeon_e7_8830();
    let _gpu = GpuModel::k20m();
    let _dn = DianNao::new(DianNaoConfig::paper());
    let _grid: WindowGrid = WindowGrid::new((8, 8), (3, 3), (1, 1)).unwrap();
    let map: FeatureMap<Fx> = FeatureMap::filled(2, 2, Fx::ONE);
    let mut stack: MapStack<Fx> = MapStack::new(2, 2);
    stack.push(map).unwrap();
    let _pla: Pla = Pla::tanh();
    let mut acc = Accum::new();
    acc.mac(Fx::ONE, Fx::ONE);
    assert_eq!(acc.to_fx(), Fx::ONE);
    let _layer: Option<&Layer> = zoo::gabor().build(1).unwrap().layers().first();
}

/// The §10.2 frame end to end: the strip-prefix `FrameReport` (ConvNN's
/// C1–S4 rolled down each worker's band of region rows) equals the plain
/// per-region loop in every output, in cycles, and in energy to the bit.
/// A full VGA frame: CI runs it in release at one, two and three
/// workers, which split the frame into different bands.
#[test]
#[ignore = "a full VGA frame; run with --release -- --ignored"]
fn vga_frame_report_equals_the_per_region_loop() {
    let net = zoo::convnn().build(1).unwrap();
    let grid = RegionGrid::paper_convnn();
    let pipe =
        StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid).unwrap();
    let frame = SyntheticSensor::vga(5).next_frame();
    let report = pipe.process_frame(&frame).unwrap();
    assert_eq!(report.results().len(), grid.count());
    let mut session = pipe.prepared().session();
    let (mut cycles, mut nj) = (0, 0.0f64);
    for (i, region) in grid.stream(&frame, 3).enumerate() {
        let run = session.infer(&region).unwrap();
        cycles += run.stats().cycles();
        nj += run.energy().total_nj();
        assert_eq!(report.results()[i].output, run.output_flat(), "region {i}");
    }
    assert_eq!(report.compute_cycles() + report.load_cycles(), cycles);
    assert_eq!(report.energy_nj().to_bits(), nj.to_bits());
}
