//! Microarchitectural invariants and the paper's §8.1 data-reuse claims.

use shidiannao_cnn::{zoo, ConvSpec, NetworkBuilder};
use shidiannao_core::{Accelerator, AcceleratorConfig, ReadMode};

/// §8.1's toy example: 2 × 2 PEs, 3 × 3 kernel, 1 × 1 stride — "inter-PE
/// data propagations reduce by 44.4 % the number of reads to NBin".
#[test]
fn toy_example_reuse_is_exactly_44_4_percent() {
    let net = NetworkBuilder::new("toy", 1, (4, 4))
        .conv(ConvSpec::new(1, (3, 3)))
        .build(1)
        .unwrap();
    let input = net.random_input(2);
    let cfg = AcceleratorConfig::with_pe_grid(2, 2);
    let with = Accelerator::new(cfg.clone())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let without = Accelerator::new(cfg.without_propagation())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    // Count neurons read during the conv layer (layer index 1 after Load).
    let read = |o: &shidiannao_core::RunOutcome| o.stats().layers()[1].nbin.read_bytes / 2;
    let (w, wo) = (read(&with), read(&without));
    assert_eq!(wo, 36, "9 cycles × 4 PEs without propagation");
    assert_eq!(
        w, 20,
        "4 + 2·2 (mode f) + 2 (mode c) + 2·2·2 with propagation"
    );
    let reduction = 1.0 - w as f64 / wo as f64;
    assert!(
        (reduction - 0.444).abs() < 0.001,
        "reduction {reduction} != 44.4 %"
    );
}

/// §8.1's full-scale claim on LeNet-5 C1 with 64 PEs: the paper reports a
/// 73.88 % NBin-traffic reduction; our cycle-accurate count of the same
/// dataflow gives 82.3 % (the paper's number is not reconstructible from
/// its own toy-example arithmetic — see EXPERIMENTS.md). Assert the
/// reduction is large and in that band.
#[test]
fn lenet_c1_reuse_reduction_band() {
    let net = zoo::lenet5().build(1).unwrap();
    let input = net.random_input(3);
    let with = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let without = Accelerator::new(AcceleratorConfig::paper().without_propagation())
        .prepare(&net)
        .and_then(|p| p.session().run(&input))
        .unwrap();
    let read = |o: &shidiannao_core::RunOutcome| o.stats().layers()[1].nbin.read_bytes as f64;
    let reduction = 1.0 - read(&with) / read(&without);
    assert!(
        (0.70..0.90).contains(&reduction),
        "C1 reduction {reduction}"
    );
}

#[test]
fn fifo_peaks_equal_strides() {
    // §5.1 FIFO sizing: depth Sx for FIFO-H, Sy for FIFO-V.
    for (sx, sy) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2)] {
        let net = NetworkBuilder::new("s", 1, (21, 21))
            .conv(ConvSpec::new(2, (7, 7)).with_stride((sx, sy)))
            .build(1)
            .unwrap();
        let run = Accelerator::new(AcceleratorConfig::paper())
            .prepare(&net)
            .and_then(|p| p.session().run(&net.random_input(1)))
            .unwrap();
        let total = run.stats().total();
        assert_eq!(total.fifo_h_peak, sx, "FIFO-H depth for stride {sx}x{sy}");
        assert_eq!(total.fifo_v_peak, sy, "FIFO-V depth for stride {sx}x{sy}");
    }
}

#[test]
fn conv_uses_the_modes_the_paper_assigns() {
    // §7.1: convolutional layers use modes (a)/(b), (c), (e in rare
    // strided cases), and (f); never the classifier broadcast (d).
    let net = zoo::lenet5().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    let c1 = &run.stats().layers()[1];
    assert!(c1.reads_by_mode[ReadMode::A as usize] > 0, "mode (a) tiles");
    assert!(c1.reads_by_mode[ReadMode::C as usize] > 0, "mode (c) rows");
    assert!(
        c1.reads_by_mode[ReadMode::F as usize] > 0,
        "mode (f) columns"
    );
    assert_eq!(c1.reads_by_mode[ReadMode::D as usize], 0, "no mode (d)");
}

#[test]
fn classifier_uses_broadcast_mode_only() {
    let net = zoo::lenet5().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    // F5 is layer index 5 (after Load, C1, S2, C3, S4).
    let f5 = &run.stats().layers()[5];
    assert_eq!(f5.label, "F5");
    assert!(f5.reads_by_mode[ReadMode::D as usize] > 0);
    for m in [
        ReadMode::A,
        ReadMode::B,
        ReadMode::C,
        ReadMode::E,
        ReadMode::F,
    ] {
        assert_eq!(f5.reads_by_mode[m as usize], 0, "classifier used {m}");
    }
    // 120 outputs = two PE groups; each re-broadcasts all 400 inputs
    // (mode (d)) and reads a 64-wide synapse row per cycle, plus one
    // bias load per group (64- and 56-wide).
    assert_eq!(f5.nbin.read_accesses, 800);
    assert_eq!(f5.sb.read_bytes, 800 * 64 * 2 + (64 + 56) * 2);
}

#[test]
fn pooling_uses_strided_gathers() {
    let net = zoo::lenet5().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    let s2 = &run.stats().layers()[2];
    assert_eq!(s2.label, "S2");
    assert!(s2.reads_by_mode[ReadMode::E as usize] > 0, "mode (e)");
    assert_eq!(s2.fifo_pops, 0, "non-overlapping pooling never propagates");
    assert_eq!(s2.sb.read_bytes, 0, "pooling has no synapses");
}

#[test]
fn write_blocks_respect_column_parity() {
    // Fig. 11: output blocks land alternately in bank groups 0 and 1.
    // LeNet-5 C1 output is 28 wide = 4 blocks per row: groups 0,1,0,1.
    let net = zoo::lenet5().build(1).unwrap();
    let input = net.random_input(1);
    // Drive the buffer directly to inspect the histogram.
    use shidiannao_core::{LayerStats, NeuronBuffer};
    use shidiannao_fixed::Fx;
    let mut nb = NeuronBuffer::new(8, 8, 64 * 1024);
    nb.begin_output(28, 8, 1).unwrap();
    let mut stats = LayerStats::new("t");
    for bx in 0..4 {
        let w = if bx < 3 { 8 } else { 4 };
        let vals = vec![Fx::ZERO; w * 8];
        nb.write_block(0, (bx * 8, 0), (w, 8), &vals, &mut stats);
    }
    assert_eq!(nb.write_group_histogram(), [2, 2]);
    let _ = (net, input);
}

#[test]
fn simple_conv_underutilizes_pes() {
    // §10.2: Simple Conv's 5×5 C2 maps leave most of an 8×8 array idle —
    // the reason ShiDianNao loses to DianNao on this one benchmark.
    let net = zoo::simple_conv().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    let c2 = &run.stats().layers()[2];
    assert_eq!(c2.label, "C2");
    let util = c2.pe_utilization();
    assert!(
        (0.30..0.45).contains(&util),
        "C2 utilization {util} should be ≈ 25/64"
    );
    // By contrast LeNet-5 C1 keeps the array mostly busy.
    let lenet = zoo::lenet5().build(1).unwrap();
    let run2 = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&lenet)
        .and_then(|p| p.session().run(&lenet.random_input(1)))
        .unwrap();
    assert!(run2.stats().layers()[1].pe_utilization() > 0.7);
}

#[test]
fn bandwidth_without_propagation_matches_analytic_form() {
    // Fig. 7 sanity anchor: with N PEs and no propagation, a conv layer
    // reads 2·N bytes of neurons plus 2 bytes of kernel per cycle —
    // 52 GB/s at 25 PEs and 1 GHz.
    let net = NetworkBuilder::new("f7", 1, (34, 34))
        .conv(ConvSpec::new(1, (5, 5)))
        .build(1)
        .unwrap();
    let cfg = AcceleratorConfig::with_pe_grid(5, 5).without_propagation();
    let run = Accelerator::new(cfg)
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    let conv = &run.stats().layers()[1];
    // Ignore the epilogue cycles: bytes/cycle ≈ 52 within a few percent.
    let bpc = conv.internal_bytes_per_cycle();
    assert!((48.0..=52.0).contains(&bpc), "bytes/cycle = {bpc}");
}

#[test]
fn hfsm_transitions_are_exercised() {
    let net = zoo::lenet5().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    // Every conv cycle beyond the first in a row walks the phase ring;
    // the FIFO counters prove both H and V propagation happened.
    let total = run.stats().total();
    assert!(total.fifo_pops > 0);
    assert!(total.fifo_pushes > total.fifo_pops);
}

/// The closed-form NBin read count for one window pass (derived from the
/// Fig. 13 schedule): the fill tile reads `w·h`, each of the `Ky` kernel
/// rows reads `Kx − 1` mode-(f) columns of `h` neurons, and each of the
/// `Ky − 1` row steps reads a mode-(c) row of `w` neurons.
#[test]
fn conv_pass_reads_match_the_closed_form() {
    for (w, h, kx, ky) in [
        (8usize, 8usize, 5usize, 5usize),
        (4, 8, 3, 7),
        (8, 3, 2, 2),
        (5, 5, 1, 4),
    ] {
        let dim_x = w + kx - 1;
        let dim_y = h + ky - 1;
        let net = NetworkBuilder::new("cf", 1, (dim_x, dim_y))
            .conv(ConvSpec::new(1, (kx, ky)))
            .build(1)
            .unwrap();
        let run = Accelerator::new(AcceleratorConfig::with_pe_grid(w, h))
            .prepare(&net)
            .and_then(|p| p.session().run(&net.random_input(1)))
            .unwrap();
        let measured = run.stats().layers()[1].nbin.read_bytes / 2;
        let expected = (w * h + (kx - 1) * h * ky + (ky - 1) * w) as u64;
        assert_eq!(measured, expected, "w={w} h={h} kx={kx} ky={ky}");
    }
}

/// Without propagation the same pass reads `w·h·Kx·Ky` neurons — the
/// Fig. 7 "without" series in closed form.
#[test]
fn conv_pass_reads_without_propagation_match_the_closed_form() {
    let (w, h, kx, ky) = (8usize, 8usize, 5usize, 5usize);
    let net = NetworkBuilder::new("cf", 1, (w + kx - 1, h + ky - 1))
        .conv(ConvSpec::new(1, (kx, ky)))
        .build(1)
        .unwrap();
    let run = Accelerator::new(AcceleratorConfig::with_pe_grid(w, h).without_propagation())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    let measured = run.stats().layers()[1].nbin.read_bytes / 2;
    assert_eq!(measured, (w * h * kx * ky) as u64);
}

/// Effective throughput never exceeds the configured peak, and busy
/// benchmarks approach it (the paper's 194 GOP/s headline is a peak-ops
/// figure; our accounting peaks at 128 GOP/s for 64 MACs — see
/// EXPERIMENTS.md).
#[test]
fn effective_gops_is_bounded_by_peak() {
    for name in ["LeNet-5", "FaceAlign", "SimpleConv"] {
        let net = zoo::by_name(name).unwrap().build(1).unwrap();
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let run = accel
            .prepare(&net)
            .and_then(|p| p.session().run(&net.random_input(1)))
            .unwrap();
        let eff = run.effective_gops();
        assert!(
            eff > 0.0 && eff <= accel.config().peak_gops() * 1.01,
            "{name}: {eff}"
        );
    }
    // FaceAlign runs at >80 % utilization: effective must be close to peak.
    let net = zoo::face_align().build(1).unwrap();
    let run = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .and_then(|p| p.session().run(&net.random_input(1)))
        .unwrap();
    assert!(run.effective_gops() > 90.0, "{}", run.effective_gops());
}
