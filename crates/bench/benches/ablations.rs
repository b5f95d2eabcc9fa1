//! Ablation benches for the design choices DESIGN.md calls out:
//! inter-PE propagation, PE-array sizing, FIFO depth vs stride, and the
//! 61-bit HFSM instruction encoding vs a raw per-cycle control store.
//! Each configuration is prepared once; the benches time a traced
//! `Session::run` on it.

use criterion::{criterion_group, criterion_main, Criterion};
use shidiannao_bench::experiments::SEED;
use shidiannao_cnn::{zoo, ConvSpec, NetworkBuilder};
use shidiannao_core::compiler::{compile, raw_control_store_bytes};
use shidiannao_core::{Accelerator, AcceleratorConfig};
use std::hint::black_box;

/// Inter-PE propagation on/off: same results, different NBin traffic and
/// (host-side) simulation cost.
fn ablation_propagation(c: &mut Criterion) {
    let net = zoo::lenet5().build(SEED).unwrap();
    let input = net.random_input(SEED);
    let mut g = c.benchmark_group("ablation_propagation");
    g.sample_size(10);
    for (label, cfg) in [
        ("with", AcceleratorConfig::paper()),
        ("without", AcceleratorConfig::paper().without_propagation()),
    ] {
        let prepared = Accelerator::new(cfg).prepare(&net).unwrap();
        let mut session = prepared.session();
        let run = session.run(&input).unwrap();
        let reads = run.stats().total().nbin.read_bytes;
        println!("ablation_propagation/{label}: {reads} NBin bytes read");
        g.bench_function(label, |b| {
            b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
        });
    }
    g.finish();
}

/// PE-array sweep around the 8×8 design point.
fn ablation_pe_sweep(c: &mut Criterion) {
    let net = zoo::lenet5().build(SEED).unwrap();
    let input = net.random_input(SEED);
    let mut g = c.benchmark_group("ablation_pe_sweep");
    g.sample_size(10);
    for side in [4usize, 8, 12, 16] {
        let prepared = Accelerator::new(AcceleratorConfig::with_pe_grid(side, side))
            .prepare(&net)
            .unwrap();
        let mut session = prepared.session();
        let run = session.run(&input).unwrap();
        println!(
            "ablation_pe_sweep/{side}x{side}: {} cycles, {:.1}% PE utilization",
            run.stats().cycles(),
            100.0 * run.stats().total().pe_utilization()
        );
        g.bench_function(format!("{side}x{side}"), |b| {
            b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
        });
    }
    g.finish();
}

/// FIFO depth requirement tracks the stride (§5.1 sizing).
fn ablation_fifo_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fifo_depth");
    g.sample_size(10);
    for (sx, sy) in [(1usize, 1usize), (2, 2), (3, 3)] {
        let net = NetworkBuilder::new("fifo", 1, (33, 33))
            .conv(ConvSpec::new(2, (7, 7)).with_stride((sx, sy)))
            .build(SEED)
            .unwrap();
        let input = net.random_input(SEED);
        let prepared = Accelerator::default().prepare(&net).unwrap();
        let mut session = prepared.session();
        let total = session.run(&input).unwrap().stats().total();
        println!(
            "ablation_fifo_depth/stride{sx}x{sy}: FIFO-H peak {}, FIFO-V peak {}",
            total.fifo_h_peak, total.fifo_v_peak
        );
        assert_eq!((total.fifo_h_peak, total.fifo_v_peak), (sx, sy));
        g.bench_function(format!("stride{sx}x{sy}"), |b| {
            b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
        });
    }
    g.finish();
}

/// The §7.2 instruction-encoding argument: 61-bit HFSM instructions vs a
/// raw 97-bit-per-cycle control store.
fn ablation_isa_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_isa_size");
    for builder in zoo::all() {
        let net = builder.build(SEED).unwrap();
        let program = compile(&net).unwrap();
        let input = net.random_input(SEED);
        let cycles = Accelerator::default()
            .prepare(&net)
            .unwrap()
            .session()
            .run(&input)
            .unwrap()
            .stats()
            .cycles();
        println!(
            "ablation_isa_size/{}: {} B compiled vs {} B raw control store ({}x smaller)",
            net.name(),
            program.bytes(),
            raw_control_store_bytes(cycles),
            raw_control_store_bytes(cycles) / program.bytes() as u64
        );
    }
    let net = zoo::lenet5().build(SEED).unwrap();
    g.bench_function("compile_lenet5", |b| {
        b.iter(|| black_box(compile(&net).unwrap().bytes()))
    });
    g.finish();
}

/// The §10.2 rejected alternative: multi-map packing. Faster on
/// small-map benchmarks, but with multiplied per-cycle buffer traffic —
/// the paper's "poor trade-off", quantified.
fn ablation_multimap(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_multimap");
    g.sample_size(10);
    for name in ["CNP", "SimpleConv", "LeNet-5"] {
        let net = zoo::by_name(name).unwrap().build(SEED).unwrap();
        let input = net.random_input(SEED);
        for (label, cfg) in [
            ("baseline", AcceleratorConfig::paper()),
            (
                "packed",
                AcceleratorConfig::paper().with_multi_map_packing(),
            ),
        ] {
            let prepared = Accelerator::new(cfg).prepare(&net).unwrap();
            let mut session = prepared.session();
            let run = session.run(&input).unwrap();
            let t = run.stats().total();
            println!(
                "ablation_multimap/{name}/{label}: {} cycles, {:.1}% util, {:.1} SB B/cycle",
                run.stats().cycles(),
                100.0 * t.pe_utilization(),
                t.sb.read_bytes as f64 / t.cycles as f64
            );
            g.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
            });
        }
    }
    g.finish();
}

/// Bank-conflict stalls: zero for the stride-1 benchmarks (the six read
/// modes are conflict-free by design), measurable for strided workloads.
fn ablation_bank_conflicts(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bank_conflicts");
    g.sample_size(10);
    for name in ["LeNet-5", "SimpleConv"] {
        let net = zoo::by_name(name).unwrap().build(SEED).unwrap();
        let input = net.random_input(SEED);
        let ideal = Accelerator::default().prepare(&net).unwrap();
        let stalled = Accelerator::new(AcceleratorConfig::paper().with_bank_conflicts())
            .prepare(&net)
            .unwrap();
        let mut session = stalled.session();
        let i = ideal.session().run(&input).unwrap();
        let s = session.run(&input).unwrap();
        println!(
            "ablation_bank_conflicts/{name}: {} ideal cycles, {} conflict stalls ({:+.1}%)",
            i.stats().cycles(),
            i.stats().total().bank_conflict_cycles,
            100.0 * (s.stats().cycles() as f64 / i.stats().cycles() as f64 - 1.0)
        );
        g.bench_function(format!("{name}/stalled"), |b| {
            b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
        });
    }
    g.finish();
}

/// Weight-precision sweep: the §5 storage/accuracy knob. The datapath
/// stays 16-bit; weights are requantized to narrower storage formats and
/// the output deviation from full precision is reported (narrower weights
/// would shrink the 128 KB SB proportionally).
fn ablation_weight_precision(c: &mut Criterion) {
    let net = zoo::lenet5().build(SEED).unwrap();
    let input = net.random_input(SEED);
    let accel = Accelerator::default();
    let full = accel
        .prepare(&net)
        .unwrap()
        .session()
        .run(&input)
        .unwrap()
        .output();
    let mut g = c.benchmark_group("ablation_weight_precision");
    g.sample_size(10);
    for (bits, frac) in [(16u32, 8u32), (12, 8), (8, 7), (6, 5), (4, 3)] {
        let q = net.quantize_weights(bits, frac);
        let prepared = accel.prepare(&q).unwrap();
        let mut session = prepared.session();
        let out = session.run(&input).unwrap().output();
        let max_err = full
            .iter()
            .zip(&out)
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0f32, f32::max);
        println!(
            "ablation_weight_precision/Q{bits}.{frac}: max output deviation {max_err:.4} \
             (SB would shrink to {:.0} KB)",
            128.0 * bits as f64 / 16.0
        );
        g.bench_function(format!("Q{bits}.{frac}"), |b| {
            b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_propagation,
    ablation_pe_sweep,
    ablation_fifo_depth,
    ablation_isa_size,
    ablation_multimap,
    ablation_bank_conflicts,
    ablation_weight_precision
);
criterion_main!(ablations);
