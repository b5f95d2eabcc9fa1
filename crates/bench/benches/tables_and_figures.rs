//! Criterion benches: one target per table/figure of the evaluation.
//! Each bench regenerates its artifact end-to-end, so `cargo bench` both
//! times the simulator and re-derives every number (printed once per
//! target for the record).

use criterion::{criterion_group, criterion_main, Criterion};
use shidiannao_bench::{
    experiments, fig18_speedups, fig19_energy, fig7_bandwidth, framerate_report, reuse_report,
    table1_storage, table4_characteristics,
};
use shidiannao_cnn::zoo;
use shidiannao_core::{Accelerator, AcceleratorConfig};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_table1());
    c.bench_function("table1_storage", |b| b.iter(|| black_box(table1_storage())));
}

fn bench_table4(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_table4());
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("table4_breakdown", |b| {
        b.iter(|| black_box(table4_characteristics()))
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_fig7());
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fig7_bandwidth", |b| b.iter(|| black_box(fig7_bandwidth())));
    g.finish();
}

fn bench_fig18(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_fig18());
    let mut g = c.benchmark_group("fig18");
    g.sample_size(10);
    // The full figure (all four machines, ten benchmarks).
    g.bench_function("fig18_speedup", |b| b.iter(|| black_box(fig18_speedups())));
    // Per-benchmark simulator runs: the bars' dominant cost.
    for builder in zoo::all() {
        let net = builder.build(experiments::SEED).unwrap();
        let input = net.random_input(experiments::SEED);
        let prepared = Accelerator::new(AcceleratorConfig::paper())
            .prepare(&net)
            .unwrap();
        let mut session = prepared.session();
        g.bench_function(format!("shidiannao/{}", net.name()), |b| {
            b.iter(|| black_box(session.run(&input).unwrap().stats().cycles()))
        });
    }
    g.finish();
}

fn bench_fig19(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_fig19());
    let mut g = c.benchmark_group("fig19");
    g.sample_size(10);
    g.bench_function("fig19_energy", |b| b.iter(|| black_box(fig19_energy())));
    g.finish();
}

fn bench_reuse(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_reuse());
    let mut g = c.benchmark_group("sec8_reuse");
    g.sample_size(10);
    g.bench_function("sec81_reuse", |b| b.iter(|| black_box(reuse_report())));
    g.finish();
}

fn bench_framerate(c: &mut Criterion) {
    println!("{}", shidiannao_bench::report::render_framerate());
    let mut g = c.benchmark_group("sec102");
    g.sample_size(10);
    g.bench_function("sec102_framerate", |b| {
        b.iter(|| black_box(framerate_report()))
    });
    g.finish();
}

criterion_group!(
    artifacts,
    bench_table1,
    bench_table4,
    bench_fig7,
    bench_fig18,
    bench_fig19,
    bench_reuse,
    bench_framerate
);
criterion_main!(artifacts);
