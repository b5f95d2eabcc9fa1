//! End-to-end determinism: the entire reproduction — weights, inputs,
//! simulation, statistics, energy, baselines — is a pure function of the
//! seeds. Reviewers re-running `harness` must see byte-identical numbers.

use shidiannao::prelude::*;

#[test]
fn identical_seeds_give_identical_everything() {
    let run = |seed: u64| {
        let net = zoo::lenet5().build(seed).unwrap();
        let input = net.random_input(seed ^ 9);
        Accelerator::new(AcceleratorConfig::paper())
            .prepare(&net)
            .and_then(|p| p.session().run(&input))
            .unwrap()
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a.output(), b.output());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.energy(), b.energy());
    let c = run(78);
    assert_ne!(a.output(), c.output());
}

#[test]
fn baselines_are_deterministic_too() {
    let net = zoo::cff().build(5).unwrap();
    let d1 = DianNao::new(DianNaoConfig::paper()).run(&net);
    let d2 = DianNao::new(DianNaoConfig::paper()).run(&net);
    assert_eq!(d1, d2);
    let g1 = GpuModel::k20m().run(&net);
    assert_eq!(g1, GpuModel::k20m().run(&net));
    assert_eq!(
        CpuModel::xeon_e7_8830().run_seconds(&net),
        CpuModel::xeon_e7_8830().run_seconds(&net)
    );
}

#[test]
fn experiment_rows_are_stable_across_invocations() {
    // The experiment runners embed their own seed; two invocations must
    // agree exactly (this is what makes EXPERIMENTS.md reproducible).
    let a = shidiannao_bench::fig18_speedups();
    let b = shidiannao_bench::fig18_speedups();
    assert_eq!(a, b);
    let r1 = shidiannao_bench::reuse_report();
    let r2 = shidiannao_bench::reuse_report();
    assert_eq!(r1, r2);
}

#[test]
fn sensor_pipeline_is_deterministic() {
    use shidiannao::pipeline::StreamingPipeline;
    use shidiannao::sensor::{FrameSource, RegionGrid, SyntheticSensor};
    let make = || {
        let net = zoo::gabor().build(4).unwrap();
        let grid = RegionGrid::new((40, 28), (20, 20), (10, 8));
        let pipe = StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid)
            .unwrap();
        let mut cam = SyntheticSensor::new(40, 28, 11);
        pipe.process_frame(&cam.next_frame()).unwrap()
    };
    assert_eq!(make(), make());
}
