//! Fault-injection regression and property tests: the seeded fault model
//! must be (a) transparent at rate zero — bit-identical to the fault-free
//! simulator — and (b) deterministic — the same seed produces the same
//! faulted execution on every run (fresh session or reused), because
//! fault sites are pure functions of `(seed, site, layer, address)`, not
//! of access order.

use proptest::prelude::*;
use shidiannao_cnn::zoo;
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, RunError, SramProtection,
};

const SEED: u64 = 2015;
const INPUT_SEED: u64 = SEED ^ 0xABCD;

fn nets() -> Vec<shidiannao_cnn::Network> {
    [zoo::lenet5(), zoo::gabor(), zoo::simple_conv()]
        .into_iter()
        .map(|b| b.build(SEED).expect("zoo topologies are valid"))
        .collect()
}

#[test]
fn zero_rate_plan_is_bit_identical_to_the_fault_free_simulator() {
    for net in nets() {
        let input = net.random_input(INPUT_SEED);
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let clean = accel.run(&net, &input).expect("fits the paper config");
        let zero = accel
            .prepare(&net)
            .expect("fits")
            .session_with_faults(FaultPlan::none())
            .run(&input)
            .expect("zero-rate plan cannot fault");
        assert_eq!(zero.output(), clean.output(), "{}", net.name());
        assert_eq!(zero.stats(), clean.stats(), "{}", net.name());
        assert_eq!(zero.energy(), clean.energy(), "{}", net.name());
        assert_eq!(zero.fault_stats().total_faults(), 0);
        assert_eq!(
            clean.output(),
            net.forward_fixed(&input).output(),
            "{}",
            net.name()
        );
    }
}

#[test]
fn unprotected_faults_are_silent_and_corrupt_the_output() {
    let net = zoo::lenet5().build(SEED).expect("valid topology");
    let input = net.random_input(INPUT_SEED);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let golden = net.forward_fixed(&input);
    let plan = FaultPlan::new(FaultConfig::uniform(7, 1e-3, SramProtection::None));
    let run = accel
        .prepare(&net)
        .expect("fits")
        .session_with_faults(plan)
        .run(&input)
        .expect("unprotected SRAM never detects, so the run completes");
    let stats = run.fault_stats();
    assert!(stats.silent > 0, "1e-3 over a LeNet-5 run must fault");
    assert_eq!(stats.detected, 0);
    assert_eq!(stats.corrected, 0);
    assert_ne!(run.output(), golden.output(), "SDC must corrupt the output");
}

#[test]
fn parity_detects_and_aborts_with_a_typed_error() {
    let net = zoo::lenet5().build(SEED).expect("valid topology");
    let input = net.random_input(INPUT_SEED);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let plan = FaultPlan::new(FaultConfig::uniform(7, 1e-3, SramProtection::Parity));
    let err = accel
        .prepare(&net)
        .expect("fits")
        .session_with_faults(plan)
        .run(&input)
        .expect_err("parity at 1e-3 must detect the first single-bit flip");
    match err {
        RunError::FaultDetected(f) => {
            assert_eq!(f.protection, SramProtection::Parity);
            assert!(!f.double_bit, "the first hit at 10% double share");
        }
        other => panic!("expected FaultDetected, got {other:?}"),
    }
}

#[test]
fn secded_corrects_single_bit_flips_back_to_the_golden_output() {
    let net = zoo::lenet5().build(SEED).expect("valid topology");
    let input = net.random_input(INPUT_SEED);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let golden = net.forward_fixed(&input);
    // Single-bit SRAM flips only (no multi-bit upsets, no stuck PEs —
    // ECC protects memories, not datapaths): SECDED corrects every one.
    let cfg = FaultConfig {
        double_flip_share: 0.0,
        pe_stuck_rate: 0.0,
        ..FaultConfig::uniform(7, 1e-3, SramProtection::Secded)
    };
    let run = accel
        .prepare(&net)
        .expect("fits")
        .session_with_faults(FaultPlan::new(cfg))
        .run(&input)
        .expect("SECDED corrects all single-bit errors");
    let stats = run.fault_stats();
    assert!(stats.corrected > 0);
    assert_eq!(stats.silent, 0);
    assert_eq!(stats.detected, 0);
    assert_eq!(
        run.output(),
        golden.output(),
        "corrected errors must leave no trace in the output"
    );
}

/// Runs a faulted execution on every path and returns the observable
/// outcome: either the full (output, fault-stat) pair or the typed error.
type FaultOutcome = Result<(Vec<shidiannao_fixed::Fx>, u64, u64), RunError>;

fn outcome(run: Result<shidiannao_core::RunOutcome, RunError>) -> FaultOutcome {
    run.map(|r| {
        let s = *r.fault_stats();
        (r.output(), s.total_faults(), s.silent)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same plan produces byte-identical faulted behavior through a
    /// fresh session and on every run of a reused one, for every
    /// protection level and a range of seeds/rates.
    #[test]
    fn same_seed_faults_identically_on_every_run_path(
        seed in 0u64..1_000_000,
        rate_exp in 3u32..6,
        protection in (0usize..3).prop_map(|i| SramProtection::ALL[i]),
    ) {
        let rate = 10f64.powi(-(rate_exp as i32));
        let plan = FaultPlan::new(FaultConfig::uniform(seed, rate, protection));
        let net = zoo::gabor().build(SEED).expect("valid topology");
        let input = net.random_input(INPUT_SEED);
        let accel = Accelerator::new(AcceleratorConfig::paper());

        let prepared = accel.prepare(&net).expect("fits");
        let fresh = outcome(prepared.session_with_faults(plan).run(&input));
        // A reused session must replay the identical faults on every run.
        let mut session = prepared.session_with_faults(plan);
        let first = outcome(session.run(&input));
        let again = outcome(session.run(&input));

        prop_assert_eq!(&fresh, &first);
        prop_assert_eq!(&fresh, &again);
    }

    /// Rate zero is transparent for any seed: outputs, cycle counts, and
    /// energy all match the fault-free run exactly.
    #[test]
    fn any_seed_at_rate_zero_is_transparent(seed in any::<u64>()) {
        let cfg = FaultConfig { seed, ..FaultConfig::zero() };
        let net = zoo::gabor().build(SEED).expect("valid topology");
        let input = net.random_input(INPUT_SEED);
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let clean = accel.run(&net, &input).expect("fits");
        let faulted = accel
            .prepare(&net)
            .expect("fits")
            .session_with_faults(FaultPlan::new(cfg))
            .run(&input)
            .expect("zero-rate plan cannot fault");
        prop_assert_eq!(faulted.output(), clean.output());
        prop_assert_eq!(faulted.stats(), clean.stats());
        prop_assert_eq!(faulted.energy(), clean.energy());
        prop_assert_eq!(faulted.fault_stats().total_faults(), 0);
    }
}
