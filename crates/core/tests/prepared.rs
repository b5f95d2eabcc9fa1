//! Regression tests for the prepared-run execution pipeline: the
//! `prepare`/`PreparedNetwork`/`Session` path must be observably
//! identical to the legacy one-shot `Accelerator::run` and to the
//! golden fixed-point reference, and re-running a prepared network must
//! do zero recompilation and zero synapse-store rebuilds.

use shidiannao_cnn::zoo;
use shidiannao_core::{compiler, Accelerator, AcceleratorConfig, SynapseStore};

const SEED: u64 = 2015;
const INPUT_SEED: u64 = SEED ^ 0xABCD;

/// The three benchmark topologies the regression runs over (kept small
/// enough that the test stays fast, diverse enough to cover conv,
/// pooling, and classifier layers).
fn nets() -> Vec<shidiannao_cnn::Network> {
    [zoo::lenet5(), zoo::gabor(), zoo::simple_conv()]
        .into_iter()
        .map(|b| b.build(SEED).expect("zoo topologies are valid"))
        .collect()
}

#[test]
fn prepared_run_matches_legacy_run_and_golden_reference() {
    for net in nets() {
        let input = net.random_input(INPUT_SEED);
        let accel = Accelerator::new(AcceleratorConfig::paper());

        let legacy = accel.run(&net, &input).expect("fits the paper config");
        let prepared = accel.prepare(&net).expect("fits the paper config");
        let fresh = prepared.session().run(&input).expect("same input shape");

        assert_eq!(fresh.output(), legacy.output(), "{}", net.name());
        assert_eq!(fresh.layer_outputs(), legacy.layer_outputs());
        assert_eq!(fresh.stats(), legacy.stats(), "{}", net.name());
        assert_eq!(fresh.energy(), legacy.energy(), "{}", net.name());

        let golden = net.forward_fixed(&input);
        assert_eq!(fresh.output(), golden.output(), "{}", net.name());
    }
}

#[test]
fn repeated_session_runs_are_bit_identical() {
    for net in nets() {
        let input = net.random_input(INPUT_SEED);
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let legacy = accel.run(&net, &input).expect("fits the paper config");
        let prepared = accel.prepare(&net).expect("fits the paper config");

        let mut session = prepared.session();
        for round in 0..3 {
            let run = session.run(&input).expect("same input shape");
            assert_eq!(
                run.output(),
                legacy.output(),
                "{} round {round}",
                net.name()
            );
            assert_eq!(run.stats(), legacy.stats(), "{} round {round}", net.name());
            assert_eq!(
                run.energy(),
                legacy.energy(),
                "{} round {round}",
                net.name()
            );
        }

        // The trace-free fast path through the same (already used)
        // session must agree too.
        for round in 0..2 {
            let inf = session.infer(&input).expect("same input shape");
            assert_eq!(
                inf.output_flat(),
                legacy.output(),
                "{} round {round}",
                net.name()
            );
            assert_eq!(inf.stats(), legacy.stats(), "{} round {round}", net.name());
            assert_eq!(
                inf.energy(),
                legacy.energy(),
                "{} round {round}",
                net.name()
            );
        }
    }
}

#[test]
fn session_reuse_does_zero_recompilation_and_zero_store_rebuilds() {
    let net = zoo::lenet5().build(SEED).expect("valid topology");
    let input = net.random_input(INPUT_SEED);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits the paper config");

    // Everything after prepare() must touch neither the compiler nor the
    // synapse-store builder, no matter how many inferences run.
    let compiles_before = compiler::compile_calls();
    let builds_before = SynapseStore::build_calls();

    let mut session = prepared.session();
    for _ in 0..5 {
        session.infer(&input).expect("same input shape");
    }
    session.run(&input).expect("same input shape");
    prepared.session().run(&input).expect("same input shape");

    assert_eq!(
        compiler::compile_calls(),
        compiles_before,
        "re-running a prepared network must not recompile"
    );
    assert_eq!(
        SynapseStore::build_calls(),
        builds_before,
        "re-running a prepared network must not rebuild the synapse store"
    );
}

#[test]
fn legacy_run_wrapper_still_compiles_once_per_call() {
    let net = zoo::gabor().build(SEED).expect("valid topology");
    let input = net.random_input(INPUT_SEED);
    let accel = Accelerator::new(AcceleratorConfig::paper());

    let before = compiler::compile_calls();
    accel.run(&net, &input).expect("fits the paper config");
    accel.run(&net, &input).expect("fits the paper config");
    assert_eq!(
        compiler::compile_calls() - before,
        2,
        "the one-shot wrapper prepares (and compiles) on every call"
    );
}

#[test]
fn sessions_from_one_prepared_network_are_independent() {
    let net = zoo::simple_conv().build(SEED).expect("valid topology");
    let a_input = net.random_input(INPUT_SEED);
    let b_input = net.random_input(INPUT_SEED ^ 0x5555);
    let prepared = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .expect("fits the paper config");

    let mut one = prepared.session();
    let mut two = prepared.session();
    // Interleave: runs through one session must not perturb the other.
    let a1 = one.infer(&a_input).expect("shape ok");
    let b1 = two.infer(&b_input).expect("shape ok");
    let a2 = one.infer(&a_input).expect("shape ok");
    let b2 = two.infer(&b_input).expect("shape ok");
    assert_eq!(a1.output_flat(), a2.output_flat());
    assert_eq!(b1.output_flat(), b2.output_flat());
    assert_eq!(a1.output_flat(), net.forward_fixed(&a_input).output());
    assert_eq!(b1.output_flat(), net.forward_fixed(&b_input).output());
}

#[test]
fn clean_stats_equal_a_clean_inference_for_every_zoo_network() {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    for builder in zoo::all().into_iter().chain(zoo::extended::all()) {
        let net = builder.build(SEED).expect("zoo topologies are valid");
        let prepared = accel.prepare(&net).expect("fits the paper config");
        // An input other than the recording run's: clean statistics do
        // not depend on it.
        let run = prepared
            .session()
            .infer(&net.random_input(INPUT_SEED))
            .expect("same input shape");
        assert_eq!(prepared.clean_stats(), run.stats(), "{}", net.name());
        let energy = prepared.energy_model().charge_run(prepared.clean_stats());
        assert_eq!(&energy, run.energy(), "{}", net.name());
    }
}
