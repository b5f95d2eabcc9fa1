//! Property-based equivalence of the batched execution path:
//! `Session::infer_batch` must be bit-identical — per-lane outputs,
//! statistics (including every `LayerStats` slot), energy, and fault
//! counters — to running the same inputs through N sequential
//! `Session::infer` calls, across random topologies, batch sizes 1–8,
//! fault plans, and replay on/off. Plus the allocation contract: a
//! steady-state `infer_batch_into` performs zero heap allocations.

use proptest::prelude::*;
use shidiannao_cnn::{Activation, ConvSpec, FcSpec, LrnSpec, Network, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, RunError, SramProtection,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counting allocator for the zero-allocation gate: every `alloc` and
/// growing `realloc` bumps the calling thread's counter; the gated
/// region diffs it. Per thread so the test harness's concurrently
/// running tests cannot allocate inside another test's window.
struct CountingAlloc;

thread_local! {
    // `const` init with no destructor: touching it never allocates, so
    // it is safe to use from inside the global allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump_allocs() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_allocs();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_allocs();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `inputs` through one `infer_batch` and through N sequential
/// `infer` calls on a second session under the same plan, and asserts
/// every per-lane observable is bit-identical.
fn check_batch_matches_sequential(
    net: &Network,
    cfg: AcceleratorConfig,
    plan: FaultPlan,
    replay: bool,
    batch_n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let inputs: Vec<_> = (0..batch_n)
        .map(|i| net.random_input(seed ^ i as u64))
        .collect();
    let accel = Accelerator::new(cfg);
    let prepared = accel.prepare(net).expect("network fits");
    let mut batch = prepared.session_with_faults(plan);
    let mut seq = prepared.session_with_faults(plan);
    batch.set_schedule_replay(replay);
    seq.set_schedule_replay(replay);

    match batch.infer_batch(&inputs) {
        Ok(results) => {
            prop_assert_eq!(results.len(), inputs.len());
            for (lane, (input, r)) in inputs.iter().zip(&results).enumerate() {
                let s = seq.infer(input).map_err(|e| {
                    TestCaseError::fail(format!("lane {lane}: sequential path errored: {e}"))
                })?;
                prop_assert_eq!(r.output(), s.output(), "lane {} output", lane);
                prop_assert_eq!(r.stats(), s.stats(), "lane {} stats", lane);
                prop_assert_eq!(r.energy(), s.energy(), "lane {} energy", lane);
                prop_assert_eq!(r.fault_stats(), s.fault_stats(), "lane {} faults", lane);
            }
        }
        Err(RunError::FaultDetected(_)) => {
            // Detected faults are input-independent, so the sequential
            // path aborts identically on its first lane, with the same
            // wasted-attempt cycles and counters.
            let first = seq.infer(&inputs[0]);
            prop_assert!(
                matches!(first, Err(RunError::FaultDetected(_))),
                "batch aborted but sequential lane 0 did not"
            );
            prop_assert_eq!(batch.last_cycles(), seq.last_cycles());
            prop_assert_eq!(batch.fault_stats(), seq.fault_stats());
        }
        Err(e) => return Err(TestCaseError::fail(format!("unexpected batch error: {e}"))),
    }
    Ok(())
}

fn plan(seed: u64, rate: f64, protection: SramProtection, stuck_rate: f64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed,
        nb_flip_rate: rate,
        sb_flip_rate: rate,
        ib_flip_rate: rate,
        pe_stuck_rate: stuck_rate,
        scanline_rate: 0.0,
        double_flip_share: 0.2,
        protection,
    })
}

fn protections() -> impl Strategy<Value = SramProtection> {
    prop_oneof![
        Just(SramProtection::None),
        Just(SramProtection::Parity),
        Just(SramProtection::Secded),
    ]
}

fn rates() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e-4), Just(1e-3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_stacks_batch_bit_identical(
        w in 10usize..20,
        c1_maps in 2usize..5,
        k in 2usize..5,
        avg in any::<bool>(),
        out in 1usize..16,
        batch_n in 1usize..=8,
        replay in any::<bool>(),
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        let pool = if avg { PoolSpec::avg((2, 2)) } else { PoolSpec::max((2, 2)) };
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(c1_maps, (k, k)).with_activation(Activation::Tanh))
            .pool(pool)
            .fc(FcSpec::new(out))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0xBA7C, rate, protection, 0.0),
            replay,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn non_replayable_layers_batch_bit_identical(
        maps in 1usize..4,
        window in 1usize..5,
        w in 5usize..9,
        batch_n in 2usize..=6,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        // LRN layers are not modeled by the schedule: batch value lanes
        // must live-decode them mid-run while replaying neighbours.
        let net = NetworkBuilder::new("p", maps, (w, w))
            .conv(ConvSpec::new(maps, (2, 2)))
            .lrn(LrnSpec { window_maps: window, k: 1.0, alpha: 0.5 })
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0x10A7, rate, protection, 0.0),
            true,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn stuck_pe_sessions_batch_bit_identical(
        w in 10usize..16,
        k in 2usize..4,
        stuck_rate in prop_oneof![Just(0.0), Just(0.05), Just(0.5)],
        batch_n in 2usize..=5,
        seed in 0u64..1000,
    ) {
        // Stuck-PE meshes make replay decline the whole run; batch value
        // lanes must fall back to full live decode and still match.
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(3, (k, k)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(6))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0x57CC, 0.0, SramProtection::None, stuck_rate),
            true,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn small_pe_grids_batch_bit_identical(
        px in 2usize..8,
        py in 2usize..8,
        w in 8usize..14,
        batch_n in 1usize..=8,
        replay in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let net = NetworkBuilder::new("p", 2, (w, w))
            .conv(ConvSpec::new(3, (3, 3)).with_activation(Activation::Sigmoid))
            .fc(FcSpec::new(9))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::with_pe_grid(px, py),
            FaultPlan::none(),
            replay,
            batch_n,
            seed,
        )?;
    }
}

fn lenet_like() -> Network {
    NetworkBuilder::new("batch-steady", 1, (24, 24))
        .conv(ConvSpec::new(4, (5, 5)).with_activation(Activation::Tanh))
        .pool(PoolSpec::max((2, 2)))
        .conv(ConvSpec::new(6, (3, 3)).with_activation(Activation::Tanh))
        .pool(PoolSpec::avg((2, 2)))
        .fc(FcSpec::new(10))
        .build(7)
        .expect("builds")
}

#[test]
fn steady_state_batched_inference_allocates_nothing() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    let inputs: Vec<_> = (0..8).map(|i| net.random_input(i)).collect();
    let mut outputs = Vec::new();

    // Warm-up: grow every buffer, scratch arena, and recycled output
    // stack to the network's high-water mark.
    for _ in 0..3 {
        session
            .infer_batch_into(&inputs, &mut outputs)
            .expect("batch runs");
    }

    let before = thread_allocs();
    for _ in 0..5 {
        let batch = session
            .infer_batch_into(&inputs, &mut outputs)
            .expect("batch runs");
        assert!(batch.stats().cycles() > 0);
        assert_eq!(batch.len(), inputs.len());
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state infer_batch_into must not touch the heap"
    );
}

#[test]
fn batch_output_recycling_survives_batch_size_changes() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    let mut check = prepared.session();
    let mut outputs = Vec::new();

    // Shrinks and regrowths of the output vector must keep every lane
    // bit-identical to a sequential inference of the same input.
    for &n in &[5usize, 2, 8, 1, 4] {
        let inputs: Vec<_> = (0..n)
            .map(|i| net.random_input(0x5EED ^ i as u64))
            .collect();
        session
            .infer_batch_into(&inputs, &mut outputs)
            .expect("batch runs");
        assert_eq!(outputs.len(), n);
        for (input, out) in inputs.iter().zip(&outputs) {
            let expect = check.infer(input).expect("sequential runs");
            assert_eq!(out, expect.output());
        }
    }
}

#[test]
fn empty_batches_are_rejected() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    assert!(matches!(
        session.infer_batch(&[]),
        Err(RunError::EmptyBuffer(_))
    ));
}

#[test]
fn mismatched_lane_shapes_are_rejected() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    let good = net.random_input(1);
    let bad = shidiannao_tensor::MapStack::filled(3, 3, 1, shidiannao_fixed::Fx::ZERO);
    assert!(matches!(
        session.infer_batch(&[good.clone(), bad]),
        Err(RunError::InputShape { .. })
    ));
    // The session recovers: the next batch runs normally.
    let results = session.infer_batch(&[good]).expect("session recovered");
    assert_eq!(results.len(), 1);
}
