//! The session's steady-state contracts: once warmed, `infer_ref` and a
//! repeated `infer_delta_ref` perform zero heap allocations (clean and
//! under a silent fault plan), and a wrong-shaped input is rejected with
//! `RunError::InputShape` without disturbing the session's next run.

use shidiannao_cnn::{Activation, ConvSpec, FcSpec, Network, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, NbResidency, PreparedNetwork, RunError,
    SramProtection,
};
use shidiannao_fixed::Fx;
use shidiannao_tensor::MapStack;
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

fn lenet_like() -> Network {
    NetworkBuilder::new("steady", 1, (24, 24))
        .conv(ConvSpec::new(4, (5, 5)).with_activation(Activation::Tanh))
        .pool(PoolSpec::max((2, 2)))
        .conv(ConvSpec::new(6, (3, 3)).with_activation(Activation::Tanh))
        .pool(PoolSpec::avg((2, 2)))
        .fc(FcSpec::new(10))
        .build(7)
        .expect("builds")
}

fn prepare(net: &Network) -> PreparedNetwork {
    Accelerator::new(AcceleratorConfig::paper())
        .prepare(net)
        .expect("fits")
}

/// Heap allocations over five runs of `run`, after eight warm-up runs
/// that grow every buffer, scratch arena, and recycled map to the
/// network's high-water mark (the map recycling pool settles within the
/// first four).
fn steady_allocs(mut run: impl FnMut()) -> u64 {
    for _ in 0..8 {
        run();
    }
    let before = thread_allocs();
    for _ in 0..5 {
        run();
    }
    thread_allocs() - before
}

#[test]
fn warmed_infer_ref_allocates_nothing() {
    let net = lenet_like();
    let prepared = prepare(&net);
    let mut session = prepared.session();
    let input = net.random_input(1);
    let allocs = steady_allocs(|| {
        let run = session.infer_ref(&input).expect("runs");
        assert!(run.stats().cycles() > 0);
    });
    assert_eq!(allocs, 0, "steady-state infer_ref must not touch the heap");
}

#[test]
fn warmed_infer_ref_under_silent_faults_allocates_nothing() {
    // NB/SB flips with no protection: every fault resolves to a schedule
    // overlay patch, never an abort.
    let plan = FaultPlan::new(FaultConfig {
        nb_flip_rate: 1e-3,
        sb_flip_rate: 1e-3,
        ib_flip_rate: 0.0,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.0,
        ..FaultConfig::uniform(7, 0.0, SramProtection::None)
    });
    let net = lenet_like();
    let prepared = prepare(&net);
    let mut session = prepared.session_with_faults(plan);
    let input = net.random_input(1);
    let allocs = steady_allocs(|| {
        let run = session
            .infer_ref(&input)
            .expect("silent faults never abort");
        assert!(run.fault_stats().silent > 0, "the plan must fault");
    });
    assert_eq!(
        allocs, 0,
        "steady-state faulted infer_ref must not touch the heap"
    );
}

#[test]
fn warm_infer_delta_ref_repeat_allocates_nothing() {
    let net = lenet_like();
    let prepared = prepare(&net);
    let mut session = prepared.session();
    let mut residency = NbResidency::new();
    let input = net.random_input(1);
    let allocs = steady_allocs(|| {
        session
            .infer_delta_ref(&input, &mut residency)
            .expect("runs");
    });
    assert_eq!(
        allocs, 0,
        "a warm infer_delta_ref repeat must not touch the heap"
    );
    let (_, delta) = session
        .infer_delta_ref(&input, &mut residency)
        .expect("runs");
    assert_eq!(delta.rows_streamed, 0, "an unchanged input streams nothing");
}

#[test]
fn mismatched_input_shapes_are_rejected() {
    let net = lenet_like();
    let prepared = prepare(&net);
    let mut session = prepared.session();
    let good = net.random_input(1);
    let bad = MapStack::filled(3, 3, 1, Fx::ZERO);
    let is_shape_error = |e: RunError| matches!(e, RunError::InputShape { .. });

    assert!(session.infer(&bad).is_err_and(is_shape_error));
    assert!(session.infer_ref(&bad).is_err_and(is_shape_error));
    // Staged last: a rejected delta load must not leak its (tiny) Load
    // phase into the next plain run.
    let mut residency = NbResidency::new();
    assert!(session
        .infer_delta(&bad, &mut residency)
        .is_err_and(is_shape_error));

    // The session recovers: its next run is bit-identical to a fresh
    // session's, full-input Load phase included.
    let next = session.infer(&good).expect("session recovered");
    let fresh = prepared.session().infer(&good).expect("fresh session runs");
    assert_eq!(
        next.stats().layers()[0].cycles,
        fresh.stats().layers()[0].cycles,
        "a rejected delta load leaked into the next run's Load phase"
    );
    assert_eq!(next.output(), fresh.output());
    assert_eq!(next.stats(), fresh.stats());
    assert_eq!(next.energy(), fresh.energy());
    assert_eq!(next.fault_stats(), fresh.fault_stats());
}
