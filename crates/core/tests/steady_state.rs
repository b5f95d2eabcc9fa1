//! The session's steady-state contracts: once warmed, `infer_ref`, a
//! repeated `infer_delta_ref` and a shared-prefix `infer_ref_from`
//! perform zero heap allocations (clean and under a silent fault plan,
//! normalization networks included), as does a continued strip prefix,
//! and a wrong-shaped input or an unservable prefix is rejected with a
//! typed `RunError` without disturbing the session's next run.

use shidiannao_cnn::{zoo, Activation, ConvSpec, FcSpec, Network, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, NbResidency, PreparedNetwork, RunError,
    SramProtection,
};
use shidiannao_fixed::Fx;
use shidiannao_tensor::{FeatureMap, MapStack};
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
    lenet_like_with(Activation::Tanh)
}

/// [`lenet_like`] with both convolutions and the classifier activated by
/// `activation`.
fn lenet_like_with(activation: Activation) -> Network {
    NetworkBuilder::new("steady", 1, (24, 24))
        .conv(ConvSpec::new(4, (5, 5)).with_activation(activation))
        .pool(PoolSpec::max((2, 2)))
        .conv(ConvSpec::new(6, (3, 3)).with_activation(activation))
        .pool(PoolSpec::avg((2, 2)))
        .fc(FcSpec::new(10).with_activation(activation))
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
fn steady_allocs(run: impl FnMut()) -> u64 {
    steady_allocs_after(8, run)
}

/// Warm-up runs for the normalization nets. Jarrett-LCN's seven layers
/// swap the NB roles an odd number of times, so each physical buffer
/// cycles through two runs' worth of shapes and its map recycle bin
/// reaches its high-water mark only around the fourteenth run.
const NORM_WARMUP: usize = 24;

/// [`steady_allocs`] after `warmup` warm-up runs.
fn steady_allocs_after(warmup: usize, mut run: impl FnMut()) -> u64 {
    for _ in 0..warmup {
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
fn warmed_sigmoid_infer_ref_allocates_nothing() {
    // Every zoo net activates with tanh; the sigmoid table is shared
    // process-wide too, so a sigmoid net's warmed run builds nothing.
    let net = lenet_like_with(Activation::Sigmoid);
    let prepared = prepare(&net);
    let mut session = prepared.session();
    let input = net.random_input(1);
    let allocs = steady_allocs(|| {
        let run = session.infer_ref(&input).expect("runs");
        assert!(run.stats().cycles() > 0);
    });
    assert_eq!(
        allocs, 0,
        "a sigmoid net's warmed infer_ref must not allocate"
    );
}

/// The two zoo networks with normalization layers (LRN, LCN).
fn norm_nets() -> [Network; 2] {
    [
        zoo::extended::alexnet_lite().build(2015).expect("builds"),
        zoo::extended::jarrett_lcn().build(2015).expect("builds"),
    ]
}

#[test]
fn warmed_infer_ref_on_normalization_nets_allocates_nothing() {
    // Clean sessions replay LRN and LCN layers too.
    for net in norm_nets() {
        let prepared = prepare(&net);
        assert_eq!(
            prepared.schedule().replayable_layers(),
            net.layers().len(),
            "{}",
            net.name()
        );
        let mut session = prepared.session();
        let input = net.random_input(1);
        let allocs = steady_allocs_after(NORM_WARMUP, || {
            session.infer_ref(&input).expect("runs");
        });
        assert_eq!(
            allocs,
            0,
            "{}: steady-state infer_ref allocated",
            net.name()
        );
    }
}

#[test]
fn warmed_infer_ref_under_silent_faults_allocates_nothing() {
    // NB/SB flips with no protection: every fault resolves to a schedule
    // overlay patch (or, in a normalization layer, which live-decodes
    // under a plan, a silently flipped word), never an abort.
    let plan = FaultPlan::new(FaultConfig {
        nb_flip_rate: 1e-3,
        sb_flip_rate: 1e-3,
        ib_flip_rate: 0.0,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.0,
        ..FaultConfig::uniform(7, 0.0, SramProtection::None)
    });
    let [alexnet, jarrett] = norm_nets();
    for (net, warmup) in [
        (lenet_like(), 8),
        (alexnet, NORM_WARMUP),
        (jarrett, NORM_WARMUP),
    ] {
        let prepared = prepare(&net);
        let mut session = prepared.session_with_faults(plan);
        let input = net.random_input(1);
        let allocs = steady_allocs_after(warmup, || {
            let run = session
                .infer_ref(&input)
                .expect("silent faults never abort");
            assert!(run.fault_stats().silent > 0, "the plan must fault");
        });
        assert_eq!(
            allocs,
            0,
            "{}: steady-state faulted infer_ref must not touch the heap",
            net.name()
        );
    }
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

/// A region's own prefix values: the strip evaluator over a strip
/// exactly one region wide.
fn prefix_of(prepared: &PreparedNetwork, input: &MapStack<Fx>) -> MapStack<Fx> {
    let mut mid = MapStack::new(1, 1);
    prepared
        .session()
        .prefix_values(prepared.shareable_prefix(), input, false, &mut mid)
        .expect("a region is a strip one region wide");
    mid
}

#[test]
fn warmed_infer_ref_from_matches_infer_and_allocates_nothing() {
    let net = lenet_like();
    let prepared = prepare(&net);
    // C1, S2, C3 and S4 share; the classifier always runs on the region.
    let k = prepared.shareable_prefix();
    assert_eq!(k, 4);
    let input = net.random_input(1);
    let mid = prefix_of(&prepared, &input);
    let whole = prepared.session().infer(&input).expect("runs");
    let mut session = prepared.session();
    {
        let from = session.infer_ref_from(k, &mid).expect("runs");
        assert_eq!(from.output(), whole.output());
        assert_eq!(from.stats(), whole.stats());
        assert_eq!(from.energy(), whole.energy());
        assert_eq!(from.fault_stats(), whole.fault_stats());
    }
    let allocs = steady_allocs(|| {
        session.infer_ref_from(k, &mid).expect("runs");
    });
    assert_eq!(
        allocs, 0,
        "steady-state infer_ref_from must not touch the heap"
    );
    let mut out = MapStack::new(1, 1);
    let allocs = steady_allocs(|| {
        session
            .prefix_values(k, &input, false, &mut out)
            .expect("runs");
    });
    assert_eq!(
        allocs, 0,
        "steady-state prefix_values must not touch the heap"
    );
    // A continued strip rolls in place. Warm-up starts one fresh strip,
    // so each stage holds its high-water mark, then keeps continuing.
    let rows = MapStack::filled(24, 8, 1, Fx::ONE);
    session
        .prefix_values(k, &input, false, &mut out)
        .expect("runs");
    let allocs = steady_allocs(|| {
        session
            .prefix_values(k, &rows, true, &mut out)
            .expect("rolls");
    });
    assert_eq!(
        allocs, 0,
        "steady-state continued prefix_values must not touch the heap"
    );
}

/// Rows `y0..y0 + h` of every map of `tall`.
fn rows_of(tall: &MapStack<Fx>, y0: usize, h: usize) -> MapStack<Fx> {
    MapStack::from_fn(tall.width(), h, tall.len(), |m| {
        FeatureMap::from_fn(tall.width(), h, |x, y| tall[m][(x, y0 + y)])
    })
}

/// A strip rolled down any mix of steps the prefix rolls by equals a
/// fresh strip over the same rows, at the region's width and wider.
#[test]
fn continued_prefix_values_equal_fresh_strips() {
    let net = lenet_like();
    let prepared = prepare(&net);
    let k = prepared.shareable_prefix();
    // C1–S4 step 4 input rows per output row and output 4 rows.
    assert!(prepared.prefix_rolls(k, 4) && prepared.prefix_rolls(k, 16));
    assert!(!prepared.prefix_rolls(k, 6) && !prepared.prefix_rolls(k, 20));
    // C1 alone steps 1 row and outputs 20.
    assert!(prepared.prefix_rolls(1, 7) && !prepared.prefix_rolls(1, 21));
    // A ceiling pool that clips in y (21 → 11) shares, but cannot roll:
    // its clipped last window is a whole one in the next strip.
    let clipped = prepare(
        &NetworkBuilder::new("clipped", 1, (24, 25))
            .conv(ConvSpec::new(2, (5, 5)))
            .pool(PoolSpec::max((2, 2)).with_ceil())
            .fc(FcSpec::new(3))
            .build(7)
            .expect("builds"),
    );
    assert_eq!(clipped.shareable_prefix(), 2);
    assert!(clipped.prefix_rolls(1, 4) && !clipped.prefix_rolls(2, 4));
    for (width, layers) in [(24, k), (37, k), (37, 2), (29, 1)] {
        let tall = MapStack::from_fn(width, 24 + 60, 1, |m| {
            let seed = (width + m) as i32;
            FeatureMap::from_fn(width, 24 + 60, |x, y| {
                Fx::from_bits(((x as i32 * 37 + y as i32 * 101 + seed * 7919) % 4001 - 2000) as i16)
            })
        });
        let mut session = prepared.session();
        let (mut rolled, mut fresh) = (MapStack::new(1, 1), MapStack::new(1, 1));
        session
            .prefix_values(layers, &rows_of(&tall, 0, 24), false, &mut rolled)
            .expect("fresh strip");
        let mut y0 = 0;
        for step in [4, 8, 12, 4, 16, 4, 12] {
            let new = rows_of(&tall, y0 + 24, step);
            session
                .prefix_values(layers, &new, true, &mut rolled)
                .expect("rolls");
            y0 += step;
            prepared
                .session()
                .prefix_values(layers, &rows_of(&tall, y0, 24), false, &mut fresh)
                .expect("fresh strip");
            assert_eq!(rolled, fresh, "width {width}, {layers} layers, at row {y0}");
        }
    }
}

#[test]
fn unservable_prefixes_are_typed_errors() {
    let net = lenet_like();
    let prepared = prepare(&net);
    let k = prepared.shareable_prefix();
    let good = net.random_input(1);
    let mid = prefix_of(&prepared, &good);
    let is_prefix_error = |e: RunError| matches!(e, RunError::Prefix { .. });
    let mut session = prepared.session();

    // A `mid` of the wrong shape, and prefixes too long or empty.
    let bad = MapStack::filled(3, 3, 1, Fx::ZERO);
    assert!(session
        .infer_ref_from(k, &bad)
        .is_err_and(|e| matches!(e, RunError::InputShape { .. })));
    assert!(session
        .infer_ref_from(k + 1, &mid)
        .is_err_and(is_prefix_error));
    let mut out = MapStack::new(1, 1);
    assert!(session
        .prefix_values(0, &good, false, &mut out)
        .is_err_and(is_prefix_error));
    assert!(session
        .prefix_values(k + 1, &good, false, &mut out)
        .is_err_and(is_prefix_error));
    let narrow = MapStack::filled(20, 24, 1, Fx::ZERO);
    assert!(session
        .prefix_values(k, &narrow, false, &mut out)
        .is_err_and(is_prefix_error));
    // Continuations: with no strip before, then after one of another
    // width, maps, output or prefix length, and by steps the prefix does
    // not roll by (not a multiple of its y-stride 4; more new output rows
    // than the 4 it has).
    let four = MapStack::filled(24, 4, 1, Fx::ONE);
    assert!(session
        .prefix_values(k, &four, true, &mut out)
        .is_err_and(is_prefix_error));
    session
        .prefix_values(k, &good, false, &mut out)
        .expect("a fresh strip");
    let wide = MapStack::filled(28, 4, 1, Fx::ONE);
    let two_maps = MapStack::filled(24, 4, 2, Fx::ONE);
    let other_out = MapStack::filled(4, 4, 5, Fx::ZERO);
    for (rows, layers, fresh_out) in [
        (&wide, k, false),
        (&two_maps, k, false),
        (&four, k, true),
        (&four, k - 1, false),
        (&MapStack::filled(24, 6, 1, Fx::ONE), k, false),
        (&MapStack::filled(24, 20, 1, Fx::ONE), k, false),
    ] {
        let mut out = if fresh_out {
            other_out.clone()
        } else {
            out.clone()
        };
        assert!(session
            .prefix_values(layers, rows, true, &mut out)
            .is_err_and(is_prefix_error));
    }
    // The rejected continuations left the strip as it was.
    let mut rolled = out.clone();
    session
        .prefix_values(k, &four, true, &mut rolled)
        .expect("rolls");
    // Sessions that cannot charge a layer without computing it: live
    // decode, a fault plan, stuck PEs.
    session.set_schedule_replay(false);
    assert!(session.infer_ref_from(k, &mid).is_err_and(is_prefix_error));
    session.set_schedule_replay(true);
    let faulty = FaultPlan::new(FaultConfig::uniform(7, 1e-3, SramProtection::None));
    let mut faulted = prepared.session_with_faults(faulty);
    assert!(faulted.infer_ref_from(k, &mid).is_err_and(is_prefix_error));
    let stuck = FaultPlan::new(FaultConfig {
        pe_stuck_rate: 0.5,
        ..FaultConfig::uniform(7, 0.0, SramProtection::None)
    });
    let mut stuck = prepared.session_with_faults(stuck);
    assert!(stuck.infer_ref_from(k, &mid).is_err_and(is_prefix_error));

    // The session recovers: its next run is bit-identical to a fresh
    // session's.
    let next = session.infer(&good).expect("session recovered");
    let fresh = prepared.session().infer(&good).expect("fresh session runs");
    assert_eq!(next.output(), fresh.output());
    assert_eq!(next.stats(), fresh.stats());
    assert_eq!(next.energy(), fresh.energy());
    let from = session.infer_ref_from(k, &mid).expect("session recovered");
    assert_eq!(from.output(), fresh.output());
    assert_eq!(from.stats(), fresh.stats());
}
