//! Cross-frame NBin residency (delta load) properties: for random
//! topologies, PE grids, and dirty sets, `Session::infer_delta` is
//! bit-identical in outputs and post-Load statistics to a cold
//! `Session::infer` and charges the Load phase for exactly the dirty
//! rows (DESIGN.md §3k). A delta staged with `Session::stage_delta` is
//! consumed by whatever run comes next, a shared-prefix
//! `infer_ref_from` included, and by nothing after it.

use proptest::prelude::*;
use shidiannao_cnn::{ConvSpec, FcSpec, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, NbResidency, RunError, SramProtection,
};
use shidiannao_fixed::Fx;
use shidiannao_tensor::MapStack;

fn build_net(in_maps: usize, w: usize, h: usize, k: usize, seed: u64) -> shidiannao_cnn::Network {
    NetworkBuilder::new("delta", in_maps, (w, h))
        .conv(ConvSpec::new(2, (k, k)))
        .pool(PoolSpec::max((2, 2)))
        .fc(FcSpec::new(5))
        .build(seed)
        .expect("network builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold delta == plain infer exactly; a warm identical re-run
    /// streams zero rows with a zero-cycle Load phase; dirtying rows
    /// charges exactly those rows — and every variant's outputs and
    /// post-Load stats stay bit-identical to a cold session.
    #[test]
    fn delta_load_is_bit_identical_and_exactly_charged(
        in_maps in 1usize..3,
        w in 8usize..16,
        h in 8usize..16,
        k in 2usize..5,
        px in 2usize..9,
        py in 2usize..9,
        dirty_rows in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        seed in 0u64..1000,
    ) {
        prop_assume!(w >= k && h >= k);
        let net = build_net(in_maps, w, h, k, seed);
        let accel = Accelerator::new(AcceleratorConfig::with_pe_grid(px, py));
        let prepared = accel.prepare(&net).expect("network fits");
        let input = net.random_input(seed ^ 0x5EED);

        // Reference: a cold session's plain infer.
        let mut cold = prepared.session();
        let reference = cold.infer(&input).expect("clean run");

        let mut session = prepared.session();
        let mut residency = NbResidency::new();

        // Cold delta run: everything streams, stats match plain infer
        // counter for counter.
        let (first, d0) = session.infer_delta(&input, &mut residency).expect("clean run");
        prop_assert_eq!(d0.rows_total, in_maps * h);
        prop_assert_eq!(d0.rows_streamed, d0.rows_total);
        prop_assert_eq!(d0.bytes_streamed, d0.bytes_total);
        prop_assert_eq!(d0.bytes_total, (input.neuron_count() * 2) as u64);
        prop_assert!(!d0.any_saved());
        prop_assert_eq!(first.output(), reference.output());
        prop_assert_eq!(first.stats().layers(), reference.stats().layers());
        prop_assert_eq!(first.stats().cycles(), reference.stats().cycles());
        prop_assert!(residency.is_warm());
        prop_assert_eq!(residency.rows(), d0.rows_total);

        // Warm identical re-run: zero rows stream, the Load phase costs
        // zero cycles and zero NBin writes, and everything downstream is
        // untouched.
        let (second, d1) = session.infer_delta(&input, &mut residency).expect("clean run");
        prop_assert_eq!(d1.rows_streamed, 0);
        prop_assert_eq!(d1.bytes_streamed, 0);
        prop_assert!(d1.any_saved());
        prop_assert_eq!(second.output(), reference.output());
        let warm_load = &second.stats().layers()[0];
        prop_assert_eq!(warm_load.cycles, 0);
        prop_assert_eq!(warm_load.nbin.write_bytes, 0);
        prop_assert_eq!(warm_load.nbin.write_accesses, 0);
        prop_assert_eq!(
            second.stats().layers()[1..].to_vec(),
            reference.stats().layers()[1..].to_vec()
        );

        // Dirty a few rows: the Load phase charges exactly those rows,
        // and outputs match a cold session run on the mutated input.
        let mut mutated = input.clone();
        let mut touched = std::collections::BTreeSet::new();
        for (m, y) in dirty_rows {
            let (m, y) = (m % in_maps, y % h);
            let map = mutated.get_mut(m).expect("map in range");
            let old = map[(0, y)];
            map[(0, y)] = if old == Fx::MAX { Fx::MIN } else { Fx::MAX };
            touched.insert(m * h + y);
        }
        let (third, d2) = session.infer_delta(&mutated, &mut residency).expect("clean run");
        prop_assert_eq!(d2.rows_streamed, touched.len());
        prop_assert_eq!(d2.bytes_streamed, (touched.len() * w * 2) as u64);
        let mut cold2 = prepared.session();
        let reference2 = cold2.infer(&mutated).expect("clean run");
        prop_assert_eq!(third.output(), reference2.output());
        let dirty_load = &third.stats().layers()[0];
        let bank = AcceleratorConfig::with_pe_grid(px, py).nb_bank_width_bytes() as u64;
        prop_assert_eq!(dirty_load.cycles, d2.bytes_streamed.div_ceil(bank));
        prop_assert_eq!(
            third.stats().layers()[1..].to_vec(),
            reference2.stats().layers()[1..].to_vec()
        );
    }

    /// The dirty set is derived by content, not by identity: presenting
    /// an equal-valued clone streams nothing, and the report is a pure
    /// function of the presented input sequence.
    #[test]
    fn dirty_set_is_content_derived_and_deterministic(
        seed in 0u64..500,
        px in 2usize..7,
        py in 2usize..7,
    ) {
        let net = build_net(2, 10, 10, 3, seed);
        let accel = Accelerator::new(AcceleratorConfig::with_pe_grid(px, py));
        let prepared = accel.prepare(&net).expect("network fits");
        let a = net.random_input(seed);
        let b = net.random_input(seed ^ 0xBEEF);

        let run = |inputs: &[&MapStack<Fx>]| {
            let mut session = prepared.session();
            let mut residency = NbResidency::new();
            inputs
                .iter()
                .map(|input| {
                    let (_, d) = session.infer_delta(input, &mut residency).expect("clean run");
                    d
                })
                .collect::<Vec<_>>()
        };

        let clone_of_a = a.clone();
        let first = run(&[&a, &clone_of_a, &b, &a]);
        prop_assert_eq!(first[1].rows_streamed, 0);
        let second = run(&[&a, &a, &b, &a]);
        prop_assert_eq!(first, second);
    }
}

/// A geometry change (different network through the same residency)
/// resets the resident state to cold instead of misreading stale hashes.
#[test]
fn geometry_change_resets_residency() {
    let small = build_net(1, 8, 8, 3, 1);
    let large = build_net(2, 12, 12, 3, 2);
    let accel = Accelerator::default();
    let prepared_small = accel.prepare(&small).expect("fits");
    let prepared_large = accel.prepare(&large).expect("fits");
    let mut residency = NbResidency::new();

    let mut s = prepared_small.session();
    let (_, d) = s
        .infer_delta(&small.random_input(3), &mut residency)
        .expect("clean run");
    assert_eq!(d.rows_streamed, 8);

    let mut l = prepared_large.session();
    let (_, d) = l
        .infer_delta(&large.random_input(4), &mut residency)
        .expect("clean run");
    assert_eq!(d.rows_streamed, d.rows_total);
    assert_eq!(d.rows_total, 24);
    assert_eq!(residency.rows(), 24);

    residency.invalidate();
    assert!(!residency.is_warm());
    let (_, d) = l
        .infer_delta(&large.random_input(4), &mut residency)
        .expect("clean run");
    assert_eq!(d.rows_streamed, d.rows_total);
}

/// A staged delta never leaks: an interleaved plain `infer` after
/// `infer_delta` pays the full cold load (the stage is consumed by the
/// delta run itself), and neither a shape-rejected run nor a run aborted
/// by a detected fault can pass its stage on to the next.
#[test]
fn staged_delta_never_leaks_into_plain_runs() {
    let net = build_net(1, 10, 10, 3, 9);
    let prepared = Accelerator::default().prepare(&net).expect("fits");
    let input = net.random_input(11);
    let mut session = prepared.session();
    let mut residency = NbResidency::new();

    let (_, _) = session
        .infer_delta(&input, &mut residency)
        .expect("clean run");
    let (warm, d) = session
        .infer_delta(&input, &mut residency)
        .expect("clean run");
    assert_eq!(d.rows_streamed, 0);
    assert_eq!(warm.stats().layers()[0].cycles, 0);

    // A plain infer right after a warm delta run still cold-loads.
    let plain = session.infer(&input).expect("clean run");
    let mut cold = prepared.session();
    let reference = cold.infer(&input).expect("clean run");
    assert_eq!(plain.stats().layers(), reference.stats().layers());

    // A warm stage consumed by an attempt that parity aborts at its
    // first instruction fetch: the next clean run pays the cold Load.
    let d = session.stage_delta(&input, &mut residency);
    assert_eq!(d.rows_streamed, 0);
    session.set_fault_plan(FaultPlan::new(FaultConfig {
        ib_flip_rate: 1.0,
        protection: SramProtection::Parity,
        ..FaultConfig::zero()
    }));
    assert!(matches!(
        session.infer_ref(&input),
        Err(RunError::FaultDetected(_))
    ));
    session.set_fault_plan(FaultPlan::none());
    let after = session.infer(&input).expect("clean run");
    assert_eq!(after.stats().layers(), reference.stats().layers());
}

/// The composition a banded video prefix needs: a staged delta followed
/// by a shared-prefix `infer_ref_from(k, mid)` is `infer_delta` on the
/// whole region — the same streamed rows, Load cycles, outputs and
/// statistics — across a cold, a repeated and a partly changed input.
/// The strip evaluation between the stage and the run leaves the stage
/// in place.
#[test]
fn staged_delta_composes_with_a_shared_prefix() {
    let net = build_net(2, 12, 12, 3, 5);
    let prepared = Accelerator::new(AcceleratorConfig::with_pe_grid(4, 4))
        .prepare(&net)
        .expect("fits");
    let k = prepared.shareable_prefix();
    assert!(k > 0, "conv and pool share");
    let first = net.random_input(21);
    let mut changed = first.clone();
    for y in [2, 7] {
        let map = changed.get_mut(1).expect("map in range");
        map[(3, y)] = if map[(3, y)] == Fx::MAX {
            Fx::MIN
        } else {
            Fx::MAX
        };
    }

    let (mut whole, mut split) = (prepared.session(), prepared.session());
    let (mut whole_res, mut split_res) = (NbResidency::new(), NbResidency::new());
    let mut mid = MapStack::new(1, 1);
    for input in [&first, &first, &changed] {
        let (reference, expected) = whole.infer_delta(input, &mut whole_res).expect("clean run");
        let delta = split.stage_delta(input, &mut split_res);
        split
            .prefix_values(k, input, false, &mut mid)
            .expect("a region is a strip one region wide");
        let run = split.infer_ref_from(k, &mid).expect("clean replay");
        assert_eq!(delta, expected);
        assert_eq!(run.output(), reference.output());
        assert_eq!(run.stats(), reference.stats());
        assert_eq!(run.energy(), reference.energy());
    }
}

/// A run from layer 0 checks the stage it consumes: loading an input
/// other than the staged one — a changed row, or the network's shape
/// after a stage of another geometry — charges the cold Load, while the
/// staged input itself streams only its dirty rows.
#[test]
fn layer_zero_run_of_another_input_loads_cold() {
    let net = build_net(2, 12, 12, 3, 7);
    let prepared = Accelerator::default().prepare(&net).expect("fits");
    let first = net.random_input(31);
    let mut changed = first.clone();
    let map = changed.get_mut(0).expect("map in range");
    map[(5, 4)] = if map[(5, 4)] == Fx::MAX {
        Fx::MIN
    } else {
        Fx::MAX
    };
    let cold = |input: &MapStack<Fx>| {
        let mut session = prepared.session();
        let run = session.infer(input).expect("clean run");
        run.stats().layers().to_vec()
    };

    let mut session = prepared.session();
    let mut residency = NbResidency::new();
    session
        .infer_delta(&first, &mut residency)
        .expect("clean run");
    let d = session.stage_delta(&first, &mut residency);
    assert_eq!(d.rows_streamed, 0);
    let run = session.infer_ref(&changed).expect("clean run");
    assert_eq!(run.stats().layers(), cold(&changed).as_slice());

    let mut other = MapStack::new(1, 1);
    other.refill(12, 11, 2, Fx::ZERO);
    let d = session.stage_delta(&other, &mut NbResidency::new());
    assert_eq!(d.rows_streamed, 22);
    let run = session.infer_ref(&first).expect("clean run");
    assert_eq!(run.stats().layers(), cold(&first).as_slice());

    let d = session.stage_delta(&first, &mut residency);
    assert_eq!(d.rows_streamed, 0);
    let run = session.infer_ref(&first).expect("clean run");
    assert_eq!(run.stats().layers()[0].cycles, 0);
    assert_eq!(run.stats().layers()[1..], cold(&first)[1..]);
}
