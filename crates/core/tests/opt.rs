//! Schedule-optimizer properties: for random topologies, PE grids,
//! fault plans, and pass subsets, optimized-schedule replay is
//! bit-identical in outputs to live decode, optimized modeled cycles
//! never exceed the recording's, and fault overlays still resolve
//! correctly against optimized schedules (DESIGN.md §3i).

use proptest::prelude::*;
use shidiannao_cnn::{zoo, Activation, ConvSpec, FcSpec, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, OptConfig, SramProtection,
};

fn activations() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
    ]
}

fn pass_subsets() -> impl Strategy<Value = OptConfig> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(nb_dedup, mode_select, sb_coalesce, fifo_fold)| OptConfig {
            nb_dedup,
            mode_select,
            sb_coalesce,
            fifo_fold,
            ..OptConfig::none()
        },
    )
}

/// Pooling geometries covering every branch of the row replay body:
/// non-overlapping, clipped at the right input edge (ceiling rounding),
/// overlapping (a 3×3 window at stride 2), and a window as wide as its
/// input (one lane per row, the narrowest input a validated network
/// allows).
#[derive(Clone, Copy, Debug)]
enum PoolShape {
    Tiled,
    Clipped,
    Overlapping,
    ClippedTall,
    FullWidth,
}

fn pool_shapes() -> impl Strategy<Value = PoolShape> {
    prop_oneof![
        Just(PoolShape::Tiled),
        Just(PoolShape::Clipped),
        Just(PoolShape::Overlapping),
        Just(PoolShape::ClippedTall),
        Just(PoolShape::FullWidth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Outputs under any pass subset are bit-identical to live decode,
    /// and modeled cycles never increase. The geometry is drawn as the
    /// conv output size so rows are usually wider than the PE mesh.
    #[test]
    fn optimized_replay_matches_live_decode(
        in_maps in 1usize..3,
        out_maps in 1usize..4,
        cw in 3usize..20,
        ch in 3usize..10,
        k in 2usize..5,
        stride in 1usize..3,
        act in activations(),
        avg in any::<bool>(),
        shape in pool_shapes(),
        px in 2usize..9,
        py in 2usize..9,
        opt in pass_subsets(),
        seed in 0u64..1000,
    ) {
        let kind = if avg { PoolSpec::avg } else { PoolSpec::max };
        // Clipped shapes get a width the window does not divide, so the
        // trailing lane really clips.
        let (cw, pool) = match shape {
            PoolShape::Tiled => (cw, kind((2, 2))),
            PoolShape::Clipped => (cw | 1, kind((2, 2)).with_ceil()),
            PoolShape::Overlapping => (cw, kind((3, 3)).with_stride((2, 2))),
            PoolShape::ClippedTall => (cw + usize::from(cw % 3 == 0), kind((3, 2)).with_ceil()),
            // The instruction's 4-bit window field caps the width at 15.
            PoolShape::FullWidth => (cw.min(15), kind((cw.min(15), 2))),
        };
        let (w, h) = ((cw - 1) * stride + k, (ch - 1) * stride + k);
        let net = NetworkBuilder::new("p", in_maps, (w, h))
            .conv(
                ConvSpec::new(out_maps, (k, k))
                    .with_stride((stride, stride))
                    .with_activation(act),
            )
            .pool(pool)
            .fc(FcSpec::new(9))
            .build(seed)
            .unwrap();
        let accel = Accelerator::new(AcceleratorConfig::with_pe_grid(px, py));
        let mut prepared = accel.prepare(&net).expect("network fits");
        prepared.reoptimize(&opt);
        let input = net.random_input(seed ^ 0x5EED);

        let mut live = prepared.session();
        live.set_schedule_replay(false);
        let live_run = live.run(&input).expect("clean run");

        let mut optimized = prepared.session();
        optimized.set_optimized_replay(true);
        let opt_run = optimized.run(&input).expect("clean run");

        prop_assert_eq!(opt_run.layer_outputs(), live_run.layer_outputs());
        prop_assert!(opt_run.stats().cycles() <= live_run.stats().cycles());
        let t = opt_run.stats().total();
        prop_assert!(t.pe_busy_slots <= t.pe_total_slots);
        // The golden reference agrees too.
        prop_assert_eq!(opt_run.output(), net.forward_fixed(&input).output());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault overlays resolve correctly on optimized schedules: aborts
    /// fire identically, silent/corrected runs produce bit-identical
    /// outputs, and with the dedup passes off the fault counters match
    /// live decode exactly.
    #[test]
    fn overlays_resolve_on_optimized_schedules(
        rate in 0.0f64..0.02,
        protection in prop_oneof![
            Just(SramProtection::None),
            Just(SramProtection::Parity),
            Just(SramProtection::Secded),
        ],
        opt in pass_subsets(),
        px in 2usize..9,
        py in 2usize..9,
        seed in 0u64..500,
    ) {
        let net = NetworkBuilder::new("p", 2, (12, 12))
            .conv(ConvSpec::new(3, (3, 3)).with_activation(Activation::Tanh))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(8))
            .build(seed)
            .unwrap();
        let accel = Accelerator::new(AcceleratorConfig::with_pe_grid(px, py));
        let mut prepared = accel.prepare(&net).expect("network fits");
        prepared.reoptimize(&opt);
        let input = net.random_input(seed ^ 0xFA17);
        let plan = FaultPlan::new(FaultConfig::uniform(seed ^ 0x0F, rate, protection));

        let mut live = prepared.session_with_faults(plan);
        live.set_schedule_replay(false);
        let live_run = live.run(&input);

        let mut optimized = prepared.session_with_faults(plan);
        optimized.set_optimized_replay(true);
        let opt_run = optimized.run(&input);

        match (live_run, opt_run) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(b.layer_outputs(), a.layer_outputs());
                if !opt.nb_dedup && !opt.sb_coalesce {
                    // Multiplicities untouched → counter deltas match the
                    // per-access live filter exactly.
                    prop_assert_eq!(b.fault_stats(), a.fault_stats());
                }
            }
            // Detected errors force live decode on both paths, so the
            // abort is the exact same access either way.
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "paths diverged: live {a:?} vs optimized {b:?}"),
        }
    }
}

/// All default passes fire on every zoo network: outputs bit-identical,
/// cycles *strictly* reduced, energy never increased.
#[test]
fn zoo_networks_strictly_improve_under_default_passes() {
    let accel = Accelerator::default();
    for build in zoo::all() {
        let net = build.build(2015).expect("zoo networks build");
        let prepared = accel.prepare(&net).expect("zoo networks fit");
        let report = *prepared.optimizer_report();
        assert!(report.cycles_saved > 0, "{}: no cycles folded", net.name());
        assert!(
            report.nb_reads_eliminated + report.nb_modes_reselected > 0,
            "{}: no NB work eliminated",
            net.name()
        );
        let input = net.random_input(7);
        let mut base = prepared.session();
        let base_run = base.run(&input).expect("clean run");
        let mut optimized = prepared.session();
        optimized.set_optimized_replay(true);
        let opt_run = optimized.run(&input).expect("clean run");
        assert_eq!(opt_run.layer_outputs(), base_run.layer_outputs());
        assert!(
            opt_run.stats().cycles() < base_run.stats().cycles(),
            "{}: cycles not strictly reduced",
            net.name()
        );
        assert!(
            opt_run.energy().total_nj() <= base_run.energy().total_nj(),
            "{}: energy increased",
            net.name()
        );
        assert!(
            report.energy_saved_nj >= 0.0,
            "{}: negative energy delta",
            net.name()
        );
    }
}

/// The pass toggles really gate their effects: with every pass off the
/// optimized schedule is a verbatim copy, and toggling the session back
/// and forth lands on the same schedules.
#[test]
fn pass_toggles_gate_their_effects() {
    let net = zoo::lenet5().build(2015).expect("builds");
    let mut prepared = Accelerator::default().prepare(&net).expect("fits");
    let input = net.random_input(3);
    let base_cycles = prepared
        .session()
        .run(&input)
        .expect("runs")
        .stats()
        .cycles();

    prepared.reoptimize(&OptConfig::none());
    assert_eq!(
        *prepared.optimizer_report(),
        shidiannao_core::OptReport::default()
    );
    let mut s = prepared.session();
    s.set_optimized_replay(true);
    assert_eq!(s.run(&input).expect("runs").stats().cycles(), base_cycles);

    // fifo_fold alone saves cycles but leaves traffic untouched.
    prepared.reoptimize(&OptConfig {
        fifo_fold: true,
        ..OptConfig::none()
    });
    let report = *prepared.optimizer_report();
    assert!(report.cycles_saved > 0);
    assert_eq!(report.nb_reads_eliminated, 0);
    assert_eq!(report.sb_accesses_coalesced, 0);
    let mut s = prepared.session();
    s.set_optimized_replay(true);
    let folded = s.run(&input).expect("runs").stats().cycles();
    assert_eq!(folded, base_cycles - report.cycles_saved);
    // Flipping the toggle off returns to the recorded stream.
    s.set_optimized_replay(false);
    assert_eq!(s.run(&input).expect("runs").stats().cycles(), base_cycles);
}
