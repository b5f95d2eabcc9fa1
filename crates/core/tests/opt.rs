//! Replay and schedule-optimizer properties: for random topologies and
//! PE grids, the whole-row replay bodies are bit-identical in outputs
//! to live decode, and the optimizer's prepare-time cost model strictly
//! improves every zoo network (DESIGN.md §3i).

use proptest::prelude::*;
use shidiannao_cnn::{zoo, Activation, ConvSpec, FcSpec, NetworkBuilder, PoolSpec};
use shidiannao_core::{Accelerator, AcceleratorConfig};

fn activations() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
    ]
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

    /// Replayed outputs (the `conv_rows`/`pool_rows` bodies) are
    /// bit-identical to live decode, and so are the statistics. The
    /// geometry is drawn as the conv output size so rows are usually
    /// wider than the PE mesh.
    #[test]
    fn replay_matches_live_decode(
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
        let prepared = accel.prepare(&net).expect("network fits");
        let input = net.random_input(seed ^ 0x5EED);

        let mut live = prepared.session();
        live.set_schedule_replay(false);
        let live_run = live.run(&input).expect("clean run");

        let replay_run = prepared.session().run(&input).expect("clean run");

        prop_assert_eq!(replay_run.layer_outputs(), live_run.layer_outputs());
        prop_assert_eq!(replay_run.stats(), live_run.stats());
        let t = replay_run.stats().total();
        prop_assert!(t.pe_busy_slots <= t.pe_total_slots);
        // The golden reference agrees too.
        prop_assert_eq!(replay_run.output(), net.forward_fixed(&input).output());
    }
}

/// Every pass of the cost model fires on every zoo network: cycles
/// *strictly* reduced, NB work eliminated, energy never increased.
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
        assert!(
            report.energy_saved_nj >= 0.0,
            "{}: negative energy delta",
            net.name()
        );
    }
}
