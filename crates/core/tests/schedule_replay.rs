//! Property-based equivalence of the precompiled micro-op schedule:
//! replaying a layer's recorded control stream must be bit-identical to
//! live HFSM decode — outputs, per-layer traces, statistics, energy,
//! fault counters, and (for detected faults) the exact abort cycle —
//! across random topologies, seeds, fault rates, protections, and
//! stuck-PE sets. Plus the sharing contract: every session holds one
//! `Arc` clone of its prepared network's schedule, never a copy.

use proptest::prelude::*;
use shidiannao_cnn::{Activation, ConvSpec, FcSpec, LrnSpec, Network, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, RunError, SramProtection,
};
use std::sync::Arc;

/// Runs the same seeded inference through a replay-enabled session and a
/// live-decode session (same fault plan) and asserts every observable is
/// bit-identical.
fn check_replay_matches_live(
    net: &Network,
    cfg: AcceleratorConfig,
    plan: FaultPlan,
    seed: u64,
) -> Result<(), TestCaseError> {
    let input = net.random_input(seed);
    let accel = Accelerator::new(cfg);
    let prepared = accel.prepare(net).expect("network fits");
    let mut replay = prepared.session_with_faults(plan);
    let mut live = prepared.session_with_faults(plan);
    live.set_schedule_replay(false);
    prop_assert!(replay.schedule_replay());
    prop_assert!(!live.schedule_replay());

    match (replay.run(&input), live.run(&input)) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.output(), b.output());
            prop_assert_eq!(a.layer_outputs(), b.layer_outputs());
            prop_assert_eq!(a.stats(), b.stats());
            prop_assert_eq!(a.energy(), b.energy());
            prop_assert_eq!(a.fault_stats(), b.fault_stats());
        }
        (Err(RunError::FaultDetected(_)), Err(RunError::FaultDetected(_))) => {
            // Detected faults abort at the exact live access: the cycles
            // charged to the wasted attempt and the counters at the
            // abort must agree.
            prop_assert_eq!(replay.last_cycles(), live.last_cycles());
            prop_assert_eq!(replay.fault_stats(), live.fault_stats());
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "paths disagreed on the outcome kind: replay ok={}, live ok={}",
                a.is_ok(),
                b.is_ok()
            )))
        }
    }
    Ok(())
}

/// A fault plan over the SRAM sites (plus optionally stuck PEs — replay
/// declines stuck meshes and falls back to live decode, which must stay
/// invisible in the results).
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
    prop_oneof![Just(0.0), Just(1e-4), Just(1e-3), Just(1e-2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_conv_nets_replay_bit_identical(
        in_maps in 1usize..3,
        out_maps in 1usize..5,
        w in 6usize..18,
        k in 1usize..5,
        s in 1usize..3,
        px in 2usize..9,
        py in 2usize..9,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= w);
        let net = NetworkBuilder::new("p", in_maps, (w, w))
            .conv(ConvSpec::new(out_maps, (k, k)).with_stride((s, s)).with_activation(Activation::Tanh))
            .build(seed)
            .unwrap();
        check_replay_matches_live(
            &net,
            AcceleratorConfig::with_pe_grid(px, py),
            plan(seed ^ 0xF00D, rate, protection, 0.0),
            seed ^ 77,
        )?;
    }

    #[test]
    fn random_deep_stacks_replay_bit_identical(
        w in 14usize..24,
        c1_maps in 2usize..5,
        k in 2usize..5,
        avg in any::<bool>(),
        out in 1usize..20,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        let pool = if avg { PoolSpec::avg((2, 2)) } else { PoolSpec::max((2, 2)) };
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(c1_maps, (k, k)))
            .pool(pool)
            .conv(ConvSpec::new(4, (2, 2)).with_activation(Activation::Sigmoid))
            .fc(FcSpec::new(out))
            .build(seed)
            .unwrap();
        check_replay_matches_live(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0xBEEF, rate, protection, 0.0),
            seed,
        )?;
    }

    #[test]
    fn non_replayable_layers_fall_back_bit_identical(
        maps in 1usize..5,
        window in 1usize..6,
        w in 4usize..9,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        // LRN layers are not modeled by the schedule: the session
        // live-decodes them mid-run while still replaying neighbours.
        let net = NetworkBuilder::new("p", maps, (w, w))
            .conv(ConvSpec::new(maps, (2, 2)))
            .lrn(LrnSpec { window_maps: window, k: 1.0, alpha: 0.5 })
            .fc(FcSpec::new(6))
            .build(seed)
            .unwrap();
        check_replay_matches_live(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0xCAFE, rate, protection, 0.0),
            seed,
        )?;
    }

    #[test]
    fn stuck_pe_sessions_replay_bit_identical(
        w in 10usize..18,
        k in 2usize..4,
        stuck_rate in prop_oneof![Just(0.0), Just(0.05), Just(0.5)],
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        // Stuck-PE meshes make replay decline the whole run; a
        // replay-enabled session must still be indistinguishable from a
        // live one.
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(3, (k, k)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(8))
            .build(seed)
            .unwrap();
        check_replay_matches_live(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0x57C4, rate, protection, stuck_rate),
            seed,
        )?;
    }

    #[test]
    fn repeated_runs_under_salted_plans_stay_bit_identical(
        w in 10usize..16,
        rate in prop_oneof![Just(1e-3), Just(1e-2)],
        protection in protections(),
        seed in 0u64..500,
    ) {
        // One replay session re-salted across trials (overlays rebuilt
        // lazily per plan) vs a fresh live session per trial.
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(2, (3, 3)))
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        let input = net.random_input(seed);
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let prepared = accel.prepare(&net).expect("fits");
        let base = plan(seed ^ 0xA1B2, rate, protection, 0.0);
        let mut session = prepared.session_with_faults(base);
        for salt in 0..3u64 {
            let salted = base.with_salt(salt);
            session.set_fault_plan(salted);
            let mut live = prepared.session_with_faults(salted);
            live.set_schedule_replay(false);
            match (session.run(&input), live.run(&input)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.output(), b.output());
                    prop_assert_eq!(a.fault_stats(), b.fault_stats());
                }
                (Err(RunError::FaultDetected(_)), Err(RunError::FaultDetected(_))) => {
                    prop_assert_eq!(session.last_cycles(), live.last_cycles());
                    prop_assert_eq!(session.fault_stats(), live.fault_stats());
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "salt {salt}: outcome kinds diverged (replay ok={}, live ok={})",
                        a.is_ok(),
                        b.is_ok()
                    )))
                }
            }
        }
    }
}

#[test]
fn sessions_share_one_schedule_arc() {
    let net = NetworkBuilder::new("share", 1, (12, 12))
        .conv(ConvSpec::new(3, (3, 3)))
        .pool(PoolSpec::max((2, 2)))
        .fc(FcSpec::new(4))
        .build(3)
        .unwrap();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).unwrap();
    assert_eq!(Arc::strong_count(prepared.schedule()), 1);

    let mut sessions: Vec<_> = (0..5).map(|_| prepared.session()).collect();
    // Open (and running) sessions borrow the schedule through the
    // prepared network — shared control state, not per-session copies
    // or clones.
    for s in &mut sessions {
        s.infer_ref(&net.random_input(2)).unwrap();
    }
    assert_eq!(Arc::strong_count(prepared.schedule()), 1);
    drop(sessions);
    assert_eq!(Arc::strong_count(prepared.schedule()), 1);

    // The schedule actually models this network: three replayable
    // layers, a nonzero memory footprint, and per-layer cycle counts
    // that sum to less than a whole run (load phase excluded).
    let schedule = prepared.schedule();
    assert_eq!(schedule.layer_count(), 3);
    assert_eq!(schedule.replayable_layers(), 3);
    assert!(schedule.memory_bytes() > 0);
    let run = prepared.session().run(&net.random_input(1)).unwrap();
    let layer_cycles: u64 = schedule.layers().iter().map(|l| l.cycles()).sum();
    assert!(layer_cycles > 0 && layer_cycles < run.stats().cycles());
}

#[test]
fn replay_toggle_round_trips() {
    let net = NetworkBuilder::new("toggle", 1, (10, 10))
        .conv(ConvSpec::new(2, (3, 3)))
        .build(5)
        .unwrap();
    let input = net.random_input(5);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).unwrap();
    let mut session = prepared.session();
    let a = session.run(&input).unwrap();
    session.set_schedule_replay(false);
    let b = session.run(&input).unwrap();
    session.set_schedule_replay(true);
    let c = session.run(&input).unwrap();
    assert_eq!(a.output(), b.output());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.energy(), b.energy());
    assert_eq!(b.output(), c.output());
    assert_eq!(b.stats(), c.stats());
}
