//! Temporal-reuse video datapath properties (DESIGN.md §3k): skipped
//! regions replay exactly the last computed result, the dirty set and
//! the whole report are pure functions of the construction inputs,
//! threshold 0 reduces exactly to frame-independent processing, and the
//! shared region ledger balances to the grid size on every report kind.

use proptest::prelude::*;
use shidiannao::pipeline::StreamingPipeline;
use shidiannao::prelude::*;
use shidiannao::sensor::{FrameSource, Motion, MovingObject, RegionGrid, VideoSensor};
use shidiannao::sim::NbResidency;
use shidiannao::video::{MotionGate, VideoConfig, VideoFrameReport, VideoPipeline};

const FRAME: (usize, usize) = (40, 40);
const REGION: (usize, usize) = (20, 20);

fn grid() -> RegionGrid {
    RegionGrid::new(FRAME, REGION, REGION)
}

fn pipeline(config: VideoConfig) -> VideoPipeline {
    let net = zoo::gabor().build(1).expect("gabor builds");
    VideoPipeline::new(
        Accelerator::new(AcceleratorConfig::paper()),
        net,
        grid(),
        config,
    )
    .expect("pipeline assembles")
}

fn motions() -> impl Strategy<Value = Motion> {
    prop_oneof![
        Just(Motion::Static),
        Just(Motion::Pan { dx: 1, dy: 0 }),
        Just(Motion::Pan { dx: 0, dy: 2 }),
        Just(Motion::Jitter { amp: 2 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Skipped regions replay exactly the last computed output, and a
    /// re-run of the same (seed, config, motion) sequence produces
    /// bit-identical reports — the dirty set is a pure function of the
    /// construction inputs.
    #[test]
    fn reports_are_pure_and_skips_replay_last_computed(
        seed in 0u64..200,
        motion in motions(),
        threshold in 1u8..32,
    ) {
        let config = VideoConfig {
            dirty_threshold: threshold,
            refresh_interval: 0,
            ..VideoConfig::default()
        };
        let run = || {
            let mut pipe = pipeline(config);
            let mut cam = VideoSensor::new(FRAME.0, FRAME.1, seed, motion);
            (0..4).map(|_| pipe.process_frame(&cam.next_frame()).expect("frame runs"))
                .collect::<Vec<VideoFrameReport>>()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "same inputs must give byte-identical reports");

        // Frame 0 computes everything (cold cache).
        prop_assert_eq!(a[0].ledger().computed, grid().count());
        // Every skipped region's output equals the last computed one.
        let mut last: Vec<Vec<shidiannao::fixed::Fx>> =
            a[0].results().iter().map(|r| r.output.clone()).collect();
        for report in &a[1..] {
            prop_assert_eq!(report.ledger().total(), grid().count());
            for (ri, r) in report.results().iter().enumerate() {
                if report.ledger().skipped == grid().count() {
                    prop_assert_eq!(&r.output, &last[ri]);
                }
                last[ri] = r.output.clone();
            }
            // Computed regions certified against the golden reference.
            prop_assert!(report.bit_identical());
        }
    }

    /// Threshold 0 reduces exactly to frame-independent processing:
    /// same outputs, same cycles, same energy as
    /// `StreamingPipeline::process_frame`, with an all-computed ledger
    /// and zero gating cost.
    #[test]
    fn threshold_zero_is_exactly_frame_independent(
        seed in 0u64..200,
        motion in motions(),
    ) {
        let net = zoo::gabor().build(1).expect("gabor builds");
        let plain = StreamingPipeline::new(
            Accelerator::new(AcceleratorConfig::paper()),
            net,
            grid(),
        )
        .expect("plain pipeline assembles");
        let mut video = pipeline(VideoConfig {
            dirty_threshold: 0,
            ..VideoConfig::default()
        });
        let mut cam = VideoSensor::new(FRAME.0, FRAME.1, seed, motion);
        for _ in 0..3 {
            let frame = cam.next_frame();
            let expect = plain.process_frame(&frame).expect("frame runs");
            let got = video.process_frame(&frame).expect("frame runs");
            prop_assert_eq!(got.results(), expect.results());
            prop_assert_eq!(got.compute_cycles(), expect.compute_cycles());
            prop_assert_eq!(got.load_cycles(), expect.load_cycles());
            prop_assert_eq!(got.energy_nj(), expect.energy_nj());
            prop_assert_eq!(got.compare_cycles(), 0);
            prop_assert_eq!(got.front_cycles(), 0);
            prop_assert_eq!(got.total_energy_nj(), expect.energy_nj());
            prop_assert_eq!(got.ledger().computed, grid().count());
            prop_assert_eq!(got.ledger().skipped, 0);
        }
    }
}

/// A fully static scene: after the cold frame every region skips, total
/// cycles and energy beat the frame-independent baseline strictly, and
/// the delta loads stream zero rows on recomputes.
#[test]
fn static_scene_skips_everything_and_saves() {
    let mut pipe = pipeline(VideoConfig {
        refresh_interval: 0,
        ..VideoConfig::default()
    });
    let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 7, Motion::Static);
    let cold = pipe.process_frame(&cam.next_frame()).expect("frame runs");
    assert_eq!(cold.ledger().computed, grid().count());
    assert_eq!(cold.rows_streamed(), cold.rows_total());
    for _ in 0..3 {
        let warm = pipe.process_frame(&cam.next_frame()).expect("frame runs");
        assert_eq!(warm.ledger().skipped, grid().count());
        assert_eq!(warm.ledger().computed, 0);
        assert_eq!(warm.compute_cycles(), 0);
        assert!(warm.compare_cycles() > 0, "differencing is not free");
        assert!(warm.total_cycles() < warm.baseline_cycles());
        assert!(warm.total_energy_nj() < warm.baseline_energy_nj());
        assert_eq!(warm.stale_results(), 0, "static scenes never go stale");
        assert_eq!(warm.missed_detections(), 0);
        assert_eq!(warm.results(), cold.results());
    }
}

/// A mostly-static scene (static camera + moving object): warm frames
/// compute only the object's regions, still beating the baseline, and
/// the region results always cover the full grid.
#[test]
fn moving_object_computes_only_its_regions() {
    let mut pipe = pipeline(VideoConfig {
        refresh_interval: 0,
        ..VideoConfig::default()
    });
    let mut cam =
        VideoSensor::new(FRAME.0, FRAME.1, 11, Motion::Static).with_object(MovingObject {
            size: (8, 8),
            speed: (5, 3),
        });
    let _cold = pipe.process_frame(&cam.next_frame()).expect("frame runs");
    let mut computed = 0;
    for _ in 0..4 {
        let warm = pipe.process_frame(&cam.next_frame()).expect("frame runs");
        let ledger = warm.ledger();
        assert_eq!(ledger.total(), grid().count());
        assert!(ledger.skipped > 0, "most of the scene is static");
        assert!(warm.total_cycles() < warm.baseline_cycles());
        assert!(warm.total_energy_nj() < warm.baseline_energy_nj());
        assert!(warm.bit_identical());
        computed += ledger.computed;
    }
    assert!(computed > 0, "the object must dirty some regions");
}

/// The periodic full refresh recomputes every region on schedule, and
/// the staleness bound recomputes a region whose cache aged out even in
/// a clean scene.
#[test]
fn refresh_and_staleness_force_recompute() {
    let mut pipe = pipeline(VideoConfig {
        refresh_interval: 3,
        ..VideoConfig::default()
    });
    let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 5, Motion::Static);
    for i in 0..7u64 {
        let report = pipe.process_frame(&cam.next_frame()).expect("frame runs");
        if i % 3 == 0 {
            assert_eq!(report.ledger().computed, grid().count(), "frame {i}");
        } else {
            assert_eq!(report.ledger().skipped, grid().count(), "frame {i}");
        }
    }

    let mut pipe = pipeline(VideoConfig {
        refresh_interval: 0,
        staleness_bound: 2,
        ..VideoConfig::default()
    });
    let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 5, Motion::Static);
    let mut saw_staleness_refresh = false;
    for i in 0..5u64 {
        let report = pipe.process_frame(&cam.next_frame()).expect("frame runs");
        if i > 0 && report.ledger().computed == grid().count() {
            saw_staleness_refresh = true;
        }
        assert_eq!(report.ledger().total(), grid().count());
    }
    assert!(
        saw_staleness_refresh,
        "bound 2 must refresh within 5 frames"
    );
}

/// Warm recomputes benefit from cross-frame NBin residency: a region
/// recomputed under a staleness bound in a static scene streams zero
/// input rows, so its delta load is strictly cheaper than frame 0's.
#[test]
fn residency_shrinks_warm_recompute_loads() {
    let mut pipe = pipeline(VideoConfig {
        refresh_interval: 2,
        ..VideoConfig::default()
    });
    let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 13, Motion::Static);
    let cold = pipe.process_frame(&cam.next_frame()).expect("frame runs");
    let _skip = pipe.process_frame(&cam.next_frame()).expect("frame runs");
    let refresh = pipe.process_frame(&cam.next_frame()).expect("frame runs");
    assert_eq!(refresh.ledger().computed, grid().count());
    assert_eq!(refresh.rows_streamed(), 0, "static rows are all resident");
    assert!(refresh.load_cycles() < cold.load_cycles());
    assert_eq!(refresh.results(), cold.results());
}

/// The binarized second gate: with the front threshold at MIN every
/// dirty region escalates (same compute set as `Diff`, plus front
/// cost); at MAX every dirty region is rejected back to cache replay
/// and the front's runs are priced.
#[test]
fn binary_front_gate_escalates_or_rejects() {
    let escalate_all = VideoConfig {
        refresh_interval: 0,
        gate: MotionGate::DiffThenBinaryFront {
            threshold: Fx::MIN,
            seed: 42,
        },
        ..VideoConfig::default()
    };
    let reject_all = VideoConfig {
        gate: MotionGate::DiffThenBinaryFront {
            threshold: Fx::MAX,
            seed: 42,
        },
        ..escalate_all
    };
    let diff_only = VideoConfig {
        gate: MotionGate::Diff,
        ..escalate_all
    };

    let run = |config: VideoConfig| {
        let mut pipe = pipeline(config);
        let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 3, Motion::Pan { dx: 2, dy: 1 });
        (0..3)
            .map(|_| pipe.process_frame(&cam.next_frame()).expect("frame runs"))
            .collect::<Vec<_>>()
    };

    let esc = run(escalate_all);
    let rej = run(reject_all);
    let diff = run(diff_only);

    for (e, d) in esc.iter().zip(&diff) {
        assert_eq!(e.ledger(), d.ledger(), "MIN threshold mirrors Diff");
        assert_eq!(e.results(), d.results());
        if e.frame_index() > 0 {
            assert!(e.front_runs() > 0, "dirty regions consult the front");
            assert!(e.front_cycles() > 0);
            assert!(e.front_energy_nj() > 0.0);
            assert_eq!(e.front_rejected(), 0);
        }
    }
    for r in &rej[1..] {
        assert_eq!(r.ledger().computed, 0, "MAX threshold rejects all");
        assert_eq!(r.front_rejected(), r.front_runs());
        assert_eq!(r.results(), rej[0].results(), "cache replays throughout");
    }
}

/// The oracle prices what rejection costs: a panning scene processed
/// with an always-rejecting front accumulates stale results, while the
/// ledger still balances and outputs still cover every region.
#[test]
fn oracle_prices_stale_replays() {
    let mut pipe = pipeline(VideoConfig {
        refresh_interval: 0,
        gate: MotionGate::DiffThenBinaryFront {
            threshold: Fx::MAX,
            seed: 42,
        },
        ..VideoConfig::default()
    });
    let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 17, Motion::Pan { dx: 3, dy: 2 });
    let _cold = pipe.process_frame(&cam.next_frame()).expect("frame runs");
    let mut stale = 0;
    for _ in 0..3 {
        let r = pipe.process_frame(&cam.next_frame()).expect("frame runs");
        assert_eq!(r.ledger().total(), grid().count());
        assert_eq!(r.results().len(), grid().count());
        stale += r.stale_results();
        assert!(r.missed_detections() <= r.stale_results());
    }
    assert!(stale > 0, "a panning scene behind a closed gate goes stale");
}

/// The shared region ledger balances to the grid size across all three
/// report kinds — plain, degraded, and video.
#[test]
fn ledgers_balance_across_report_kinds() {
    let net = zoo::gabor().build(1).expect("gabor builds");
    let plain = StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid())
        .expect("pipeline assembles");
    let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 9, Motion::Static);
    let frame = cam.next_frame();

    let p = plain.process_frame(&frame).expect("frame runs");
    let ledger = p.ledger();
    assert_eq!(ledger.computed, grid().count());
    assert_eq!(ledger.total(), grid().count());
    assert_eq!(ledger.coverage(), 1.0);

    let d = plain
        .process_frame_degraded(&frame, FaultPlan::none(), &DegradePolicy::default())
        .expect("frame runs");
    let ledger = d.ledger();
    assert_eq!(ledger.total(), grid().count());
    assert_eq!(ledger.computed, grid().count());
    assert_eq!(d.coverage(), ledger.coverage());

    let mut video = pipeline(VideoConfig::default());
    let v = video.process_frame(&frame).expect("frame runs");
    assert_eq!(v.ledger().total(), grid().count());
    assert_eq!(v.ledger().coverage(), 1.0);
}

/// The benchmark's panning VGA scene: 2 961 Gabor regions (20×20 at
/// stride 10) on a 640×480 frame, every region dirty on every frame, so
/// every region row runs the shared C1–C3 strip prefix. Each report, at
/// whatever worker count `RAYON_NUM_THREADS` gives (CI runs 1, 2 and
/// 3), must certify every region against the golden reference and equal
/// a serial loop that stages each region's delta load and runs it whole:
/// outputs, Load and compute cycles, streamed rows and energy bits.
#[test]
#[ignore = "a full VGA video scene; run with --release -- --ignored"]
fn vga_pan_reports_equal_the_per_region_delta_loop() {
    let (w, h) = (640, 480);
    let grid = RegionGrid::new((w, h), REGION, (10, 10));
    assert_eq!(grid.count(), 2961);
    let net = zoo::gabor().build(1).expect("gabor builds");
    let config = VideoConfig {
        refresh_interval: 0,
        ..VideoConfig::default()
    };
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("gabor fits");
    let mut pipe = VideoPipeline::new(accel, net.clone(), grid, config).expect("assembles");
    let mut session = prepared.session();
    let mut residency = vec![NbResidency::new(); grid.count()];
    let mut cam = VideoSensor::new(w, h, 11, Motion::Pan { dx: 2, dy: 1 });
    for f in 0..3 {
        let frame = cam.next_frame();
        let report = pipe.process_frame(&frame).expect("frame runs");
        assert!(report.bit_identical(), "frame {f}");
        assert_eq!(report.ledger().computed, grid.count(), "frame {f}");
        let (mut load, mut compute, mut streamed, mut nj) = (0, 0, 0, 0.0f64);
        for (i, region) in grid.stream(&frame, net.input_maps()).enumerate() {
            let delta = session.stage_delta(&region, &mut residency[i]);
            let run = session.infer_ref(&region).expect("clean run");
            let cycles = run.stats().layers()[0].cycles;
            load += cycles;
            compute += run.stats().cycles() - cycles;
            streamed += delta.rows_streamed;
            nj += run.energy().total_nj();
            assert_eq!(
                report.results()[i].output,
                run.output_flat(),
                "frame {f}, region {i}"
            );
        }
        assert_eq!(report.load_cycles(), load, "frame {f}");
        assert_eq!(report.compute_cycles(), compute, "frame {f}");
        assert_eq!(report.rows_streamed(), streamed, "frame {f}");
        assert_eq!(report.energy_nj().to_bits(), nj.to_bits(), "frame {f}");
    }
}
