//! Microbenchmarks of the steady-state hot path: the six NB controller
//! read modes, the SB broadcast, and a full prepared-session inference
//! on a small network (one window-sweep executor pass end to end).
//!
//! These isolate the per-cycle costs the throughput harness only sees in
//! aggregate, so a regression in (say) mode (c) row reads shows up here
//! before it dilutes into a whole-network number.

use criterion::{criterion_group, criterion_main, Criterion};
use shidiannao_cnn::{
    Activation, ConvSpec, FcSpec, LcnSpec, LrnSpec, Network, NetworkBuilder, PoolSpec,
};
use shidiannao_core::kernel::{LaneKernel, ScalarKernel, ValueKernel};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, Alu, FaultConfig, FaultPlan, LayerStats, NeuronBuffer,
    ReadScratch, SramProtection, SynapseBuffer,
};
use shidiannao_fixed::Fx;
use shidiannao_tensor::{FeatureMap, MapStack};
use std::hint::black_box;

/// An NB loaded with one 32 × 32 map, paper geometry (8 × 8 banking).
fn loaded_nb() -> NeuronBuffer {
    let mut nb = NeuronBuffer::new(8, 8, 64 * 1024);
    let stack = MapStack::from_fn(32, 32, 1, |_| {
        FeatureMap::from_fn(32, 32, |x, y| {
            Fx::from_f32(((x * 31 + y) % 97) as f32 / 97.0)
        })
    });
    nb.load(stack).expect("fits");
    nb
}

fn bench_nb_read_modes(c: &mut Criterion) {
    let nb = loaded_nb();
    let mut stats = LayerStats::new("bench");
    let mut scratch = ReadScratch::default();
    let mut out = Vec::new();
    let mut g = c.benchmark_group("nb_read");
    g.sample_size(10_000);
    g.bench_function("tile_a", |b| {
        b.iter(|| {
            nb.read_tile_into(
                0,
                (0, 0),
                (8, 8),
                (1, 1),
                &mut stats,
                &mut scratch,
                &mut out,
            )
        })
    });
    g.bench_function("tile_b", |b| {
        b.iter(|| {
            nb.read_tile_into(
                0,
                (9, 0),
                (8, 8),
                (1, 1),
                &mut stats,
                &mut scratch,
                &mut out,
            )
        })
    });
    g.bench_function("row_c", |b| {
        b.iter(|| nb.read_row_into(0, (4, 7), 8, 1, &mut stats, &mut scratch, &mut out))
    });
    g.bench_function("single_d", |b| b.iter(|| nb.read_single(123, &mut stats)));
    g.bench_function("tile_e_strided", |b| {
        b.iter(|| {
            nb.read_tile_into(
                0,
                (0, 0),
                (8, 8),
                (2, 2),
                &mut stats,
                &mut scratch,
                &mut out,
            )
        })
    });
    let coords: Vec<(usize, usize)> = (0..8).map(|i| (i * 2, i * 3 % 32)).collect();
    g.bench_function("gather_e", |b| {
        b.iter(|| nb.read_gather_into(0, &coords, &mut stats, &mut scratch, &mut out))
    });
    g.bench_function("col_f", |b| {
        b.iter(|| nb.read_col_into(0, (7, 4), 8, 1, &mut stats, &mut scratch, &mut out))
    });
    g.finish();
    black_box(stats.nbin.read_bytes);
}

fn bench_sb_broadcast(c: &mut Criterion) {
    let sb = SynapseBuffer::new(128 * 1024);
    let mut stats = LayerStats::new("bench");
    let mut g = c.benchmark_group("sb");
    g.sample_size(10_000);
    g.bench_function("broadcast", |b| b.iter(|| sb.read_broadcast(&mut stats)));
    g.finish();
    black_box(stats.sb.read_bytes);
}

/// One full prepared-session inference on a conv → pool → fc network:
/// every layer kind's steady-state schedule replay, including the lane
/// window reductions and classifier dot products.
fn bench_small_inference(c: &mut Criterion) {
    let net = NetworkBuilder::new("hotpath", 1, (16, 16))
        .conv(ConvSpec::new(4, (5, 5)))
        .pool(PoolSpec::max((2, 2)))
        .fc(FcSpec::new(10))
        .build(7)
        .expect("valid network");
    let input = net.random_input(9);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("prepare");
    let mut session = prepared.session();
    // Warm the scratch arenas and recycling pools past the growth phase.
    for _ in 0..16 {
        let _ = session.infer_ref(&input).expect("warm-up");
    }
    let mut g = c.benchmark_group("session");
    g.sample_size(200);
    g.bench_function("infer_conv_pool_fc", |b| {
        b.iter(|| black_box(session.infer_ref(&input).expect("infer").stats().cycles()))
    });
    g.finish();
}

/// A silent SRAM fault plan (NB/SB flips, no protection): faults are
/// active, so `infer_ref` takes the instrumented path — schedule replay
/// resolving the precompiled overlay, or live HFSM decode filtering
/// every access when replay is toggled off. The plan never aborts.
fn silent_plan() -> FaultPlan {
    FaultPlan::new(FaultConfig {
        nb_flip_rate: 1e-3,
        sb_flip_rate: 1e-3,
        ib_flip_rate: 0.0,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.0,
        ..FaultConfig::uniform(11, 0.0, SramProtection::None)
    })
}

/// One layer's worth of network per kind, so the replay-vs-live delta
/// isolates a single executor's control stream.
fn single_layer_nets() -> [(&'static str, Network); 3] {
    [
        (
            "conv",
            NetworkBuilder::new("conv1", 1, (16, 16))
                .conv(ConvSpec::new(4, (5, 5)))
                .build(7)
                .expect("valid network"),
        ),
        (
            "pool",
            NetworkBuilder::new("pool1", 4, (16, 16))
                .pool(PoolSpec::max((2, 2)))
                .build(7)
                .expect("valid network"),
        ),
        (
            "fc",
            NetworkBuilder::new("fc1", 2, (8, 8))
                .fc(FcSpec::new(24))
                .build(7)
                .expect("valid network"),
        ),
    ]
}

/// Schedule replay vs live HFSM decode, one layer kind at a time: the
/// same instrumented cycle (fault filtering active) through the
/// precompiled micro-op schedule and through per-cycle state-machine
/// decode. The ratio is the per-layer version of the harness's
/// `instr_speedup` column.
fn bench_schedule_replay(c: &mut Criterion) {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    for (kind, net) in single_layer_nets() {
        let input = net.random_input(9);
        let prepared = accel.prepare(&net).expect("prepare");
        let mut replay = prepared.session_with_faults(silent_plan());
        let mut live = prepared.session_with_faults(silent_plan());
        live.set_schedule_replay(false);
        // Warm both sessions (and build the replay overlay) past the
        // allocation growth phase.
        for _ in 0..16 {
            let _ = replay.infer_ref(&input).expect("warm-up");
            let _ = live.infer_ref(&input).expect("warm-up");
        }
        let mut g = c.benchmark_group(format!("schedule_{kind}"));
        g.sample_size(500);
        g.bench_function("replay", |b| {
            b.iter(|| black_box(replay.infer_ref(&input).expect("replay").stats().cycles()))
        });
        g.bench_function("live", |b| {
            b.iter(|| black_box(live.infer_ref(&input).expect("live").stats().cycles()))
        });
        g.finish();
    }
}

/// Normalization-layer replay vs live HFSM decode: one LRN and one LCN
/// layer (AlexNet-lite's and Jarrett-LCN's first-stage shapes), on clean
/// sessions — normalization layers replay only without a fault plan.
fn bench_norm_replay(c: &mut Criterion) {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let nets = [
        (
            "lrn",
            NetworkBuilder::new("lrn1", 8, (28, 28))
                .lrn(LrnSpec {
                    window_maps: 5,
                    k: 2.0,
                    alpha: 0.25,
                })
                .build(7),
        ),
        (
            "lcn",
            NetworkBuilder::new("lcn1", 6, (20, 20))
                .lcn(LcnSpec::new(5))
                .build(7),
        ),
    ];
    for (kind, net) in nets {
        let net = net.expect("valid network");
        let input = net.random_input(9);
        let prepared = accel.prepare(&net).expect("prepare");
        let mut replay = prepared.session();
        let mut live = prepared.session();
        live.set_schedule_replay(false);
        for _ in 0..16 {
            let _ = replay.infer_ref(&input).expect("warm-up");
            let _ = live.infer_ref(&input).expect("warm-up");
        }
        let mut g = c.benchmark_group(format!("schedule_{kind}"));
        g.sample_size(200);
        g.bench_function("replay", |b| {
            b.iter(|| black_box(replay.infer_ref(&input).expect("replay").stats().cycles()))
        });
        g.bench_function("live", |b| {
            b.iter(|| black_box(live.infer_ref(&input).expect("live").stats().cycles()))
        });
        g.finish();
    }
}

/// A conv whose kernel is exactly as wide as its input, so every output
/// row is one lane: ConvNN's C5 (14 maps of 14 × 7 in, 14 kernel pairs
/// of 14 × 7), the per-region tail of the §10.2 frame. Replay reduces
/// each kernel row with one contiguous dot.
fn bench_one_lane_conv(c: &mut Criterion) {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let net = NetworkBuilder::new("c5", 14, (14, 7))
        .conv(ConvSpec::new(14, (14, 7)).with_pairs(14))
        .build(7)
        .expect("valid network");
    let input = net.random_input(9);
    let prepared = accel.prepare(&net).expect("prepare");
    let mut session = prepared.session();
    for _ in 0..16 {
        let _ = session.infer_ref(&input).expect("warm-up");
    }
    let mut g = c.benchmark_group("schedule_conv_one_lane");
    g.sample_size(2_000);
    g.bench_function("replay", |b| {
        b.iter(|| black_box(session.infer_ref(&input).expect("replay").stats().cycles()))
    });
    g.finish();
}

/// Convs over narrow rows on clean sessions: LeNet-5's C1 (six 5 × 5
/// kernels over one 32 × 32 map, 28-wide output rows) and Gabor's C1 on
/// a 20 × 20 region (four 5 × 5 kernels, 16-wide rows). Replay sweeps
/// each kernel tap once over a block of output rows, not once per row.
fn bench_block_conv(c: &mut Criterion) {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let mut g = c.benchmark_group("schedule_conv_block");
    g.sample_size(2_000);
    for (id, maps, side) in [("replay", 6, 32), ("replay_gabor_c1", 4, 20)] {
        let net = NetworkBuilder::new("c1", 1, (side, side))
            .conv(ConvSpec::new(maps, (5, 5)))
            .build(7)
            .expect("valid network");
        let input = net.random_input(9);
        let prepared = accel.prepare(&net).expect("prepare");
        let mut session = prepared.session();
        for _ in 0..16 {
            let _ = session.infer_ref(&input).expect("warm-up");
        }
        g.bench_function(id, |b| {
            b.iter(|| black_box(session.infer_ref(&input).expect("replay").stats().cycles()))
        });
    }
    g.finish();
}

/// The ALU's tanh over one C1 output row of a VGA strip (636 values,
/// in and out of the PLA domain): the activation pass that follows
/// every replayed conv row.
fn bench_alu_activate(c: &mut Criterion) {
    let alu = Alu::new(AcceleratorConfig::paper().alu_lanes);
    let row: Vec<Fx> = (0..636)
        .map(|i| Fx::from_f32((i % 211) as f32 / 16.0 - 6.5))
        .collect();
    let mut vals = row.clone();
    let mut stats = LayerStats::default();
    let mut g = c.benchmark_group("alu");
    g.sample_size(10_000);
    g.bench_function("activate_row", |b| {
        b.iter(|| {
            vals.copy_from_slice(&row);
            black_box(alu.activate(&mut vals, Activation::Tanh, &mut stats))
        })
    });
    g.finish();
}

/// The marginal cost of one autotuner grid-point evaluation with the
/// network already prepared: a full simulator run plus the three
/// protection-level energy re-costings and the area model. This is what
/// each of the tuner's hundreds of points pays after the prepared-
/// network cache absorbs `prepare`, and it must stay well under a
/// millisecond for the design-space sweep to be interactive.
fn bench_tuner_point(c: &mut Criterion) {
    use shidiannao_core::area::area_with_protection;
    use shidiannao_core::energy::EnergyModel;

    let net = shidiannao_cnn::zoo::lenet5().build(2015).expect("builds");
    let cfg = AcceleratorConfig {
        nbin_bytes: 64 * 1024,
        nbout_bytes: 64 * 1024,
        sb_bytes: 128 * 1024,
        ..AcceleratorConfig::with_pe_grid(12, 12)
    };
    let prepared = Accelerator::new(cfg.clone()).prepare(&net).expect("fits");
    let input = net.random_input(9);
    let protections = [
        SramProtection::None,
        SramProtection::Parity,
        SramProtection::Secded,
    ];
    let mut g = c.benchmark_group("tuner");
    g.sample_size(200);
    g.bench_function("point_eval", |b| {
        b.iter(|| {
            let run = prepared.session().run(&input).expect("runs");
            let total = run.stats().total();
            let mut cost = 0.0f64;
            for p in protections {
                cost += EnergyModel::paper_65nm()
                    .with_sram_protection(p)
                    .charge(&total)
                    .total_nj();
                cost += area_with_protection(&cfg, p).total_mm2();
            }
            black_box((run.stats().cycles(), cost))
        })
    });
    g.finish();
}

/// The chunked-i16-lane reduction kernel against its scalar reference:
/// the classifier dot product and the window sweep's shifted
/// multiply-accumulate, on sizes matching the zoo's hot layers. The two
/// kernels are bit-identical (the executors' tests prove it); this
/// measures what the vectorized form buys.
fn bench_reduction_kernels(c: &mut Criterion) {
    let vals: Vec<Fx> = (0..256)
        .map(|i| Fx::from_f32((i % 97) as f32 / 97.0 - 0.5))
        .collect();
    let wts: Vec<Fx> = (0..256)
        .map(|i| Fx::from_f32((i % 89) as f32 / 89.0 - 0.5))
        .collect();
    let row: Vec<Fx> = (0..64)
        .map(|i| Fx::from_f32((i % 53) as f32 / 53.0 - 0.5))
        .collect();
    let k = Fx::from_f32(0.375);
    let mut lanes = vec![0i64; 8];
    let mut g = c.benchmark_group("reduction");
    g.sample_size(10_000);
    g.bench_function("dot_lane", |b| {
        b.iter(|| black_box(LaneKernel.dot_raw(&vals, &wts)))
    });
    g.bench_function("dot_scalar", |b| {
        b.iter(|| black_box(ScalarKernel.dot_raw(&vals, &wts)))
    });
    g.bench_function("shifted_mac_lane", |b| {
        b.iter(|| {
            lanes.iter_mut().for_each(|l| *l = 0);
            LaneKernel.shifted_mac(&row, 1, k, &mut lanes);
            black_box(lanes[0])
        })
    });
    g.bench_function("shifted_mac_scalar", |b| {
        b.iter(|| {
            lanes.iter_mut().for_each(|l| *l = 0);
            ScalarKernel.shifted_mac(&row, 1, k, &mut lanes);
            black_box(lanes[0])
        })
    });
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        g.bench_function("dot_lane_avx2", |b| {
            // SAFETY: the host supports AVX2, checked above.
            b.iter(|| black_box(unsafe { avx2::dot_raw(&vals, &wts) }))
        });
        g.bench_function("shifted_mac_lane_avx2", |b| {
            b.iter(|| {
                lanes.iter_mut().for_each(|l| *l = 0);
                // SAFETY: the host supports AVX2, checked above.
                unsafe { avx2::shifted_mac(&row, k, &mut lanes) };
                black_box(lanes[0])
            })
        });
    }
    g.finish();
}

/// The public `LaneKernel` primitives compiled with AVX2 enabled, as the
/// replay value stage's AVX2 twin compiles them; beside `dot_lane` and
/// `shifted_mac_lane` they give the per-primitive ratio of the two
/// code generations.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use shidiannao_core::kernel::{LaneKernel, ValueKernel};
    use shidiannao_fixed::Fx;

    #[target_feature(enable = "avx2")]
    pub fn dot_raw(vals: &[Fx], wts: &[Fx]) -> i64 {
        LaneKernel.dot_raw(vals, wts)
    }

    #[target_feature(enable = "avx2")]
    pub fn shifted_mac(row: &[Fx], k: Fx, lanes: &mut [i64]) {
        LaneKernel.shifted_mac(row, 1, k, lanes)
    }
}

/// The XNOR-popcount dot product against the 16-bit lane and scalar
/// kernels, on ±magnitude operands (what a binarized layer actually
/// feeds them). All three are bit-identical on these inputs (the quant
/// crate's certificates prove it); this measures what the 1-bit
/// datapath buys per reduction — the microarchitectural basis for the
/// `WeightPrecision::W1` energy scaling.
fn bench_xnor_kernels(c: &mut Criterion) {
    use shidiannao_quant::{XnorLaneKernel, XnorScalarKernel};

    let val_mag = Fx::from_f32(0.5);
    let wt_mag = Fx::from_f32(0.25);
    let vals: Vec<Fx> = (0..256)
        .map(|i| if (i * 7) % 3 == 0 { val_mag } else { -val_mag })
        .collect();
    let wts: Vec<Fx> = (0..256)
        .map(|i| if (i * 11) % 5 < 2 { wt_mag } else { -wt_mag })
        .collect();
    let xs = XnorScalarKernel::new(val_mag, wt_mag);
    let xl = XnorLaneKernel::new(val_mag, wt_mag);
    let mut g = c.benchmark_group("xnor");
    g.sample_size(10_000);
    g.bench_function("dot_xnor_lane", |b| {
        b.iter(|| black_box(xl.dot_raw(&vals, &wts)))
    });
    g.bench_function("dot_xnor_scalar", |b| {
        b.iter(|| black_box(xs.dot_raw(&vals, &wts)))
    });
    g.bench_function("dot_i16_lane", |b| {
        b.iter(|| black_box(LaneKernel.dot_raw(&vals, &wts)))
    });
    g.finish();
}

/// One binarized front-end inference vs one full-precision LeNet-5
/// inference through the prepared session — the wall-clock version of
/// the cascade's per-region cycle advantage (`harness cascade` gates
/// the modeled ratio at ≥ 4x).
fn bench_front_vs_full(c: &mut Criterion) {
    use shidiannao_quant::cascade::{binary_front, full_stage};
    use shidiannao_serve::binarize_pixel;

    let front = binary_front(42).expect("binarizes");
    let full = full_stage(42).expect("builds");
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let front_prepared = accel.prepare(&front.network).expect("prepare front");
    let full_prepared = accel.prepare(&full).expect("prepare full");
    let raw = full.random_input(9);
    let bin = raw.map(|&px| binarize_pixel(px));
    let mut front_session = front_prepared.session();
    let mut full_session = full_prepared.session();
    for _ in 0..16 {
        let _ = front_session.infer_ref(&bin).expect("warm-up");
        let _ = full_session.infer_ref(&raw).expect("warm-up");
    }
    let mut g = c.benchmark_group("cascade_stage");
    g.sample_size(200);
    g.bench_function("front_w1", |b| {
        b.iter(|| {
            black_box(
                front_session
                    .infer_ref(&bin)
                    .expect("front")
                    .stats()
                    .cycles(),
            )
        })
    });
    g.bench_function("full_lenet5", |b| {
        b.iter(|| black_box(full_session.infer_ref(&raw).expect("full").stats().cycles()))
    });
    g.finish();
}

/// Per-region frame differencing — the sensor-side cost every video
/// frame pays before any gating decision. `observe_clean` diffs a frame
/// against an identical predecessor (steady state of a static scene);
/// `observe_dirty` alternates two frames of a panning scene so every
/// region crosses the threshold.
fn bench_frame_diff(c: &mut Criterion) {
    use shidiannao_sensor::{FrameDelta, FrameSource, Motion, RegionGrid, VideoSensor};

    let grid = RegionGrid::new((60, 60), (20, 20), (20, 20));
    let mut cam = VideoSensor::new(60, 60, 7, Motion::Static);
    let frame = cam.next_frame();
    let mut pan = VideoSensor::new(60, 60, 7, Motion::Pan { dx: 3, dy: 1 });
    let (pan_a, pan_b) = (pan.next_frame(), pan.next_frame());
    let mut delta = FrameDelta::new(grid, 8);
    delta.observe(&frame).expect("dims match");
    let mut pan_delta = FrameDelta::new(grid, 8);
    pan_delta.observe(&pan_a).expect("dims match");
    let mut flip = false;
    let mut g = c.benchmark_group("frame_diff");
    g.sample_size(10_000);
    g.bench_function("observe_clean", |b| {
        b.iter(|| black_box(delta.observe(&frame).expect("dims match").dirty_count()))
    });
    g.bench_function("observe_dirty", |b| {
        b.iter(|| {
            flip = !flip;
            let f = if flip { &pan_b } else { &pan_a };
            black_box(pan_delta.observe(f).expect("dims match").dirty_count())
        })
    });
    g.finish();
}

/// One earliest-deadline pick from a tenant queue held at depth `d`:
/// pop the head, then admit a request with a fresh deadline so the depth
/// stays put. The queue is keyed by `(deadline, seq)`, so the cost per
/// pick grows with `log d`, not with `d` as a linear scan's would.
fn bench_queue_pick(c: &mut Criterion) {
    use shidiannao_serve::{BoundedQueue, Request};

    let request = |seq: u64| Request {
        tenant: 0,
        seq,
        arrival: 0,
        deadline: seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44,
    };
    let mut g = c.benchmark_group("queue");
    g.sample_size(10_000);
    for depth in [16u64, 256, 4096] {
        let mut queue = BoundedQueue::new(depth as usize);
        for seq in 0..depth {
            queue.admit(request(seq)).expect("below capacity");
        }
        let mut seq = depth;
        g.bench_function(format!("pick_depth_{depth}"), |b| {
            b.iter(|| {
                let picked = queue.pop_earliest_deadline().expect("never empty");
                queue.admit(request(seq)).expect("one slot free");
                seq += 1;
                black_box(picked)
            })
        });
    }
    g.finish();
}

/// Cross-frame NBin residency: a warm staged delta (`stage_delta` then
/// `infer_ref`) repeat of an unchanged input (hash-compare every row, stream none) against the
/// plain cold-load `infer_ref` (stream every row). The gap is what the
/// video pipeline's per-region residency buys on a static region.
fn bench_delta_load(c: &mut Criterion) {
    use shidiannao_core::NbResidency;

    let net = NetworkBuilder::new("delta", 1, (16, 16))
        .conv(ConvSpec::new(4, (5, 5)))
        .pool(PoolSpec::max((2, 2)))
        .fc(FcSpec::new(10))
        .build(7)
        .expect("valid network");
    let input = net.random_input(9);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("prepare");
    let mut warm = prepared.session();
    let mut residency = NbResidency::new();
    let mut cold = prepared.session();
    for _ in 0..16 {
        warm.stage_delta(&input, &mut residency);
        let _ = warm.infer_ref(&input).expect("warm-up");
        let _ = cold.infer_ref(&input).expect("warm-up");
    }
    let mut g = c.benchmark_group("delta_load");
    g.sample_size(200);
    g.bench_function("warm_delta", |b| {
        b.iter(|| {
            let dl = warm.stage_delta(&input, &mut residency);
            let inf = warm.infer_ref(&input).expect("delta");
            black_box((inf.stats().cycles(), dl.rows_streamed))
        })
    });
    g.bench_function("cold_load", |b| {
        b.iter(|| black_box(cold.infer_ref(&input).expect("cold").stats().cycles()))
    });
    g.finish();
}

/// Steady-state cost of one video frame at both ends of the motion
/// gate, oracle off and no forced refresh. `static_replay`: every
/// region clean, every result replayed from cache — the frame-diff pass
/// plus the calibrated compare-only accounting, the per-frame floor the
/// gate can reach. `pan_frame`: a panning camera on a stride-10 grid
/// (the benchmark's geometry, 5 × 5 regions), every region dirty, so
/// every region row runs the shared C1–C3 strip and each region only
/// its tail — the strip path alone.
fn bench_video_replay(c: &mut Criterion) {
    use shidiannao::video::{VideoConfig, VideoPipeline};
    use shidiannao_sensor::{FrameSource, Motion, RegionGrid, VideoSensor};

    let config = VideoConfig {
        refresh_interval: 0,
        oracle: false,
        ..VideoConfig::default()
    };
    let pipeline = |stride| {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("builds");
        let grid = RegionGrid::new((60, 60), net.input_dims(), (stride, stride));
        let accel = Accelerator::new(AcceleratorConfig::paper());
        VideoPipeline::new(accel, net, grid, config).expect("valid pipeline")
    };
    let mut still = pipeline(20);
    let frame = VideoSensor::new(60, 60, 7, Motion::Static).next_frame();
    for _ in 0..4 {
        let _ = still.process_frame(&frame).expect("warm-up");
    }
    // Two frames of a pan, alternated: each differs from the one before
    // it everywhere, so every region computes every frame.
    let mut pan = pipeline(10);
    let mut cam = VideoSensor::new(60, 60, 7, Motion::Pan { dx: 2, dy: 1 });
    let panned = [cam.next_frame(), cam.next_frame()];
    for frame in panned.iter().cycle().take(4) {
        let report = pan.process_frame(frame).expect("warm-up");
        assert_eq!(report.ledger().computed, 25, "every region computes");
    }
    let mut g = c.benchmark_group("video");
    g.sample_size(200);
    g.bench_function("static_replay", |b| {
        b.iter(|| {
            let report = still.process_frame(&frame).expect("frame");
            black_box((report.total_cycles(), report.ledger().skipped))
        })
    });
    let mut next = panned.iter().cycle();
    g.bench_function("pan_frame", |b| {
        b.iter(|| {
            let frame = next.next().expect("cycles forever");
            let report = pan.process_frame(frame).expect("frame");
            black_box((report.total_cycles(), report.ledger().computed))
        })
    });
    g.finish();
}

criterion_group!(
    hot_path,
    bench_nb_read_modes,
    bench_sb_broadcast,
    bench_small_inference,
    bench_schedule_replay,
    bench_one_lane_conv,
    bench_block_conv,
    bench_norm_replay,
    bench_alu_activate,
    bench_tuner_point,
    bench_reduction_kernels,
    bench_xnor_kernels,
    bench_front_vs_full,
    bench_frame_diff,
    bench_queue_pick,
    bench_delta_load,
    bench_video_replay
);
criterion_main!(hot_path);
