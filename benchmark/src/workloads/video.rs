//! `video_static` and `video_pan`: the motion-gated video pipeline
//! (`VideoPipeline::process_frame`) on a 640×480 `VideoSensor`, Gabor over
//! 20×20 regions at stride 10 (2 961 regions). The static camera with one
//! moving object exercises the gating: most regions replay their cached
//! result. The panning camera dirties every region, so gating is pure
//! overhead there. One item is one frame, from sensor readout to result.

use std::hint::black_box;
use std::time::Instant;

use shidiannao::cnn::zoo;
use shidiannao::sensor::{
    Frame, FrameDelta, FrameSource, Motion, MovingObject, RegionGrid, VideoSensor,
};
use shidiannao::sim::{Accelerator, AcceleratorConfig, NbResidency, Session};
use shidiannao::video::{VideoConfig, VideoFrameReport, VideoPipeline};

use crate::metrics::{median, median_spread, percentile, Better};
use crate::run::{
    err, host_e2e, host_layers, live_decodes, measure, modeled_e2e, no_serving, timed, write_trace,
    Chunk, LayerTimes, Mix, Modeled, Opts, Outcome, SetUp, Timing, Workload, BUILD_SEED, PAPER_FPS,
};
use crate::trace::Tracer;

/// A camera scene and how to pace it.
#[derive(Clone, Copy, Debug)]
pub struct Scene {
    /// The workload.
    pub workload: Workload,
    /// Camera motion.
    pub motion: Motion,
    /// Moving object, if any.
    pub object: Option<MovingObject>,
    /// Frames per timed chunk: a whole refresh period when frames differ
    /// in cost, so chunks are equal work.
    pub chunk: usize,
    /// Warm-up frames.
    pub warmup: usize,
}

/// `video_static`: static camera, one 24×24 object moving (7, 4) pixels
/// per frame. The default refresh interval is 16, so a chunk is 16 frames.
pub const STATIC: Scene = Scene {
    workload: Workload::VideoStatic,
    motion: Motion::Static,
    object: Some(MovingObject {
        size: (24, 24),
        speed: (7, 4),
    }),
    chunk: 16,
    warmup: 16,
};

/// `video_pan`: the camera pans (2, 1) pixels per frame; no object.
pub const PAN: Scene = Scene {
    workload: Workload::VideoPan,
    motion: Motion::Pan { dx: 2, dy: 1 },
    object: None,
    chunk: 1,
    warmup: 2,
};

/// Region geometry: Gabor's 20×20 input, stride 10.
const REGION: (usize, usize) = (20, 20);
const STRIDE: (usize, usize) = (10, 10);
/// Timed chunks at least, whatever the time budget.
const MIN_CHUNKS: usize = 5;
/// `Session::infer_delta` probes per traced frame.
const PROBES: usize = 8;
/// Frames re-run with the every-region oracle on: the cold first frame
/// and two gated ones.
const ORACLE_FRAMES: usize = 3;
/// On frames that compute every region, every `CHECK_STRIDE`-th region is
/// compared with the golden reference.
const CHECK_STRIDE: usize = 97;

/// The sensor: VGA, or 160×120 (165 regions) at smoke size.
fn frame_dims(o: &Opts) -> (usize, usize) {
    if o.smoke {
        (160, 120)
    } else {
        (640, 480)
    }
}

fn camera(scene: &Scene, frame: (usize, usize), seed: u64) -> VideoSensor {
    let cam = VideoSensor::new(frame.0, frame.1, seed, scene.motion);
    match scene.object {
        Some(o) => cam.with_object(o),
        None => cam,
    }
}

fn pipeline(frame: (usize, usize), oracle: bool) -> Result<VideoPipeline, String> {
    let net = zoo::gabor().build(BUILD_SEED).map_err(err)?;
    let config = VideoConfig {
        oracle,
        ..VideoConfig::default()
    };
    VideoPipeline::new(
        Accelerator::new(AcceleratorConfig::paper()),
        net,
        RegionGrid::new(frame, REGION, STRIDE),
        config,
    )
    .map_err(err)
}

/// The modeled content of a frame report, compared between the timed
/// pipeline and the oracle pass.
fn modeled_key(r: &VideoFrameReport) -> (u64, u64, u64, usize, usize, usize) {
    let l = r.ledger();
    (
        r.frame_index(),
        r.total_cycles(),
        r.total_energy_nj().to_bits(),
        l.computed,
        l.skipped,
        r.rows_streamed(),
    )
}

/// What the benchmark keeps of one processed frame.
#[derive(Clone, Copy, Debug)]
struct Row {
    secs: f64,
    refresh: bool,
    cycles: f64,
    nj: f64,
    computed: f64,
    skipped: f64,
    rows_streamed: f64,
    rows_total: f64,
    compare_cycles: f64,
    baseline_cycles: f64,
}

impl Row {
    fn new(secs: f64, refresh_interval: u64, r: &VideoFrameReport) -> Row {
        Row {
            secs,
            refresh: refresh_interval > 0 && r.frame_index().is_multiple_of(refresh_interval),
            cycles: r.total_cycles() as f64,
            nj: r.total_energy_nj(),
            computed: r.ledger().computed as f64,
            skipped: r.ledger().skipped as f64,
            rows_streamed: r.rows_streamed() as f64,
            rows_total: r.rows_total() as f64,
            compare_cycles: r.compare_cycles() as f64,
            baseline_cycles: r.baseline_cycles() as f64,
        }
    }
}

/// The calls the pipeline makes behind `process_frame`, repeated by the
/// benchmark on the same frame so each can be timed: the differencing
/// (`FrameDelta::observe`), the tiling of every region, and
/// `Session::infer_delta` on up to PROBES dirty regions.
struct Probes<'p> {
    delta: FrameDelta,
    session: Session<'p>,
    residency: Vec<NbResidency>,
    compared: Vec<f64>,
}

impl Probes<'_> {
    fn run(&mut self, tr: &mut Tracer, frame: &Frame, item: u64) -> Result<(), String> {
        let g = *self.delta.grid();
        let maps = self.session.prepared().network().input_maps();
        let probe = tr.begin("probe", None, item);
        let dirty = tr
            .time("sensor.diff", Some(probe), item, || {
                self.delta.observe(frame)
            })
            .map_err(err)?;
        self.compared.push(dirty.compared_pixels() as f64);
        let regions = tr
            .time("sensor.tile", Some(probe), item, || {
                g.try_stream(frame, maps).map(|s| s.collect::<Vec<_>>())
            })
            .map_err(err)?;
        let mut picked: Vec<usize> = (0..g.count())
            .filter(|&i| dirty.is_dirty(i))
            .take(PROBES)
            .collect();
        if picked.is_empty() {
            picked.push(0);
        }
        for i in picked {
            let (session, residency) = (&mut self.session, &mut self.residency[i]);
            let run = tr.time("core.infer_delta", Some(probe), item, || {
                session.infer_delta(&regions[i], residency)
            });
            black_box(run.map_err(err)?);
        }
        tr.end(probe);
        Ok(())
    }
}

/// On a frame that computed every region (a refresh frame, or any panning
/// frame), checks every `CHECK_STRIDE`-th region against
/// `Network::forward_fixed`: the delta-load path of warm recomputes.
fn check_full_frame(
    pipe: &VideoPipeline,
    frame: &Frame,
    report: &VideoFrameReport,
    out: &mut Outcome,
) -> Result<(), String> {
    let g = *pipe.grid();
    if report.ledger().computed != g.count() {
        return Ok(());
    }
    let net = pipe.network();
    let (nx, _) = g.counts();
    for i in (0..g.count()).step_by(CHECK_STRIDE) {
        let region = frame
            .try_region_stacked(g.origin(i % nx, i / nx), g.region_dims(), net.input_maps())
            .map_err(err)?;
        let same = report.results()[i].output == net.forward_fixed(&region).output();
        out.check(same, || {
            format!(
                "frame {} region {i}: output differs from forward_fixed",
                frame.index()
            )
        });
    }
    Ok(())
}

/// Reads the next frame and runs it through the pipeline; returns the
/// frame, its report, and the seconds from readout to result.
fn process(
    pipe: &mut VideoPipeline,
    cam: &mut VideoSensor,
) -> Result<(Frame, VideoFrameReport, f64), String> {
    let t = Instant::now();
    let frame = cam.next_frame();
    let report = pipe.process_frame(&frame).map_err(err)?;
    Ok((frame, report, t.elapsed().as_secs_f64()))
}

/// Runs one scene.
///
/// # Errors
///
/// When the pipeline cannot be built or a frame fails to run.
pub fn run(o: &Opts, scene: &Scene) -> Result<Outcome, String> {
    let dims = frame_dims(o);
    let mut setup = SetUp::new(|| {
        // The constructor is `prepare` plus one calibration inference.
        let (pipe, secs) = timed(|| pipeline(dims, false));
        Ok((pipe?, secs))
    });
    let mut pipe = setup.first(o)?;
    let refresh_interval = pipe.config().refresh_interval;
    let ghz = pipe.pipeline().prepared().config().frequency_ghz;
    let grid = *pipe.grid();
    let mut cam = camera(scene, dims, o.seed);
    let mut out = Outcome::default();
    // The modeled content of every frame the pipeline processed, by index.
    let mut keys = Vec::new();
    for _ in 0..o.warmup(scene.warmup) {
        let (_, report, _) = process(&mut pipe, &mut cam)?;
        keys.push(modeled_key(&report));
    }

    // Traced frames are timed as sensor readout plus `process_frame`,
    // then probed; core time per frame is estimated as computed regions
    // times the mean `infer_delta` probe.
    let prepared = Accelerator::new(AcceleratorConfig::paper())
        .prepare(pipe.network())
        .map_err(err)?;
    let mut probes = Probes {
        delta: FrameDelta::new(grid, pipe.config().dirty_threshold),
        session: prepared.session(),
        residency: vec![NbResidency::new(); grid.count()],
        compared: Vec::new(),
    };
    let mut tr = Tracer::new();
    let (mut rows, mut traced_rows): (Vec<Row>, Vec<Row>) = (Vec::new(), Vec::new());
    let Timing {
        plain: _,
        traced,
        plain_ref,
    } = measure(o, MIN_CHUNKS, &mut setup, |_, traced| {
        let mut secs = 0.0;
        for _ in 0..scene.chunk {
            let item = keys.len() as u64;
            let (frame, report, elapsed) = if traced {
                let t = Instant::now();
                let root = tr.begin("frame", None, item);
                let frame = tr.time("sensor.frame", Some(root), item, || cam.next_frame());
                let report = tr.time("video.process_frame", Some(root), item, || {
                    pipe.process_frame(&frame)
                });
                tr.end(root);
                (frame, report.map_err(err)?, t.elapsed().as_secs_f64())
            } else {
                let (frame, report, elapsed) = process(&mut pipe, &mut cam)?;
                check_full_frame(&pipe, &frame, &report, &mut out)?;
                (frame, report, elapsed)
            };
            secs += elapsed;
            keys.push(modeled_key(&report));
            let row = Row::new(elapsed, refresh_interval, &report);
            if traced {
                probes.run(&mut tr, &frame, item)?;
                traced_rows.push(row);
            } else {
                rows.push(row);
            }
        }
        Ok(secs)
    })?;
    out.attempted += (rows.len() + traced_rows.len()) as u64;

    // Oracle pass: a fresh pipeline with the every-region golden
    // reference on must certify every computed region and charge exactly
    // what the timed pipeline charged for the same frames.
    let mut oracle = pipeline(dims, true)?;
    let mut oracle_cam = camera(scene, dims, o.seed);
    for _ in 0..ORACLE_FRAMES.min(keys.len()) {
        let r = oracle
            .process_frame(&oracle_cam.next_frame())
            .map_err(err)?;
        let i = r.frame_index() as usize;
        out.attempted += 1;
        out.check(r.bit_identical(), || {
            format!("frame {i}: a computed region differs from forward_fixed")
        });
        out.check(modeled_key(&r) == keys[i], || {
            format!("frame {i}: oracle pass charged differently")
        });
    }

    // Modeled metrics over the first MIN_CHUNKS untraced chunks: the same
    // frames whatever the time budget.
    let fixed = &rows[..rows.len().min(MIN_CHUNKS * scene.chunk)];
    if !o.trace {
        let cycles: Vec<f64> = fixed.iter().map(|r| r.cycles).collect();
        let chunks: Vec<Chunk> = plain_ref
            .iter()
            .zip(rows.chunks(scene.chunk))
            .map(|(&secs, c)| Chunk {
                items: c.len() as f64,
                cycles: c.iter().map(|r| r.cycles).sum(),
                secs,
            })
            .collect();
        let m = &mut out.metrics;
        host_e2e(m, &setup.secs_ref, &chunks)?;
        let in_time = cycles
            .iter()
            .filter(|&&c| c / (ghz * 1e9) <= 1.0 / PAPER_FPS)
            .count();
        let mean_cycles = cycles.iter().sum::<f64>() / cycles.len() as f64;
        modeled_e2e(
            m,
            &Modeled {
                cycles_per_item: mean_cycles,
                nj_per_item: fixed.iter().map(|r| r.nj).sum::<f64>() / fixed.len() as f64,
                latency_p50: percentile(&cycles, 50.0),
                latency_p99: percentile(&cycles, 99.0),
                slo_attainment: in_time as f64 / cycles.len() as f64,
            },
        );
        let ms = |keep: fn(&Row) -> bool| -> Vec<f64> {
            rows.iter()
                .filter(|r| keep(r))
                .map(|r| r.secs * 1e3)
                .collect()
        };
        let (all, spread) = median_spread(&ms(|_| true));
        m.extra_host("host_frame_ms_p50", "ms", Better::Lower, all, spread);
        for (name, frames) in [
            ("video.skip_frame_ms_p50", ms(|r| !r.refresh)),
            ("video.refresh_frame_ms_p50", ms(|r| r.refresh)),
        ] {
            if !frames.is_empty() {
                let (v, spread) = median_spread(&frames);
                m.extra_host(name, "ms", Better::Lower, v, spread);
            }
        }
        m.extra_modeled(
            "modeled_fps",
            "1/s",
            Better::Higher,
            ghz * 1e9 / mean_cycles,
        );
        m.extra_modeled(
            "error_ratio",
            "ratio",
            Better::Lower,
            out.failed as f64 / out.attempted as f64,
        );
        out.validate(false);
        return Ok(out);
    }

    let n = traced_rows.len() as f64;
    let infer_us = tr.durations_us("core.infer_delta");
    let mean_infer_s = infer_us.iter().sum::<f64>() / infer_us.len() as f64 * 1e-6;
    let computed: f64 = traced_rows.iter().map(|r| r.computed).sum();
    let sensor_s = tr.self_s("sensor.") / n;
    let m = &mut out.metrics;
    host_layers(
        m,
        &LayerTimes {
            item_s: rows.iter().map(|r| r.secs).sum::<f64>() / rows.len() as f64,
            traced_item_s: traced.iter().sum::<f64>() / n,
            sensor_s,
            core_s: computed * mean_infer_s / n,
            sensor_us_per_region: sensor_s * 1e6 / grid.count() as f64,
            infer_us,
            prepare_ms: median(&setup.prepare) * 1e3,
            live_decode_share: if live_decodes(&prepared) { 1.0 } else { 0.0 },
        },
    );
    let mut mix = Mix::default();
    let net = prepared.network();
    let probe_run = prepared
        .session()
        .infer(&net.random_input(o.seed))
        .map_err(err)?;
    mix.add(net, probe_run.stats(), probe_run.energy(), 1.0);
    mix.emit(m);
    let sum = |f: fn(&Row) -> f64| -> f64 { fixed.iter().map(f).sum() };
    let total = sum(|r| r.cycles);
    m.layer(
        "video.skip_ratio",
        sum(|r| r.skipped) / sum(|r| r.computed + r.skipped),
    );
    m.layer(
        "video.rows_streamed_ratio",
        sum(|r| r.rows_streamed) / sum(|r| r.rows_total).max(1.0),
    );
    m.layer(
        "video.compare_cycles_share",
        sum(|r| r.compare_cycles) / total,
    );
    m.layer("video.cycle_saving", sum(|r| r.baseline_cycles) / total);
    no_serving(m);
    let diff_ms: Vec<f64> = tr
        .durations_us("sensor.diff")
        .iter()
        .map(|us| us * 1e-3)
        .collect();
    m.extra_host(
        "sensor.diff_ms_per_frame",
        "ms",
        Better::Lower,
        percentile(&diff_ms, 50.0),
        0.0,
    );
    let compared = &probes.compared;
    m.extra_modeled(
        "sensor.compared_pixels_per_frame",
        "count",
        Better::Lower,
        compared.iter().sum::<f64>() / compared.len() as f64,
    );
    write_trace(scene.workload, &tr)?;
    out.validate(true);
    Ok(out)
}
