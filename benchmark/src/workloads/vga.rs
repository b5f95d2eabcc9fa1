//! `vga_convnn`: the paper's §10.2 deployment. A 640×480 synthetic sensor
//! frame is tiled into the 1 073 overlapping 64×36 regions of
//! `RegionGrid::paper_convnn` and every region runs ConvNN through
//! `StreamingPipeline::process_frame`. One item is one frame, from sensor
//! readout to the last region's result.

use std::hint::black_box;
use std::time::Instant;

use shidiannao::cnn::zoo;
use shidiannao::pipeline::{FrameReport, StreamingPipeline};
use shidiannao::sensor::{Frame, FrameSource, RegionGrid, SyntheticSensor};
use shidiannao::sim::{Accelerator, AcceleratorConfig};

use crate::metrics::{median, median_spread, percentile, Better};
use crate::run::{
    err, host_e2e, host_layers, live_decodes, measure, modeled_e2e, no_gating, no_serving, timed,
    write_trace, Chunk, LayerTimes, Mix, Modeled, Opts, Outcome, SetUp, Timing, Workload,
    BUILD_SEED, PAPER_FPS,
};
use crate::trace::Tracer;

/// Modeled cycles of one ConvNN region in the frozen seed cycle table.
const CONVNN_CYCLES: u64 = 17_301;
/// Every `CHECK_STRIDE`-th region of each frame is compared with the
/// golden reference.
const CHECK_STRIDE: usize = 97;
/// Timed frames at least, whatever the time budget.
const MIN_FRAMES: usize = 5;

/// The sensor and its grid: the §10.2 VGA frame with its 1 073 regions,
/// or at smoke size a 160×120 frame tiled the same way (42 regions).
fn geometry(o: &Opts) -> (SyntheticSensor, RegionGrid) {
    if o.smoke {
        let grid = RegionGrid::new((160, 120), (64, 36), (16, 16));
        (SyntheticSensor::new(160, 120, o.seed), grid)
    } else {
        (SyntheticSensor::vga(o.seed), RegionGrid::paper_convnn())
    }
}

/// Checks one frame: total modeled cycles against the frozen table, and
/// every `CHECK_STRIDE`-th region against `Network::forward_fixed`.
fn check_frame(
    pipe: &StreamingPipeline,
    frame: &Frame,
    report: &FrameReport,
    out: &mut Outcome,
) -> Result<bool, String> {
    let grid = pipe.grid();
    let net = pipe.network();
    let (nx, _) = grid.counts();
    let cycles = report.compute_cycles() + report.load_cycles();
    let mut ok = cycles == grid.count() as u64 * CONVNN_CYCLES;
    out.check(ok, || {
        format!(
            "frame {}: {cycles} modeled cycles, frozen table says {} per region",
            frame.index(),
            CONVNN_CYCLES
        )
    });
    for i in (0..grid.count()).step_by(CHECK_STRIDE) {
        let origin = grid.origin(i % nx, i / nx);
        let region = frame
            .try_region_stacked(origin, grid.region_dims(), net.input_maps())
            .map_err(err)?;
        let got = &report.results()[i];
        let same = got.origin == origin && got.output == net.forward_fixed(&region).output();
        out.check(same, || {
            format!(
                "frame {} region {i}: output differs from forward_fixed",
                frame.index()
            )
        });
        ok &= same;
    }
    Ok(ok)
}

/// One traced frame, decomposed into the public calls `process_frame`
/// makes — the sensor readout, `try_stream` per region and
/// `Session::infer` per region — with a span around each.
fn traced_frame(
    pipe: &StreamingPipeline,
    cam: &mut SyntheticSensor,
    tr: &mut Tracer,
    mix: &mut Mix,
    item: u64,
) -> Result<f64, String> {
    let (net, regions) = (pipe.network(), pipe.grid().count());
    let t = Instant::now();
    let root = tr.begin("frame", None, item);
    let frame = tr.time("sensor.frame", Some(root), item, || cam.next_frame());
    let mut session = pipe.prepared().session();
    let mut stream = pipe
        .grid()
        .try_stream(&frame, net.input_maps())
        .map_err(err)?;
    let mut results = Vec::with_capacity(regions);
    while let Some(region) = tr.time("sensor.tile", Some(root), item, || stream.next()) {
        let run = tr
            .time("core.infer", Some(root), item, || session.infer(&region))
            .map_err(err)?;
        if results.is_empty() {
            mix.add(net, run.stats(), run.energy(), 1.0);
        }
        results.push((
            run.stats().cycles(),
            run.energy().total_nj(),
            run.output_flat(),
        ));
    }
    tr.end(root);
    black_box(results);
    Ok(t.elapsed().as_secs_f64())
}

/// Runs the workload.
///
/// # Errors
///
/// When the pipeline cannot be built or a frame fails to run.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let (mut cam, grid) = geometry(o);
    let mut setup = SetUp::new(|| {
        let net = zoo::convnn().build(BUILD_SEED).map_err(err)?;
        let accel = Accelerator::new(AcceleratorConfig::paper());
        // The pipeline constructor is validation plus `prepare`.
        let (pipe, secs) = timed(|| StreamingPipeline::new(accel, net, grid));
        Ok((pipe.map_err(err)?, secs))
    });
    let pipe = setup.first(o)?;
    let ghz = pipe.prepared().config().frequency_ghz;
    let regions = pipe.grid().count();
    let mut out = Outcome::default();

    // The first frame of a cold process runs slower; keep it out.
    for _ in 0..o.warmup(1) {
        black_box(pipe.process_frame(&cam.next_frame()).map_err(err)?);
    }

    // (cycles, load cycles, nJ, met deadline and checks) per untraced frame.
    let mut frames: Vec<(f64, f64, f64, bool)> = Vec::new();
    let mut tr = Tracer::new();
    let mut mix = Mix::default();
    let Timing {
        plain: secs,
        traced,
        plain_ref,
    } = measure(o, MIN_FRAMES, &mut setup, |i, traced| {
        if traced {
            return traced_frame(&pipe, &mut cam, &mut tr, &mut mix, i as u64);
        }
        let t = Instant::now();
        let frame = cam.next_frame();
        let report = pipe.process_frame(&frame).map_err(err)?;
        let secs = t.elapsed().as_secs_f64();
        out.attempted += 1;
        let ok = check_frame(&pipe, &frame, &report, &mut out)?;
        let cycles = (report.compute_cycles() + report.load_cycles()) as f64;
        let in_time = cycles / (ghz * 1e9) <= 1.0 / PAPER_FPS;
        let load = report.load_cycles() as f64;
        frames.push((cycles, load, report.energy_nj(), ok && in_time));
        Ok(secs)
    })?;
    let frame_cycles = frames[0].0;

    if !o.trace {
        let chunks: Vec<Chunk> = plain_ref
            .iter()
            .zip(&frames)
            .map(|(&secs, f)| Chunk {
                items: 1.0,
                cycles: f.0,
                secs,
            })
            .collect();
        let m = &mut out.metrics;
        host_e2e(m, &setup.secs_ref, &chunks)?;
        // Modeled metrics over the first MIN_FRAMES frames: the same
        // frames whatever the time budget.
        let fixed = &frames[..frames.len().min(MIN_FRAMES)];
        let cycles: Vec<f64> = fixed.iter().map(|f| f.0).collect();
        modeled_e2e(
            m,
            &Modeled {
                cycles_per_item: cycles.iter().sum::<f64>() / cycles.len() as f64,
                nj_per_item: fixed.iter().map(|f| f.2).sum::<f64>() / fixed.len() as f64,
                latency_p50: percentile(&cycles, 50.0),
                latency_p99: percentile(&cycles, 99.0),
                slo_attainment: fixed.iter().filter(|f| f.3).count() as f64 / fixed.len() as f64,
            },
        );
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        let (ms, ms_spread) = median_spread(&ms);
        m.extra_host("host_frame_ms_p50", "ms", Better::Lower, ms, ms_spread);
        m.extra_modeled(
            "modeled_fps",
            "1/s",
            Better::Higher,
            ghz * 1e9 / frame_cycles,
        );
        m.extra_modeled(
            "modeled_ms_per_region",
            "ms",
            Better::Lower,
            frame_cycles / regions as f64 / (ghz * 1e6),
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

    let n = traced.len() as f64;
    let sensor_s = tr.self_s("sensor.") / n;
    let infer_us = tr.durations_us("core.infer");
    let m = &mut out.metrics;
    host_layers(
        m,
        &LayerTimes {
            item_s: secs.iter().sum::<f64>() / secs.len() as f64,
            traced_item_s: traced.iter().sum::<f64>() / n,
            sensor_s,
            core_s: tr.self_s("core.") / n,
            sensor_us_per_region: sensor_s * 1e6 / regions as f64,
            infer_us: infer_us.clone(),
            prepare_ms: median(&setup.prepare) * 1e3,
            live_decode_share: if live_decodes(pipe.prepared()) {
                1.0
            } else {
                0.0
            },
        },
    );
    mix.emit(m);
    no_gating(m);
    no_serving(m);
    let frame_ms: Vec<f64> = tr
        .durations_us("frame")
        .iter()
        .map(|us| us * 1e-3)
        .collect();
    m.extra_host(
        "traced_frame_ms_p50",
        "ms",
        Better::Lower,
        percentile(&frame_ms, 50.0),
        0.0,
    );
    m.extra_host(
        "core.infer_us_p99.ConvNN",
        "us",
        Better::Lower,
        percentile(&infer_us, 99.0),
        0.0,
    );
    m.extra_modeled(
        "pipeline.load_cycles_share",
        "ratio",
        Better::Lower,
        frames[0].1 / frame_cycles,
    );
    write_trace(Workload::VgaConvnn, &tr)?;
    out.validate(true);
    Ok(out)
}
