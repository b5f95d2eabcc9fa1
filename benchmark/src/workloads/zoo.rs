//! `zoo_table2`: the paper's evaluation set. The ten Table 2 networks plus
//! the two extended networks that carry the layer kinds Table 2 lacks
//! (`alexnet_lite`: LRN, `jarrett_lcn`: LCN), each prepared once and then
//! driven with `Session::infer_ref` over 16 sensor regions. One item is
//! one inference; a chunk is the same number of calls on every network.

use std::hint::black_box;
use std::time::Instant;

use shidiannao::cnn::zoo;
use shidiannao::fixed::Fx;
use shidiannao::sensor::{FrameSource, RegionGrid, SyntheticSensor};
use shidiannao::sim::{Accelerator, AcceleratorConfig, Inference, PreparedNetwork};
use shidiannao::tensor::MapStack;

use crate::metrics::{median, median_spread, percentile, Better};
use crate::run::{
    err, host_e2e, host_layers, live_decodes, measure, modeled_e2e, no_gating, no_serving, timed,
    write_trace, Chunk, LayerTimes, Mix, Modeled, Opts, Outcome, SetUp, Timing, Workload,
    BUILD_SEED,
};
use crate::trace::Tracer;

/// Modeled cycles per inference of the Table 2 networks, frozen at the
/// repository seed (the seed cycle table every harness gates on).
const SEED_CYCLES: [(&str, u64); 10] = [
    ("CNP", 31232),
    ("MPCNN", 53231),
    ("FaceRecog", 8357),
    ("LeNet-5", 10017),
    ("SimpleConv", 8353),
    ("CFF", 3351),
    ("NEO", 2390),
    ("ConvNN", 17301),
    ("Gabor", 905),
    ("FaceAlign", 8812),
];

/// Sensor regions per network: a 4×4 tiling of one frame.
const INPUTS: usize = 16;
/// `infer_ref` calls per network per chunk.
const CALLS: usize = 50;
/// Warm-up calls per network.
const WARMUP: usize = 32;
/// Timed chunks at least, whatever the time budget.
const MIN_CHUNKS: usize = 5;

struct Net {
    name: &'static str,
    prepared: PreparedNetwork,
    inputs: Vec<MapStack<Fx>>,
}

/// Builds and prepares every network and tiles its inputs out of a sensor
/// frame. Returns the networks, each one's prepare seconds, and the sensor
/// seconds.
fn build(seed: u64) -> Result<(Vec<Net>, Vec<f64>, f64), String> {
    let builders = zoo::all()
        .into_iter()
        .chain([zoo::extended::alexnet_lite(), zoo::extended::jarrett_lcn()]);
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let (mut prepare_s, mut sensor_s) = (Vec::new(), 0.0);
    let mut nets = Vec::new();
    for (i, b) in builders.enumerate() {
        let net = b.build(BUILD_SEED).map_err(err)?;
        let (w, h) = net.input_dims();
        let ((frame, inputs), secs) = timed(|| {
            let frame = SyntheticSensor::new(4 * w, 4 * h, seed ^ i as u64).next_frame();
            let grid = RegionGrid::new((4 * w, 4 * h), (w, h), (w, h));
            let inputs = grid
                .try_stream(&frame, net.input_maps())
                .map(|s| s.collect::<Vec<_>>());
            (frame, inputs)
        });
        black_box(frame);
        sensor_s += secs;
        let (prepared, secs) = timed(|| accel.prepare(&net));
        prepare_s.push(secs);
        nets.push(Net {
            // Span names are static; twelve network names live for the
            // whole run anyway.
            name: Box::leak(net.name().to_string().into_boxed_str()),
            prepared: prepared.map_err(err)?,
            inputs: inputs.map_err(err)?,
        });
    }
    Ok((nets, prepare_s, sensor_s))
}

/// Runs the workload.
///
/// # Errors
///
/// When a network cannot be built or an inference fails to run.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut sensor_s = 0.0;
    let mut prepares: Vec<Vec<f64>> = Vec::new();
    let mut setup = SetUp::new(|| {
        let (nets, prepare, sensor) = build(o.seed)?;
        sensor_s = sensor;
        let total = prepare.iter().sum();
        prepares.push(prepare);
        Ok((nets, total))
    });
    let nets = setup.first(o)?;
    let mut out = Outcome::default();

    // Correctness and the modeled cost of each network, from one
    // inference on its first input.
    let mut probes: Vec<Inference> = Vec::new();
    for n in &nets {
        let run = n.prepared.session().infer(&n.inputs[0]).map_err(err)?;
        out.attempted += 1;
        let golden = n.prepared.network().forward_fixed(&n.inputs[0]).output();
        out.check(run.output_flat() == golden, || {
            format!("{}: output differs from forward_fixed", n.name)
        });
        if let Some(&(_, frozen)) = SEED_CYCLES.iter().find(|(name, _)| *name == n.name) {
            let got = run.stats().cycles();
            out.check(got == frozen, || {
                format!(
                    "{}: {got} modeled cycles, frozen table says {frozen}",
                    n.name
                )
            });
        }
        probes.push(run);
    }

    let mut sessions: Vec<_> = nets.iter().map(|n| n.prepared.session()).collect();
    let calls = if o.smoke { 2 } else { CALLS };
    for (n, s) in nets.iter().zip(&mut sessions) {
        for c in 0..o.warmup(WARMUP) {
            black_box(s.infer_ref(&n.inputs[c % INPUTS]).map_err(err)?.output());
        }
    }

    // Untraced: microseconds per inference of each network, one sample
    // per chunk. Traced: one span per network block and one per call.
    let mut per_net: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
    let mut per_call: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
    let mut tr = Tracer::new();
    let mut item = 0u64;
    let Timing {
        plain: chunk_s,
        traced,
        plain_ref,
    } = measure(o, MIN_CHUNKS, &mut setup, |_, traced| {
        let mut total = 0.0;
        for (k, (n, s)) in nets.iter().zip(&mut sessions).enumerate() {
            let t = Instant::now();
            if traced {
                let block = tr.begin(n.name, None, item);
                for c in 0..calls {
                    let id = tr.begin("core.infer_ref", Some(block), item);
                    black_box(s.infer_ref(&n.inputs[c % INPUTS]).map_err(err)?.output());
                    tr.end(id);
                    per_call[k].push(tr.spans()[id].dur_ns() as f64 * 1e-3);
                    item += 1;
                }
                tr.end(block);
            } else {
                for c in 0..calls {
                    black_box(s.infer_ref(&n.inputs[c % INPUTS]).map_err(err)?.output());
                }
            }
            let secs = t.elapsed().as_secs_f64();
            if !traced {
                per_net[k].push(secs * 1e6 / calls as f64);
            }
            total += secs;
        }
        out.attempted += (nets.len() * calls) as u64;
        Ok(total)
    })?;
    let SetUp {
        secs_ref: setups,
        prepare,
        ..
    } = setup;
    let prepare_s = median(&prepare);

    let cycles: Vec<f64> = probes.iter().map(|p| p.stats().cycles() as f64).collect();
    let chunk_cycles = cycles.iter().sum::<f64>() * calls as f64;
    let items = (nets.len() * calls) as f64;

    if !o.trace {
        let chunks: Vec<Chunk> = plain_ref
            .iter()
            .map(|&secs| Chunk {
                items,
                cycles: chunk_cycles,
                secs,
            })
            .collect();
        let m = &mut out.metrics;
        host_e2e(m, &setups, &chunks)?;
        let nj: Vec<f64> = probes.iter().map(|p| p.energy().total_nj()).collect();
        modeled_e2e(
            m,
            &Modeled {
                cycles_per_item: cycles.iter().sum::<f64>() / cycles.len() as f64,
                nj_per_item: nj.iter().sum::<f64>() / nj.len() as f64,
                latency_p50: percentile(&cycles, 50.0),
                latency_p99: percentile(&cycles, 99.0),
                slo_attainment: 1.0 - out.failed as f64 / out.attempted as f64,
            },
        );
        for (k, (n, us)) in nets.iter().zip(&per_net).enumerate() {
            let (us, spread) = median_spread(us);
            m.extra_host(
                &format!("core.infer_us_p50.{}", n.name),
                "us",
                Better::Lower,
                us,
                spread,
            );
            let ms: Vec<f64> = prepares.iter().map(|p| p[k] * 1e3).collect();
            let (ms, spread) = median_spread(&ms);
            m.extra_host(
                &format!("core.prepare_ms.{}", n.name),
                "ms",
                Better::Lower,
                ms,
                spread,
            );
        }
        m.extra_modeled(
            "error_ratio",
            "ratio",
            Better::Lower,
            out.failed as f64 / out.attempted as f64,
        );
        out.validate(false);
        return Ok(out);
    }

    let calls_traced = item as f64;
    let core_s = tr.self_s("core.");
    let live_s: f64 = nets
        .iter()
        .zip(&per_call)
        .filter(|(n, _)| live_decodes(&n.prepared))
        .map(|(_, us)| us.iter().sum::<f64>() * 1e-6)
        .sum();
    let mut mix = Mix::default();
    for (n, p) in nets.iter().zip(&probes) {
        mix.add(n.prepared.network(), p.stats(), p.energy(), 1.0);
    }
    let regions = (nets.len() * INPUTS) as f64;
    let m = &mut out.metrics;
    host_layers(
        m,
        &LayerTimes {
            item_s: chunk_s.iter().sum::<f64>() / (chunk_s.len() as f64 * items),
            traced_item_s: traced.iter().sum::<f64>() / calls_traced,
            // Inputs are tiled once at set-up; no sensor work per item.
            sensor_s: 0.0,
            core_s: core_s / calls_traced,
            sensor_us_per_region: sensor_s * 1e6 / regions,
            infer_us: per_call.concat(),
            prepare_ms: prepare_s * 1e3,
            live_decode_share: live_s / core_s,
        },
    );
    mix.emit(m);
    no_gating(m);
    no_serving(m);
    for (n, us) in nets.iter().zip(&per_call) {
        m.extra_host(
            &format!("core.infer_us_p99.{}", n.name),
            "us",
            Better::Lower,
            percentile(us, 99.0),
            0.0,
        );
    }
    write_trace(Workload::ZooTable2, &tr)?;
    out.validate(true);
    Ok(out)
}
