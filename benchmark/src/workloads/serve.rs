//! `serve_mixed`: the multi-tenant `InferenceService` on its virtual
//! clock, with the mixed traffic of the serve harness scaled ×4:
//!
//! * LeNet-5, closed loop: 3 callers, think time 25 000 cycles,
//!   360 requests;
//! * Gabor, open loop: a camera stream every 1 400 ± 600 cycles with SRAM
//!   and scanline faults under parity protection, 1 200 requests;
//! * MPCNN, open loop: every 45 000 ± 4 000 cycles, 120 requests.
//!
//! Two virtual workers, batches of up to 8. One item is one issued
//! request; a chunk is one whole service run. A run takes about 0.45 s, so
//! a 15 s budget times some thirty of them; at ×16 a run takes 3.5 s and
//! a budget holds only four. The workload seed drives the request
//! payloads (random inputs and the camera); the fault environment and
//! arrival jitter are part of the scenario, so every modeled number is the
//! same for every seed.

use std::hint::black_box;

use shidiannao::cnn::zoo;
use shidiannao::serve::{
    hash_output, request_salt, FaultConfig, FixedHistogram, InferenceService, InputSource,
    ServeConfig, ServiceReport, SramProtection, TenantSpec, Traffic,
};
use shidiannao::sim::{Accelerator, FaultPlan, PreparedNetwork};

use crate::metrics::{median, median_spread, percentile, Better};
use crate::run::{
    err, host_e2e, host_layers, live_decodes, measure, modeled_e2e, no_gating, timed, write_trace,
    Chunk, LayerTimes, Mix, Modeled, Opts, Outcome, SetUp, Timing, Workload, BUILD_SEED,
};
use crate::trace::Tracer;

/// Request-count multiplier over the serve harness's full scenario. The
/// load generator's per-request input cost grows with the sequence
/// number; at ×4 the last Gabor input already costs over ten inferences
/// (`serve.build_input_us.last` in the traced run).
const SCALE: u64 = 4;
/// Timed service runs at least, whatever the time budget.
const MIN_RUNS: usize = 3;
/// Frozen clean cycles per inference of the three tenant networks.
const SEED_CYCLES: [u64; 3] = [10_017, 905, 53_231];
/// Every `SAMPLE_STRIDE`-th request's input is rebuilt in the traced run.
const SAMPLE_STRIDE: u64 = 16;

/// The three-tenant scenario at `scale`.
fn scenario(seed: u64, scale: u64, threads: usize) -> Result<InferenceService, String> {
    let build = |b: shidiannao::cnn::NetworkBuilder| b.build(BUILD_SEED).map_err(err);
    let lenet = TenantSpec::new("lenet5-interactive", build(zoo::lenet5())?)
        .traffic(Traffic::Closed {
            clients: 3,
            think: 25_000,
            count: 90 * scale,
        })
        .source(InputSource::Random { seed })
        .weight(3)
        .queue_capacity(4)
        .deadline_cycles(60_000);
    let faults = FaultConfig {
        seed: 0x5E7E ^ 0xCA,
        nb_flip_rate: 1e-4,
        sb_flip_rate: 1e-4,
        ib_flip_rate: 1e-4,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.02,
        double_flip_share: 0.1,
        protection: SramProtection::Parity,
    };
    let gabor = TenantSpec::new("gabor-stream", build(zoo::gabor())?)
        .traffic(Traffic::Open {
            period: 1_400,
            jitter: 600,
            count: 300 * scale,
        })
        .source(InputSource::Stream {
            seed: seed ^ 0xCA,
            frame: (40, 40),
            stride: (20, 20),
        })
        .faults(faults)
        .weight(1)
        .queue_capacity(4)
        .deadline_cycles(10_000)
        .max_retries(2);
    let mpcnn = TenantSpec::new("mpcnn-batch", build(zoo::mpcnn())?)
        .traffic(Traffic::Open {
            period: 45_000,
            jitter: 4_000,
            count: 30 * scale,
        })
        .source(InputSource::Random { seed: seed ^ 0xBA })
        .weight(2)
        .queue_capacity(2)
        .deadline_cycles(140_000);
    let config = ServeConfig {
        virtual_workers: 2,
        physical_threads: threads,
        samples_per_tenant: 6,
        max_batch: 8,
        ..ServeConfig::default()
    };
    InferenceService::new(config, vec![lenet, gabor, mpcnn]).map_err(err)
}

/// Replays every retained sample through a direct `Session::infer` under
/// the request's salted fault plan; the output hash must match.
fn verify_samples(
    service: &InferenceService,
    prepared: &[PreparedNetwork],
    report: &ServiceReport,
    out: &mut Outcome,
) -> Result<(), String> {
    for (t, ((spec, prep), tr)) in service
        .tenants()
        .iter()
        .zip(prepared)
        .zip(&report.tenants)
        .enumerate()
    {
        for sample in &tr.stats.samples {
            let plan =
                FaultPlan::new(spec.faults).with_salt(request_salt(t, sample.seq, sample.attempt));
            let input = spec.build_input(sample.seq).map_err(err)?;
            let same = prep
                .session_with_faults(plan)
                .infer(&input)
                .is_ok_and(|run| hash_output(run.output()) == sample.output_hash);
            out.check(same, || {
                format!(
                    "{} request {}: replay differs from the served output",
                    spec.name, sample.seq
                )
            });
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// When the scenario cannot be built or a service run fails.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let scale = if o.smoke { 1 } else { SCALE };
    let mut setup = SetUp::new(|| {
        let service = scenario(o.seed, scale, o.threads)?;
        let accel = Accelerator::new(service.config().accel.clone());
        let (prepared, secs) = timed(|| {
            service
                .tenants()
                .iter()
                .map(|s| accel.prepare(&s.network))
                .collect::<Result<Vec<_>, _>>()
        });
        Ok(((service, prepared.map_err(err)?), secs))
    });
    let (service, prepared) = setup.first(o)?;
    let mut out = Outcome::default();
    // The first run of a cold process is about half again slower.
    for _ in 0..o.warmup(1) {
        black_box(service.run().map_err(err)?);
    }

    // Every run, traced or not, must produce the same report. A traced
    // run is one span around the whole `InferenceService::run` call.
    let mut tr = Tracer::new();
    let mut first: Option<ServiceReport> = None;
    let min_runs = if o.trace { 1 } else { MIN_RUNS };
    let Timing {
        plain: run_s,
        traced: traced_s,
        plain_ref,
    } = measure(o, min_runs, &mut setup, |i, traced| {
        let root = traced.then(|| tr.begin("serve.run", None, i as u64));
        let (report, secs) = timed(|| service.run());
        if let Some(root) = root {
            tr.end(root);
        }
        let report = report.map_err(err)?;
        out.attempted += report.total(|s| s.issued);
        match &first {
            None => first = Some(report),
            Some(f) => out.check(*f == report, || {
                format!("run {i}: report differs from run 0")
            }),
        }
        Ok(secs)
    })?;
    let report = first.ok_or("no service run")?;
    out.check(report.accounting_consistent(), || {
        "a tenant's outcome ledger does not balance".to_string()
    });
    for (t, frozen) in report.tenants.iter().zip(SEED_CYCLES) {
        out.check(t.clean_cycles == frozen, || {
            format!(
                "{}: {} clean cycles, frozen table says {frozen}",
                t.name, t.clean_cycles
            )
        });
    }
    verify_samples(&service, &prepared, &report, &mut out)?;

    let issued = report.total(|s| s.issued) as f64;
    let completed = report.total(|s| s.completed()) as f64;
    let service_cycles = report.total(|s| s.service_cycles) as f64;

    if !o.trace {
        let chunks: Vec<Chunk> = plain_ref
            .iter()
            .map(|&secs| Chunk {
                items: issued,
                cycles: service_cycles,
                secs,
            })
            .collect();
        let m = &mut out.metrics;
        host_e2e(m, &setup.secs_ref, &chunks)?;
        // Energy scales with the cycles each tenant was charged, at its
        // network's clean nJ per cycle.
        let mut nj = 0.0;
        for (p, t) in prepared.iter().zip(&report.tenants) {
            let run = p
                .session()
                .infer(&p.network().random_input(0))
                .map_err(err)?;
            nj += t.stats.service_cycles as f64 * run.energy().total_nj()
                / run.stats().cycles() as f64;
        }
        let mut latency = FixedHistogram::new();
        for t in &report.tenants {
            latency.merge(&t.stats.latency);
        }
        let on_time = report.total(|s| s.completed() - s.deadline_misses) as f64;
        modeled_e2e(
            m,
            &Modeled {
                cycles_per_item: service_cycles / completed,
                nj_per_item: nj / completed,
                latency_p50: latency.percentile(50) as f64,
                latency_p99: latency.percentile(99) as f64,
                slo_attainment: on_time / issued,
            },
        );
        let (secs, spread) = median_spread(&run_s);
        m.extra_host("serve.run_s", "s", Better::Lower, secs, spread);
        let lost = report.total(|s| s.rejected + s.dropped_faulty + s.dropped_deadline) as f64;
        m.extra_modeled("error_ratio", "ratio", Better::Lower, lost / issued);
        m.extra_modeled(
            "serve.latency_samples",
            "count",
            Better::Higher,
            latency.count() as f64,
        );
        for t in &report.tenants {
            let s = &t.stats;
            let lat = t.latency();
            let name = &t.name;
            for (metric, unit, better, v) in [
                ("virt_p50_cycles", "cycles", Better::Lower, lat.p50 as f64),
                ("virt_p99_cycles", "cycles", Better::Lower, lat.p99 as f64),
                ("rejected", "count", Better::Lower, s.rejected as f64),
                (
                    "dropped",
                    "count",
                    Better::Lower,
                    (s.dropped_faulty + s.dropped_deadline) as f64,
                ),
                ("degraded", "count", Better::Lower, s.degraded as f64),
                ("batched", "count", Better::Higher, s.batched as f64),
                ("retries", "count", Better::Lower, s.retries as f64),
                ("queue_depth_mean", "count", Better::Lower, s.depth_mean()),
            ] {
                m.extra_modeled(&format!("serve.{name}.{metric}"), unit, better, v);
            }
        }
        out.validate(false);
        return Ok(out);
    }

    // The service makes its sensor and core calls behind one public
    // call, so after the runs the benchmark probes them: it rebuilds
    // every SAMPLE_STRIDE-th request's input with `TenantSpec::build_input`
    // (the sensor) and times `Session::infer` on tenant inputs (the core).
    // Per-run times are estimated from the probes: an input built for
    // every request admitted and not dropped at its deadline, one
    // inference per retry and per completion outside a batch (follower
    // lanes of a batched replay are left out).
    let probe = tr.begin("probe", None, 0);
    let (mut sensor_s, mut core_s, mut live_s) = (0.0, 0.0, 0.0);
    let mut first_last = (0.0, 0.0);
    let mut mix = Mix::default();
    for (t, ((spec, prep), rep)) in service
        .tenants()
        .iter()
        .zip(&prepared)
        .zip(&report.tenants)
        .enumerate()
    {
        let s = &rep.stats;
        let mut build_us = Vec::new();
        let mut seq = 0;
        while seq < s.issued {
            let id = tr.begin("sensor.build_input", Some(probe), seq);
            black_box(spec.build_input(seq).map_err(err)?);
            tr.end(id);
            build_us.push(tr.spans()[id].dur_ns() as f64 * 1e-3);
            seq += SAMPLE_STRIDE;
        }
        let mean_build_s = build_us.iter().sum::<f64>() / build_us.len() as f64 * 1e-6;
        sensor_s += (s.issued - s.rejected - s.dropped_deadline) as f64 * mean_build_s;
        if t == 1 {
            first_last = (build_us[0], build_us[build_us.len() - 1]);
        }

        let input = spec.build_input(0).map_err(err)?;
        let mut session = prep.session();
        let probes = (s.issued / 120).max(4);
        let mut infer_us = Vec::new();
        for _ in 0..probes {
            let id = tr.begin("core.infer", Some(probe), t as u64);
            let run = session.infer(&input).map_err(err)?;
            tr.end(id);
            infer_us.push(tr.spans()[id].dur_ns() as f64 * 1e-3);
            if infer_us.len() == 1 {
                mix.add(
                    prep.network(),
                    run.stats(),
                    run.energy(),
                    s.completed() as f64,
                );
            }
        }
        let tenant_core_s =
            (s.completed() - s.batched + s.retries) as f64 * percentile(&infer_us, 50.0) * 1e-6;
        core_s += tenant_core_s;
        if live_decodes(prep) {
            live_s += tenant_core_s;
        }
    }
    tr.end(probe);

    let m = &mut out.metrics;
    host_layers(
        m,
        &LayerTimes {
            item_s: run_s.iter().sum::<f64>() / run_s.len() as f64,
            traced_item_s: traced_s.iter().sum::<f64>() / traced_s.len() as f64,
            sensor_s,
            core_s,
            sensor_us_per_region: percentile(&tr.durations_us("sensor.build_input"), 50.0),
            infer_us: tr.durations_us("core.infer"),
            prepare_ms: median(&setup.prepare) * 1e3,
            live_decode_share: live_s / core_s,
        },
    );
    mix.emit(m);
    no_gating(m);
    let ratio = |f: fn(&shidiannao::serve::TenantStats) -> u64| report.total(f) as f64 / issued;
    m.layer("serve.reject_ratio", ratio(|s| s.rejected));
    m.layer(
        "serve.drop_ratio",
        ratio(|s| s.dropped_faulty + s.dropped_deadline),
    );
    m.layer("serve.degrade_ratio", ratio(|s| s.degraded));
    m.layer("serve.batched_ratio", ratio(|s| s.batched));
    m.layer("serve.retries_per_request", ratio(|s| s.retries));
    m.layer(
        "serve.queue_depth_mean",
        report.total(|s| s.depth_sum) as f64 / report.total(|s| s.depth_samples).max(1) as f64,
    );
    m.layer("faults.detected", report.total(|s| s.fault.detected) as f64);
    m.layer(
        "faults.corrected",
        report.total(|s| s.fault.corrected) as f64,
    );
    m.layer("faults.silent", report.total(|s| s.fault.silent) as f64);
    m.extra_host(
        "serve.build_input_us.first",
        "us",
        Better::Lower,
        first_last.0,
        0.0,
    );
    m.extra_host(
        "serve.build_input_us.last",
        "us",
        Better::Lower,
        first_last.1,
        0.0,
    );
    write_trace(Workload::ServeMixed, &tr)?;
    out.validate(true);
    Ok(out)
}
