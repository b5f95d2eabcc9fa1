//! The multi-tenant serving benchmark: a deterministic mixed-traffic
//! scenario (interactive LeNet-5, faulty streaming Gabor, batchy MPCNN)
//! driven through `shidiannao-serve`, reported as `BENCH_serve.json`.
//!
//! Like the fault campaign, every number is a pure function of the
//! scenario constants — the virtual clock never reads the wall clock —
//! so the JSON is byte-identical across invocations, machines, and
//! physical thread counts. The report carries its own certificates:
//!
//! * **worker-count invariance** — the scenario is run with 1 and with 2
//!   OS threads and the two [`ServiceReport`]s must compare equal,
//! * **interleave invariance** — a third run permutes the processing
//!   order of same-cycle admissions (`admission_salt`) and must also
//!   compare equal,
//! * **direct-inference bit-identity** — every retained request sample
//!   is replayed through a plain `Session::infer` under the same salted
//!   fault plan and must reproduce the served output hash,
//! * **calibration** — per-tenant clean cycles must match the frozen
//!   `SEED_CYCLES_PER_INFERENCE` table from the perf harness,
//! * **SLO accounting** — per-tenant ledgers must balance, and in smoke
//!   mode the counts themselves are frozen ([`EXPECTED_SMOKE`]) so CI
//!   catches any scheduling or accounting drift — including the
//!   `batched` follower-lane counts, since the scenario runs with
//!   `max_batch: 8` and fault-free backlogged tenants get served as
//!   multi-lane schedule replays.

use crate::artifact::{scenario, Artifact};
use crate::json::Json;
use crate::perf::SEED_CYCLES_PER_INFERENCE;
use shidiannao_cnn::zoo;
use shidiannao_core::{Accelerator, AcceleratorConfig, PreparedNetwork};
use shidiannao_faults::{FaultConfig, FaultPlan, SramProtection};
use shidiannao_serve::{
    hash_output, request_salt, HistogramSummary, InferenceService, InputSource, RequestSample,
    ServeConfig, ServeError, ServiceReport, TenantSpec, TenantStats, Traffic,
};

/// Base seed for the serving scenario's inputs and fault patterns.
pub const SERVE_SEED: u64 = 0x5E7E;

/// Network build seed — the same one the perf harness uses, so the
/// calibrated clean cycles cross-check against its frozen table.
const BUILD_SEED: u64 = crate::experiments::SEED;

/// One frozen smoke ledger row:
/// `(name, issued, ok, degraded, dropped_faulty, dropped_deadline, rejected, batched)`.
pub type SmokeLedgerRow = (&'static str, u64, u64, u64, u64, u64, u64, u64);

/// Frozen per-tenant smoke outcomes (one [`SmokeLedgerRow`] per tenant).
/// Any drift here means the scheduler, the fault layer, the batcher, or
/// the SLO accounting changed behaviour and must be re-frozen
/// deliberately. `batched` counts requests served as follower lanes of a
/// shared schedule replay — the faulty gabor tenant must stay at 0
/// (batching is gated on a zero fault plan).
pub const EXPECTED_SMOKE: &[SmokeLedgerRow] = &[
    ("lenet5-interactive", 18, 18, 0, 0, 0, 0, 2),
    ("gabor-stream", 50, 32, 3, 0, 5, 10, 0),
    ("mpcnn-batch", 5, 5, 0, 0, 0, 0, 0),
];

/// Virtual cycle the smoke scenario must end at (frozen).
pub const EXPECTED_SMOKE_END_CYCLES: u64 = 280_461;

/// Builds the three-tenant mixed-traffic scenario.
///
/// # Errors
///
/// Returns [`ServeError`] if a zoo network fails to build (impossible
/// for the frozen zoo) or the specs fail validation.
pub fn serve_scenario(
    smoke: bool,
    threads: usize,
    salt: u64,
) -> Result<InferenceService, ServeError> {
    let build = |b: shidiannao_cnn::NetworkBuilder| {
        b.build(BUILD_SEED).map_err(|e| ServeError::Spec {
            tenant: "zoo".to_string(),
            reason: e.to_string(),
        })
    };
    // An interactive tenant: a pool of callers that wait for each
    // answer, think, and ask again — latency-sensitive, weight 3.
    let lenet = TenantSpec::new("lenet5-interactive", build(zoo::lenet5())?)
        .traffic(Traffic::Closed {
            clients: 3,
            think: 25_000,
            count: if smoke { 18 } else { 90 },
        })
        .source(InputSource::Random { seed: SERVE_SEED })
        .weight(3)
        .queue_capacity(4)
        .deadline_cycles(60_000);
    // A streaming camera tenant under SRAM and sensor-link faults:
    // regions tile out of 40×40 synthetic frames, parity protection
    // detects flips and the service degrades via salted retries.
    let gabor_faults = FaultConfig {
        seed: SERVE_SEED ^ 0xCA,
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
            count: if smoke { 50 } else { 300 },
        })
        .source(InputSource::Stream {
            seed: SERVE_SEED ^ 0xCA,
            frame: (40, 40),
            stride: (20, 20),
        })
        .faults(gabor_faults)
        .weight(1)
        .queue_capacity(4)
        .deadline_cycles(10_000)
        .max_retries(2);
    // A batch tenant: rare, heavy requests with a loose deadline.
    let mpcnn = TenantSpec::new("mpcnn-batch", build(zoo::mpcnn())?)
        .traffic(Traffic::Open {
            period: 45_000,
            jitter: 4_000,
            count: if smoke { 5 } else { 30 },
        })
        .source(InputSource::Random {
            seed: SERVE_SEED ^ 0xBA,
        })
        .weight(2)
        .queue_capacity(2)
        .deadline_cycles(140_000);
    let config = ServeConfig {
        virtual_workers: 2,
        physical_threads: threads,
        admission_salt: salt,
        samples_per_tenant: 6,
        // Fault-free tenants that backlog (interactive LeNet-5 bursts,
        // MPCNN whose period is shorter than its clean cycles) get served
        // as multi-lane schedule replays; followers pay marginal cycles.
        max_batch: 8,
        ..ServeConfig::default()
    };
    InferenceService::new(config, vec![lenet, gabor, mpcnn])
}

/// The serving benchmark's full result: the canonical report plus its
/// determinism and bit-identity certificates.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// Whether this was the smoke-sized scenario.
    pub smoke: bool,
    /// The canonical service report (single-threaded run).
    pub report: ServiceReport,
    /// Same scenario on 2 OS threads produced an equal report.
    pub worker_count_invariant: bool,
    /// Same scenario with permuted same-cycle admission order produced
    /// an equal report.
    pub interleave_invariant: bool,
    /// Every retained sample replayed bit-identically through a direct
    /// `Session::infer`.
    pub outputs_match_direct: bool,
    /// How many samples the replay certificate covered.
    pub verified_samples: usize,
}

/// Runs the scenario (three times: serial, threaded, permuted), replays
/// the sample certificates, and assembles the benchmark report.
///
/// # Errors
///
/// Returns [`ServeError`] when the scenario itself fails to run.
pub fn serve_report(smoke: bool) -> Result<ServeBenchReport, ServeError> {
    let service = serve_scenario(smoke, 1, 0)?;
    let serial = service.run()?;
    let threaded = serve_scenario(smoke, 2, 0)?.run()?;
    let permuted = serve_scenario(smoke, 1, 1)?.run()?;
    let (verified_samples, outputs_match_direct) = verify_samples(
        service.tenants(),
        std::slice::from_ref(&service.config().accel),
        serial.tenants.iter().map(|t| t.stats.samples.as_slice()),
    )?;
    Ok(ServeBenchReport {
        smoke,
        worker_count_invariant: serial == threaded,
        interleave_invariant: serial == permuted,
        outputs_match_direct,
        verified_samples,
        report: serial,
    })
}

/// Replays every retained sample through a direct session on the
/// *serving shard's* accelerator model — heterogeneous shards calibrate
/// differently, so replaying on the wrong grid would diverge — under the
/// sample's recorded fault environment (the tenant's own, or a burst
/// episode's) and salted attempt. `shards` holds each shard's
/// accelerator (the service passes its one); `samples` yields each
/// tenant's `stats.samples`, in spec order. Returns
/// `(samples_checked, all_matched)`.
pub(crate) fn verify_samples<'a>(
    specs: &[TenantSpec],
    shards: &[AcceleratorConfig],
    samples: impl IntoIterator<Item = &'a [RequestSample]>,
) -> Result<(usize, bool), ServeError> {
    let mut checked = 0;
    let mut all_match = true;
    for (tenant, (spec, samples)) in specs.iter().zip(samples).enumerate() {
        // One prepared network per shard that actually served a sample.
        let mut prepared: Vec<Option<PreparedNetwork>> = shards.iter().map(|_| None).collect();
        for sample in samples {
            let prep = match &mut prepared[sample.shard] {
                Some(prep) => prep,
                slot => slot.insert(
                    Accelerator::new(shards[sample.shard].clone())
                        .prepare(&spec.network)
                        .map_err(|error| ServeError::Prepare {
                            tenant: spec.name.clone(),
                            error,
                        })?,
                ),
            };
            let plan = FaultPlan::new(sample.faults).with_salt(request_salt(
                tenant,
                sample.seq,
                sample.attempt,
            ));
            let input = spec
                .build_input(sample.seq)
                .map_err(|error| ServeError::Input {
                    tenant: spec.name.clone(),
                    error,
                })?;
            match prep.session_with_faults(plan).infer(&input) {
                Ok(inference) => {
                    checked += 1;
                    if hash_output(inference.output()) != sample.output_hash {
                        all_match = false;
                    }
                }
                // Only *successful* attempts are sampled, so a fault
                // abort on replay is itself a divergence.
                Err(_) => all_match = false,
            }
        }
    }
    Ok((checked, all_match))
}

/// One tenant's JSON row: its `id` members, the six outcome counts,
/// `extra`, then retries, batching, service time, latency, queue depth,
/// fault counters and the output hash. `BENCH_serve.json` and
/// `BENCH_cluster.json` share this order.
pub(crate) fn tenant_row(
    id: Vec<(&'static str, Json)>,
    s: &TenantStats,
    throughput_rps: f64,
    lat: HistogramSummary,
    extra: Vec<(&'static str, Json)>,
) -> Vec<(&'static str, Json)> {
    let mut members = id;
    members.extend([
        ("issued", s.issued.into()),
        ("ok", s.ok.into()),
        ("degraded", s.degraded.into()),
        ("dropped_faulty", s.dropped_faulty.into()),
        ("dropped_deadline", s.dropped_deadline.into()),
        ("rejected", s.rejected.into()),
    ]);
    members.extend(extra);
    members.extend([
        ("deadline_misses", s.deadline_misses.into()),
        ("retries", s.retries.into()),
        ("batched", s.batched.into()),
        ("service_cycles", s.service_cycles.into()),
        ("throughput_rps", throughput_rps.into()),
        ("latency_p50", lat.p50.into()),
        ("latency_p95", lat.p95.into()),
        ("latency_p99", lat.p99.into()),
        ("latency_mean", lat.mean.into()),
        ("latency_max", lat.max.into()),
        ("queue_depth_max", s.depth_max.into()),
        ("queue_depth_mean", s.depth_mean().into()),
        ("faults_detected", s.fault.detected.into()),
        ("faults_corrected", s.fault.corrected.into()),
        ("faults_silent", s.fault.silent.into()),
        ("output_hash", format!("{:#018x}", s.output_hash).into()),
    ]);
    members
}

impl Artifact for ServeBenchReport {
    /// The `BENCH_serve.json` document — built exclusively from
    /// virtual-clock quantities, so bytes are stable across runs.
    fn to_json(&self) -> Json {
        let r = &self.report;
        let tenants = Json::rows(&r.tenants, |t| {
            let id = vec![
                ("name", t.name.as_str().into()),
                ("weight", t.weight.into()),
                ("clean_cycles", t.clean_cycles.into()),
            ];
            tenant_row(id, &t.stats, t.throughput_rps, t.latency(), vec![])
        });
        Json::Object(vec![
            ("scenario", scenario(self.smoke).into()),
            ("virtual_workers", r.virtual_workers.into()),
            ("end_cycles", r.end_cycles.into()),
            ("elapsed_seconds", r.elapsed_seconds.into()),
            ("worker_count_invariant", self.worker_count_invariant.into()),
            ("interleave_invariant", self.interleave_invariant.into()),
            ("outputs_match_direct", self.outputs_match_direct.into()),
            ("verified_samples", self.verified_samples.into()),
            ("accounting_consistent", r.accounting_consistent().into()),
            ("tenants", tenants),
        ])
    }

    /// Human-readable summary table.
    fn render(&self) -> String {
        let r = &self.report;
        let mut out = format!(
            "Multi-tenant serve ({}): {} virtual workers, {} virtual cycles ({:.3} ms)\n",
            scenario(self.smoke),
            r.virtual_workers,
            r.end_cycles,
            r.elapsed_seconds * 1e3,
        );
        out += "tenant               issued  ok  degr  dropF  dropD  rej  miss  batch   p50     p99     rps\n";
        for t in &r.tenants {
            let s = &t.stats;
            let lat = t.latency();
            out += &format!(
                "{:<20} {:>6} {:>3} {:>5} {:>6} {:>6} {:>4} {:>5} {:>6} {:>6} {:>7} {:>7.1}\n",
                t.name,
                s.issued,
                s.ok,
                s.degraded,
                s.dropped_faulty,
                s.dropped_deadline,
                s.rejected,
                s.deadline_misses,
                s.batched,
                lat.p50,
                lat.p99,
                t.throughput_rps,
            );
        }
        out += &format!(
            "certificates: worker-invariant {}, interleave-invariant {}, \
             outputs-match-direct {} ({} samples), accounting {}\n",
            self.worker_count_invariant,
            self.interleave_invariant,
            self.outputs_match_direct,
            self.verified_samples,
            r.accounting_consistent(),
        );
        out
    }

    /// The CI gate: empty when every certificate holds (and, in smoke
    /// mode, when the frozen SLO ledger matches exactly).
    fn gate_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if !self.worker_count_invariant {
            errors.push("report differs across physical worker counts".to_string());
        }
        if !self.interleave_invariant {
            errors.push("report differs across admission interleavings".to_string());
        }
        if !self.outputs_match_direct {
            errors.push("served outputs diverge from direct Session::infer".to_string());
        }
        if self.verified_samples == 0 {
            errors.push("no samples were available for bit-identity verification".to_string());
        }
        if !self.report.accounting_consistent() {
            errors.push("per-tenant SLO ledgers do not balance".to_string());
        }
        for t in &self.report.tenants {
            let table_name = match t.name.as_str() {
                "lenet5-interactive" => "LeNet-5",
                "gabor-stream" => "Gabor",
                "mpcnn-batch" => "MPCNN",
                _ => continue,
            };
            if let Some(&(_, expect)) = SEED_CYCLES_PER_INFERENCE
                .iter()
                .find(|&&(n, _)| n == table_name)
            {
                if t.clean_cycles != expect {
                    errors.push(format!(
                        "{}: calibrated clean cycles {} != frozen {}",
                        t.name, t.clean_cycles, expect
                    ));
                }
            }
        }
        if self.smoke {
            if self.report.end_cycles != EXPECTED_SMOKE_END_CYCLES {
                errors.push(format!(
                    "smoke end_cycles {} != frozen {}",
                    self.report.end_cycles, EXPECTED_SMOKE_END_CYCLES
                ));
            }
            if self.report.total(|s| s.batched) == 0 {
                errors.push("batching never triggered in the smoke scenario".to_string());
            }
            for &(
                name,
                issued,
                ok,
                degraded,
                dropped_faulty,
                dropped_deadline,
                rejected,
                batched,
            ) in EXPECTED_SMOKE
            {
                let Some(t) = self.report.tenants.iter().find(|t| t.name == name) else {
                    errors.push(format!("smoke tenant {name} missing from report"));
                    continue;
                };
                let s = &t.stats;
                let got = (
                    s.issued,
                    s.ok,
                    s.degraded,
                    s.dropped_faulty,
                    s.dropped_deadline,
                    s.rejected,
                    s.batched,
                );
                let want = (
                    issued,
                    ok,
                    degraded,
                    dropped_faulty,
                    dropped_deadline,
                    rejected,
                    batched,
                );
                if got != want {
                    errors.push(format!(
                        "{name}: SLO ledger drift: got (issued, ok, degraded, droppedF, droppedD, rejected, batched) = {got:?}, frozen {want:?}"
                    ));
                }
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_passes_its_own_gate() {
        let bench = serve_report(true).expect("scenario runs");
        let errors = bench.gate_errors();
        assert!(errors.is_empty(), "gate failed: {errors:?}");
    }

    #[test]
    fn smoke_json_is_byte_deterministic() {
        let a = serve_report(true).expect("run a").to_json().render();
        let b = serve_report(true).expect("run b").to_json().render();
        assert_eq!(a, b);
        // Well-formedness spot checks.
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        for key in [
            "\"scenario\"",
            "\"worker_count_invariant\"",
            "\"tenants\"",
            "\"latency_p99\"",
            "\"output_hash\"",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }

    #[test]
    fn scenario_exercises_every_outcome_class() {
        let bench = serve_report(true).expect("scenario runs");
        let total = |f: fn(&shidiannao_serve::TenantStats) -> u64| bench.report.total(f);
        assert!(total(|s| s.ok) > 0);
        assert!(total(|s| s.degraded) > 0, "no degraded completions");
        assert!(
            total(|s| s.dropped_faulty + s.dropped_deadline) > 0,
            "no drops"
        );
        assert!(total(|s| s.rejected) > 0, "no backpressure rejections");
        assert!(total(|s| s.retries) > 0);
        assert!(total(|s| s.batched) > 0, "no batched follower lanes");
    }
}
