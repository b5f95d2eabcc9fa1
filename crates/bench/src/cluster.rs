//! The fault-tolerant cluster benchmark: the same mixed-traffic tenant
//! mix as the serving benchmark (interactive LeNet-5, faulty streaming
//! Gabor, batchy MPCNN) driven through a heterogeneous `Cluster` twice —
//! once healthy, once under a seeded chaos plan of shard crashes,
//! slow-shard episodes, and SRAM-fault bursts — reported as
//! `BENCH_cluster.json`.
//!
//! Every number is a pure function of the scenario constants (the
//! virtual clock never reads the wall clock), so the JSON is
//! byte-identical across invocations, machines, and physical thread
//! counts. The report carries its own certificates:
//!
//! * **thread invariance** — both scenarios are re-run on 3 OS threads
//!   and the [`ClusterReport`]s must compare equal,
//! * **shard-order invariance** — a third run permutes the dispatch
//!   scan order over shards (`shard_salt`) and must also compare equal,
//! * **direct-inference bit-identity** — every retained cluster sample
//!   is replayed through a plain `Session::infer` on the *serving
//!   shard's* accelerator model under the same salted fault plan
//!   (including SRAM-burst environments and failover attempt bases) and
//!   must reproduce the served output hash,
//! * **calibration** — every paper-grid (8×8) shard's clean cycles must
//!   match the frozen `SEED_CYCLES_PER_INFERENCE` table,
//! * **zero lost requests** — every tenant's six-class ledger (ok,
//!   degraded, dropped-faulty, dropped-deadline, rejected,
//!   budget-exhausted) must balance against `issued` in both scenarios:
//!   no request lost or double-counted under any injected failure,
//! * **chaos coverage** — the chaos run must demonstrably exercise the
//!   crash, slow-shard, and drain paths (their counters must be
//!   nonzero), so the fault-tolerance machinery is never silently idle,
//! * **frozen smoke ledger** — in smoke mode the per-tenant outcome
//!   counts and end cycles of both scenarios are frozen so CI catches
//!   any routing, health, failover, or accounting drift,
//! * **tuned fleet** — a third, healthy scenario serves the same
//!   tenants on the design-space autotuner's per-tenant minimum-EDAP
//!   shard picks ([`crate::tune::tuned_shard_specs`]), certifying that
//!   tuner-chosen heterogeneous configurations run end-to-end with
//!   balanced ledgers and bit-identical sampled outputs.

use crate::artifact::{scenario, Artifact};
use crate::json::Json;
use crate::perf::SEED_CYCLES_PER_INFERENCE;
use crate::serve::{tenant_row, verify_samples};
use shidiannao_cnn::zoo;
use shidiannao_core::AcceleratorConfig;
use shidiannao_faults::{FaultConfig, ShardFaultConfig, SramProtection};
use shidiannao_serve::{
    Cluster, ClusterConfig, ClusterReport, HealthConfig, InputSource, ServeError, ShardSpec,
    SramProtection as Protection, TenantSpec, Traffic,
};

/// Base seed for the cluster scenario's inputs, word-level fault
/// patterns, and the shard-level chaos plan.
pub const CLUSTER_SEED: u64 = 0xC1A5;

/// Network build seed — the same one the perf harness uses, so the
/// calibrated clean cycles on 8×8 shards cross-check against its frozen
/// table.
const BUILD_SEED: u64 = crate::experiments::SEED;

/// One frozen smoke ledger row: `(name, issued, ok, degraded,
/// dropped_faulty, dropped_deadline, rejected, budget_exhausted)`.
pub type ClusterLedgerRow = (&'static str, u64, u64, u64, u64, u64, u64, u64);

/// Frozen per-tenant smoke outcomes for the *healthy* scenario. The
/// sixth class (`budget_exhausted`) must stay 0 — nothing fails over
/// when no shard ever fails.
pub const EXPECTED_SMOKE_HEALTHY: &[ClusterLedgerRow] = &[
    ("lenet5-interactive", 12, 12, 0, 0, 0, 0, 0),
    ("gabor-stream", 40, 32, 6, 2, 0, 0, 0),
    ("mpcnn-batch", 3, 3, 0, 0, 0, 0, 0),
];

/// Frozen per-tenant smoke outcomes for the *chaos* scenario. Any drift
/// means the routing, health detection, drain/failover, or accounting
/// machinery changed behaviour and must be re-frozen deliberately. Note
/// the mpcnn tenant losing requests to the retry budget and the
/// interactive tenant completing some callers only after failover
/// (`degraded`) — the chaos plan visibly bites.
pub const EXPECTED_SMOKE_CHAOS: &[ClusterLedgerRow] = &[
    ("lenet5-interactive", 12, 9, 3, 0, 0, 0, 0),
    ("gabor-stream", 40, 32, 7, 1, 0, 0, 0),
    ("mpcnn-batch", 3, 0, 1, 0, 0, 0, 2),
];

/// Virtual cycle the healthy smoke scenario must end at (frozen).
pub const EXPECTED_SMOKE_HEALTHY_END_CYCLES: u64 = 236_097;

/// Virtual cycle the chaos smoke scenario must end at (frozen).
pub const EXPECTED_SMOKE_CHAOS_END_CYCLES: u64 = 247_540;

/// The shard fleet: two paper-grid shards plus a narrow 4×4 "edge"
/// shard (heterogeneous calibration is part of what the benchmark
/// certifies); the full run adds a second edge shard so chaos has more
/// fleet to chew through.
fn shard_specs(smoke: bool) -> Vec<ShardSpec> {
    let mut shards = vec![
        ShardSpec::new("pe8x8-a"),
        ShardSpec::new("pe8x8-b"),
        ShardSpec::new("pe4x4-edge").accel(AcceleratorConfig::with_pe_grid(4, 4)),
    ];
    if !smoke {
        shards.push(ShardSpec::new("pe4x4-spare").accel(AcceleratorConfig::with_pe_grid(4, 4)));
    }
    shards
}

/// The seeded chaos plan: epochs short enough that a smoke-length run
/// crosses several, rates tuned so crash, slow, and SRAM-burst episodes
/// all fire within the scenario horizon.
fn chaos_faults() -> ShardFaultConfig {
    ShardFaultConfig {
        seed: CLUSTER_SEED,
        epoch_cycles: 8_000,
        crash_rate: 0.12,
        slow_rate: 0.2,
        sram_burst_rate: 0.2,
        min_duration: 4_000,
        max_duration: 16_000,
        burst_flip_rate: 1e-4,
        burst_protection: SramProtection::Parity,
    }
}

/// Detection and recovery tunables, scaled to the chaos plan's epochs:
/// heartbeats four times per epoch, drains bounded just over one epoch,
/// respawns inside two.
fn health_config() -> HealthConfig {
    HealthConfig {
        heartbeat_cycles: 2_000,
        miss_threshold: 2,
        drain_timeout: 10_000,
        respawn_cycles: 12_000,
        crash_timeout: 3_000,
        backoff_base: 500,
        retry_budget: 4,
    }
}

/// Builds the three-tenant mixed-traffic cluster scenario. `chaos`
/// selects the seeded shard-failure plan; a healthy cluster uses the
/// zero plan (and therefore reduces to plain multi-shard serving).
///
/// # Errors
///
/// Returns [`ServeError`] if a zoo network fails to build (impossible
/// for the frozen zoo) or the specs fail validation.
pub fn cluster_scenario(
    smoke: bool,
    chaos: bool,
    threads: usize,
    shard_salt: u64,
) -> Result<Cluster, ServeError> {
    scenario_with_shards(smoke, chaos, threads, shard_salt, shard_specs(smoke))
}

/// The tuner-chosen variant: the same tenant mix on the heterogeneous
/// shard fleet the design-space autotuner picked
/// ([`crate::tune::tuned_shard_specs`]), under the healthy (zero
/// shard-fault) plan. This closes the loop from `harness tune` back
/// into the cluster: the per-tenant minimum-EDAP frontier points become
/// the serving fleet.
///
/// # Errors
///
/// Returns [`ServeError`] if a zoo network fails to build or the specs
/// fail validation.
pub fn tuned_cluster_scenario(
    smoke: bool,
    threads: usize,
    shard_salt: u64,
) -> Result<Cluster, ServeError> {
    let shards = crate::tune::tuned_shard_specs()
        .into_iter()
        .map(|(name, cfg)| ShardSpec::new(name).accel(cfg))
        .collect();
    scenario_with_shards(smoke, false, threads, shard_salt, shards)
}

fn scenario_with_shards(
    smoke: bool,
    chaos: bool,
    threads: usize,
    shard_salt: u64,
    shards: Vec<ShardSpec>,
) -> Result<Cluster, ServeError> {
    let build = |b: shidiannao_cnn::NetworkBuilder| {
        b.build(BUILD_SEED).map_err(|e| ServeError::Spec {
            tenant: "zoo".to_string(),
            reason: e.to_string(),
        })
    };
    // The interactive tenant: closed-loop callers, latency-sensitive,
    // deadline generous enough to survive one failover round.
    let lenet = TenantSpec::new("lenet5-interactive", build(zoo::lenet5())?)
        .traffic(Traffic::Closed {
            clients: 3,
            think: 25_000,
            count: if smoke { 12 } else { 48 },
        })
        .source(InputSource::Random { seed: CLUSTER_SEED })
        .weight(3)
        .queue_capacity(4)
        .deadline_cycles(80_000);
    // The streaming camera tenant under word-level SRAM faults of its
    // own, on top of whatever burst episodes the chaos plan injects.
    let gabor_faults = FaultConfig {
        seed: CLUSTER_SEED ^ 0xCA,
        nb_flip_rate: 1e-4,
        sb_flip_rate: 1e-4,
        ib_flip_rate: 1e-4,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.02,
        double_flip_share: 0.1,
        protection: Protection::Parity,
    };
    let gabor = TenantSpec::new("gabor-stream", build(zoo::gabor())?)
        .traffic(Traffic::Open {
            period: 1_800,
            jitter: 600,
            count: if smoke { 40 } else { 200 },
        })
        .source(InputSource::Stream {
            seed: CLUSTER_SEED ^ 0xCA,
            frame: (40, 40),
            stride: (20, 20),
        })
        .faults(gabor_faults)
        .weight(1)
        .queue_capacity(3)
        .deadline_cycles(30_000)
        .max_retries(2);
    // The batch tenant: rare, heavy requests with a loose deadline that
    // can absorb several failover rounds.
    let mpcnn = TenantSpec::new("mpcnn-batch", build(zoo::mpcnn())?)
        .traffic(Traffic::Open {
            period: 60_000,
            jitter: 8_000,
            count: if smoke { 3 } else { 12 },
        })
        .source(InputSource::Random {
            seed: CLUSTER_SEED ^ 0xBA,
        })
        .weight(2)
        .queue_capacity(2)
        .deadline_cycles(250_000);
    let config = ClusterConfig {
        shards,
        physical_threads: threads,
        shard_salt,
        samples_per_tenant: 6,
        max_batch: 6,
        shard_faults: if chaos {
            chaos_faults()
        } else {
            ShardFaultConfig::zero()
        },
        health: health_config(),
        ..ClusterConfig::default()
    };
    Cluster::new(config, vec![lenet, gabor, mpcnn])
}

/// The cluster benchmark's full result: both canonical reports plus
/// their determinism and bit-identity certificates.
#[derive(Clone, Debug)]
pub struct ClusterBenchReport {
    /// Whether this was the smoke-sized scenario.
    pub smoke: bool,
    /// The healthy (zero shard-fault) run, single-threaded.
    pub healthy: ClusterReport,
    /// The chaos run, single-threaded.
    pub chaos: ClusterReport,
    /// The healthy run on the autotuner's heterogeneous shard picks,
    /// single-threaded.
    pub tuned: ClusterReport,
    /// Both scenarios on 3 OS threads produced equal reports.
    pub thread_invariant: bool,
    /// Both scenarios with a salted shard scan order produced equal
    /// reports.
    pub shard_order_invariant: bool,
    /// Every retained cluster sample replayed bit-identically through a
    /// direct `Session::infer` on the serving shard's accelerator.
    pub outputs_match_direct: bool,
    /// How many samples the replay certificate covered (both runs).
    pub verified_samples: usize,
}

/// Runs both scenarios three ways each (serial, threaded, permuted
/// shard order), replays the sample certificates, and assembles the
/// benchmark report.
///
/// # Errors
///
/// Returns [`ServeError`] when a scenario itself fails to run.
pub fn cluster_report(smoke: bool) -> Result<ClusterBenchReport, ServeError> {
    let mut thread_invariant = true;
    let mut shard_order_invariant = true;
    let mut verified_samples = 0;
    let mut outputs_match_direct = true;
    let mut certify =
        |build: &dyn Fn(usize, u64) -> Result<Cluster, ServeError>| -> Result<ClusterReport, ServeError> {
            let cluster = build(1, 0)?;
            let serial = cluster.run()?;
            let threaded = build(3, 0)?.run()?;
            let permuted = build(1, 0x5EED_CAFE)?.run()?;
            thread_invariant &= serial == threaded;
            shard_order_invariant &= serial == permuted;
            let shards: Vec<AcceleratorConfig> =
                cluster.config().shards.iter().map(|s| s.accel.clone()).collect();
            let (checked, matched) = verify_samples(
                cluster.tenants(),
                &shards,
                serial.tenants.iter().map(|t| t.stats.samples.as_slice()),
            )?;
            verified_samples += checked;
            outputs_match_direct &= matched;
            Ok(serial)
        };
    let healthy = certify(&|threads, salt| cluster_scenario(smoke, false, threads, salt))?;
    let chaos = certify(&|threads, salt| cluster_scenario(smoke, true, threads, salt))?;
    let tuned = certify(&|threads, salt| tuned_cluster_scenario(smoke, threads, salt))?;
    Ok(ClusterBenchReport {
        smoke,
        healthy,
        chaos,
        tuned,
        thread_invariant,
        shard_order_invariant,
        outputs_match_direct,
        verified_samples,
    })
}

/// One scenario's [`ClusterReport`] as a nested JSON object.
fn json_cluster(r: &ClusterReport) -> Json {
    let shards = Json::rows(&r.shards, |s| {
        [
            ("name", s.name.as_str().into()),
            ("pe_grid", format!("{}x{}", s.pe_cols, s.pe_rows).into()),
            ("virtual_workers", s.virtual_workers.into()),
            ("completed", s.completed.into()),
            ("service_cycles", s.service_cycles.into()),
            ("crashes", s.crashes.into()),
            ("drains", s.drains.into()),
            ("drain_timeouts", s.drain_timeouts.into()),
            ("respawns", s.respawns.into()),
            ("final_state", s.final_state.label().into()),
        ]
    });
    let tenants = Json::rows(&r.tenants, |t| {
        let id = vec![
            ("name", t.name.as_str().into()),
            ("weight", t.weight.into()),
        ];
        let failover = vec![
            ("budget_exhausted", t.budget_exhausted.into()),
            ("rerouted", t.rerouted.into()),
            ("migrated", t.migrated.into()),
            ("lost_inflight", t.lost_inflight.into()),
            ("failovers", t.failovers.into()),
        ];
        tenant_row(id, &t.stats, t.throughput_rps, t.latency(), failover)
    });
    let events = r.events.iter().map(|e| e.as_str().into()).collect();
    Json::Object(vec![
        ("end_cycles", r.end_cycles.into()),
        ("elapsed_seconds", r.elapsed_seconds.into()),
        ("accounting_consistent", r.accounting_consistent().into()),
        ("crashes_detected", r.crashes_detected.into()),
        ("respawns", r.respawns.into()),
        ("drains", r.drains.into()),
        ("drain_timeouts", r.drain_timeouts.into()),
        ("shard_unavailable", r.shard_unavailable.into()),
        ("slow_dispatches", r.slow_dispatches.into()),
        ("burst_dispatches", r.burst_dispatches.into()),
        ("shards", shards),
        ("tenants", tenants),
        ("events", Json::Rows(events)),
    ])
}

impl Artifact for ClusterBenchReport {
    /// The `BENCH_cluster.json` document — built exclusively from
    /// virtual-clock quantities, so bytes are stable across runs.
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("scenario", scenario(self.smoke).into()),
            ("thread_invariant", self.thread_invariant.into()),
            ("shard_order_invariant", self.shard_order_invariant.into()),
            ("outputs_match_direct", self.outputs_match_direct.into()),
            ("verified_samples", self.verified_samples.into()),
            ("healthy", json_cluster(&self.healthy)),
            ("chaos", json_cluster(&self.chaos)),
            ("tuned", json_cluster(&self.tuned)),
        ])
    }

    /// Human-readable summary tables for both scenarios.
    fn render(&self) -> String {
        let mut out = format!(
            "Fault-tolerant cluster ({}): {} shards, healthy {} cycles, chaos {} cycles\n",
            scenario(self.smoke),
            self.chaos.shards.len(),
            self.healthy.end_cycles,
            self.chaos.end_cycles,
        );
        for (title, r) in [
            ("healthy", &self.healthy),
            ("chaos", &self.chaos),
            ("tuned", &self.tuned),
        ] {
            out += &format!(
                "[{title}] crashes {} drains {} (timeouts {}) respawns {} \
                 slow-dispatch {} burst-dispatch {} unavailable {}\n",
                r.crashes_detected,
                r.drains,
                r.drain_timeouts,
                r.respawns,
                r.slow_dispatches,
                r.burst_dispatches,
                r.shard_unavailable,
            );
            out += "tenant               issued  ok  degr  dropF  dropD  rej  budg  reroute  migr  lost  fail    p50     p99\n";
            for t in &r.tenants {
                let s = &t.stats;
                let lat = t.latency();
                out += &format!(
                    "{:<20} {:>6} {:>3} {:>5} {:>6} {:>6} {:>4} {:>5} {:>8} {:>5} {:>5} {:>5} {:>6} {:>7}\n",
                    t.name,
                    s.issued,
                    s.ok,
                    s.degraded,
                    s.dropped_faulty,
                    s.dropped_deadline,
                    s.rejected,
                    t.budget_exhausted,
                    t.rerouted,
                    t.migrated,
                    t.lost_inflight,
                    t.failovers,
                    lat.p50,
                    lat.p99,
                );
            }
            for shard in &r.shards {
                out += &format!(
                    "  shard {:<14} {}x{}  completed {:>4}  crashes {}  drains {}  respawns {}  final {}\n",
                    shard.name,
                    shard.pe_cols,
                    shard.pe_rows,
                    shard.completed,
                    shard.crashes,
                    shard.drains,
                    shard.respawns,
                    shard.final_state.label(),
                );
            }
        }
        out += &format!(
            "certificates: thread-invariant {}, shard-order-invariant {}, \
             outputs-match-direct {} ({} samples), ledgers balance {}/{}/{}\n",
            self.thread_invariant,
            self.shard_order_invariant,
            self.outputs_match_direct,
            self.verified_samples,
            self.healthy.accounting_consistent(),
            self.chaos.accounting_consistent(),
            self.tuned.accounting_consistent(),
        );
        out
    }

    /// The CI gate: empty when every certificate holds (and, in smoke
    /// mode, when the frozen ledgers match exactly).
    fn gate_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if !self.thread_invariant {
            errors.push("report differs across physical thread counts".to_string());
        }
        if !self.shard_order_invariant {
            errors.push("report differs across shard scan orders".to_string());
        }
        if !self.outputs_match_direct {
            errors.push("served outputs diverge from direct Session::infer".to_string());
        }
        if self.verified_samples == 0 {
            errors.push("no samples were available for bit-identity verification".to_string());
        }
        for (title, r) in [
            ("healthy", &self.healthy),
            ("chaos", &self.chaos),
            ("tuned", &self.tuned),
        ] {
            if !r.accounting_consistent() {
                errors.push(format!(
                    "{title}: a tenant's six-class ledger does not balance (a request \
                     was lost or double-counted)"
                ));
            }
            // Calibration: every 8×8 shard must reproduce the frozen
            // clean cycles from the perf harness's seed table.
            for shard in &r.shards {
                if (shard.pe_cols, shard.pe_rows) != (8, 8) {
                    continue;
                }
                for (t, tenant) in r.tenants.iter().enumerate() {
                    let table_name = match tenant.name.as_str() {
                        "lenet5-interactive" => "LeNet-5",
                        "gabor-stream" => "Gabor",
                        "mpcnn-batch" => "MPCNN",
                        _ => continue,
                    };
                    if let Some(&(_, expect)) = SEED_CYCLES_PER_INFERENCE
                        .iter()
                        .find(|&&(n, _)| n == table_name)
                    {
                        if shard.clean_cycles.get(t) != Some(&expect) {
                            errors.push(format!(
                                "{title}: shard {} calibrated {} at {:?} clean cycles, frozen {}",
                                shard.name,
                                tenant.name,
                                shard.clean_cycles.get(t),
                                expect
                            ));
                        }
                    }
                }
            }
        }
        // The healthy runs (paper fleet and tuned fleet) must never
        // touch the failure machinery.
        for (title, h) in [("healthy", &self.healthy), ("tuned", &self.tuned)] {
            if h.crashes_detected + h.drains + h.respawns + h.slow_dispatches + h.burst_dispatches
                != 0
            {
                errors.push(format!("{title} run reported failure-path activity"));
            }
            if h.tenants
                .iter()
                .any(|t| t.budget_exhausted + t.migrated + t.lost_inflight + t.failovers != 0)
            {
                errors.push(format!("{title} run reported failover activity"));
            }
        }
        // The tuned fleet must really be the autotuner's heterogeneous
        // pick set: nonempty, and spanning more than one PE grid.
        if self.tuned.shards.is_empty() {
            errors.push("tuned run served on an empty shard fleet".to_string());
        } else {
            let mut grids: Vec<(usize, usize)> = self
                .tuned
                .shards
                .iter()
                .map(|s| (s.pe_cols, s.pe_rows))
                .collect();
            grids.sort_unstable();
            grids.dedup();
            if grids.len() < 2 {
                errors.push("tuned shard fleet collapsed to a single PE grid".to_string());
            }
        }
        // The chaos run must demonstrably exercise every failure path.
        let c = &self.chaos;
        if c.crashes_detected == 0 {
            errors.push("chaos plan never crashed a shard".to_string());
        }
        if c.drains == 0 {
            errors.push("chaos plan never drained a shard".to_string());
        }
        if c.slow_dispatches == 0 {
            errors.push("chaos plan never dispatched under a slow episode".to_string());
        }
        if c.burst_dispatches == 0 {
            errors.push("chaos plan never dispatched under an SRAM burst".to_string());
        }
        if c.tenants
            .iter()
            .map(|t| t.migrated + t.lost_inflight + t.failovers)
            .sum::<u64>()
            == 0
        {
            errors.push("chaos never displaced any request (no migration/failover)".to_string());
        }
        if self.smoke {
            for (title, r, end, rows) in [
                (
                    "healthy",
                    &self.healthy,
                    EXPECTED_SMOKE_HEALTHY_END_CYCLES,
                    EXPECTED_SMOKE_HEALTHY,
                ),
                (
                    "chaos",
                    c,
                    EXPECTED_SMOKE_CHAOS_END_CYCLES,
                    EXPECTED_SMOKE_CHAOS,
                ),
            ] {
                if r.end_cycles != end {
                    errors.push(format!(
                        "{title}: smoke end_cycles {} != frozen {end}",
                        r.end_cycles
                    ));
                }
                for &(
                    name,
                    issued,
                    ok,
                    degraded,
                    dropped_faulty,
                    dropped_deadline,
                    rejected,
                    budget,
                ) in rows
                {
                    let Some(t) = r.tenants.iter().find(|t| t.name == name) else {
                        errors.push(format!("{title}: smoke tenant {name} missing from report"));
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
                        t.budget_exhausted,
                    );
                    let want = (
                        issued,
                        ok,
                        degraded,
                        dropped_faulty,
                        dropped_deadline,
                        rejected,
                        budget,
                    );
                    if got != want {
                        errors.push(format!(
                            "{title}: {name}: ledger drift: got (issued, ok, degraded, droppedF, \
                             droppedD, rejected, budget_exhausted) = {got:?}, frozen {want:?}"
                        ));
                    }
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
        let bench = cluster_report(true).expect("scenario runs");
        let errors = bench.gate_errors();
        assert!(errors.is_empty(), "gate failed: {errors:?}");
        // The gate already proves chaos coverage; spot-check the report
        // surfaces the evidence a reader would look for.
        assert!(bench.verified_samples > 0);
        assert!(!bench.chaos.events.is_empty(), "chaos produced no events");
    }

    #[test]
    fn smoke_json_is_byte_deterministic() {
        let a = cluster_report(true).expect("run a").to_json().render();
        let b = cluster_report(true).expect("run b").to_json().render();
        assert_eq!(a, b);
        // Well-formedness spot checks.
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        for key in [
            "\"scenario\"",
            "\"thread_invariant\"",
            "\"shard_order_invariant\"",
            "\"healthy\"",
            "\"chaos\"",
            "\"budget_exhausted\"",
            "\"queue_depth_max\"",
            "\"events\"",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }
}
