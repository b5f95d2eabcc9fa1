//! The multi-tenant inference service — a one-shard [`Cluster`] with no
//! shard faults behind the service-shaped config and report — and the
//! request executor every dispatch runs through: salted retries, batched
//! follower lanes, and deterministic parallel batch execution.
//!
//! # Determinism model
//!
//! Serving is a discrete-event simulation over a cycle-granular virtual
//! clock (the cluster event loop). Every scheduling decision — admission
//! order, tenant pick, EDF pick, drop, completion time — is a pure
//! function of the scenario, because modelled inference cycles depend
//! only on network topology (not input data) and all randomness is
//! seeded splitmix64.
//!
//! Physical parallelism never touches that decision sequence: the event
//! loop picks a *batch* of requests (one per free virtual worker at the
//! current virtual time), [`run_batch`] executes the batch's pure
//! inference functions on however many OS threads are configured, and
//! the loop folds the results back in a canonical order. Running with 1
//! thread or 16 produces the same [`ServiceReport`], byte for byte —
//! which is what lets the benchmark harness gate on report equality
//! across worker counts.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use shidiannao_core::{AcceleratorConfig, RunError, Session};
use shidiannao_faults::{FaultPlan, FaultStats};
use shidiannao_sensor::StreamError;

use crate::cluster::{Cluster, ClusterConfig, ClusterReport, ShardSpec};
use crate::loadgen::TenantSpec;
use crate::splitmix64;
use crate::stats::{hash_output, HistogramSummary, TenantStats};

/// Service-level configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Accelerator model shared by all tenants.
    pub accel: AcceleratorConfig,
    /// Modelled worker pool size — a *scenario* parameter that shapes
    /// the schedule (more virtual workers = more concurrent service).
    pub virtual_workers: usize,
    /// OS threads used to execute a dispatched batch; `0` means the
    /// machine's available parallelism. Changing this never changes the
    /// report — it only changes wall-clock speed.
    pub physical_threads: usize,
    /// Permutes the processing order of same-cycle arrivals across
    /// tenants (`0` = tenant-index order). Outcomes are invariant to
    /// this salt because queues are per-tenant; the property tests turn
    /// it to prove exactly that.
    pub admission_salt: u64,
    /// Completed requests retained per tenant for bit-identity
    /// certification against direct `Session::infer`.
    pub samples_per_tenant: usize,
    /// Maximum inferences served by one dispatch (`1` disables
    /// batching). When a worker picks a request from a *fault-free*
    /// tenant, up to `max_batch - 1` more queued requests of the same
    /// tenant ride along as follower lanes of the same job: the leader
    /// pays the full calibrated clean cycles, each follower only the
    /// marginal cycles (clean minus the Load phase — its input streams
    /// into the double-buffered NBin while the previous lane computes).
    /// Batching is virtual-clock accounting: the host still runs every
    /// lane as one ordinary session inference. Purely a scenario
    /// parameter; reports stay byte-identical across `physical_threads`.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            accel: AcceleratorConfig::paper(),
            virtual_workers: 2,
            physical_threads: 0,
            admission_salt: 0,
            samples_per_tenant: 8,
            max_batch: 1,
        }
    }
}

/// A failure configuring or running the service.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// No tenants were configured.
    NoTenants,
    /// `virtual_workers` was zero.
    NoWorkers,
    /// A tenant specification failed validation.
    Spec {
        /// Offending tenant.
        tenant: String,
        /// What was wrong.
        reason: String,
    },
    /// Preparing a tenant's network for the accelerator failed.
    Prepare {
        /// Offending tenant.
        tenant: String,
        /// Underlying accelerator error.
        error: RunError,
    },
    /// A request failed with an error other than a detected fault
    /// (detected faults are handled by retry/degrade, never surfaced).
    Execute {
        /// Offending tenant.
        tenant: String,
        /// Underlying accelerator error.
        error: RunError,
    },
    /// Building a streaming input failed.
    Input {
        /// Offending tenant.
        tenant: String,
        /// Underlying sensor error.
        error: StreamError,
    },
    /// No healthy shard in the cluster could accept a request (all
    /// shards down, draining, or full).
    ShardUnavailable {
        /// Tenant whose request could not be placed.
        tenant: String,
    },
    /// A request exhausted its failover retry budget before any shard
    /// served it.
    RetryBudgetExhausted {
        /// Owning tenant.
        tenant: String,
        /// Per-tenant request sequence number.
        seq: u64,
        /// The budget that was exhausted (failover rounds).
        budget: u32,
    },
    /// A draining shard failed to empty its queues before the drain
    /// deadline; the remaining requests were forcibly migrated.
    DrainTimeout {
        /// The shard that timed out.
        shard: String,
        /// Requests still queued at the deadline (all migrated).
        pending: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoTenants => write!(f, "service has no tenants"),
            ServeError::NoWorkers => write!(f, "virtual worker pool must be non-empty"),
            ServeError::Spec { tenant, reason } => {
                write!(f, "tenant {tenant}: invalid spec: {reason}")
            }
            ServeError::Prepare { tenant, error } => {
                write!(f, "tenant {tenant}: prepare failed: {error}")
            }
            ServeError::Execute { tenant, error } => {
                write!(f, "tenant {tenant}: execution failed: {error}")
            }
            ServeError::Input { tenant, error } => {
                write!(f, "tenant {tenant}: input failed: {error}")
            }
            ServeError::ShardUnavailable { tenant } => {
                write!(f, "tenant {tenant}: no healthy shard available")
            }
            ServeError::RetryBudgetExhausted {
                tenant,
                seq,
                budget,
            } => {
                write!(
                    f,
                    "tenant {tenant}: request {seq} exhausted its retry budget of {budget} failovers"
                )
            }
            ServeError::DrainTimeout { shard, pending } => {
                write!(
                    f,
                    "shard {shard}: drain deadline expired with {pending} requests queued"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Stable salt for request attempt `attempt` of request `seq` of tenant
/// `tenant` — the contract that lets an auditor replay any scheduled
/// execution with a direct `PreparedNetwork::session_with_faults` +
/// `Session::infer` and get bit-identical output.
pub fn request_salt(tenant: usize, seq: u64, attempt: u32) -> u64 {
    splitmix64(((tenant as u64) << 48) ^ (seq << 8) ^ u64::from(attempt))
}

/// Per-tenant slice of a [`ServiceReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Tenant name from the spec.
    pub name: String,
    /// Fair-share weight.
    pub weight: u32,
    /// Calibrated clean cycles per inference (input-independent).
    pub clean_cycles: u64,
    /// All SLO counters, the latency histogram, and retained samples.
    pub stats: TenantStats,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
}

impl TenantReport {
    /// Latency percentile summary.
    pub fn latency(&self) -> HistogramSummary {
        self.stats.latency.summary()
    }

    /// Completed requests (ok + degraded).
    pub fn completed(&self) -> u64 {
        self.stats.completed()
    }
}

/// What one service run produced. Two runs of the same scenario compare
/// equal regardless of physical thread count — `PartialEq` is the
/// determinism contract the harness and property tests gate on.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Virtual worker pool size the scenario ran with.
    pub virtual_workers: usize,
    /// Virtual cycle at which the last request resolved.
    pub end_cycles: u64,
    /// `end_cycles` at the modelled clock frequency.
    pub elapsed_seconds: f64,
    /// Per-tenant results, in spec order.
    pub tenants: Vec<TenantReport>,
}

impl ServiceReport {
    /// Whether every tenant's ledger balances: issued = ok + degraded +
    /// dropped (faulty/deadline) + rejected.
    pub fn accounting_consistent(&self) -> bool {
        self.tenants.iter().all(|t| t.stats.accounting_consistent())
    }

    /// Sum of a counter over tenants, e.g. `report.total(|s| s.rejected)`.
    pub fn total(&self, f: impl Fn(&TenantStats) -> u64) -> u64 {
        self.tenants.iter().map(|t| f(&t.stats)).sum()
    }
}

/// The multi-tenant inference service: the paper's one accelerator as a
/// one-shard [`Cluster`]. See the crate docs for the model.
#[derive(Clone, Debug)]
pub struct InferenceService {
    config: ServeConfig,
    pub(crate) cluster: Cluster,
}

/// One dispatched request travelling to a physical execution slot. When
/// `followers` is non-empty the job is a batch: the leader (`seq`) plus
/// follower sequence numbers execute back to back on the job's session.
///
/// The cluster event loop dispatches jobs per shard — under the shard's
/// *effective* fault plan (a burst episode overrides the tenant's
/// environment) and with a failover-round salt base so re-executions
/// draw fresh fault patterns.
pub(crate) struct Job<'p> {
    pub(crate) tenant: usize,
    pub(crate) seq: u64,
    pub(crate) slack: u64,
    pub(crate) followers: Vec<u64>,
    /// Base fault plan for this execution (before per-attempt salting).
    pub(crate) plan: FaultPlan,
    /// First salted-attempt index: `round × (max_retries + 1)` for a
    /// request on its `round`-th failover, so a re-executed request never
    /// replays the fault pattern that already failed it.
    pub(crate) attempt_base: u32,
    pub(crate) session: Session<'p>,
}

/// How a single execution resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Clean on the first attempt.
    Ok,
    /// Completed after ≥ 1 salted retry.
    Degraded,
    /// Retries exhausted with faults still detected.
    DroppedFaulty,
    /// Deadline slack consumed by wasted attempts; gave up.
    DroppedBudget,
}

/// The execution result folded back into the event loop.
pub(crate) struct Exec {
    pub(crate) outcome: Outcome,
    /// Worker cycles consumed by the leader, including aborted attempts.
    /// Follower lanes are charged separately at their marginal cost.
    pub(crate) cycles: u64,
    /// Absolute index of the final attempt (`attempt_base` = no retries).
    pub(crate) retries: u32,
    pub(crate) output_hash: u64,
    pub(crate) fault: FaultStats,
    /// Output hashes of batched follower lanes, in lane order (empty for
    /// unbatched jobs).
    pub(crate) follower_hashes: Vec<u64>,
}

impl InferenceService {
    /// Validates the scenario and builds the service: a one-shard
    /// [`Cluster`] carrying `config`'s accelerator, worker pool, and
    /// execution settings, with no shard faults.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the scenario is structurally
    /// invalid (no tenants/workers, zero-capacity queue, streaming frame
    /// smaller than the network input, …).
    pub fn new(
        config: ServeConfig,
        tenants: Vec<TenantSpec>,
    ) -> Result<InferenceService, ServeError> {
        let shard = ShardSpec::new("shard0")
            .accel(config.accel.clone())
            .virtual_workers(config.virtual_workers);
        let cluster = Cluster::new(
            ClusterConfig {
                shards: vec![shard],
                physical_threads: config.physical_threads,
                admission_salt: config.admission_salt,
                samples_per_tenant: config.samples_per_tenant,
                max_batch: config.max_batch,
                ..ClusterConfig::default()
            },
            tenants,
        )?;
        Ok(InferenceService { config, cluster })
    }

    /// The tenant specifications, in report order.
    pub fn tenants(&self) -> &[TenantSpec] {
        self.cluster.tenants()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Runs the scenario to completion and reports.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when a network cannot be prepared or a
    /// request fails with a non-fault accelerator error.
    pub fn run(&self) -> Result<ServiceReport, ServeError> {
        let ClusterReport {
            end_cycles,
            elapsed_seconds,
            shards,
            tenants,
            ..
        } = self.cluster.run()?;
        // The only shard's calibration is the service's.
        let clean_cycles = shards.into_iter().flat_map(|s| s.clean_cycles);
        let tenants = tenants
            .into_iter()
            .zip(clean_cycles)
            .map(|(t, clean_cycles)| TenantReport {
                name: t.name,
                weight: t.weight,
                clean_cycles,
                stats: t.stats,
                throughput_rps: t.throughput_rps,
            })
            .collect();
        Ok(ServiceReport {
            virtual_workers: self.config.virtual_workers,
            end_cycles,
            elapsed_seconds,
            tenants,
        })
    }
}

/// Executes one request to resolution: salted retries under the job's
/// base fault plan, bounded by the retry budget and the deadline slack.
/// Batched jobs (non-empty `followers`) divert to [`execute_batch`].
pub(crate) fn execute_one<'p>(
    spec: &TenantSpec,
    job: Job<'p>,
) -> (Result<Exec, ServeError>, Session<'p>) {
    if !job.followers.is_empty() {
        return execute_batch(spec, job);
    }
    let mut session = job.session;
    let input = match spec.build_input(job.seq) {
        Ok(input) => input,
        Err(error) => {
            return (
                Err(ServeError::Input {
                    tenant: spec.name.clone(),
                    error,
                }),
                session,
            )
        }
    };
    let base = job.plan;
    let mut cycles: u64 = 0;
    let mut fault = FaultStats::default();
    for attempt in job.attempt_base..=job.attempt_base.saturating_add(spec.max_retries) {
        session.set_fault_plan(base.with_salt(request_salt(job.tenant, job.seq, attempt)));
        match session.infer(&input) {
            Ok(inference) => {
                cycles += inference.stats().cycles();
                fault.absorb(inference.fault_stats());
                let outcome = if attempt == job.attempt_base {
                    Outcome::Ok
                } else {
                    Outcome::Degraded
                };
                return (
                    Ok(Exec {
                        outcome,
                        cycles,
                        retries: attempt,
                        output_hash: hash_output(inference.output()),
                        fault,
                        follower_hashes: Vec::new(),
                    }),
                    session,
                );
            }
            Err(RunError::FaultDetected(_)) => {
                cycles += session.last_cycles();
                fault.absorb(session.fault_stats());
                if cycles >= job.slack {
                    return (
                        Ok(Exec {
                            outcome: Outcome::DroppedBudget,
                            cycles,
                            retries: attempt,
                            output_hash: 0,
                            fault,
                            follower_hashes: Vec::new(),
                        }),
                        session,
                    );
                }
            }
            Err(error) => {
                return (
                    Err(ServeError::Execute {
                        tenant: spec.name.clone(),
                        error,
                    }),
                    session,
                )
            }
        }
    }
    (
        Ok(Exec {
            outcome: Outcome::DroppedFaulty,
            cycles,
            retries: job.attempt_base.saturating_add(spec.max_retries),
            output_hash: 0,
            fault,
            follower_hashes: Vec::new(),
        }),
        session,
    )
}

/// Executes a batched job: the leader and each follower lane run one
/// after another through the session's ordinary inference path.
/// Followers only form for tenants with a zero fault plan, so the salted
/// plan draws no faults and every lane is bit-identical to a direct
/// clean `Session::infer` of its input — which is exactly what the
/// retained samples certify.
fn execute_batch<'p>(spec: &TenantSpec, job: Job<'p>) -> (Result<Exec, ServeError>, Session<'p>) {
    let mut session = job.session;
    let attempt_base = job.attempt_base;
    let mut inputs = Vec::with_capacity(1 + job.followers.len());
    for &seq in std::iter::once(&job.seq).chain(&job.followers) {
        match spec.build_input(seq) {
            Ok(input) => inputs.push(input),
            Err(error) => {
                return (
                    Err(ServeError::Input {
                        tenant: spec.name.clone(),
                        error,
                    }),
                    session,
                )
            }
        }
    }
    let base = job.plan;
    debug_assert!(base.is_zero(), "batched lanes require a zero fault plan");
    session.set_fault_plan(base.with_salt(request_salt(job.tenant, job.seq, attempt_base)));
    // Each lane's output hash, cycles and fault counters, read from the
    // borrowed result so no per-lane `Inference` is allocated.
    let mut lanes = Vec::with_capacity(inputs.len());
    for input in &inputs {
        match session.infer_ref(input) {
            Ok(run) => lanes.push((
                hash_output(run.output()),
                run.stats().cycles(),
                *run.fault_stats(),
            )),
            Err(error) => {
                return (
                    Err(ServeError::Execute {
                        tenant: spec.name.clone(),
                        error,
                    }),
                    session,
                )
            }
        }
    }
    let (output_hash, cycles, fault) = lanes[0];
    let exec = Exec {
        outcome: Outcome::Ok,
        cycles,
        retries: attempt_base,
        output_hash,
        fault,
        follower_hashes: lanes[1..].iter().map(|&(hash, ..)| hash).collect(),
    };
    (Ok(exec), session)
}

/// Executes a dispatched batch on up to `threads` OS threads, returning
/// results in batch order. Work distribution uses an atomic index (the
/// same shape as the vendored rayon shim), and because each execution is
/// a pure function of `(spec, seq, salt)`, assignment of jobs to threads
/// cannot affect any result.
pub(crate) type JobResult<'p> = (Result<Exec, ServeError>, Session<'p>);

pub(crate) fn run_batch<'p>(
    specs: &[TenantSpec],
    batch: Vec<Job<'p>>,
    threads: usize,
) -> Vec<JobResult<'p>> {
    let n = batch.len();
    if threads <= 1 || n <= 1 {
        return batch
            .into_iter()
            .map(|job| execute_one(&specs[job.tenant], job))
            .collect();
    }
    let jobs: Vec<Mutex<Option<Job<'p>>>> =
        batch.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<JobResult<'p>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().expect("job slot poisoned").take();
                if let Some(job) = job {
                    let out = execute_one(&specs[job.tenant], job);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job slot executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{InputSource, Traffic};
    use shidiannao_cnn::zoo;
    use shidiannao_core::Accelerator;
    use shidiannao_faults::{FaultConfig, SramProtection};

    fn gabor_tenant(count: u64) -> TenantSpec {
        TenantSpec::new("gabor", zoo::gabor().build(1).expect("build gabor")).traffic(
            Traffic::Open {
                period: 2_000,
                jitter: 100,
                count,
            },
        )
    }

    #[test]
    fn single_clean_tenant_completes_everything() {
        let service =
            InferenceService::new(ServeConfig::default(), vec![gabor_tenant(6)]).expect("valid");
        let report = service.run().expect("run");
        let t = &report.tenants[0].stats;
        assert_eq!(t.issued, 6);
        assert_eq!(t.ok, 6);
        assert_eq!(
            t.degraded + t.dropped_faulty + t.dropped_deadline + t.rejected,
            0
        );
        assert!(report.accounting_consistent());
        assert_eq!(t.latency.count(), 6);
        assert!(report.end_cycles > 0);
    }

    fn backlogged_tenant(count: u64) -> TenantSpec {
        gabor_tenant(count)
            .traffic(Traffic::Open {
                period: 10,
                jitter: 0,
                count,
            })
            .queue_capacity(32)
            .deadline_cycles(10_000_000)
    }

    #[test]
    fn report_is_deterministic_across_physical_threads() {
        let mk = |threads| {
            let config = ServeConfig {
                physical_threads: threads,
                max_batch: 8,
                ..ServeConfig::default()
            };
            let faulty = gabor_tenant(10)
                .faults(FaultConfig::uniform(7, 1e-4, SramProtection::Parity))
                .deadline_cycles(20_000);
            InferenceService::new(config, vec![gabor_tenant(8), faulty])
                .expect("valid")
                .run()
                .expect("run")
        };
        let serial = mk(1);
        let wide = mk(4);
        assert_eq!(serial, wide);
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        // One virtual worker, arrivals far faster than service: the
        // depth-1 queue must shed load with typed rejections.
        let config = ServeConfig {
            virtual_workers: 1,
            ..ServeConfig::default()
        };
        let tenant = gabor_tenant(12)
            .traffic(Traffic::Open {
                period: 10,
                jitter: 0,
                count: 12,
            })
            .queue_capacity(1)
            .deadline_cycles(1_000_000);
        let report = InferenceService::new(config, vec![tenant])
            .expect("valid")
            .run()
            .expect("run");
        let t = &report.tenants[0].stats;
        assert!(t.rejected > 0, "expected backpressure, got {t:?}");
        assert!(t.ok > 0);
        assert!(report.accounting_consistent());
    }

    #[test]
    fn tight_deadlines_drop_stale_requests() {
        let config = ServeConfig {
            virtual_workers: 1,
            ..ServeConfig::default()
        };
        // Deadline shorter than one service time: whatever queues behind
        // the first request expires before a worker reaches it.
        let tenant = gabor_tenant(8)
            .traffic(Traffic::Open {
                period: 10,
                jitter: 0,
                count: 8,
            })
            .queue_capacity(8)
            .deadline_cycles(1_000);
        let report = InferenceService::new(config, vec![tenant])
            .expect("valid")
            .run()
            .expect("run");
        let t = &report.tenants[0].stats;
        assert!(t.dropped_deadline > 0, "expected expiry drops, got {t:?}");
        assert!(report.accounting_consistent());
    }

    #[test]
    fn faulty_tenant_degrades_not_corrupts() {
        let config = ServeConfig {
            virtual_workers: 1,
            ..ServeConfig::default()
        };
        let tenant = gabor_tenant(20)
            .faults(FaultConfig::uniform(11, 1e-4, SramProtection::Parity))
            .deadline_cycles(1_000_000)
            .max_retries(3);
        let report = InferenceService::new(config, vec![tenant])
            .expect("valid")
            .run()
            .expect("run");
        let t = &report.tenants[0].stats;
        assert!(t.fault.detected > 0, "fault campaign should trip: {t:?}");
        assert!(t.retries > 0);
        assert!(t.degraded > 0 || t.dropped_faulty > 0);
        assert!(report.accounting_consistent());
    }

    #[test]
    fn scheduled_outputs_match_direct_inference() {
        let service =
            InferenceService::new(ServeConfig::default(), vec![gabor_tenant(4)]).expect("valid");
        let report = service.run().expect("run");
        let spec = &service.tenants()[0];
        let accel = Accelerator::new(service.config().accel.clone());
        let prep = accel.prepare(&spec.network).expect("prepare");
        for sample in &report.tenants[0].stats.samples {
            let plan =
                FaultPlan::new(spec.faults).with_salt(request_salt(0, sample.seq, sample.attempt));
            let mut session = prep.session_with_faults(plan);
            let input = spec.build_input(sample.seq).expect("input");
            let inference = session.infer(&input).expect("clean run");
            assert_eq!(hash_output(inference.output()), sample.output_hash);
        }
    }

    #[test]
    fn batched_lanes_match_unbatched_outputs_and_ledger() {
        let mk = |max_batch, threads| {
            let config = ServeConfig {
                virtual_workers: 1,
                physical_threads: threads,
                max_batch,
                ..ServeConfig::default()
            };
            InferenceService::new(config, vec![backlogged_tenant(12)])
                .expect("valid")
                .run()
                .expect("run")
        };
        let unbatched = mk(1, 1);
        let batched = mk(8, 1);
        let u = &unbatched.tenants[0].stats;
        let b = &batched.tenants[0].stats;
        assert_eq!(u.ok, 12);
        assert_eq!(b.ok, 12);
        assert_eq!(u.batched, 0);
        assert!(b.batched > 0, "batching never triggered: {b:?}");
        // Same requests served, bit for bit: the XOR digest of per-request
        // output hashes is order-independent, so it must match exactly.
        assert_eq!(u.output_hash, b.output_hash);
        assert!(unbatched.accounting_consistent());
        assert!(batched.accounting_consistent());
        // Follower lanes pay marginal (clean − Load) cycles, so the
        // batched ledger is strictly cheaper for the same work.
        assert!(b.service_cycles < u.service_cycles);
        // And physical threads still never change a batched report.
        assert_eq!(batched, mk(8, 4));
    }

    #[test]
    fn batched_samples_replay_with_direct_inference() {
        let config = ServeConfig {
            virtual_workers: 1,
            max_batch: 8,
            samples_per_tenant: 12,
            ..ServeConfig::default()
        };
        let service = InferenceService::new(config, vec![backlogged_tenant(12)]).expect("valid");
        let report = service.run().expect("run");
        let stats = &report.tenants[0].stats;
        assert!(stats.batched > 0, "batching never triggered: {stats:?}");
        assert_eq!(stats.samples.len(), 12);
        let spec = &service.tenants()[0];
        let accel = Accelerator::new(service.config().accel.clone());
        let prep = accel.prepare(&spec.network).expect("prepare");
        for sample in &stats.samples {
            let plan =
                FaultPlan::new(spec.faults).with_salt(request_salt(0, sample.seq, sample.attempt));
            let mut session = prep.session_with_faults(plan);
            let input = spec.build_input(sample.seq).expect("input");
            let inference = session.infer(&input).expect("clean run");
            assert_eq!(
                hash_output(inference.output()),
                sample.output_hash,
                "lane for seq {} diverged from direct inference",
                sample.seq
            );
        }
    }

    #[test]
    fn unbounded_retry_budget_runs_to_completion() {
        // `max_retries(u32::MAX)` must neither overflow the failover
        // attempt base nor retry forever: the deadline slack ends it.
        let tenant = || {
            gabor_tenant(8)
                .faults(FaultConfig::uniform(11, 1e-3, SramProtection::Parity))
                .deadline_cycles(20_000)
                .max_retries(u32::MAX)
        };
        let service = InferenceService::new(ServeConfig::default(), vec![tenant()])
            .expect("valid")
            .run()
            .expect("service run");
        let cluster = Cluster::new(ClusterConfig::default(), vec![tenant()])
            .expect("valid")
            .run()
            .expect("cluster run");
        let stats = &service.tenants[0].stats;
        assert_eq!(stats.issued, 8);
        assert!(stats.retries > 0, "fault campaign never retried: {stats:?}");
        assert!(service.accounting_consistent());
        assert!(cluster.accounting_consistent());
        assert_eq!(&cluster.tenants[0].stats, stats);
    }

    #[test]
    fn huge_queue_capacity_allocates_by_occupancy() {
        // One worker and a burst of eight: the queue reaches depth 7, so
        // capacity 8 never rejects and both runs must agree exactly.
        let run = |capacity| {
            let config = ServeConfig {
                virtual_workers: 1,
                ..ServeConfig::default()
            };
            let tenant = backlogged_tenant(8).queue_capacity(capacity);
            InferenceService::new(config, vec![tenant])
                .expect("valid")
                .run()
                .expect("run")
        };
        let small = run(8);
        assert_eq!(small.tenants[0].stats.rejected, 0);
        assert_eq!(small.tenants[0].stats.depth_max, 7);
        assert_eq!(run(usize::MAX), small);
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let net = zoo::gabor().build(1).expect("build gabor");
        assert_eq!(
            InferenceService::new(ServeConfig::default(), vec![]).err(),
            Some(ServeError::NoTenants)
        );
        let config = ServeConfig {
            virtual_workers: 0,
            ..ServeConfig::default()
        };
        assert_eq!(
            InferenceService::new(config, vec![TenantSpec::new("g", net.clone())]).err(),
            Some(ServeError::NoWorkers)
        );
        let bad_queue = TenantSpec::new("g", net.clone()).queue_capacity(0);
        assert!(matches!(
            InferenceService::new(ServeConfig::default(), vec![bad_queue]),
            Err(ServeError::Spec { .. })
        ));
        let bad_frame = TenantSpec::new("g", net).source(InputSource::Stream {
            seed: 0,
            frame: (8, 8),
            stride: (4, 4),
        });
        assert!(matches!(
            InferenceService::new(ServeConfig::default(), vec![bad_frame]),
            Err(ServeError::Spec { .. })
        ));
    }
}
