//! Sharded cluster serving — the crate's one serving engine: N
//! accelerator shards behind consistent-hash routing, made robust
//! against seeded whole-shard failure episodes.
//!
//! A [`Cluster`] runs N (possibly heterogeneous) shards, each with its
//! own session pool, admission queues, fair scheduler, and virtual
//! worker pool — all sharing one cluster-wide virtual clock. The
//! [`InferenceService`](crate::InferenceService) *is* a one-shard
//! cluster with no shard faults. On top of the word-level `FaultPlan`
//! machinery the cluster layers a shard-level fault model
//! ([`ShardFaultPlan`]): crash, slow-shard, and elevated-SRAM-fault
//! episodes whose onset and duration are pure functions of a seed, so an
//! entire chaos scenario replays bit-identically.
//!
//! # Robustness model
//!
//! * **Routing** — rendezvous (highest-random-weight) hashing picks each
//!   tenant's preferred shard; when it is draining, down, or full, the
//!   request falls back to the least-loaded accepting shard. A crashed
//!   but *undetected* shard still accepts work, exactly like a real
//!   cluster — the heartbeat monitor migrates its queue when detection
//!   lands.
//! * **Detection** — heartbeat sweeps every `heartbeat_cycles`; a
//!   crashed shard is declared down after `miss_threshold` consecutive
//!   misses, a degraded (slow / SRAM-burst) shard enters drain.
//! * **Drain** — a draining shard stops admitting but keeps executing
//!   its backlog; whatever is still queued at the drain deadline is
//!   forcibly migrated (a typed [`ServeError::DrainTimeout`] event).
//! * **Failover** — migrated, lost-in-flight, and unroutable requests
//!   re-route through a retry buffer under an exponential backoff, each
//!   round charged against a per-request retry budget; exhaustion is the
//!   terminal [`ServeError::RetryBudgetExhausted`] outcome. Re-executed
//!   requests run with a fresh salted-attempt base so they never replay
//!   the exact fault pattern that already failed them.
//! * **Respawn** — a down shard's warm replacement starts accepting
//!   `respawn_cycles` after detection.
//!
//! # Determinism
//!
//! Every per-shard virtual clock *is* the cluster clock: completions are
//! computed at dispatch, folded in canonical `(shard, worker)` order,
//! and all cross-shard reductions (routing, migration, retry ordering)
//! break ties on shard/tenant indices. The [`ClusterReport`] is
//! therefore byte-identical across physical thread counts and across
//! the salted shard scan order — and its balancing ledger proves no
//! request was lost or double-counted under any injected failure
//! pattern. With a zero shard-fault plan the health machinery is inert,
//! which is how the one-shard service runs.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;

use shidiannao_core::{
    fanout, Accelerator, AcceleratorConfig, ConfigError, PreparedNetwork, RunError, Session,
};
use shidiannao_faults::{
    DegradeOutcome, FaultConfig, FaultPlan, FaultStats, ShardEpisodeKind, ShardFaultConfig,
    ShardFaultPlan,
};
use shidiannao_sensor::StreamError;

use crate::health::{backoff, HealthConfig, ShardHealth, ShardState};
use crate::loadgen::{TenantGen, TenantSpec, Traffic};
use crate::queue::{BoundedQueue, Request};
use crate::scheduler::FairScheduler;
use crate::splitmix64;
use crate::stats::{hash_output, HistogramSummary, RequestSample, TenantStats};

/// Domain separator for the rendezvous routing hash.
const ROUTE_DOMAIN: u64 = 0x524F_5554; // "ROUT"

/// How many epochs ahead crash queries scan — far beyond any scenario
/// length at sane epoch sizes, while keeping every query bounded.
const CRASH_SCAN_EPOCHS: u64 = 4_096;

/// Cap on the human-readable event log retained in a report.
const MAX_EVENTS: usize = 64;

/// A failure configuring or running the service.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// No tenants were configured.
    NoTenants,
    /// `virtual_workers` was zero.
    NoWorkers,
    /// A shard's accelerator configuration failed
    /// [`AcceleratorConfig::validate`].
    ShardConfig {
        /// Offending shard.
        shard: String,
        /// What validation rejected.
        error: ConfigError,
    },
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
            ServeError::ShardConfig { shard, error } => write!(f, "shard {shard}: {error}"),
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

/// One accelerator shard in the cluster.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Shard name for reports and event logs.
    pub name: String,
    /// The shard's accelerator model — shards may be heterogeneous
    /// (different PE grids / buffer sizes), each is calibrated
    /// independently.
    pub accel: AcceleratorConfig,
    /// Modelled worker pool size on this shard.
    pub virtual_workers: usize,
}

impl ShardSpec {
    /// A shard with the given name and the paper's 8×8 configuration.
    pub fn new(name: impl Into<String>) -> ShardSpec {
        ShardSpec {
            name: name.into(),
            accel: AcceleratorConfig::paper(),
            virtual_workers: 2,
        }
    }

    /// Replaces the accelerator model.
    pub fn accel(mut self, accel: AcceleratorConfig) -> ShardSpec {
        self.accel = accel;
        self
    }

    /// Sets the virtual worker pool size.
    pub fn virtual_workers(mut self, workers: usize) -> ShardSpec {
        self.virtual_workers = workers;
        self
    }

    /// The shard's accelerator, or [`ServeError::ShardConfig`] naming the
    /// shard when its configuration fails validation.
    fn accelerator(&self) -> Result<Accelerator, ServeError> {
        Accelerator::try_new(self.accel.clone()).map_err(|error| ServeError::ShardConfig {
            shard: self.name.clone(),
            error,
        })
    }
}

/// Cluster-level configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The shards, in index order (index = identity for fault plans,
    /// routing tie-breaks, and reports).
    pub shards: Vec<ShardSpec>,
    /// OS threads executing dispatched batches; `0` follows the frame
    /// pipelines' rule ([`shidiannao_core::fanout::workers`]):
    /// `RAYON_NUM_THREADS` when it is a positive integer, else the
    /// machine width. Never changes the report.
    pub physical_threads: usize,
    /// Permutes the dispatch scan order over shards (`0` = index
    /// order). Shards are independent at dispatch, so the report is
    /// invariant to this salt — the property tests turn it to prove so.
    pub shard_salt: u64,
    /// Permutes same-cycle admission order across tenants, as in
    /// [`ServeConfig`](crate::ServeConfig).
    pub admission_salt: u64,
    /// Completed lanes retained per tenant, cluster-wide, for
    /// bit-identity certification (`TenantStats::samples`).
    pub samples_per_tenant: usize,
    /// Maximum inferences per dispatch, as in
    /// [`ServeConfig`](crate::ServeConfig). Batching is gated on the
    /// *effective* fault plan: a shard in an SRAM-burst episode stops
    /// forming follower lanes.
    pub max_batch: usize,
    /// The seeded shard-level failure model.
    pub shard_faults: ShardFaultConfig,
    /// Detection, drain, respawn, and retry-budget tunables.
    pub health: HealthConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: vec![ShardSpec::new("shard0")],
            physical_threads: 0,
            shard_salt: 0,
            admission_salt: 0,
            samples_per_tenant: 8,
            max_batch: 1,
            shard_faults: ShardFaultConfig::zero(),
            health: HealthConfig::default(),
        }
    }
}

/// Per-shard slice of a [`ClusterReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// Shard name from the spec.
    pub name: String,
    /// PE grid, for heterogeneous-cluster reports.
    pub pe_cols: usize,
    /// PE grid rows.
    pub pe_rows: usize,
    /// Virtual worker pool size.
    pub virtual_workers: usize,
    /// Calibrated clean cycles per inference, per tenant, on this shard.
    pub clean_cycles: Vec<u64>,
    /// Requests this shard completed (ok + degraded).
    pub completed: u64,
    /// Worker cycles consumed on this shard, including wasted attempts
    /// and work lost to crashes.
    pub service_cycles: u64,
    /// Crash detections on this shard.
    pub crashes: u64,
    /// Drain episodes entered.
    pub drains: u64,
    /// Drains that hit their deadline with work still queued.
    pub drain_timeouts: u64,
    /// Warm respawns completed.
    pub respawns: u64,
    /// State at the end of the run.
    pub final_state: ShardState,
}

/// Cluster-level per-tenant counters that have no per-shard home.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TenantClusterCounters {
    issued: u64,
    rejected: u64,
    budget_exhausted: u64,
    rerouted: u64,
    migrated: u64,
    lost_inflight: u64,
    failovers: u64,
    expired_failover: u64,
}

/// Per-tenant slice of a [`ClusterReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterTenantReport {
    /// Tenant name from the spec.
    pub name: String,
    /// Fair-share weight.
    pub weight: u32,
    /// All SLO counters merged across shards (histograms via
    /// [`FixedHistogram::merge`](crate::FixedHistogram::merge), counters
    /// summed, depth high-water maxed, output digest XOR-folded), and
    /// the first `samples_per_tenant` completed lanes cluster-wide, with
    /// shard and fault-environment context for replay certification.
    pub stats: TenantStats,
    /// Requests that exhausted their failover retry budget — the
    /// cluster-only terminal outcome, a sixth ledger class on top of
    /// [`TenantStats`]'s five.
    pub budget_exhausted: u64,
    /// Admissions that landed off the tenant's rendezvous-preferred
    /// shard (preferred was draining, down, or full).
    pub rerouted: u64,
    /// Queued requests forcibly moved off a crashed or drain-expired
    /// shard.
    pub migrated: u64,
    /// Dispatched requests lost to a shard crash mid-execution.
    pub lost_inflight: u64,
    /// Successful re-admissions from the failover retry buffer.
    pub failovers: u64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
}

impl ClusterTenantReport {
    /// Latency percentile summary.
    pub fn latency(&self) -> HistogramSummary {
        self.stats.latency.summary()
    }

    /// Whether the tenant's six-class ledger balances: every issued
    /// request reached exactly one terminal outcome.
    pub fn accounting_consistent(&self) -> bool {
        self.stats.issued
            == self.stats.ok
                + self.stats.degraded
                + self.stats.dropped_faulty
                + self.stats.dropped_deadline
                + self.stats.rejected
                + self.budget_exhausted
    }
}

/// What one cluster run produced. `PartialEq` is the determinism
/// contract: the same scenario compares equal across physical thread
/// counts and shard scan orders.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Virtual cycle at which the last request resolved.
    pub end_cycles: u64,
    /// `end_cycles` at shard 0's modelled clock frequency (the cluster
    /// shares one virtual clock).
    pub elapsed_seconds: f64,
    /// Per-shard results, in spec order.
    pub shards: Vec<ShardReport>,
    /// Per-tenant results, in spec order.
    pub tenants: Vec<ClusterTenantReport>,
    /// Crash detections across all shards.
    pub crashes_detected: u64,
    /// Warm respawns completed.
    pub respawns: u64,
    /// Drain episodes entered.
    pub drains: u64,
    /// Drains that timed out with work still queued.
    pub drain_timeouts: u64,
    /// Admission-time routing failures (no accepting shard anywhere).
    pub shard_unavailable: u64,
    /// Jobs dispatched under a slow episode's cycle-rate degradation.
    pub slow_dispatches: u64,
    /// Jobs dispatched under an SRAM-burst episode's fault environment.
    pub burst_dispatches: u64,
    /// The first 64 notable events (crash detections, drain timeouts,
    /// budget exhaustions, respawns), in virtual-clock order.
    pub events: Vec<String>,
}

impl ClusterReport {
    /// Whether every tenant's six-class ledger balances.
    pub fn accounting_consistent(&self) -> bool {
        self.tenants.iter().all(|t| t.accounting_consistent())
    }

    /// Sum of a counter over tenants, e.g. `report.total(|s| s.ok)`.
    pub fn total(&self, f: impl Fn(&TenantStats) -> u64) -> u64 {
        self.tenants.iter().map(|t| f(&t.stats)).sum()
    }
}

/// Why the router could not place a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RouteFail {
    /// Accepting shards exist but every usable queue is full — ordinary
    /// backpressure, counted as a rejection.
    Full,
    /// No shard is accepting at all (everything down or draining) — a
    /// true [`ServeError::ShardUnavailable`] condition.
    Unhealthy,
}

/// An entry waiting in the failover retry buffer.
#[derive(Clone, Copy, Debug)]
struct RetryEntry {
    /// Virtual cycle the entry becomes eligible for re-routing.
    due: u64,
    /// The original request — arrival and deadline are preserved, so
    /// every failover round is charged against the same deadline slack.
    request: Request,
    /// Failover round this entry is on (1 = first failover).
    round: u32,
}

/// Everything the event loop tracks per shard.
struct ShardRuntime<'p> {
    queues: Vec<BoundedQueue>,
    scheduler: FairScheduler,
    worker_free: Vec<u64>,
    pools: Vec<Vec<Session<'p>>>,
    clean_cycles: Vec<u64>,
    marginal_cycles: Vec<u64>,
    health: ShardHealth,
    stats: Vec<TenantStats>,
    crashes: u64,
    drains: u64,
    drain_timeouts: u64,
    respawns: u64,
}

impl ShardRuntime<'_> {
    fn queued(&self) -> usize {
        self.queues.iter().map(BoundedQueue::len).sum()
    }

    /// Routing load metric: queued requests plus busy workers.
    fn load(&self, now: u64) -> usize {
        let busy = self
            .worker_free
            .iter()
            .filter(|&&f| f > now && f != u64::MAX)
            .count();
        self.queued() + busy
    }
}

/// What the event loop tracks per request, and the steps of a request's
/// life that touch it: resolution, dispatch-time expiry, and the
/// completed-lane record.
struct Lifecycle {
    gens: Vec<TenantGen>,
    counters: Vec<TenantClusterCounters>,
    /// Failover round per live request — consulted at dispatch for the
    /// salted-attempt base, removed at every terminal outcome.
    rounds: BTreeMap<(usize, u64), u32>,
    retry: Vec<RetryEntry>,
    /// Completed lanes retained per tenant, in fold order, up to
    /// `sample_cap`.
    samples: Vec<Vec<RequestSample>>,
    sample_cap: usize,
    /// Virtual cycle at which the last request resolved.
    end_cycles: u64,
}

impl Lifecycle {
    /// The failover round request `seq` of tenant `t` is on.
    fn round(&self, t: usize, seq: u64) -> u32 {
        self.rounds.get(&(t, seq)).copied().unwrap_or(0)
    }

    /// The bookkeeping every terminal outcome shares: forget the
    /// request's round, extend the run to `at`, and let a closed-loop
    /// caller issue its next request. Closed-loop generators depend on
    /// the order of these calls.
    fn resolve(&mut self, t: usize, seq: u64, at: u64) {
        self.rounds.remove(&(t, seq));
        self.end_cycles = self.end_cycles.max(at);
        self.gens[t].on_resolved(at);
    }

    /// Pops requests until one is still within its deadline at `now`;
    /// every expired one is dropped (`dropped_deadline`) and resolved.
    fn pop_live(
        &mut self,
        stats: &mut [TenantStats],
        now: u64,
        mut pop: impl FnMut() -> Option<Request>,
    ) -> Option<Request> {
        while let Some(r) = pop() {
            if now <= r.deadline {
                return Some(r);
            }
            stats[r.tenant].dropped_deadline += 1;
            self.resolve(r.tenant, r.seq, now);
        }
        None
    }

    /// Records one completed lane of a dispatch, leader or follower. A
    /// lane that needed a failover round is cluster-degraded even when
    /// its execution succeeded on the first salted attempt.
    fn complete(
        &mut self,
        st: &mut TenantStats,
        lane: &Request,
        outcome: DegradeOutcome,
        round: u32,
        finish: u64,
        sample: RequestSample,
    ) {
        if outcome == DegradeOutcome::Ok && round == 0 {
            st.ok += 1;
        } else {
            st.degraded += 1;
        }
        st.latency.record(finish - lane.arrival);
        if finish > lane.deadline {
            st.deadline_misses += 1;
        }
        st.output_hash ^= sample.output_hash;
        let kept = &mut self.samples[lane.tenant];
        if kept.len() < self.sample_cap {
            kept.push(sample);
        }
    }
}

/// One dispatch: a leader request plus the follower lanes that ride
/// along, the context the event loop needs to fold the result back
/// (shard, worker, failover round, slow-episode rate, fault environment),
/// and the warm session it runs on. Phase 3 of the event loop runs each
/// job in its own fan-out slot beside its result, so the session returns
/// to its pool.
///
/// The cluster event loop dispatches jobs per shard — under the shard's
/// *effective* fault environment (a burst episode overrides the
/// tenant's) and with a failover-round salt base so re-executions draw
/// fresh fault patterns.
struct Job<'p> {
    shard: usize,
    worker: usize,
    request: Request,
    /// Batched follower lanes, in lane order; only formed under a zero
    /// fault environment.
    followers: Vec<Request>,
    /// Cycles left before the leader's deadline at dispatch.
    slack: u64,
    /// Fault environment of this execution (before per-attempt salting).
    faults: FaultConfig,
    /// Slow-episode cycle multiplier in sixteenths (16 = clean rate).
    factor_x16: u32,
    /// Failover round the leader is on (0 = never failed over).
    round: u32,
    session: Session<'p>,
}

impl Job<'_> {
    /// The first salted-attempt index: each failover round owns a
    /// disjoint attempt range so a re-execution never replays the fault
    /// pattern that already failed it. Saturates rather than wrapping,
    /// so a huge `max_retries` can never fold a later round back onto
    /// round 0's salts.
    fn attempt_base(&self, spec: &TenantSpec) -> u32 {
        self.round
            .saturating_mul(spec.max_retries.saturating_add(1))
    }
}

/// The execution result folded back into the event loop.
struct Exec {
    outcome: DegradeOutcome,
    /// Worker cycles consumed by the leader, including aborted attempts.
    /// Follower lanes are charged separately at their marginal cost.
    cycles: u64,
    /// Absolute index of the final attempt (`attempt_base` = no retries).
    retries: u32,
    output_hash: u64,
    fault: FaultStats,
    /// Output hashes of batched follower lanes, in lane order (empty for
    /// unbatched jobs).
    follower_hashes: Vec<u64>,
}

/// Executes one job: the leader runs to resolution through the core's
/// salted-retry loop under the job's fault environment, bounded by the
/// retry budget and the deadline slack; then each follower lane replays
/// on the same session. Followers only form under a zero fault
/// environment, so the leader completes on its first attempt and every
/// lane is bit-identical to a direct clean `Session::infer` of its
/// input — which is exactly what the retained samples certify.
fn execute_one(spec: &TenantSpec, job: &mut Job<'_>) -> Result<Exec, ServeError> {
    let input_error = |error| ServeError::Input {
        tenant: spec.name.clone(),
        error,
    };
    let execute_error = |error| ServeError::Execute {
        tenant: spec.name.clone(),
        error,
    };
    let Request { tenant, seq, .. } = job.request;
    let input = spec.build_input(seq).map_err(input_error)?;
    let base = job.attempt_base(spec);
    let plan = FaultPlan::new(job.faults);
    let retried = job
        .session
        .infer_retrying(
            &input,
            base..=base.saturating_add(spec.max_retries),
            |attempt| plan.with_salt(request_salt(tenant, seq, attempt)),
            job.slack,
        )
        .map_err(execute_error)?;
    let mut exec = Exec {
        outcome: retried.outcome,
        cycles: retried.cycles,
        retries: retried.last_attempt,
        output_hash: retried.run.map_or(0, |run| hash_output(run.output())),
        fault: retried.fault_stats,
        follower_hashes: Vec::with_capacity(job.followers.len()),
    };
    debug_assert!(job.followers.is_empty() || plan.is_zero());
    for follower in &job.followers {
        let input = spec.build_input(follower.seq).map_err(input_error)?;
        let run = job.session.infer_ref(&input).map_err(execute_error)?;
        exec.follower_hashes.push(hash_output(run.output()));
    }
    Ok(exec)
}

/// The sharded, fault-tolerant inference cluster. See the module docs.
#[derive(Clone, Debug)]
pub struct Cluster {
    config: ClusterConfig,
    tenants: Vec<TenantSpec>,
}

impl Cluster {
    /// Validates the scenario and builds the cluster.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the scenario is structurally
    /// invalid — no tenants, no shards, a shard without workers or with
    /// an invalid accelerator configuration, a zero-capacity queue, a
    /// closed loop without clients, or a streaming frame smaller than the
    /// network input or with a zero stride.
    pub fn new(config: ClusterConfig, tenants: Vec<TenantSpec>) -> Result<Cluster, ServeError> {
        if tenants.is_empty() {
            return Err(ServeError::NoTenants);
        }
        if config.shards.is_empty() || config.shards.iter().any(|s| s.virtual_workers == 0) {
            return Err(ServeError::NoWorkers);
        }
        for shard in &config.shards {
            shard.accelerator()?;
        }
        for spec in &tenants {
            let fail = |reason: &str| ServeError::Spec {
                tenant: spec.name.clone(),
                reason: reason.to_string(),
            };
            if spec.queue_capacity == 0 {
                return Err(fail("queue capacity must be at least 1"));
            }
            if let Traffic::Closed { clients, .. } = spec.traffic {
                if clients == 0 {
                    return Err(fail("closed-loop traffic needs at least one client"));
                }
            }
            if let Some((frame, stride)) = spec.source.stream_geometry() {
                let dims = spec.network.input_dims();
                if frame.0 < dims.0 || frame.1 < dims.1 {
                    return Err(fail("streaming frame smaller than network input"));
                }
                if stride.0 == 0 || stride.1 == 0 {
                    return Err(fail("streaming stride must be non-zero"));
                }
            }
        }
        Ok(Cluster { config, tenants })
    }

    /// The tenant specifications, in report order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Rendezvous score of `(tenant, shard)` — the consistent-hash
    /// routing key. Pure, so the preferred shard of a tenant never
    /// depends on cluster state.
    fn route_score(tenant: usize, shard: usize) -> u64 {
        splitmix64(splitmix64(ROUTE_DOMAIN ^ ((tenant as u64) << 32)) ^ (shard as u64 + 1))
    }

    /// Runs the scenario to completion and reports.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when a network cannot be prepared on a
    /// shard or a request fails with a non-fault accelerator error.
    pub fn run(&self) -> Result<ClusterReport, ServeError> {
        // Prepare every tenant network on every shard; each prepared
        // network carries its shard-specific clean costs (heterogeneous
        // PE grids execute the same network in different cycle counts).
        let prepared = self
            .config
            .shards
            .iter()
            .map(|shard| {
                let accel = shard.accelerator()?;
                self.tenants
                    .iter()
                    .map(|spec| {
                        accel
                            .prepare(&spec.network)
                            .map_err(|error| ServeError::Prepare {
                                tenant: spec.name.clone(),
                                error,
                            })
                    })
                    .collect()
            })
            .collect::<Result<Vec<Vec<_>>, _>>()?;
        self.event_loop(&prepared)
    }

    /// The cluster-wide discrete-event loop. One virtual clock, phases
    /// per iteration: health transitions → failover retries → arrivals
    /// → per-shard dispatch → canonical-order fold → clock advance.
    #[allow(clippy::too_many_lines)]
    fn event_loop(&self, prepared: &[Vec<PreparedNetwork>]) -> Result<ClusterReport, ServeError> {
        let n = self.tenants.len();
        let n_shards = self.config.shards.len();
        let weights: Vec<u32> = self.tenants.iter().map(|t| t.weight).collect();
        let plan = ShardFaultPlan::new(self.config.shard_faults);
        let health_cfg = self.config.health;
        let heartbeat = health_cfg.heartbeat_cycles.max(1);
        // A zero shard-fault plan never produces an episode, so the
        // health machinery is inert and its heartbeat instants are
        // skipped: the one-shard service's clock visits only arrivals
        // and completions.
        let monitor_enabled = !plan.is_zero();

        let mut shards: Vec<ShardRuntime<'_>> = (0..n_shards)
            .map(|s| {
                // Clean cycles, and the marginal cost of a follower lane:
                // clean minus the Load phase.
                let (clean, marginal): (Vec<u64>, _) = prepared[s]
                    .iter()
                    .map(|prep| {
                        let stats = prep.clean_stats();
                        let load = stats.layers().first().map_or(0, |l| l.cycles);
                        (stats.cycles(), stats.cycles() - load)
                    })
                    .unzip();
                ShardRuntime {
                    queues: self
                        .tenants
                        .iter()
                        .map(|t| BoundedQueue::new(t.queue_capacity))
                        .collect(),
                    scheduler: FairScheduler::new(&weights, &clean),
                    worker_free: vec![0; self.config.shards[s].virtual_workers],
                    pools: (0..n).map(|_| Vec::new()).collect(),
                    clean_cycles: clean,
                    marginal_cycles: marginal,
                    health: ShardHealth::new(plan.next_crash_onset(s as u64, 0, CRASH_SCAN_EPOCHS)),
                    stats: vec![TenantStats::default(); n],
                    crashes: 0,
                    drains: 0,
                    drain_timeouts: 0,
                    respawns: 0,
                }
            })
            .collect();
        let mut life = Lifecycle {
            gens: self
                .tenants
                .iter()
                .enumerate()
                .map(|(t, spec)| TenantGen::new(t, spec.traffic))
                .collect(),
            counters: vec![TenantClusterCounters::default(); n],
            rounds: BTreeMap::new(),
            retry: Vec::new(),
            samples: vec![Vec::new(); n],
            sample_cap: self.config.samples_per_tenant,
            end_cycles: 0,
        };
        let mut events: Vec<String> = Vec::new();
        let mut shard_unavailable: u64 = 0;
        let mut slow_dispatches: u64 = 0;
        let mut burst_dispatches: u64 = 0;
        let threads = fanout::workers(self.config.physical_threads);

        let permkey = |t: usize| {
            if self.config.admission_salt == 0 {
                t as u64
            } else {
                splitmix64(self.config.admission_salt ^ (t as u64))
            }
        };
        // Salted dispatch scan order over shards. Shards are mutually
        // independent at dispatch (own queues, scheduler, workers), so
        // this order provably cannot change the report.
        let mut shard_order: Vec<usize> = (0..n_shards).collect();
        if self.config.shard_salt != 0 {
            shard_order.sort_by_key(|&s| splitmix64(self.config.shard_salt ^ (s as u64)));
        }
        let scale = |cycles: u64, factor_x16: u32| -> u64 {
            if factor_x16 == 16 {
                cycles
            } else {
                cycles.saturating_mul(u64::from(factor_x16)) / 16
            }
        };
        let push_event = |events: &mut Vec<String>, now: u64, msg: String| {
            if events.len() < MAX_EVENTS {
                events.push(format!("[{now}] {msg}"));
            }
        };

        let mut now: u64 = 0;
        let mut next_heartbeat: u64 = heartbeat;
        loop {
            // Phase 0a — warm respawns due at `now`: the replacement
            // shard comes up empty, healthy, and with a fresh crash
            // horizon.
            for (s, shard) in shards.iter_mut().enumerate() {
                if let ShardState::Down { respawn_at } = shard.health.state {
                    if respawn_at <= now {
                        shard.health.state = ShardState::Healthy;
                        shard.health.misses = 0;
                        shard.health.crash_onset = plan.next_crash_onset(
                            s as u64,
                            now.saturating_add(1),
                            CRASH_SCAN_EPOCHS,
                        );
                        shard.worker_free.iter_mut().for_each(|f| *f = now);
                        shard.respawns += 1;
                        push_event(
                            &mut events,
                            now,
                            format!("shard {}: warm respawn online", self.config.shards[s].name),
                        );
                    }
                }
            }

            // Phase 0b — heartbeat sweep: crash detection (with queue
            // migration), drain entry/heal, drain-deadline enforcement.
            if monitor_enabled && now >= next_heartbeat {
                for (s, shard) in shards.iter_mut().enumerate() {
                    let state = shard.health.state;
                    match state {
                        ShardState::Down { .. } => {}
                        ShardState::Healthy | ShardState::Draining { .. } => {
                            if shard.health.is_dead(now) {
                                // The shard stopped answering at its
                                // crash onset; declare it down after
                                // enough consecutive misses and migrate
                                // everything still queued on it.
                                shard.health.misses += 1;
                                if shard.health.misses >= health_cfg.miss_threshold {
                                    let respawn_at = now.saturating_add(health_cfg.respawn_cycles);
                                    shard.health.state = ShardState::Down { respawn_at };
                                    shard.health.misses = 0;
                                    shard.crashes += 1;
                                    let migrated = Cluster::migrate_queues(shard, &mut life, now);
                                    push_event(
                                        &mut events,
                                        now,
                                        format!(
                                            "shard {}: crash detected, {migrated} queued requests migrated, respawn at {respawn_at}",
                                            self.config.shards[s].name
                                        ),
                                    );
                                }
                            } else if let ShardState::Draining { deadline } = state {
                                shard.health.misses = 0;
                                let degraded = plan.degradation_at(s as u64, now).is_some();
                                if !degraded && shard.queued() == 0 {
                                    shard.health.state = ShardState::Healthy;
                                } else if now >= deadline {
                                    let pending = shard.queued();
                                    if pending > 0 {
                                        shard.drain_timeouts += 1;
                                        push_event(
                                            &mut events,
                                            now,
                                            ServeError::DrainTimeout {
                                                shard: self.config.shards[s].name.clone(),
                                                pending,
                                            }
                                            .to_string(),
                                        );
                                        Cluster::migrate_queues(shard, &mut life, now);
                                    }
                                    shard.health.state = if degraded {
                                        ShardState::Draining {
                                            deadline: now.saturating_add(health_cfg.drain_timeout),
                                        }
                                    } else {
                                        ShardState::Healthy
                                    };
                                }
                            } else {
                                shard.health.misses = 0;
                                if plan.degradation_at(s as u64, now).is_some() {
                                    shard.health.state = ShardState::Draining {
                                        deadline: now.saturating_add(health_cfg.drain_timeout),
                                    };
                                    shard.drains += 1;
                                    push_event(
                                        &mut events,
                                        now,
                                        format!(
                                            "shard {}: degradation episode detected, draining",
                                            self.config.shards[s].name
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                next_heartbeat = (now / heartbeat + 1) * heartbeat;
            }

            // Phase 0c — failover retries due at `now`, in deterministic
            // (due, tenant-permutation, tenant, seq) order: budget check,
            // deadline check, then re-admission. A failed re-admission
            // burns a round and backs off.
            if !life.retry.is_empty() {
                let mut due: Vec<RetryEntry> = Vec::new();
                life.retry.retain(|e| {
                    if e.due <= now {
                        due.push(*e);
                        false
                    } else {
                        true
                    }
                });
                due.sort_unstable_by_key(|e| {
                    (
                        e.due,
                        permkey(e.request.tenant),
                        e.request.tenant,
                        e.request.seq,
                    )
                });
                for entry in due {
                    let Request { tenant: t, seq, .. } = entry.request;
                    if entry.round > health_cfg.retry_budget {
                        life.counters[t].budget_exhausted += 1;
                        life.resolve(t, seq, now);
                        push_event(
                            &mut events,
                            now,
                            ServeError::RetryBudgetExhausted {
                                tenant: self.tenants[t].name.clone(),
                                seq,
                                budget: health_cfg.retry_budget,
                            }
                            .to_string(),
                        );
                        continue;
                    }
                    if now > entry.request.deadline {
                        life.counters[t].expired_failover += 1;
                        life.resolve(t, seq, now);
                        continue;
                    }
                    match self.admit(&mut shards, &mut life.counters, entry.request, now) {
                        Ok(()) => {
                            life.counters[t].failovers += 1;
                            life.rounds.insert((t, seq), entry.round);
                        }
                        Err(fail) => {
                            if fail == RouteFail::Unhealthy {
                                shard_unavailable += 1;
                            }
                            life.retry.push(RetryEntry {
                                due: now
                                    .saturating_add(backoff(health_cfg.backoff_base, entry.round)),
                                request: entry.request,
                                round: entry.round + 1,
                            });
                        }
                    }
                }
            }

            // Phase 1 — admit every arrival due at or before `now`,
            // routing each to a shard. Rejected closed-loop callers may
            // re-issue at the same cycle, so drain until quiescent.
            loop {
                let mut due: Vec<(u64, u64, usize, u64)> = Vec::new();
                for (t, gen) in life.gens.iter_mut().enumerate() {
                    while let Some((at, _)) = gen.peek() {
                        if at > now {
                            break;
                        }
                        if let Some((at, seq)) = gen.pop() {
                            life.counters[t].issued += 1;
                            due.push((at, permkey(t), t, seq));
                        }
                    }
                }
                if due.is_empty() {
                    break;
                }
                due.sort_unstable();
                for (at, _, t, seq) in due {
                    let request = Request {
                        tenant: t,
                        seq,
                        arrival: at,
                        deadline: at.saturating_add(self.tenants[t].deadline_cycles),
                    };
                    if let Err(fail) = self.admit(&mut shards, &mut life.counters, request, now) {
                        // Ordinary backpressure (everything full) and
                        // true unavailability both shed the request;
                        // only the latter is a cluster-health event.
                        if fail == RouteFail::Unhealthy {
                            shard_unavailable += 1;
                            push_event(
                                &mut events,
                                now,
                                ServeError::ShardUnavailable {
                                    tenant: self.tenants[t].name.clone(),
                                }
                                .to_string(),
                            );
                        }
                        life.counters[t].rejected += 1;
                        life.resolve(t, seq, at);
                    }
                }
            }

            // Phase 2 — per-shard dispatch, scanning shards in the
            // salted order. A dead shard (crashed, detected or not)
            // executes nothing; a draining shard keeps working through
            // its backlog. The effective fault plan and cycle rate come
            // from the shard's active episode at dispatch time.
            let mut batch: Vec<Job<'_>> = Vec::new();
            for &s in &shard_order {
                if shards[s].health.is_dead(now) {
                    continue;
                }
                let episode = plan.degradation_at(s as u64, now);
                let factor_x16 = match episode.map(|e| e.kind) {
                    Some(ShardEpisodeKind::Slow { factor_x16 }) => factor_x16,
                    _ => 16,
                };
                let burst = match episode.map(|e| e.kind) {
                    Some(ShardEpisodeKind::SramBurst { faults }) => Some(faults),
                    _ => None,
                };
                for w in 0..shards[s].worker_free.len() {
                    if shards[s].worker_free[w] > now {
                        continue;
                    }
                    let shard = &mut shards[s];
                    let Some(request) = life.pop_live(&mut shard.stats, now, || {
                        shard.scheduler.pick(&mut shard.queues)
                    }) else {
                        break;
                    };
                    let t = request.tenant;
                    let faults = burst.unwrap_or(self.tenants[t].faults);
                    let mut followers: Vec<Request> = Vec::new();
                    if self.config.max_batch > 1 && FaultPlan::new(faults).is_zero() {
                        while followers.len() + 1 < self.config.max_batch {
                            let Some(r) = life.pop_live(&mut shard.stats, now, || {
                                shard.queues[t].pop_earliest_deadline()
                            }) else {
                                break;
                            };
                            shard.scheduler.charge(t, shard.marginal_cycles[t]);
                            followers.push(r);
                        }
                    }
                    if factor_x16 != 16 {
                        slow_dispatches += 1;
                    }
                    if burst.is_some() {
                        burst_dispatches += 1;
                    }
                    batch.push(Job {
                        shard: s,
                        worker: w,
                        request,
                        followers,
                        slack: request.deadline.saturating_sub(now),
                        faults,
                        factor_x16,
                        round: life.round(t, request.seq),
                        session: shard.pools[t]
                            .pop()
                            .unwrap_or_else(|| prepared[s][t].session()),
                    });
                }
            }

            // Phase 3 — execute on physical threads, then fold in
            // canonical (shard, worker) order so the salted scan order
            // above can never leak into any counter, sample, or the
            // closed-loop generators.
            let mut slots: Vec<_> = batch.into_iter().map(|job| (job, None)).collect();
            let Ok(_) = fanout::run(
                &mut slots,
                1,
                threads,
                || (),
                |(), _, (job, result)| {
                    *result = Some(execute_one(&self.tenants[job.request.tenant], job));
                    Ok::<_, Infallible>(())
                },
            );
            slots.sort_by_key(|(job, _)| (job.shard, job.worker));
            for (job, result) in slots {
                let result = result.expect("the fan-out runs every job");
                let (s, w, t) = (job.shard, job.worker, job.request.tenant);
                let attempt_base = job.attempt_base(&self.tenants[t]);
                shards[s].pools[t].push(job.session);
                let exec = result?;
                let marginal = scale(shards[s].marginal_cycles[t], job.factor_x16);
                let cycles = scale(exec.cycles, job.factor_x16);
                let finish = now
                    .saturating_add(cycles)
                    .saturating_add(marginal.saturating_mul(job.followers.len() as u64));
                // A crash onset strictly inside (dispatch, finish) kills
                // the execution: the worker dies with the shard, and
                // every lane fails over after the client-side timeout.
                let crash_onset = shards[s]
                    .health
                    .crash_onset
                    .filter(|&o| o > now && o < finish);
                if let Some(onset) = crash_onset {
                    shards[s].worker_free[w] = u64::MAX;
                    shards[s].stats[t].service_cycles += onset.saturating_sub(now);
                    for lane in std::iter::once(&job.request).chain(&job.followers) {
                        let r = life.round(t, lane.seq);
                        life.rounds.insert((t, lane.seq), r + 1);
                        life.counters[t].lost_inflight += 1;
                        life.retry.push(RetryEntry {
                            due: onset
                                .saturating_add(health_cfg.crash_timeout)
                                .saturating_add(backoff(health_cfg.backoff_base, r)),
                            request: *lane,
                            round: r + 1,
                        });
                    }
                    continue;
                }
                shards[s].worker_free[w] = finish;
                let sample = |seq, output_hash| RequestSample {
                    seq,
                    attempt: exec.retries,
                    shard: s,
                    faults: job.faults,
                    output_hash,
                };
                let st = &mut shards[s].stats[t];
                st.service_cycles += cycles;
                st.retries += u64::from(exec.retries.saturating_sub(attempt_base));
                st.fault.absorb(&exec.fault);
                match exec.outcome {
                    DegradeOutcome::Ok | DegradeOutcome::Degraded { .. } => {
                        let lane = sample(job.request.seq, exec.output_hash);
                        life.complete(st, &job.request, exec.outcome, job.round, finish, lane);
                    }
                    DegradeOutcome::DroppedFaulty => st.dropped_faulty += 1,
                    DegradeOutcome::DroppedBudget => st.dropped_deadline += 1,
                }
                life.resolve(t, job.request.seq, finish);
                debug_assert!(job.followers.is_empty() || exec.outcome == DegradeOutcome::Ok);
                for (follower, &hash) in job.followers.iter().zip(&exec.follower_hashes) {
                    let st = &mut shards[s].stats[t];
                    st.service_cycles += marginal;
                    st.batched += 1;
                    let round = life.round(t, follower.seq);
                    let lane = sample(follower.seq, hash);
                    life.complete(st, follower, DegradeOutcome::Ok, round, finish, lane);
                    life.resolve(t, follower.seq, finish);
                }
            }

            // Phase 4 — terminate, or advance the clock to the next
            // event: arrival, retry due, completion, or (while work is
            // outstanding) the next heartbeat / respawn / drain deadline
            // the health machinery needs to make progress.
            let next_arrival = life
                .gens
                .iter()
                .filter_map(|g| g.peek().map(|(t, _)| t))
                .min();
            let next_retry = life.retry.iter().map(|e| e.due).min();
            let next_completion = shards
                .iter()
                .flat_map(|s| s.worker_free.iter().copied())
                .filter(|&f| f > now && f != u64::MAX)
                .min();
            let queues_empty = shards.iter().all(|s| s.queued() == 0);
            let busy = next_completion.is_some();
            let work = next_arrival.is_some() || next_retry.is_some() || !queues_empty;
            if !work && !busy {
                break;
            }
            if let Some(a) = next_arrival {
                if a <= now {
                    // A zero-think closed-loop caller re-issued at the
                    // current cycle; admit it before moving time.
                    continue;
                }
            }
            let mut candidates: Vec<u64> = Vec::new();
            candidates.extend(next_arrival);
            candidates.extend(next_retry.filter(|&d| d > now));
            candidates.extend(next_completion);
            if monitor_enabled && work {
                candidates.push(next_heartbeat.max(now + 1));
                for shard in &shards {
                    match shard.health.state {
                        ShardState::Down { respawn_at } if respawn_at > now => {
                            candidates.push(respawn_at);
                        }
                        ShardState::Draining { deadline } if deadline > now => {
                            candidates.push(deadline);
                        }
                        _ => {}
                    }
                }
            }
            let Some(next) = candidates.into_iter().min() else {
                break;
            };
            now = next;
        }

        // Merge per-shard views into the cluster report.
        let end_cycles = life.end_cycles;
        let cycle_seconds = 1e-9 / self.config.shards[0].accel.frequency_ghz;
        let elapsed_seconds = end_cycles as f64 * cycle_seconds;
        let shard_reports: Vec<ShardReport> = shards
            .iter()
            .zip(&self.config.shards)
            .map(|(rt, spec)| ShardReport {
                name: spec.name.clone(),
                pe_cols: spec.accel.pe_cols,
                pe_rows: spec.accel.pe_rows,
                virtual_workers: spec.virtual_workers,
                clean_cycles: rt.clean_cycles.clone(),
                completed: rt.stats.iter().map(TenantStats::completed).sum(),
                service_cycles: rt.stats.iter().map(|st| st.service_cycles).sum(),
                crashes: rt.crashes,
                drains: rt.drains,
                drain_timeouts: rt.drain_timeouts,
                respawns: rt.respawns,
                final_state: rt.health.state,
            })
            .collect();
        let tenants: Vec<ClusterTenantReport> = self
            .tenants
            .iter()
            .zip(life.counters)
            .zip(life.samples)
            .enumerate()
            .map(|(t, ((spec, cc), samples))| {
                let mut stats = TenantStats::default();
                for shard in &shards {
                    merge_stats(&mut stats, &shard.stats[t]);
                }
                stats.issued = cc.issued;
                stats.rejected += cc.rejected;
                stats.dropped_deadline += cc.expired_failover;
                stats.samples = samples;
                let throughput_rps = if elapsed_seconds > 0.0 {
                    stats.completed() as f64 / elapsed_seconds
                } else {
                    0.0
                };
                ClusterTenantReport {
                    name: spec.name.clone(),
                    weight: spec.weight,
                    stats,
                    budget_exhausted: cc.budget_exhausted,
                    rerouted: cc.rerouted,
                    migrated: cc.migrated,
                    lost_inflight: cc.lost_inflight,
                    failovers: cc.failovers,
                    throughput_rps,
                }
            })
            .collect();
        Ok(ClusterReport {
            end_cycles,
            elapsed_seconds,
            crashes_detected: shard_reports.iter().map(|s| s.crashes).sum(),
            respawns: shard_reports.iter().map(|s| s.respawns).sum(),
            drains: shard_reports.iter().map(|s| s.drains).sum(),
            drain_timeouts: shard_reports.iter().map(|s| s.drain_timeouts).sum(),
            shard_unavailable,
            slow_dispatches,
            burst_dispatches,
            shards: shard_reports,
            tenants,
            events,
        })
    }

    /// Routes tenant `t`'s next request: the rendezvous-preferred shard
    /// when it accepts and has queue space, else the least-loaded
    /// accepting shard with space (ties broken by shard index).
    fn route(
        &self,
        shards: &[ShardRuntime<'_>],
        t: usize,
        now: u64,
    ) -> Result<(usize, bool), RouteFail> {
        let preferred = (0..shards.len())
            .max_by_key(|&s| (Cluster::route_score(t, s), s))
            .unwrap_or(0);
        let has_space = |s: usize| shards[s].queues[t].len() < shards[s].queues[t].capacity();
        if shards[preferred].health.state.is_accepting() && has_space(preferred) {
            return Ok((preferred, false));
        }
        let mut any_accepting = false;
        let fallback = (0..shards.len())
            .filter(|&s| {
                let accepting = shards[s].health.state.is_accepting();
                any_accepting |= accepting;
                accepting && has_space(s)
            })
            .min_by_key(|&s| (shards[s].load(now), s));
        match fallback {
            Some(s) => Ok((s, true)),
            None if any_accepting => Err(RouteFail::Full),
            None => Err(RouteFail::Unhealthy),
        }
    }

    /// Routes `request` (see [`Cluster::route`]) and admits it on the
    /// chosen shard, recording the queue depth and whether it landed off
    /// the tenant's preferred shard. A queue that is full after a
    /// successful route is ordinary backpressure, [`RouteFail::Full`].
    fn admit(
        &self,
        shards: &mut [ShardRuntime<'_>],
        counters: &mut [TenantClusterCounters],
        request: Request,
        now: u64,
    ) -> Result<(), RouteFail> {
        let t = request.tenant;
        let (s, fell_back) = self.route(shards, t, now)?;
        let depth = shards[s].queues[t]
            .admit(request)
            .map_err(|_| RouteFail::Full)?;
        let st = &mut shards[s].stats[t];
        st.depth_sum += depth as u64;
        st.depth_samples += 1;
        st.depth_max = st.depth_max.max(depth);
        if fell_back {
            counters[t].rerouted += 1;
        }
        Ok(())
    }

    /// Empties every queue of a dying or drain-expired shard into the
    /// failover retry buffer (tenant order, EDF order within a tenant —
    /// deterministic). Each migrated request burns one failover round
    /// and becomes eligible for re-routing immediately.
    fn migrate_queues(shard: &mut ShardRuntime<'_>, life: &mut Lifecycle, now: u64) -> usize {
        let mut moved = 0;
        for (t, queue) in shard.queues.iter_mut().enumerate() {
            while let Some(request) = queue.pop_earliest_deadline() {
                life.counters[t].migrated += 1;
                moved += 1;
                life.retry.push(RetryEntry {
                    due: now,
                    request,
                    round: life.round(t, request.seq) + 1,
                });
            }
        }
        moved
    }
}

/// Folds `from` into `acc`: counters add, the latency histogram merges
/// bucket-wise, depth high-water takes the max, and the output digest
/// XOR-folds. `issued`, `rejected` and the samples live at cluster level
/// and are patched in by the caller.
fn merge_stats(acc: &mut TenantStats, from: &TenantStats) {
    acc.ok += from.ok;
    acc.degraded += from.degraded;
    acc.dropped_faulty += from.dropped_faulty;
    acc.dropped_deadline += from.dropped_deadline;
    acc.deadline_misses += from.deadline_misses;
    acc.retries += from.retries;
    acc.batched += from.batched;
    acc.service_cycles += from.service_cycles;
    acc.latency.merge(&from.latency);
    acc.depth_sum += from.depth_sum;
    acc.depth_samples += from.depth_samples;
    acc.depth_max = acc.depth_max.max(from.depth_max);
    acc.output_hash ^= from.output_hash;
    acc.fault.absorb(&from.fault);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{InferenceService, ServeConfig};
    use shidiannao_cnn::zoo;
    use shidiannao_core::Accelerator;
    use shidiannao_faults::SramProtection;

    fn gabor_tenant(count: u64) -> TenantSpec {
        TenantSpec::new("gabor", zoo::gabor().build(1).expect("build gabor"))
            .traffic(Traffic::Open {
                period: 2_000,
                jitter: 100,
                count,
            })
            .deadline_cycles(200_000)
    }

    fn chaos_config(shards: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            shards: (0..shards)
                .map(|s| ShardSpec::new(format!("s{s}")))
                .collect(),
            shard_faults: ShardFaultConfig {
                seed,
                epoch_cycles: 8_000,
                crash_rate: 0.12,
                slow_rate: 0.2,
                sram_burst_rate: 0.2,
                min_duration: 4_000,
                max_duration: 16_000,
                burst_flip_rate: 1e-4,
                burst_protection: SramProtection::Parity,
            },
            health: HealthConfig {
                heartbeat_cycles: 2_000,
                miss_threshold: 2,
                drain_timeout: 10_000,
                respawn_cycles: 12_000,
                crash_timeout: 3_000,
                backoff_base: 500,
                retry_budget: 4,
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn one_shard_zero_faults_matches_plain_service() {
        // Every `ServeConfig` field off its default, and a backlog deep
        // enough that the worker count, batch size, and sample cap all
        // shape the report — so a dropped config mapping shows.
        let accel = AcceleratorConfig::with_pe_grid(4, 4);
        let config = ServeConfig {
            accel: accel.clone(),
            virtual_workers: 3,
            physical_threads: 2,
            admission_salt: 0x5A17,
            samples_per_tenant: 3,
            max_batch: 4,
        };
        let tenants = || {
            vec![
                gabor_tenant(16)
                    .traffic(Traffic::Open {
                        period: 10,
                        jitter: 0,
                        count: 16,
                    })
                    .queue_capacity(32),
                gabor_tenant(6)
                    .traffic(Traffic::Closed {
                        clients: 2,
                        think: 1_000,
                        count: 6,
                    })
                    .weight(2),
            ]
        };
        let service = InferenceService::new(config, tenants()).expect("valid");
        let expected = service.run().expect("service run");
        // Physical threads and the admission salt never change a report,
        // so check that they reach the cluster directly.
        let inner = service.cluster.config();
        assert_eq!(inner.physical_threads, 2);
        assert_eq!(inner.admission_salt, 0x5A17);

        let cluster_config = ClusterConfig {
            shards: vec![ShardSpec::new("only").accel(accel).virtual_workers(3)],
            physical_threads: 2,
            admission_salt: 0x5A17,
            samples_per_tenant: 3,
            max_batch: 4,
            ..ClusterConfig::default()
        };
        let report = Cluster::new(cluster_config, tenants())
            .expect("valid")
            .run()
            .expect("cluster run");
        assert_eq!(expected.virtual_workers, 3);
        assert_eq!(report.end_cycles, expected.end_cycles);
        assert_eq!(report.elapsed_seconds, expected.elapsed_seconds);
        let clean = &report.shards[0].clean_cycles;
        for ((c, s), &clean) in report.tenants.iter().zip(&expected.tenants).zip(clean) {
            assert_eq!(c.stats, s.stats, "tenant {} diverged", c.name);
            assert_eq!((&c.name, c.weight), (&s.name, s.weight));
            assert_eq!(c.throughput_rps, s.throughput_rps);
            assert_eq!(s.clean_cycles, clean);
            assert_eq!(s.stats.samples.len(), 3);
            for (a, b) in c.stats.samples.iter().zip(&s.stats.samples) {
                assert_eq!(
                    (a.seq, a.attempt, a.output_hash),
                    (b.seq, b.attempt, b.output_hash)
                );
                assert_eq!((a.shard, a.faults), (b.shard, b.faults));
            }
            assert_eq!(
                c.budget_exhausted + c.rerouted + c.migrated + c.lost_inflight,
                0
            );
        }
        assert!(
            expected.total(|s| s.batched) > 0,
            "batching never triggered"
        );
        assert!(report.accounting_consistent());
    }

    #[test]
    fn chaos_report_invariant_to_threads_and_shard_order() {
        let mk = |threads, salt| {
            let config = ClusterConfig {
                physical_threads: threads,
                shard_salt: salt,
                max_batch: 4,
                ..chaos_config(3, 0xC1A0)
            };
            Cluster::new(config, vec![gabor_tenant(30)])
                .expect("valid")
                .run()
                .expect("run")
        };
        let base = mk(1, 0);
        assert!(base.accounting_consistent(), "ledger: {base:?}");
        assert_eq!(base, mk(4, 0), "physical threads changed the report");
        assert_eq!(base, mk(2, 0x5EED), "shard scan order changed the report");
    }

    #[test]
    fn chaos_exercises_failure_paths_without_losing_requests() {
        let report = Cluster::new(chaos_config(3, 0xC1A0), vec![gabor_tenant(40)])
            .expect("valid")
            .run()
            .expect("run");
        assert!(report.accounting_consistent(), "ledger: {report:?}");
        let t = &report.tenants[0];
        assert_eq!(t.stats.issued, 40);
        assert!(t.stats.completed() > 0);
        assert!(
            report.crashes_detected > 0
                || report.drains > 0
                || report.slow_dispatches > 0
                || report.burst_dispatches > 0,
            "chaos plan never fired: {report:?}"
        );
    }

    #[test]
    fn crash_detection_migrates_and_respawns() {
        // Crank the crash rate so a 3-shard run must lose shards.
        let mut config = chaos_config(3, 7);
        config.shard_faults.crash_rate = 0.5;
        config.shard_faults.slow_rate = 0.0;
        config.shard_faults.sram_burst_rate = 0.0;
        let report = Cluster::new(config, vec![gabor_tenant(40)])
            .expect("valid")
            .run()
            .expect("run");
        assert!(report.crashes_detected > 0, "no crash detected: {report:?}");
        assert!(
            report.respawns > 0
                || report
                    .shards
                    .iter()
                    .any(|s| matches!(s.final_state, ShardState::Down { .. }))
        );
        assert!(report.accounting_consistent(), "ledger: {report:?}");
        let t = &report.tenants[0];
        assert!(
            t.migrated + t.lost_inflight + t.failovers > 0,
            "crashes never displaced work: {report:?}"
        );
        // Every admission records one queue depth: arrivals that were
        // not rejected, plus failover re-admissions.
        assert_eq!(
            t.stats.depth_samples,
            t.stats.issued - t.stats.rejected + t.failovers
        );
        // Each completion off the tenant's preferred shard follows its
        // own admission there, arrival or failover re-admission alike,
        // and each of those counts as `rerouted`.
        let preferred = (0..report.shards.len())
            .max_by_key(|&s| (Cluster::route_score(0, s), s))
            .expect("shards");
        let off_preferred: u64 = (report.shards.iter().enumerate())
            .filter(|&(s, _)| s != preferred)
            .map(|(_, shard)| shard.completed)
            .sum();
        assert!(
            t.rerouted >= off_preferred && off_preferred > 0,
            "rerouted {} < {off_preferred} completions off the preferred shard",
            t.rerouted
        );
    }

    #[test]
    fn samples_replay_against_direct_inference() {
        let cluster = Cluster::new(chaos_config(2, 0xC1A0), vec![gabor_tenant(20)])
            .expect("valid")
            .run()
            .expect("run");
        let spec_net = zoo::gabor().build(1).expect("build gabor");
        let spec = TenantSpec::new("gabor", spec_net);
        let config = chaos_config(2, 0xC1A0);
        for (tenant, t) in cluster.tenants.iter().enumerate() {
            assert!(!t.stats.samples.is_empty());
            for sample in &t.stats.samples {
                let accel = Accelerator::new(config.shards[sample.shard].accel.clone());
                let prep = accel.prepare(&spec.network).expect("prepare");
                let plan = FaultPlan::new(sample.faults).with_salt(request_salt(
                    tenant,
                    sample.seq,
                    sample.attempt,
                ));
                let mut session = prep.session_with_faults(plan);
                let input = spec.build_input(sample.seq).expect("input");
                let inference = session.infer(&input).expect("replay");
                assert_eq!(
                    crate::stats::hash_output(inference.output()),
                    sample.output_hash,
                    "sample (seq {}, shard {}) diverged",
                    sample.seq,
                    sample.shard
                );
            }
        }
    }

    #[test]
    fn invalid_cluster_specs_are_typed_errors() {
        let net = zoo::gabor().build(1).expect("build gabor");
        assert_eq!(
            Cluster::new(ClusterConfig::default(), vec![]).err(),
            Some(ServeError::NoTenants)
        );
        let no_shards = ClusterConfig {
            shards: vec![],
            ..ClusterConfig::default()
        };
        assert_eq!(
            Cluster::new(no_shards, vec![TenantSpec::new("g", net.clone())]).err(),
            Some(ServeError::NoWorkers)
        );
        let dead_shard = ClusterConfig {
            shards: vec![ShardSpec::new("s0").virtual_workers(0)],
            ..ClusterConfig::default()
        };
        assert_eq!(
            Cluster::new(dead_shard, vec![TenantSpec::new("g", net.clone())]).err(),
            Some(ServeError::NoWorkers)
        );
        let zero_mesh = AcceleratorConfig {
            pe_rows: 0,
            ..AcceleratorConfig::paper()
        };
        let zero_buffer = AcceleratorConfig {
            nbin_bytes: 0,
            ..AcceleratorConfig::paper()
        };
        for accel in [zero_mesh, zero_buffer] {
            let bad_shard = ClusterConfig {
                shards: vec![ShardSpec::new("ok"), ShardSpec::new("bad").accel(accel)],
                ..ClusterConfig::default()
            };
            assert!(matches!(
                Cluster::new(bad_shard, vec![TenantSpec::new("g", net.clone())]),
                Err(ServeError::ShardConfig { ref shard, .. }) if shard == "bad"
            ));
        }
        let bad_queue = TenantSpec::new("g", net).queue_capacity(0);
        assert!(matches!(
            Cluster::new(ClusterConfig::default(), vec![bad_queue]),
            Err(ServeError::Spec { .. })
        ));
    }
}
