//! Multi-tenant inference service for the ShiDianNao simulator.
//!
//! The paper's accelerator serves one camera; this crate models the other
//! end of the deployment spectrum from the roadmap — many tenants sharing
//! a small pool of accelerator contexts, the shape a production inference
//! service takes when "shifting vision processing closer to the sensor"
//! meets heavy traffic:
//!
//! * [`Cluster`] — the one serving engine: N accelerator shards on one
//!   cycle-granular *virtual* clock, each pooling warm [`Session`]s per
//!   tenant network (amortising `Accelerator::prepare` exactly like the
//!   streaming pipeline does for one camera) and scheduling requests onto
//!   a fixed pool of virtual workers, with seeded shard failures,
//!   routing, drain, and failover on top. Each step of a request's life
//!   (admission, dispatch-time expiry, each completed lane, terminal
//!   resolution) happens in one place in its event loop, and one
//!   executor runs every dispatch: the leader through the salted-retry
//!   loop, then any batched followers on the same session,
//! * [`InferenceService`] — the paper's deployment, one accelerator: a
//!   one-shard cluster with no shard faults, configured by
//!   [`ServeConfig`] and reported as a [`ServiceReport`],
//! * [`BoundedQueue`] — per-tenant admission queues with typed
//!   backpressure ([`QueueFull`]): a slow tenant sheds load instead of
//!   growing memory without bound,
//! * [`FairScheduler`] — earliest-deadline-first within a tenant,
//!   weighted fair share across tenants,
//! * degraded execution through the core's one salted-retry loop,
//!   `Session::infer_retrying`: a request whose SRAM protection detects
//!   a fault is retried under a salted plan until its retry budget or
//!   deadline slack is spent, then dropped, never served silently
//!   corrupt data,
//! * [`TenantSpec`] / [`Traffic`] — a deterministic open- and
//!   closed-loop load generator, so serving is a pure function of its
//!   scenario: byte-identical reports on every run and every physical
//!   thread count,
//! * [`RequestSample`] — the one retained-sample type: the first
//!   `samples_per_tenant` completed lanes of each tenant, cluster-wide,
//!   in [`TenantStats::samples`], each with its serving shard and fault
//!   environment, so any of them replays bit-identically through a
//!   direct `Session::infer`.
//!
//! Determinism is the load-bearing property. The virtual clock advances
//! by *modelled* cycles (which depend only on network topology), never by
//! wall time; physical threads only parallelise the pure
//! input→output inference function between two scheduling decisions
//! (through the core's one host fan-out, `shidiannao_core::fanout`), so
//! `physical_threads` can be anything from 1 to the machine width without
//! perturbing a single counter in a [`ServiceReport`] or
//! [`ClusterReport`]. `physical_threads: 0` follows the frame pipelines'
//! rule: `RAYON_NUM_THREADS` when it is a positive integer, else the
//! machine width.
//!
//! # Examples
//!
//! ```
//! use shidiannao_cnn::zoo;
//! use shidiannao_serve::{InferenceService, ServeConfig, TenantSpec, Traffic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tenant = TenantSpec::new("lenet5", zoo::lenet5().build(42)?)
//!     .traffic(Traffic::Open { period: 20_000, jitter: 1_000, count: 8 })
//!     .deadline_cycles(60_000);
//! let service = InferenceService::new(ServeConfig::default(), vec![tenant])?;
//! let report = service.run()?;
//! assert_eq!(report.tenants[0].completed(), 8);
//! assert_eq!(report, service.run()?); // deterministic end to end
//! # Ok(())
//! # }
//! ```

// Service paths report failures as typed `ServeError`s rather than
// panicking; contract violations still use `assert!`/`.expect()` which
// these lints deliberately do not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![forbid(unsafe_code)]

mod cluster;
mod health;
mod loadgen;
mod queue;
mod scheduler;
mod service;
mod stats;

pub use cluster::{
    request_salt, Cluster, ClusterConfig, ClusterReport, ClusterTenantReport, ServeError,
    ShardReport, ShardSpec,
};
pub use health::{HealthConfig, ShardState};
pub use loadgen::{binarize_pixel, InputSource, TenantSpec, Traffic};
pub use queue::{BoundedQueue, QueueFull, Request};
pub use scheduler::FairScheduler;
pub use service::{InferenceService, ServeConfig, ServiceReport, TenantReport};
pub use stats::{hash_output, FixedHistogram, HistogramSummary, RequestSample, TenantStats};

// Re-export the pieces of the fault vocabulary the service surfaces.
pub use shidiannao_core::Session;
pub use shidiannao_faults::{
    FaultConfig, FaultStats, ShardEpisode, ShardEpisodeKind, ShardFaultConfig, ShardFaultPlan,
    SramProtection,
};

/// One step of the splitmix64 sequence — the same generator the fault
/// plan and synthetic sensor use, kept local so the crate has no
/// dependency on their private helpers.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
