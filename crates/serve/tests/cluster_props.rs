//! Property-based contracts for the sharded cluster:
//!
//! * for random shard counts, failure seeds, and tenant mixes, the
//!   [`ClusterReport`] is invariant to `physical_threads` and to the
//!   salted shard scan order, and the six-class outcome ledger balances
//!   (no request lost or double-counted under any injected failure
//!   pattern),
//! * [`FixedHistogram::merge`] of any partition of a sample set equals
//!   recording the union directly.

use proptest::prelude::*;
use shidiannao_cnn::zoo;
use shidiannao_serve::{
    Cluster, ClusterConfig, ClusterReport, FixedHistogram, HealthConfig, InputSource,
    ShardFaultConfig, ShardSpec, SramProtection, TenantSpec, Traffic,
};

/// A mixed three-tenant scenario on the tiny Gabor network: one clean
/// open-loop tenant, one streaming tenant, one closed-loop tenant.
fn tenants(seed: u64) -> Vec<TenantSpec> {
    let gabor = || zoo::gabor().build(1).expect("build gabor");
    vec![
        TenantSpec::new("clean", gabor())
            .traffic(Traffic::Open {
                period: 900,
                jitter: 400,
                count: 12,
            })
            .source(InputSource::Random { seed })
            .weight(2)
            .queue_capacity(3)
            .deadline_cycles(60_000),
        TenantSpec::new("stream", gabor())
            .traffic(Traffic::Open {
                period: 700,
                jitter: 200,
                count: 14,
            })
            .source(InputSource::Stream {
                seed,
                frame: (40, 40),
                stride: (20, 20),
            })
            .queue_capacity(2)
            .deadline_cycles(40_000)
            .max_retries(2),
        TenantSpec::new("closed", gabor())
            .traffic(Traffic::Closed {
                clients: 2,
                think: 1_500,
                count: 10,
            })
            .source(InputSource::Random { seed: seed ^ 1 })
            .weight(3)
            .deadline_cycles(80_000),
    ]
}

/// A chaos cluster of `shards` homogeneous shards with a seeded
/// shard-failure plan aggressive enough to exercise every episode kind
/// across the proptest seed range.
fn chaos_cluster(
    shards: usize,
    fault_seed: u64,
    physical_threads: usize,
    shard_salt: u64,
) -> ClusterReport {
    let config = ClusterConfig {
        shards: (0..shards)
            .map(|s| ShardSpec::new(format!("s{s}")))
            .collect(),
        physical_threads,
        shard_salt,
        max_batch: 3,
        shard_faults: ShardFaultConfig {
            seed: fault_seed,
            epoch_cycles: 8_000,
            crash_rate: 0.15,
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
    };
    Cluster::new(config, tenants(fault_seed ^ 0x7E4A))
        .expect("valid cluster")
        .run()
        .expect("cluster runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chaos determinism: the full report — every counter, event line,
    /// histogram bucket, and output digest — is byte-identical across
    /// physical thread counts and shard scan orders, and the ledger
    /// balances for every tenant.
    #[test]
    fn chaos_report_deterministic_and_balanced(
        fault_seed in 0u64..1_000,
        shards in 1usize..5,
        threads in 2usize..5,
        salt in 1u64..u64::MAX,
    ) {
        let baseline = chaos_cluster(shards, fault_seed, 1, 0);
        prop_assert!(baseline.accounting_consistent(), "ledger: {baseline:?}");
        // No request vanished: issued covers every terminal class.
        for t in &baseline.tenants {
            let terminal = t.stats.ok + t.stats.degraded + t.stats.dropped_faulty
                + t.stats.dropped_deadline + t.stats.rejected + t.budget_exhausted;
            prop_assert_eq!(t.stats.issued, terminal, "tenant {} leaked requests", t.name);
        }
        let wide = chaos_cluster(shards, fault_seed, threads, 0);
        prop_assert_eq!(&baseline, &wide);
        let permuted = chaos_cluster(shards, fault_seed, 1, salt);
        prop_assert_eq!(&baseline, &permuted);
    }

    /// Histogram merge law: merging the histograms of any partition of a
    /// sample set equals recording the union into one histogram —
    /// including counts, sums, maxima, and every reported percentile.
    #[test]
    fn histogram_merge_equals_record_of_union(
        values in proptest::collection::vec(0u64..2_000_000, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let mut whole = FixedHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut left = FixedHistogram::new();
        for &v in &values[..split] {
            left.record(v);
        }
        let mut right = FixedHistogram::new();
        for &v in &values[split..] {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(left.count(), values.len() as u64);
        prop_assert_eq!(left.max(), whole.max());
        for pct in [50, 95, 99, 100] {
            prop_assert_eq!(left.percentile(pct), whole.percentile(pct));
        }
    }
}
