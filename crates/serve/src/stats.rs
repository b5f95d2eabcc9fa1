//! Service-level statistics: fixed-bucket latency histograms and
//! per-tenant SLO counters.
//!
//! Everything here is integer arithmetic over virtual-clock cycles, so
//! the numbers a scenario produces are byte-identical across runs,
//! physical thread counts, and machines. The histogram trades exactness
//! for bounded memory the way HDR histograms do: log2 octaves split into
//! four sub-buckets, giving ≤ 25 % relative error on reported quantiles
//! with 256 fixed buckets regardless of how many samples arrive.

use shidiannao_faults::{FaultConfig, FaultStats};
use shidiannao_fixed::Fx;
use shidiannao_tensor::MapStack;

use crate::splitmix64;

/// Number of histogram buckets: 64 octaves × 4 sub-buckets.
const BUCKETS: usize = 256;

/// A fixed-bucket latency histogram over `u64` cycle counts.
///
/// Values 0–3 get exact buckets; a value `v ≥ 4` lands in the bucket
/// keyed by its top two bits below the leading one, so each bucket spans
/// a quarter octave. Recording is O(1), memory is constant, and the
/// quantiles are deterministic (a quantile reports its bucket's upper
/// bound, an over-estimate of at most 25 %).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedHistogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
    max: u64,
}

impl Default for FixedHistogram {
    fn default() -> FixedHistogram {
        FixedHistogram::new()
    }
}

impl FixedHistogram {
    /// Creates an empty histogram.
    pub fn new() -> FixedHistogram {
        FixedHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 4 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 2)) & 3) as usize;
        octave * 4 + sub
    }

    /// Inclusive upper bound of bucket `i` — what quantiles report.
    fn upper_bound(i: usize) -> u64 {
        if i < 4 {
            return i as u64;
        }
        let octave = i / 4;
        let sub = (i % 4) as u64;
        let width = 1u64 << (octave - 2);
        (4 + sub) * width + width - 1
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[FixedHistogram::index(v)] += 1;
        self.count += 1;
        self.total += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact — tracked outside the
    /// buckets), `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The `pct`-th percentile (e.g. `50`, `95`, `99`) as the containing
    /// bucket's upper bound, clamped to the observed maximum. `0` when
    /// empty.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(count * pct / 100), clamped into [1, count].
        let rank = (u128::from(self.count) * u128::from(pct))
            .div_ceil(100)
            .clamp(1, u128::from(self.count));
        let mut seen: u128 = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u128::from(n);
            if seen >= rank {
                return FixedHistogram::upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one: buckets add element-wise,
    /// counts and sums add, and the exact maximum is preserved. Because
    /// recording is a pure per-sample bucket increment, merging the
    /// histograms of any partition of a sample set equals recording the
    /// union directly — the property the cluster layer relies on to merge
    /// per-shard SLO stats into one deterministic cluster view (proved by
    /// the `merge_equals_record_of_union` property test).
    pub fn merge(&mut self, other: &FixedHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The standard summary tuple for reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50: self.percentile(50),
            p95: self.percentile(95),
            p99: self.percentile(99),
            mean: self.mean(),
            max: self.max,
        }
    }
}

/// Percentile summary of a [`FixedHistogram`], in cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Median latency (bucket upper bound).
    pub p50: u64,
    /// 95th-percentile latency (bucket upper bound).
    pub p95: u64,
    /// 99th-percentile latency (bucket upper bound).
    pub p99: u64,
    /// Exact mean latency.
    pub mean: f64,
    /// Exact maximum latency.
    pub max: u64,
}

/// A retained completed request with enough context to replay it against
/// a direct `Session::infer` on the serving shard's accelerator model:
/// build the plan as `FaultPlan::new(faults).with_salt(request_salt(
/// tenant, seq, attempt))`, where `tenant` is the report's tenant index,
/// and compare output hashes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestSample {
    /// Per-tenant request sequence number (also the input key).
    pub seq: u64,
    /// Absolute salted attempt that produced the output (failover rounds
    /// shift the attempt base, so this is ≥ `round × (max_retries + 1)`).
    pub attempt: u32,
    /// Shard that served the request (index into the cluster's shards;
    /// always 0 for the one-shard service).
    pub shard: usize,
    /// The fault environment in force for the execution — the tenant's
    /// own, or the episode's during an SRAM burst.
    pub faults: FaultConfig,
    /// [`hash_output`] of the final output stack.
    pub output_hash: u64,
}

/// Everything the service accounts per tenant while running.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Requests the load generator issued (admitted + rejected).
    pub issued: u64,
    /// Completed on the first attempt.
    pub ok: u64,
    /// Completed after ≥ 1 salted retry, or after a failover round.
    pub degraded: u64,
    /// Dropped: retries exhausted with faults still detected.
    pub dropped_faulty: u64,
    /// Dropped: expired in queue, or retry budget (deadline slack)
    /// exhausted mid-execution.
    pub dropped_deadline: u64,
    /// Rejected at admission by the bounded queue.
    pub rejected: u64,
    /// Completed, but after the deadline (served late, not dropped).
    pub deadline_misses: u64,
    /// Total retry attempts across all requests.
    pub retries: u64,
    /// Completed as a follower lane of a batched dispatch (a
    /// subset of `ok`): charged marginal cycles instead of the full
    /// calibrated clean cost.
    pub batched: u64,
    /// Worker cycles consumed, including wasted (aborted) attempts.
    pub service_cycles: u64,
    /// Latency (arrival → completion) of completed requests.
    pub latency: FixedHistogram,
    /// Queue depth observed after each successful admission.
    pub depth_sum: u64,
    /// Number of depth observations.
    pub depth_samples: u64,
    /// Maximum observed queue depth.
    pub depth_max: usize,
    /// XOR of per-request output hashes — order-independent digest of
    /// every bit the tenant was served.
    pub output_hash: u64,
    /// What the fault layer did across all attempts.
    pub fault: FaultStats,
    /// The first `samples_per_tenant` completed lanes, cluster-wide in
    /// fold order, for bit-identity certification.
    pub samples: Vec<RequestSample>,
}

impl TenantStats {
    /// Requests that completed (ok + degraded).
    pub fn completed(&self) -> u64 {
        self.ok + self.degraded
    }

    /// Mean observed queue depth, `0.0` when nothing was admitted.
    pub fn depth_mean(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Whether every issued request is accounted for exactly once.
    pub fn accounting_consistent(&self) -> bool {
        self.issued
            == self.ok + self.degraded + self.dropped_faulty + self.dropped_deadline + self.rejected
    }
}

/// Order-independent 64-bit digest of an output stack's exact bits.
///
/// Each value is mixed with its flat index, so permuted outputs hash
/// differently, but the per-request hashes themselves can be XOR-folded
/// into a tenant digest in any completion order.
pub fn hash_output(stack: &MapStack<Fx>) -> u64 {
    let mut h: u64 = 0x5348_4944_4e41_4f21; // "SHIDNAO!"
    let mut i: u64 = 0;
    for map in stack.iter() {
        for &v in map.as_slice() {
            h = splitmix64(h ^ (v.to_bits() as u16 as u64) ^ (i << 17));
            i += 1;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = FixedHistogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(50), 1);
        assert_eq!(h.percentile(100), 3);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn histogram_percentiles_ordered_and_bounded() {
        let mut h = FixedHistogram::new();
        for i in 0..1000u64 {
            h.record(splitmix64(i) % 100_000);
        }
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
        // Quarter-octave buckets: upper bound over-estimates by < 25 %.
        let exact_max = (0..1000u64).map(|i| splitmix64(i) % 100_000).max();
        assert_eq!(Some(s.max), exact_max);
    }

    #[test]
    fn histogram_bucket_roundtrip() {
        for v in (0..64u32).map(|p| 1u64 << p).chain([5, 7, 100, 999, 12345]) {
            let i = FixedHistogram::index(v);
            let hi = FixedHistogram::upper_bound(i);
            assert!(hi >= v, "upper bound {hi} below value {v}");
            // The bound is within a quarter octave of the value.
            assert!(
                u128::from(hi) < u128::from(v) * 5 / 4 + 4,
                "bound {hi} too loose for {v}"
            );
        }
    }

    #[test]
    fn histogram_empty() {
        let h = FixedHistogram::new();
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn hash_output_depends_on_order_and_bits() {
        use shidiannao_tensor::FeatureMap;
        let a = MapStack::from_fn(2, 2, 1, |_| {
            FeatureMap::from_fn(2, 2, |x, y| Fx::from_f32((x + 2 * y) as f32 * 0.25))
        });
        let b = MapStack::from_fn(2, 2, 1, |_| {
            FeatureMap::from_fn(2, 2, |x, y| Fx::from_f32((2 * x + y) as f32 * 0.25))
        });
        assert_ne!(hash_output(&a), hash_output(&b));
        assert_eq!(hash_output(&a), hash_output(&a));
    }

    #[test]
    fn accounting_consistency() {
        let mut t = TenantStats {
            issued: 10,
            ok: 5,
            degraded: 2,
            dropped_faulty: 1,
            dropped_deadline: 1,
            rejected: 1,
            ..TenantStats::default()
        };
        assert!(t.accounting_consistent());
        t.rejected = 2;
        assert!(!t.accounting_consistent());
    }
}
