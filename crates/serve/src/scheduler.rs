//! Deadline- and fairness-aware request scheduling.
//!
//! Two policies compose, both fully deterministic:
//!
//! * **across tenants** — weighted fair share: each tenant accumulates a
//!   virtual service counter charged `estimated_cycles × SCALE / weight`
//!   per dispatched request, and the backlogged tenant with the smallest
//!   counter is served next (ties broken by tenant index). A tenant with
//!   weight 3 therefore receives three times the accelerator cycles of a
//!   weight-1 tenant while both are backlogged, measured over the run.
//! * **within a tenant** — earliest deadline first, delegated to
//!   [`BoundedQueue::pop_earliest_deadline`].
//!
//! The charge uses the tenant's *calibrated clean* cycles rather than
//! the realised (fault-inflated) cycles, so a tenant is not penalised in
//! fairness terms for SRAM faults the operator injected — and, more
//! importantly, so the charge is known at pick time before the request
//! executes.

use crate::queue::{BoundedQueue, Request};

/// Fixed-point scale for the virtual service counters, giving weighted
/// division enough resolution that small weights don't alias.
const SCALE: u64 = 1024;

/// Weighted-fair-share tenant selector (see module docs).
#[derive(Clone, Debug)]
pub struct FairScheduler {
    /// Per-tenant accumulated virtual service (scaled).
    vservice: Vec<u64>,
    /// Per-tenant weights (≥ 1).
    weights: Vec<u32>,
    /// Per-tenant estimated clean cycles per request.
    estimates: Vec<u64>,
}

impl FairScheduler {
    /// Creates a scheduler for tenants with the given weights and
    /// per-request cycle estimates. Zero weights are clamped to 1.
    pub fn new(weights: &[u32], estimates: &[u64]) -> FairScheduler {
        debug_assert_eq!(weights.len(), estimates.len());
        FairScheduler {
            vservice: vec![0; weights.len()],
            weights: weights.iter().map(|&w| w.max(1)).collect(),
            estimates: estimates.to_vec(),
        }
    }

    /// Picks the next request: the backlogged tenant with minimum
    /// weighted virtual service, then EDF within that tenant. Charges the
    /// tenant's estimate at pick time. Returns `None` when every queue is
    /// empty.
    pub fn pick(&mut self, queues: &mut [BoundedQueue]) -> Option<Request> {
        let tenant = (0..queues.len())
            .filter(|&t| !queues[t].is_empty())
            .min_by_key(|&t| (self.vservice[t], t))?;
        let request = queues[tenant].pop_earliest_deadline()?;
        let charge = self.estimates[tenant]
            .saturating_mul(SCALE)
            .saturating_div(u64::from(self.weights[tenant]));
        self.vservice[tenant] = self.vservice[tenant].saturating_add(charge.max(1));
        Some(request)
    }

    /// Charges `cycles` of weighted virtual service to `tenant` outside
    /// of [`FairScheduler::pick`] — how batch *follower* lanes pay their
    /// marginal cost: the leader was charged the full clean estimate at
    /// pick time, and each extra lane riding the same dispatch adds
    /// only its marginal cycles to the tenant's fair-share ledger.
    pub fn charge(&mut self, tenant: usize, cycles: u64) {
        let charge = cycles
            .saturating_mul(SCALE)
            .saturating_div(u64::from(self.weights[tenant]));
        self.vservice[tenant] = self.vservice[tenant].saturating_add(charge.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(depths: &[usize]) -> Vec<BoundedQueue> {
        depths
            .iter()
            .enumerate()
            .map(|(t, &n)| {
                let mut q = BoundedQueue::new(n.max(1));
                for seq in 0..n as u64 {
                    q.admit(Request {
                        tenant: t,
                        seq,
                        arrival: 0,
                        deadline: 100 + seq,
                    })
                    .expect("capacity");
                }
                q
            })
            .collect()
    }

    #[test]
    fn weighted_share_over_backlog() {
        // Tenant 0 weight 3, tenant 1 weight 1, equal cycle estimates:
        // over 8 picks from deep backlogs, tenant 0 gets 6, tenant 1 gets 2.
        let mut qs = queues(&[8, 8]);
        let mut sched = FairScheduler::new(&[3, 1], &[100, 100]);
        let mut picks = [0u32; 2];
        for _ in 0..8 {
            let r = sched.pick(&mut qs).expect("backlogged");
            picks[r.tenant] += 1;
        }
        assert_eq!(picks, [6, 2]);
    }

    #[test]
    fn cheaper_requests_get_proportionally_more_picks() {
        // Equal weights, tenant 1's requests cost 4x: tenant 0 should be
        // picked ~4x as often so *cycles* stay balanced.
        let mut qs = queues(&[10, 10]);
        let mut sched = FairScheduler::new(&[1, 1], &[100, 400]);
        let mut picks = [0u32; 2];
        for _ in 0..10 {
            let r = sched.pick(&mut qs).expect("backlogged");
            picks[r.tenant] += 1;
        }
        assert_eq!(picks, [8, 2]);
    }

    #[test]
    fn empty_queues_yield_none_and_idle_tenant_skipped() {
        let mut qs = queues(&[0, 3]);
        let mut sched = FairScheduler::new(&[5, 1], &[10, 10]);
        for _ in 0..3 {
            assert_eq!(sched.pick(&mut qs).map(|r| r.tenant), Some(1));
        }
        assert_eq!(sched.pick(&mut qs), None);
    }
}
