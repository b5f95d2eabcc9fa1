//! Bounded per-tenant admission queues with typed backpressure.
//!
//! Every tenant gets its own fixed-capacity queue, so one tenant's burst
//! can neither grow memory without bound nor starve another tenant's
//! queue space. Admission either succeeds (returning the depth the
//! sampler records) or fails with a typed [`QueueFull`] rejection that
//! the service turns into an SLO counter — there is no silent drop and
//! no unbounded growth anywhere on the admission path.

use std::collections::BTreeMap;
use std::fmt;

/// One admitted inference request, queued until a worker picks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index of the owning tenant.
    pub tenant: usize,
    /// Per-tenant sequence number; also keys the deterministic input.
    pub seq: u64,
    /// Virtual-clock cycle the request arrived.
    pub arrival: u64,
    /// Absolute virtual-clock deadline (arrival + tenant SLO).
    pub deadline: u64,
}

/// Typed backpressure: the bounded queue refused an admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// The queue's fixed capacity, already fully occupied.
    pub capacity: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full at capacity {}", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// A fixed-capacity queue drained in EDF order.
///
/// Requests are keyed by `(deadline, seq, admission)`, so the
/// earliest-deadline pick is the map's first entry, O(log depth). The
/// admission counter only separates requests that repeat a
/// `(deadline, seq)` pair, which then leave in admission order.
#[derive(Clone, Debug)]
pub struct BoundedQueue {
    capacity: usize,
    items: BTreeMap<(u64, u64, u64), Request>,
    admitted: u64,
}

impl BoundedQueue {
    /// Creates an empty queue that holds at most `capacity` requests.
    /// Storage grows with occupancy, never with the declared capacity, so
    /// a huge capacity costs nothing until requests actually queue.
    pub fn new(capacity: usize) -> BoundedQueue {
        BoundedQueue {
            capacity,
            items: BTreeMap::new(),
            admitted: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Admits a request, returning the depth after admission, or rejects
    /// it with [`QueueFull`] backpressure when at capacity.
    pub fn admit(&mut self, request: Request) -> Result<usize, QueueFull> {
        if self.items.len() >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        self.items
            .insert((request.deadline, request.seq, self.admitted), request);
        self.admitted += 1;
        Ok(self.items.len())
    }

    /// Removes and returns the earliest-deadline request (ties broken by
    /// sequence number, so the order is total and deterministic).
    pub fn pop_earliest_deadline(&mut self) -> Option<Request> {
        self.items.pop_first().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64, deadline: u64) -> Request {
        Request {
            tenant: 0,
            seq,
            arrival: 0,
            deadline,
        }
    }

    #[test]
    fn admits_until_capacity_then_rejects() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.admit(req(0, 10)), Ok(1));
        assert_eq!(q.admit(req(1, 20)), Ok(2));
        assert_eq!(q.admit(req(2, 30)), Err(QueueFull { capacity: 2 }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pops_in_deadline_order_with_seq_tiebreak() {
        let mut q = BoundedQueue::new(8);
        for (seq, dl) in [(0u64, 50u64), (1, 10), (2, 10), (3, 40)] {
            q.admit(req(seq, dl)).expect("capacity");
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_earliest_deadline())
            .map(|r| r.seq)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    proptest::proptest! {
        /// Over random admit/pop sequences, the keyed queue admits,
        /// rejects and pops exactly as the linear earliest-deadline scan
        /// over an admission-order list does. Small deadline and `seq`
        /// ranges make ties, and repeated `(deadline, seq)` pairs, common.
        #[test]
        fn pops_in_the_linear_scan_order(
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u8..3, 0u64..6, 0u64..4), 0..64),
        ) {
            let mut queue = BoundedQueue::new(capacity);
            let mut scan: std::collections::VecDeque<Request> = Default::default();
            for (i, (op, deadline, seq)) in ops.into_iter().enumerate() {
                if op == 0 {
                    let popped = scan
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, r)| (r.deadline, r.seq))
                        .map(|(k, _)| k)
                        .and_then(|k| scan.remove(k));
                    proptest::prop_assert_eq!(queue.pop_earliest_deadline(), popped);
                } else {
                    let r = Request { arrival: i as u64, ..req(seq, deadline) };
                    let model = if scan.len() < capacity {
                        scan.push_back(r);
                        Ok(scan.len())
                    } else {
                        Err(QueueFull { capacity })
                    };
                    proptest::prop_assert_eq!(queue.admit(r), model);
                }
                proptest::prop_assert_eq!(queue.len(), scan.len());
            }
        }
    }

    #[test]
    fn pop_empty_is_none() {
        let mut q = BoundedQueue::new(1);
        assert_eq!(q.pop_earliest_deadline(), None);
    }
}
