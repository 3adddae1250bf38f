//! End-host processing model.
//!
//! The paper's performance story hinges on *per-packet host cost*: a
//! DPDK worker core sustains ~10 Gbps of 180-byte SwitchML packets,
//! Gloo/NCCL over kernel TCP pay microseconds per MTU packet, and the
//! 100 Gbps runs are host-bound ("our results at 100 Gbps are a lower
//! bound" with 4 cores). [`HostModel`] captures exactly that: each
//! received packet occupies one core for a fixed service time before
//! the protocol logic runs; work is spread over `n_cores` (the paper's
//! Flow Director sharding), and anything not yet due waits in a queue.
//!
//! Generic over the queued item so the SwitchML nodes queue received
//! frames and the baseline collectives queue their own messages.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use switchml_netsim::time::Nanos;

struct Pending<T> {
    release: Nanos,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.release, self.seq) == (other.release, other.seq)
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release, self.seq).cmp(&(other.release, other.seq))
    }
}

/// Per-packet CPU service with `n_cores` parallel servers.
pub struct HostModel<T> {
    cost: Nanos,
    cores: Vec<Nanos>,
    queue: BinaryHeap<Reverse<Pending<T>>>,
    seq: u64,
}

impl<T> HostModel<T> {
    /// `cost` is the CPU time one packet occupies on its core; zero
    /// models hardware (ASIC) processing with no host involvement.
    pub fn new(n_cores: usize, cost: Nanos) -> Self {
        assert!(n_cores > 0, "need at least one core");
        HostModel {
            cost,
            cores: vec![Nanos::ZERO; n_cores],
            queue: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// True when processing is free (items should bypass the queue).
    pub fn is_instant(&self) -> bool {
        self.cost == Nanos::ZERO
    }

    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Queue an item on `core` (dispatch is the caller's policy —
    /// slot-based for workers, any-core for round-robin). Returns the
    /// time the item will be ready to process.
    pub fn enqueue(&mut self, now: Nanos, core: usize, item: T) -> Nanos {
        let core = core % self.cores.len();
        let start = self.cores[core].max(now);
        let release = start + self.cost;
        self.cores[core] = release;
        self.seq += 1;
        self.queue.push(Reverse(Pending {
            release,
            seq: self.seq,
            item,
        }));
        release
    }

    /// Pop the next item whose service completed by `now`.
    pub fn pop_due(&mut self, now: Nanos) -> Option<T> {
        if self.queue.peek().is_some_and(|Reverse(p)| p.release <= now) {
            self.queue.pop().map(|Reverse(p)| p.item)
        } else {
            None
        }
    }

    /// When the earliest queued item becomes due.
    pub fn next_release(&self) -> Option<Nanos> {
        self.queue.peek().map(|Reverse(p)| p.release)
    }

    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_serializes() {
        let mut h: HostModel<u32> = HostModel::new(1, Nanos(100));
        assert_eq!(h.enqueue(Nanos(0), 0, 1), Nanos(100));
        assert_eq!(h.enqueue(Nanos(0), 0, 2), Nanos(200));
        assert_eq!(h.enqueue(Nanos(500), 0, 3), Nanos(600)); // idle gap
        assert_eq!(h.pop_due(Nanos(99)), None);
        assert_eq!(h.pop_due(Nanos(100)), Some(1));
        assert_eq!(h.next_release(), Some(Nanos(200)));
    }

    #[test]
    fn cores_work_in_parallel() {
        let mut h: HostModel<u32> = HostModel::new(4, Nanos(100));
        for i in 0..4 {
            assert_eq!(h.enqueue(Nanos(0), i as usize, i), Nanos(100));
        }
        // A fifth packet on core 0 waits behind the first.
        assert_eq!(h.enqueue(Nanos(0), 0, 9), Nanos(200));
        assert_eq!(h.backlog(), 5);
    }

    #[test]
    fn core_index_wraps() {
        let mut h: HostModel<u32> = HostModel::new(2, Nanos(10));
        assert_eq!(h.enqueue(Nanos(0), 5, 7), Nanos(10)); // 5 % 2 = core 1
        assert_eq!(h.enqueue(Nanos(0), 1, 8), Nanos(20));
    }

    #[test]
    fn instant_model() {
        let h: HostModel<u32> = HostModel::new(1, Nanos::ZERO);
        assert!(h.is_instant());
    }

    #[test]
    fn fifo_within_same_release() {
        let mut h: HostModel<u32> = HostModel::new(2, Nanos(50));
        h.enqueue(Nanos(0), 0, 1);
        h.enqueue(Nanos(0), 1, 2);
        assert_eq!(h.pop_due(Nanos(50)), Some(1));
        assert_eq!(h.pop_due(Nanos(50)), Some(2));
        assert_eq!(h.pop_due(Nanos(50)), None);
    }
}
