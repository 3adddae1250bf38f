//! Algorithm 1 — switch logic without loss recovery.
//!
//! ```text
//! Initialize State:
//!   n = number of workers
//!   pool[s], count[s] := {0}
//! upon receive p(idx, off, vector)
//!   pool[p.idx] ← pool[p.idx] + p.vector
//!   count[p.idx]++
//!   if count[p.idx] = n then
//!     p.vector ← pool[p.idx]
//!     pool[p.idx] ← 0; count[p.idx] ← 0
//!     multicast p
//!   else
//!     drop p
//! ```
//!
//! Valid only on a lossless fabric ("a SwitchML instance running in a
//! lossless network such as Infiniband or lossless RoCE", §3.2).

use super::{SwitchStats, WireAction};
use crate::config::Protocol;
use crate::error::{Error, Result};
use crate::packet::{encode_result_into, PacketKind, PacketView, ResultMeta, WireElems};

/// The lossless-network aggregation core.
#[derive(Debug, Clone)]
pub struct BasicSwitch {
    n: usize,
    k: usize,
    wrapping: bool,
    epoch: u8,
    pool: Vec<Vec<i32>>,
    count: Vec<usize>,
    stats: SwitchStats,
}

impl BasicSwitch {
    pub fn new(proto: &Protocol) -> Result<Self> {
        proto.validate()?;
        Ok(BasicSwitch {
            n: proto.n_workers,
            k: proto.k,
            wrapping: proto.wrapping_add,
            epoch: 0,
            pool: vec![vec![0; proto.k]; proto.pool_size],
            count: vec![0; proto.pool_size],
            stats: SwitchStats::default(),
        })
    }

    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    pub fn n_workers(&self) -> usize {
        self.n
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Read-only view of one slot's aggregator and counter, for
    /// invariant oracles and state fingerprinting.
    ///
    /// # Panics
    /// If `idx >= pool_size()`.
    pub fn slot(&self, idx: usize) -> (&[i32], usize) {
        (&self.pool[idx], self.count[idx])
    }

    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The job generation this switch currently accepts (§5.4). Updates
    /// carrying any other epoch are counted-and-dropped at ingress.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Advance to a new job generation after a reconfiguration. In-flight
    /// traffic stamped with the old epoch can no longer reach the slots,
    /// which is what makes slot reuse across the reconfiguration safe
    /// (discharges §3.5's bounded-packet-lifetime assumption).
    pub fn set_epoch(&mut self, epoch: u8) {
        self.epoch = epoch;
    }

    /// Algorithm 1's per-packet state transition. Folds the update into
    /// its slot; on the n-th contribution returns `true` with the
    /// aggregate left in `pool[idx]` — the caller emits it, then resets
    /// the slot via [`Self::release_slot`].
    fn step(&mut self, v: &PacketView<'_>) -> Result<bool> {
        if v.kind() != PacketKind::Update {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("result packet sent to switch"));
        }
        let idx = v.idx() as usize;
        if idx >= self.pool.len() {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("slot index >= pool size"));
        }
        if v.n_elems() != self.k {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("element count != k"));
        }
        if (v.wid() as usize) >= self.n {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("worker id >= n"));
        }
        self.stats.updates += 1;

        v.add_into(&mut self.pool[idx], self.wrapping);
        self.count[idx] += 1;

        if self.count[idx] == self.n {
            self.count[idx] = 0;
            self.stats.completions += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Zero a completed slot once its aggregate has been emitted.
    fn release_slot(&mut self, idx: usize) {
        self.pool[idx].iter_mut().for_each(|x| *x = 0);
    }

    /// Process one update in place — the switch's one ingress.
    /// Aggregates the view's elements straight into the slot registers
    /// and, on completion, encodes the result packet into `out`.
    pub fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction> {
        if v.epoch() != self.epoch {
            self.stats.stale_epoch += 1;
            return Ok(WireAction::Drop);
        }
        if self.step(v)? {
            let idx = v.idx() as usize;
            encode_result_into(ResultMeta::answering(v), &self.pool[idx], out);
            self.release_slot(idx);
            Ok(WireAction::Multicast)
        } else {
            Ok(WireAction::Drop)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload, PoolVersion};
    use crate::switch::{Feed, SwitchAction};

    fn proto(n: usize, k: usize, s: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k,
            pool_size: s,
            ..Protocol::default()
        }
    }

    fn update(wid: u16, idx: u32, off: u64, v: Vec<i32>) -> Packet {
        Packet::update(wid, PoolVersion::V0, idx, off, v)
    }

    #[test]
    fn aggregates_and_multicasts_on_nth() {
        let mut sw = BasicSwitch::new(&proto(3, 4, 2)).unwrap();
        assert_eq!(
            sw.feed(update(0, 0, 0, vec![1, 2, 3, 4])).unwrap(),
            SwitchAction::Drop
        );
        assert_eq!(
            sw.feed(update(1, 0, 0, vec![10, 20, 30, 40])).unwrap(),
            SwitchAction::Drop
        );
        match sw.feed(update(2, 0, 0, vec![100, 200, 300, 400])).unwrap() {
            SwitchAction::Multicast(p) => {
                assert_eq!(p.payload, Payload::I32(vec![111, 222, 333, 444]));
                assert_eq!(p.kind, PacketKind::Result);
                assert_eq!(p.idx, 0);
            }
            other => panic!("expected multicast, got {other:?}"),
        }
        assert_eq!(sw.stats().completions, 1);
    }

    #[test]
    fn slot_resets_for_reuse() {
        let mut sw = BasicSwitch::new(&proto(2, 2, 1)).unwrap();
        sw.feed(update(0, 0, 0, vec![5, 5])).unwrap();
        sw.feed(update(1, 0, 0, vec![5, 5])).unwrap();
        // Second phase on the same slot starts from zero.
        sw.feed(update(0, 0, 4, vec![1, 1])).unwrap();
        match sw.feed(update(1, 0, 4, vec![2, 2])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![3, 3])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut sw = BasicSwitch::new(&proto(2, 1, 4)).unwrap();
        sw.feed(update(0, 0, 0, vec![1])).unwrap();
        sw.feed(update(0, 3, 3, vec![7])).unwrap();
        match sw.feed(update(1, 3, 3, vec![1])).unwrap() {
            SwitchAction::Multicast(p) => {
                assert_eq!(p.idx, 3);
                assert_eq!(p.payload, Payload::I32(vec![8]));
            }
            other => panic!("{other:?}"),
        }
        // Slot 0 still waiting on worker 1.
        match sw.feed(update(1, 0, 0, vec![2])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![3])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_does_not_matter() {
        // Addition is commutative/associative: any arrival order gives
        // the same aggregate.
        let orders: [[u16; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        for order in orders {
            let mut sw = BasicSwitch::new(&proto(3, 1, 1)).unwrap();
            let mut result = None;
            for wid in order {
                let v = vec![(wid as i32 + 1) * 10];
                if let SwitchAction::Multicast(p) = sw.feed(update(wid, 0, 0, v)).unwrap() {
                    result = Some(p.payload);
                }
            }
            assert_eq!(result, Some(Payload::I32(vec![60])));
        }
    }

    #[test]
    fn rejects_bad_fields() {
        let mut sw = BasicSwitch::new(&proto(2, 2, 2)).unwrap();
        assert!(sw.feed(update(0, 9, 0, vec![1, 2])).is_err()); // bad slot
        assert!(sw.feed(update(5, 0, 0, vec![1, 2])).is_err()); // bad wid
        assert!(sw.feed(update(0, 0, 0, vec![1])).is_err()); // bad k
        assert_eq!(sw.stats().rejected, 3);
    }

    #[test]
    fn stale_epoch_update_is_counted_and_dropped() {
        // A delayed update stamped with epoch e, arriving after the
        // switch has been reconfigured to e+1, must not touch the slot —
        // same slot/version or not (§5.4 fence).
        let mut sw = BasicSwitch::new(&proto(2, 2, 2)).unwrap();
        sw.feed(update(0, 0, 0, vec![1, 1])).unwrap();
        sw.set_epoch(1);
        // The laggard from epoch 0 targets the same slot.
        let stale = update(1, 0, 0, vec![9, 9]);
        assert_eq!(stale.epoch, 0);
        assert_eq!(sw.feed(stale).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.stats().stale_epoch, 1);
        // The slot still holds only worker 0's epoch-0 contribution;
        // completing it at the new epoch aggregates from that state
        // untouched by the laggard.
        let (slot, count) = sw.slot(0);
        assert_eq!((slot, count), (&[1, 1][..], 1));
        // The wire path fences identically.
        let mut scratch = Vec::new();
        let bytes = update(1, 1, 8, vec![3, 3]).encode();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(sw.on_view(&view, &mut scratch).unwrap(), WireAction::Drop);
        assert_eq!(sw.stats().stale_epoch, 2);
        assert_eq!(sw.stats().updates, 1);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut sw = BasicSwitch::new(&proto(2, 1, 1)).unwrap();
        sw.feed(update(0, 0, 0, vec![i32::MAX])).unwrap();
        match sw.feed(update(1, 0, 0, vec![1])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![i32::MAX])),
            other => panic!("{other:?}"),
        }
    }
}
