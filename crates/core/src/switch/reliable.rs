//! Algorithm 3 — switch logic with packet-loss recovery (§3.5).
//!
//! Extends Algorithm 1 with two pieces of state:
//!
//! * a per-(version, slot) **`seen` bitmap** of which workers already
//!   contributed, so duplicate (retransmitted) updates are ignored;
//! * a **shadow copy**: two complete pools used in alternating phases,
//!   so a result lost on the downward path can be retransmitted even
//!   after other workers have begun reusing the slot in the other
//!   pool. Self-clocking guarantees no worker lags more than one phase
//!   behind, so one shadow copy suffices.
//!
//! The first contribution of a phase *overwrites* the slot (Algorithm
//! 3 line 10) — resetting and releasing slots implicitly, without a
//! separate cleanup pass, which is what makes the switch dataplane
//! simple enough for a single ingress pipeline.

use super::{SwitchStats, WireAction};
use crate::bitmap::WorkerBitmap;
use crate::config::Protocol;
use crate::error::{Error, Result};
use crate::packet::{
    encode_result_into, ElemOffset, PacketKind, PacketView, PoolVersion, ResultMeta, WireElems,
};

/// Per-(version, slot) aggregation state.
#[derive(Debug, Clone)]
struct Slot {
    value: Vec<i32>,
    count: usize,
    seen: WorkerBitmap,
    /// Offset of the phase currently (or last) aggregated in this
    /// slot. Not part of the paper's switch state — a cheap software
    /// tripwire that turns worker bugs into loud protocol violations
    /// instead of silently corrupted gradients.
    off: ElemOffset,
}

/// Read-only view of one (version, slot) aggregation cell. Exposed so
/// external invariant oracles ([`crate::oracle`]) and the
/// `switchml-check` model checker can compare the dataplane state
/// against a reference model without widening any mutable surface.
#[derive(Debug, Clone, Copy)]
pub struct CellView<'a> {
    /// Aggregated values (the shadow copy after completion).
    pub value: &'a [i32],
    /// Contribution counter, wrapped modulo n (0 after completion).
    pub count: usize,
    /// Which workers contributed to the phase in this cell.
    pub seen: WorkerBitmap,
    /// Element offset of the phase aggregated in this cell.
    pub off: ElemOffset,
}

/// The loss-tolerant aggregation core (Algorithm 3).
#[derive(Debug, Clone)]
pub struct ReliableSwitch {
    n: usize,
    k: usize,
    wrapping: bool,
    epoch: u8,
    /// pools[version][slot]
    pools: [Vec<Slot>; 2],
    stats: SwitchStats,
}

impl ReliableSwitch {
    pub fn new(proto: &Protocol) -> Result<Self> {
        proto.validate()?;
        let mk = || {
            (0..proto.pool_size)
                .map(|_| Slot {
                    value: vec![0; proto.k],
                    count: 0,
                    seen: WorkerBitmap::empty(),
                    off: 0,
                })
                .collect::<Vec<_>>()
        };
        Ok(ReliableSwitch {
            n: proto.n_workers,
            k: proto.k,
            wrapping: proto.wrapping_add,
            epoch: 0,
            pools: [mk(), mk()],
            stats: SwitchStats::default(),
        })
    }

    pub fn pool_size(&self) -> usize {
        self.pools[0].len()
    }

    pub fn n_workers(&self) -> usize {
        self.n
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn wrapping(&self) -> bool {
        self.wrapping
    }

    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The job generation this switch currently accepts (§5.4). Updates
    /// carrying any other epoch are counted-and-dropped at ingress.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Advance to a new job generation after a reconfiguration. Without
    /// this fence, a delayed update from the dead epoch could alias
    /// into a reused (version, slot) cell and be aggregated twice —
    /// the exact ABA hazard §3.5 excludes by bounding packet lifetime.
    pub fn set_epoch(&mut self, epoch: u8) {
        self.epoch = epoch;
    }

    /// Read-only view of the (version, slot) cell, for invariant
    /// oracles and state fingerprinting.
    ///
    /// # Panics
    /// If `idx >= pool_size()`.
    pub fn cell(&self, ver: PoolVersion, idx: usize) -> CellView<'_> {
        let slot = &self.pools[ver.index()][idx];
        CellView {
            value: &slot.value,
            count: slot.count,
            seen: slot.seen,
            off: slot.off,
        }
    }

    /// Algorithm 3's per-packet state transition. On
    /// [`Verdict::Completed`] and [`Verdict::Cached`] the slot's `value`
    /// holds the aggregate the caller must emit (it stays in place as
    /// the shadow copy).
    fn step(&mut self, v: &PacketView<'_>) -> Result<Verdict> {
        if v.kind() != PacketKind::Update {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("result packet sent to switch"));
        }
        let idx = v.idx() as usize;
        if idx >= self.pools[0].len() {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("slot index >= pool size"));
        }
        if v.n_elems() != self.k {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("element count != k"));
        }
        let wid = v.wid() as usize;
        if wid >= self.n {
            self.stats.rejected += 1;
            return Err(Error::OutOfRange("worker id >= n"));
        }
        let ver = v.ver().index();
        let other = 1 - ver;
        let off = v.off();
        let first = !self.pools[ver][idx].seen.contains(wid);
        let slot = &self.pools[ver][idx];
        if first && slot.count != 0 && slot.off != off {
            // Refused before any `seen` bit moves: a reject changes no
            // cell, so the worker's retransmissions are refused the
            // same way instead of being dropped as duplicates.
            self.stats.rejected += 1;
            return Err(Error::ProtocolViolation(format!(
                "slot {idx} ver {ver}: worker {wid} sent off {} but phase off is {}",
                off, slot.off
            )));
        }
        self.stats.updates += 1;

        if first {
            // First time this worker contributes to this phase.
            self.pools[ver][idx].seen.set(wid);
            self.pools[other][idx].seen.clear(wid);

            let slot = &mut self.pools[ver][idx];
            if slot.count == 0 {
                // First contribution of the phase overwrites (implicit
                // slot release of the phase before the shadow copy).
                v.overwrite_into(&mut slot.value);
                slot.off = off;
            } else {
                v.add_into(&mut slot.value, self.wrapping);
            }
            slot.count = (slot.count + 1) % self.n;

            if slot.count == 0 {
                // All n contributions in: emit the aggregate. The slot
                // retains the result as the shadow copy until the
                // other pool's phase completes.
                self.stats.completions += 1;
                Ok(Verdict::Completed)
            } else {
                Ok(Verdict::Drop)
            }
        } else {
            // Duplicate: this worker already contributed to this phase.
            self.stats.duplicates += 1;
            if self.pools[ver][idx].count == 0 {
                // Aggregation complete — the response must have been
                // lost; unicast the cached result back (Alg 3 line 21).
                self.stats.result_retx += 1;
                Ok(Verdict::Cached)
            } else {
                // Still aggregating; the original contribution is
                // already folded in. Ignore.
                Ok(Verdict::Drop)
            }
        }
    }

    /// Process one update in place — the switch's one ingress. Folds
    /// the view's elements straight into the slot registers and, when
    /// there is a result to send, encodes it into `out`.
    pub fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction> {
        if v.epoch() != self.epoch {
            self.stats.stale_epoch += 1;
            return Ok(WireAction::Drop);
        }
        let verdict = self.step(v)?;
        if verdict == Verdict::Drop {
            return Ok(WireAction::Drop);
        }
        let slot = &self.pools[v.ver().index()][v.idx() as usize];
        encode_result_into(ResultMeta::answering(v), &slot.value, out);
        Ok(match verdict {
            Verdict::Completed => WireAction::Multicast,
            _ => WireAction::Unicast(v.wid()),
        })
    }
}

/// Outcome of [`ReliableSwitch::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Aggregated or ignored; nothing to send.
    Drop,
    /// Slot just completed: multicast its value.
    Completed,
    /// Duplicate after completion: unicast the cached value.
    Cached,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload};
    use crate::switch::{Feed, SwitchAction};

    fn proto(n: usize, k: usize, s: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k,
            pool_size: s,
            ..Protocol::default()
        }
    }

    fn pkt(wid: u16, ver: PoolVersion, idx: u32, off: u64, v: Vec<i32>) -> Packet {
        Packet {
            kind: PacketKind::Update,
            wid,
            ver,
            idx,
            off,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(v),
        }
    }

    #[test]
    fn normal_completion() {
        let mut sw = ReliableSwitch::new(&proto(2, 2, 1)).unwrap();
        assert_eq!(
            sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![1, 2])).unwrap(),
            SwitchAction::Drop
        );
        match sw
            .feed(pkt(1, PoolVersion::V0, 0, 0, vec![10, 20]))
            .unwrap()
        {
            SwitchAction::Multicast(p) => {
                assert_eq!(p.payload, Payload::I32(vec![11, 22]));
                assert_eq!(p.kind, PacketKind::Result);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_before_completion_is_ignored() {
        // Upward-path loss scenario, Appendix A t4/t5: retransmissions
        // of already-aggregated updates are ignored, not double-added.
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![5])).unwrap();
        // Worker 0 times out and retransmits; must be ignored.
        assert_eq!(
            sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![5])).unwrap(),
            SwitchAction::Drop
        );
        assert_eq!(sw.stats().duplicates, 1);
        match sw.feed(pkt(1, PoolVersion::V0, 0, 0, vec![7])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![12])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_after_completion_gets_unicast_result() {
        // Downward-path loss, Appendix A t7/t8: the worker that missed
        // the multicast retransmits and receives a unicast result.
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![5])).unwrap();
        sw.feed(pkt(1, PoolVersion::V0, 0, 0, vec![7])).unwrap();
        match sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![5])).unwrap() {
            SwitchAction::Unicast(wid, p) => {
                assert_eq!(wid, 0);
                assert_eq!(p.payload, Payload::I32(vec![12]));
                assert_eq!(p.kind, PacketKind::Result);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.stats().result_retx, 1);
    }

    #[test]
    fn shadow_copy_survives_slot_reuse() {
        // The laggard's result is retransmittable even after the other
        // workers advanced the slot to the next phase in pool 1.
        let mut sw = ReliableSwitch::new(&proto(3, 1, 1)).unwrap();
        let v0 = PoolVersion::V0;
        let v1 = PoolVersion::V1;
        // Phase 0 completes in pool 0 (assume worker 2's result copy is
        // lost on the downward path).
        sw.feed(pkt(0, v0, 0, 0, vec![1])).unwrap();
        sw.feed(pkt(1, v0, 0, 0, vec![2])).unwrap();
        sw.feed(pkt(2, v0, 0, 0, vec![3])).unwrap();
        // Workers 0 and 1 move on: phase 1 uses pool 1, same slot.
        sw.feed(pkt(0, v1, 0, 10, vec![10])).unwrap();
        sw.feed(pkt(1, v1, 0, 10, vec![20])).unwrap();
        // Worker 2 retransmits phase 0: pool 0 still holds the result.
        match sw.feed(pkt(2, v0, 0, 0, vec![3])).unwrap() {
            SwitchAction::Unicast(wid, p) => {
                assert_eq!(wid, 2);
                assert_eq!(p.payload, Payload::I32(vec![6]));
            }
            other => panic!("{other:?}"),
        }
        // Worker 2 then contributes to phase 1, completing it.
        match sw.feed(pkt(2, v1, 0, 10, vec![30])).unwrap() {
            SwitchAction::Multicast(p) => {
                assert_eq!(p.payload, Payload::I32(vec![60]));
                assert_eq!(p.ver, v1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn first_contribution_overwrites_stale_shadow() {
        // After phases 0 and 1 complete, reusing pool 0 must not leak
        // phase-0 values into phase 2.
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        let (v0, v1) = (PoolVersion::V0, PoolVersion::V1);
        sw.feed(pkt(0, v0, 0, 0, vec![100])).unwrap();
        sw.feed(pkt(1, v0, 0, 0, vec![100])).unwrap(); // phase 0 done, pool0 = 200
        sw.feed(pkt(0, v1, 0, 5, vec![7])).unwrap();
        sw.feed(pkt(1, v1, 0, 5, vec![7])).unwrap(); // phase 1 done
        sw.feed(pkt(0, v0, 0, 9, vec![1])).unwrap(); // phase 2 overwrites
        match sw.feed(pkt(1, v0, 0, 9, vec![2])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![3])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn seen_bit_cleared_in_other_pool() {
        // Contributing to version v clears the worker's bit in the
        // other pool, so phase parity alternation works indefinitely.
        let mut sw = ReliableSwitch::new(&proto(1, 1, 1)).unwrap();
        let (v0, v1) = (PoolVersion::V0, PoolVersion::V1);
        for phase in 0u64..6 {
            let ver = if phase % 2 == 0 { v0 } else { v1 };
            match sw.feed(pkt(0, ver, 0, phase, vec![phase as i32])).unwrap() {
                SwitchAction::Multicast(p) => {
                    assert_eq!(p.payload, Payload::I32(vec![phase as i32]))
                }
                other => panic!("phase {phase}: {other:?}"),
            }
        }
        assert_eq!(sw.stats().completions, 6);
        assert_eq!(sw.stats().duplicates, 0);
    }

    #[test]
    fn offset_mismatch_is_a_protocol_violation() {
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![1])).unwrap();
        let err = sw
            .feed(pkt(1, PoolVersion::V0, 0, 999, vec![1]))
            .unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)));
    }

    /// A refused update changes nothing: with slot 0 seeded by worker 0
    /// at offset 0, worker 1's update at another offset leaves both
    /// pools' cells as they were, and its retransmission is refused and
    /// counted again rather than dropped as a duplicate.
    #[test]
    fn offset_reject_leaves_every_cell_unchanged() {
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        let (v0, v1) = (PoolVersion::V0, PoolVersion::V1);
        sw.feed(pkt(0, v0, 0, 0, vec![1])).unwrap();
        let cells = |sw: &ReliableSwitch| {
            [v0, v1].map(|ver| {
                let c = sw.cell(ver, 0);
                (c.value.to_vec(), c.count, c.seen, c.off)
            })
        };
        let before = cells(&sw);
        for attempt in 1..=2 {
            let err = sw.feed(pkt(1, v0, 0, 999, vec![1])).unwrap_err();
            assert!(matches!(err, Error::ProtocolViolation(_)));
            assert_eq!(cells(&sw), before, "attempt {attempt}");
            assert_eq!(sw.stats().rejected, attempt);
        }
        assert_eq!((sw.stats().updates, sw.stats().duplicates), (1, 0));
        // The genuine update still completes the phase.
        match sw.feed(pkt(1, v0, 0, 0, vec![2])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![3])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn works_with_single_worker() {
        // Degenerate n = 1: every packet completes immediately.
        let mut sw = ReliableSwitch::new(&proto(1, 2, 4)).unwrap();
        match sw.feed(pkt(0, PoolVersion::V0, 2, 8, vec![4, 5])).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![4, 5])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_epoch_update_is_counted_and_dropped() {
        // §5.4: a delayed update from epoch e targeting the same
        // (version, slot) after reconfiguration to e+1 must be fenced —
        // neither aggregated, nor answered with a cached result, nor
        // allowed to flip seen bits.
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![5])).unwrap();
        sw.set_epoch(1);
        let stale = pkt(1, PoolVersion::V0, 0, 0, vec![9]);
        assert_eq!(sw.feed(stale).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.stats().stale_epoch, 1);
        let cell = sw.cell(PoolVersion::V0, 0);
        assert_eq!(cell.value, &[5]);
        assert_eq!(cell.count, 1);
        assert!(!cell.seen.contains(1));
        // Wire path fences the same traffic identically.
        let mut scratch = Vec::new();
        let bytes = pkt(1, PoolVersion::V0, 0, 0, vec![9]).encode();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(sw.on_view(&view, &mut scratch).unwrap(), WireAction::Drop);
        assert_eq!(sw.stats().stale_epoch, 2);
        assert_eq!(sw.stats().updates, 1);
        assert_eq!(sw.stats().duplicates, 0);
    }

    #[test]
    fn current_epoch_update_passes_the_fence() {
        let mut sw = ReliableSwitch::new(&proto(2, 1, 1)).unwrap();
        sw.set_epoch(3);
        let mut p = pkt(0, PoolVersion::V0, 0, 0, vec![1]);
        p.epoch = 3;
        assert_eq!(sw.feed(p).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.stats().updates, 1);
        let mut q = pkt(1, PoolVersion::V0, 0, 0, vec![2]);
        q.epoch = 3;
        match sw.feed(q).unwrap() {
            SwitchAction::Multicast(r) => {
                assert_eq!(r.payload, Payload::I32(vec![3]));
                // Results are stamped with the epoch they completed in.
                assert_eq!(r.epoch, 3);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.stats().stale_epoch, 0);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut sw = ReliableSwitch::new(&proto(2, 2, 2)).unwrap();
        assert!(sw.feed(pkt(0, PoolVersion::V0, 7, 0, vec![1, 2])).is_err());
        assert!(sw.feed(pkt(9, PoolVersion::V0, 0, 0, vec![1, 2])).is_err());
        assert!(sw.feed(pkt(0, PoolVersion::V0, 0, 0, vec![1])).is_err());
    }
}
