//! Multi-job (tenancy) support — §6 "Multi-job (tenancy)".
//!
//! "Every job requires a separate pool of aggregators to ensure
//! correctness … an admission mechanism would be needed to control the
//! assignment of jobs to pools." This module is that admission
//! mechanism plus the per-job pool demultiplexer: packets carry a job
//! id, and each admitted job gets its own [`ReliableSwitch`] pool,
//! bounded by the modeled switch SRAM budget.

use super::pipeline::PipelineModel;
use super::reliable::ReliableSwitch;
use super::{SwitchAction, SwitchStats, WireAction};
use crate::config::Protocol;
use crate::error::{Error, Result};
use crate::packet::{Packet, PacketView};
use std::collections::HashMap;

/// A job's contiguous range in the switch's global slot address space:
/// physical aggregator slots `[base, base + len)`. Packet slot indices
/// are job-relative; `base + idx` is the physical slot a packet
/// touches, which is what the tenancy isolation argument is about — no
/// two live jobs may ever own the same physical slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRange {
    pub base: u32,
    pub len: u32,
}

impl SlotRange {
    pub fn contains(&self, slot: u32) -> bool {
        slot >= self.base && slot - self.base < self.len
    }

    pub fn overlaps(&self, other: &SlotRange) -> bool {
        self.base < other.base + other.len && other.base < self.base + self.len
    }
}

/// One admitted job: its aggregation pool, the configuration it was
/// admitted under, and the SRAM cost recorded at admission time.
#[derive(Debug, Clone)]
struct JobEntry {
    switch: ReliableSwitch,
    proto: Protocol,
    /// Register bytes charged at `admit`; released verbatim at `evict`
    /// so accounting can never drift from a caller-supplied proto.
    committed: usize,
    /// Physical slot range assigned at admission (first-fit).
    range: SlotRange,
}

/// A switch dataplane hosting several independent aggregation jobs.
#[derive(Debug, Clone)]
pub struct MultiJobSwitch {
    pipeline: PipelineModel,
    jobs: HashMap<u8, JobEntry>,
    /// Register bytes already committed to admitted jobs.
    committed_bytes: usize,
}

impl MultiJobSwitch {
    pub fn new(pipeline: PipelineModel) -> Self {
        MultiJobSwitch {
            pipeline,
            jobs: HashMap::new(),
            committed_bytes: 0,
        }
    }

    /// Admit a job: validates the configuration against the pipeline
    /// model *including* the pools already committed to other jobs.
    pub fn admit(&mut self, job: u8, proto: &Protocol) -> Result<()> {
        if self.jobs.contains_key(&job) {
            return Err(Error::InvalidConfig(format!("job {job} already admitted")));
        }
        let report = self.pipeline.validate(proto)?;
        let needed = report.pool_bytes + report.bookkeeping_bytes;
        if self.committed_bytes + needed > self.pipeline.register_sram_bytes {
            return Err(Error::InvalidConfig(format!(
                "admitting job {job} needs {needed} B but only {} B of register SRAM remain",
                self.pipeline.register_sram_bytes - self.committed_bytes
            )));
        }
        let range = self.alloc_range(proto.pool_size as u32, None);
        self.check_disjoint(job, range)?;
        self.jobs.insert(
            job,
            JobEntry {
                switch: ReliableSwitch::new(proto)?,
                proto: proto.clone(),
                committed: needed,
                range,
            },
        );
        self.committed_bytes += needed;
        Ok(())
    }

    /// First-fit allocation in the global slot address space: the
    /// lowest base at which `len` slots fit between the ranges of live
    /// jobs (excluding `skip`, used when a job's own range is being
    /// replaced). The address space itself is unbounded — admission is
    /// bounded by the SRAM byte ledger, not by slot numbering.
    fn alloc_range(&self, len: u32, skip: Option<u8>) -> SlotRange {
        let mut ranges: Vec<SlotRange> = self
            .jobs
            .iter()
            .filter(|(id, _)| Some(**id) != skip)
            .map(|(_, e)| e.range)
            .collect();
        ranges.sort_unstable_by_key(|r| r.base);
        let mut base = 0u32;
        for r in &ranges {
            if base + len <= r.base {
                break;
            }
            base = base.max(r.base + r.len);
        }
        SlotRange { base, len }
    }

    /// The slot-disjointness check: a candidate range for `job` must
    /// not overlap any other live job's physical slots. First-fit
    /// allocation satisfies this by construction; the check is kept
    /// explicit because it *is* the tenancy isolation invariant — a
    /// partitioner that skips it hands two tenants the same aggregator
    /// registers and their gradients sum into each other.
    fn check_disjoint(&self, job: u8, range: SlotRange) -> Result<()> {
        for (&other, entry) in &self.jobs {
            if other != job && entry.range.overlaps(&range) {
                return Err(Error::InvalidConfig(format!(
                    "job {job} slot range [{}, {}) overlaps live job {other}'s [{}, {})",
                    range.base,
                    range.base + range.len,
                    entry.range.base,
                    entry.range.base + entry.range.len,
                )));
            }
        }
        Ok(())
    }

    /// Tear down a job, releasing exactly the bytes recorded at
    /// admission.
    pub fn evict(&mut self, job: u8) -> Result<()> {
        let entry = self
            .jobs
            .remove(&job)
            .ok_or_else(|| Error::InvalidConfig(format!("job {job} not admitted")))?;
        self.committed_bytes = self.committed_bytes.saturating_sub(entry.committed);
        Ok(())
    }

    /// Replace a job's pool with a fresh one under `proto` (same or
    /// different worker count / pool size), atomically: on any failure
    /// the job keeps its old pool and accounting is unchanged. This is
    /// the live-reconfiguration primitive — after quiescing a job, the
    /// control plane shrinks n and restarts aggregation on clean slots.
    pub fn reset_job(&mut self, job: u8, proto: &Protocol) -> Result<()> {
        let old_committed = match self.jobs.get(&job) {
            Some(entry) => entry.committed,
            None => return Err(Error::InvalidConfig(format!("job {job} not admitted"))),
        };
        let report = self.pipeline.validate(proto)?;
        let needed = report.pool_bytes + report.bookkeeping_bytes;
        let without_old = self.committed_bytes.saturating_sub(old_committed);
        if without_old + needed > self.pipeline.register_sram_bytes {
            return Err(Error::InvalidConfig(format!(
                "resizing job {job} needs {needed} B but only {} B of register SRAM remain",
                self.pipeline.register_sram_bytes - without_old
            )));
        }
        let switch = ReliableSwitch::new(proto)?;
        // The old range is freed and a fresh one allocated first-fit;
        // a shrink commonly keeps its base, a grow may relocate.
        let range = self.alloc_range(proto.pool_size as u32, Some(job));
        self.check_disjoint(job, range)?;
        self.jobs.insert(
            job,
            JobEntry {
                switch,
                proto: proto.clone(),
                committed: needed,
                range,
            },
        );
        self.committed_bytes = without_old + needed;
        Ok(())
    }

    /// Number of admitted jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Read-only access to a job's aggregation pool, for invariant
    /// oracles and state fingerprinting.
    pub fn job_switch(&self, job: u8) -> Option<&ReliableSwitch> {
        self.jobs.get(&job).map(|e| &e.switch)
    }

    /// Ids of admitted jobs, ascending (deterministic for drain loops).
    pub fn job_ids(&self) -> Vec<u8> {
        let mut ids: Vec<u8> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The configuration a job was admitted under.
    pub fn job_proto(&self, job: u8) -> Option<&Protocol> {
        self.jobs.get(&job).map(|e| &e.proto)
    }

    /// The physical slot range a job was assigned.
    pub fn slot_range(&self, job: u8) -> Option<SlotRange> {
        self.jobs.get(&job).map(|e| e.range)
    }

    /// The full partition map: `(job, range)` for every live job,
    /// ascending by base — the scheduler-facing view of who owns which
    /// physical aggregator slots.
    pub fn partition(&self) -> Vec<(u8, SlotRange)> {
        let mut out: Vec<(u8, SlotRange)> = self.jobs.iter().map(|(&j, e)| (j, e.range)).collect();
        out.sort_unstable_by_key(|(_, r)| r.base);
        out
    }

    /// Does the current partition assign every physical slot to at
    /// most one live job? True by construction; exposed so invariant
    /// checkers (and the proptest harness) can audit the ledger rather
    /// than trust it.
    pub fn partition_is_disjoint(&self) -> bool {
        let p = self.partition();
        p.windows(2).all(|w| !w[0].1.overlaps(&w[1].1))
    }

    /// Register bytes currently committed.
    pub fn committed_bytes(&self) -> usize {
        self.committed_bytes
    }

    /// Register bytes still available for admission.
    pub fn remaining_bytes(&self) -> usize {
        self.pipeline
            .register_sram_bytes
            .saturating_sub(self.committed_bytes)
    }

    /// [`Self::on_view`] over an owned packet: encodes it, runs the
    /// view ingress and decodes the response. An adapter, not a second
    /// switch program; its one caller is the benchmark's traced
    /// pipeline, which prices the owned codec against `on_view`.
    pub fn on_packet(&mut self, pkt: Packet) -> Result<SwitchAction> {
        super::through_wire(&pkt, |v, out| self.on_view(v, out))
    }

    /// Route a borrowed wire view to its job's pool — tenants ride the
    /// single-job ingress
    /// ([`ReliableSwitch::on_view`]), not a second switch program.
    pub fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction> {
        self.jobs
            .get_mut(&v.job())
            .ok_or(Error::OutOfRange("packet for an unadmitted job"))?
            .switch
            .on_view(v, out)
    }

    /// Advance one job's epoch fence (§5.4). The control plane calls
    /// this alongside [`Self::reset_job`] during reconfiguration so
    /// in-flight traffic from the previous generation cannot reach the
    /// fresh pool.
    pub fn set_job_epoch(&mut self, job: u8, epoch: u8) -> Result<()> {
        self.jobs
            .get_mut(&job)
            .ok_or(Error::OutOfRange("epoch for an unadmitted job"))?
            .switch
            .set_epoch(epoch);
        Ok(())
    }

    /// Per-job counters.
    pub fn stats(&self, job: u8) -> Option<SwitchStats> {
        self.jobs.get(&job).map(|e| e.switch.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::pool_register_bytes;
    use crate::packet::{PacketKind, Payload, PoolVersion};

    fn proto(n: usize, s: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 32,
            pool_size: s,
            ..Protocol::default()
        }
    }

    fn pkt(job: u8, wid: u16, idx: u32, v: i32) -> Packet {
        Packet {
            kind: PacketKind::Update,
            wid,
            ver: PoolVersion::V0,
            idx,
            off: idx as u64 * 32,
            job,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(vec![v; 32]),
        }
    }

    #[test]
    fn jobs_aggregate_independently() {
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        sw.admit(1, &proto(2, 8)).unwrap();
        sw.admit(2, &proto(3, 8)).unwrap();
        assert_eq!(sw.job_count(), 2);

        // Job 1 completes with 2 contributions; job 2 needs 3.
        assert_eq!(sw.on_packet(pkt(1, 0, 0, 5)).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.on_packet(pkt(2, 0, 0, 100)).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.on_packet(pkt(2, 1, 0, 100)).unwrap(), SwitchAction::Drop);
        match sw.on_packet(pkt(1, 1, 0, 7)).unwrap() {
            SwitchAction::Multicast(p) => {
                assert_eq!(p.job, 1);
                assert_eq!(p.payload, Payload::I32(vec![12; 32]));
            }
            other => panic!("{other:?}"),
        }
        match sw.on_packet(pkt(2, 2, 0, 100)).unwrap() {
            SwitchAction::Multicast(p) => {
                assert_eq!(p.job, 2);
                assert_eq!(p.payload, Payload::I32(vec![300; 32]));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.stats(1).unwrap().completions, 1);
        assert_eq!(sw.stats(2).unwrap().completions, 1);
    }

    #[test]
    fn unadmitted_job_rejected() {
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        assert!(sw.on_packet(pkt(9, 0, 0, 1)).is_err());
        assert!(sw.admit(1, &proto(2, 8)).is_ok());
        assert!(sw.admit(1, &proto(2, 8)).is_err(), "double admission");
    }

    #[test]
    fn admission_respects_sram_budget() {
        let model = PipelineModel {
            register_sram_bytes: 300 * 1024,
            ..PipelineModel::default()
        };
        let mut sw = MultiJobSwitch::new(model);
        // Each 512-slot pool costs 128 KB + bookkeeping (~36 KB).
        sw.admit(0, &proto(8, 512)).unwrap();
        assert_eq!(
            sw.committed_bytes(),
            pool_register_bytes(512, 32) + 2 * 512 * 36
        );
        assert!(sw.admit(1, &proto(8, 512)).is_err(), "budget exhausted");
        // A smaller job still fits.
        sw.admit(1, &proto(8, 64)).unwrap();
        // Evicting frees budget.
        sw.evict(0).unwrap();
        sw.admit(2, &proto(8, 512)).unwrap();
        assert!(sw.evict(9).is_err());
    }

    #[test]
    fn evict_releases_exactly_the_admitted_bytes() {
        // Regression: evict used to recompute the released amount from
        // a caller-supplied proto, so a mismatched proto corrupted the
        // ledger. Now the amount recorded at admit time is released.
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        sw.admit(0, &proto(8, 512)).unwrap();
        let big = sw.committed_bytes();
        sw.admit(1, &proto(8, 64)).unwrap();
        let small = sw.committed_bytes() - big;
        sw.evict(0).unwrap();
        assert_eq!(sw.committed_bytes(), small);
        sw.evict(1).unwrap();
        assert_eq!(sw.committed_bytes(), 0);
        assert_eq!(sw.job_count(), 0);
    }

    #[test]
    fn reset_job_swaps_pool_and_reaccounts() {
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        sw.admit(0, &proto(4, 512)).unwrap();
        let before = sw.committed_bytes();
        assert_eq!(sw.job_proto(0).unwrap().n_workers, 4);

        // Shrink to 3 workers on a smaller pool: accounting follows.
        sw.reset_job(0, &proto(3, 64)).unwrap();
        assert!(sw.committed_bytes() < before);
        assert_eq!(sw.job_proto(0).unwrap().n_workers, 3);
        assert_eq!(sw.job_ids(), vec![0]);

        // The fresh pool aggregates under the new n.
        assert_eq!(sw.on_packet(pkt(0, 0, 0, 1)).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.on_packet(pkt(0, 1, 0, 1)).unwrap(), SwitchAction::Drop);
        match sw.on_packet(pkt(0, 2, 0, 1)).unwrap() {
            SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![3; 32])),
            other => panic!("{other:?}"),
        }

        // Unknown job refused; state untouched.
        assert!(sw.reset_job(7, &proto(2, 8)).is_err());
    }

    #[test]
    fn partition_is_first_fit_and_disjoint() {
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        sw.admit(0, &proto(2, 64)).unwrap();
        sw.admit(1, &proto(2, 32)).unwrap();
        sw.admit(2, &proto(2, 16)).unwrap();
        assert_eq!(sw.slot_range(0), Some(SlotRange { base: 0, len: 64 }));
        assert_eq!(sw.slot_range(1), Some(SlotRange { base: 64, len: 32 }));
        assert_eq!(sw.slot_range(2), Some(SlotRange { base: 96, len: 16 }));
        assert!(sw.partition_is_disjoint());

        // Evicting the middle job opens a gap; a job that fits takes
        // it (first-fit), one that does not goes past the end.
        sw.evict(1).unwrap();
        sw.admit(3, &proto(2, 32)).unwrap();
        assert_eq!(sw.slot_range(3), Some(SlotRange { base: 64, len: 32 }));
        sw.admit(4, &proto(2, 64)).unwrap();
        assert_eq!(sw.slot_range(4), Some(SlotRange { base: 112, len: 64 }));
        assert!(sw.partition_is_disjoint());
        assert_eq!(sw.partition().len(), 4);
    }

    #[test]
    fn reset_job_reallocates_range() {
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        sw.admit(0, &proto(2, 64)).unwrap();
        sw.admit(1, &proto(2, 64)).unwrap();
        // Shrink keeps the base (first fit lands where the job was).
        sw.reset_job(0, &proto(2, 16)).unwrap();
        assert_eq!(sw.slot_range(0), Some(SlotRange { base: 0, len: 16 }));
        // Growing past the neighbor relocates past it.
        sw.reset_job(0, &proto(2, 128)).unwrap();
        assert_eq!(
            sw.slot_range(0),
            Some(SlotRange {
                base: 128,
                len: 128
            })
        );
        assert!(sw.partition_is_disjoint());
    }

    #[test]
    fn slot_range_geometry() {
        let a = SlotRange { base: 0, len: 4 };
        let b = SlotRange { base: 4, len: 4 };
        let c = SlotRange { base: 3, len: 2 };
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c) && c.overlaps(&b));
        assert!(a.contains(3) && !a.contains(4));
    }

    /// The tenant switch's two ingress paths are one program: a mixed
    /// two-job script (fresh updates, duplicates before and after
    /// completion, a fenced stale-epoch update, an unadmitted job, a
    /// malformed slot) must produce the same actions, byte-identical
    /// responses, the same per-job stats and the same slot registers.
    #[test]
    fn on_view_matches_on_packet() {
        let mk = || {
            let mut sw = MultiJobSwitch::new(PipelineModel::default());
            sw.admit(1, &proto(2, 8)).unwrap();
            sw.admit(2, &proto(2, 8)).unwrap();
            sw.set_job_epoch(2, 3).unwrap();
            sw
        };
        let (mut owned, mut wire) = (mk(), mk());
        let at = |mut p: Packet, epoch: u8| {
            p.epoch = epoch;
            p
        };
        let script = [
            pkt(1, 0, 0, 5),
            at(pkt(2, 0, 0, 100), 3),
            pkt(1, 0, 0, 5),          // duplicate before completion
            at(pkt(2, 1, 0, 7), 2),   // stale epoch: fenced
            pkt(9, 0, 0, 1),          // unadmitted job
            pkt(1, 1, 0, 7),          // completes job 1
            pkt(1, 0, 0, 5),          // duplicate after: unicast
            pkt(1, 0, 99, 1),         // slot out of range: rejected
            at(pkt(2, 1, 0, 200), 3), // completes job 2
            at(pkt(2, 0, 1, -4), 3),  // next slot, still aggregating
        ];
        let mut scratch = Vec::new();
        for p in script {
            let bytes = p.encode();
            let view = PacketView::parse(&bytes).unwrap();
            match (owned.on_packet(p), wire.on_view(&view, &mut scratch)) {
                (Ok(SwitchAction::Drop), Ok(WireAction::Drop)) => {}
                (Ok(SwitchAction::Multicast(q)), Ok(WireAction::Multicast)) => {
                    assert_eq!(&scratch[..], &q.encode()[..]);
                }
                (Ok(SwitchAction::Unicast(w1, q)), Ok(WireAction::Unicast(w2))) => {
                    assert_eq!(w1, w2);
                    assert_eq!(&scratch[..], &q.encode()[..]);
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("paths diverged: {a:?} vs {b:?}"),
            }
        }
        for job in [1, 2] {
            assert_eq!(owned.stats(job), wire.stats(job), "job {job}");
            let (a, b) = (
                owned.job_switch(job).unwrap(),
                wire.job_switch(job).unwrap(),
            );
            for ver in [PoolVersion::V0, PoolVersion::V1] {
                for idx in 0..8 {
                    let (ca, cb) = (a.cell(ver, idx), b.cell(ver, idx));
                    assert_eq!(ca.value, cb.value);
                    assert_eq!((ca.count, ca.seen, ca.off), (cb.count, cb.seen, cb.off));
                }
            }
        }
        let s1 = wire.stats(1).unwrap();
        assert_eq!((s1.completions, s1.duplicates, s1.result_retx), (1, 2, 1));
        assert_eq!(s1.rejected, 1);
        assert_eq!(wire.stats(2).unwrap().stale_epoch, 1);
    }

    #[test]
    fn epoch_fence_is_per_job() {
        let mut sw = MultiJobSwitch::new(PipelineModel::default());
        sw.admit(1, &proto(2, 8)).unwrap();
        sw.admit(2, &proto(2, 8)).unwrap();
        sw.set_job_epoch(1, 1).unwrap();
        assert!(sw.set_job_epoch(9, 1).is_err());
        // Job 1 now rejects epoch-0 traffic; job 2 still accepts it.
        assert_eq!(sw.on_packet(pkt(1, 0, 0, 5)).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.stats(1).unwrap().stale_epoch, 1);
        assert_eq!(sw.on_packet(pkt(2, 0, 0, 5)).unwrap(), SwitchAction::Drop);
        assert_eq!(sw.stats(2).unwrap().stale_epoch, 0);
        assert_eq!(sw.stats(2).unwrap().updates, 1);
    }
}
