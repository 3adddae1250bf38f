//! Worker-side protocol (§3.4, §3.5, Appendix B).
//!
//! A [`Worker`] combines:
//!
//! * one [`engine::SlotEngine`] per CPU core — the Algorithm 2/4 state
//!   machine over a disjoint slot range and a contiguous chunk range
//!   (the paper shards "slots and chunks of tensors across cores
//!   without any shared state" via NIC Flow Director; our dispatch by
//!   slot index models the same partitioning), and
//! * a [`stream::TensorStream`] — the Appendix B virtual stream buffer
//!   manager that owns the worker's tensors, quantizes outgoing chunks
//!   from them and writes aggregated results back over them.
//!
//! The worker is sans-IO and has **one wire path**: a result comes in
//! as a borrowed [`PacketView`] ([`Worker::on_view`]); what to send
//! comes out as [`SendDescriptor`]s ([`Worker::start_sends`],
//! [`Worker::on_view`], [`Worker::expired_into`]) that
//! [`Worker::encode_update`] quantizes and encodes straight into a
//! caller-supplied frame buffer, stamped with the worker's wire job id
//! and epoch — no owned packet, no allocation per packet, in every
//! numeric mode. Every driver — the threaded transports, the tenant
//! endpoints, the simulator's nodes, the in-process harness and the
//! model checker — moves frames through this path. `next_deadline`
//! tells the embedding layer when to call back.

pub mod engine;
pub mod stream;

use crate::config::{Protocol, TimeNs};
use crate::error::{Error, Result};
use crate::packet::{encode_update_frame, PacketKind, PacketView, UpdateMeta, WorkerId};
use engine::{EngineConfig, EngineStats, ResultOutcome, SendDescriptor, SlotEngine};
use stream::TensorStream;

/// A SwitchML worker endpoint.
#[derive(Debug, Clone)]
pub struct Worker {
    wid: WorkerId,
    proto: Protocol,
    engines: Vec<SlotEngine>,
    stream: TensorStream,
    /// Wire job id stamped on every outgoing update (the pool a shared
    /// switch aggregates this worker into). Results are *not* filtered
    /// by it here: demultiplexing jobs is the driver's.
    job: u8,
    /// Job generation stamped on every outgoing update and required on
    /// every accepted result (§5.4 epoch fence).
    epoch: u8,
    /// Results dropped because they carried another generation's epoch.
    stale_epoch: u64,
    /// Current-epoch results dropped because nothing this worker
    /// streams could have asked for them (see [`EngineStats::rejected`]).
    rejected: u64,
}

impl Worker {
    /// Single-core worker over the whole pool and stream.
    pub fn new(wid: WorkerId, proto: &Protocol, stream: TensorStream) -> Result<Self> {
        Worker::sharded(wid, proto, stream, 1)
    }

    /// Multi-core worker: the pool's slots and the stream's chunks are
    /// partitioned into `n_cores` contiguous, disjoint ranges, one
    /// engine per core.
    pub fn sharded(
        wid: WorkerId,
        proto: &Protocol,
        mut stream: TensorStream,
        n_cores: usize,
    ) -> Result<Self> {
        proto.validate()?;
        if (wid as usize) >= proto.n_workers {
            return Err(Error::OutOfRange("worker id >= n_workers"));
        }
        if n_cores == 0 {
            return Err(Error::InvalidConfig("n_cores must be > 0".into()));
        }
        if n_cores > proto.pool_size {
            return Err(Error::InvalidConfig(format!(
                "{n_cores} cores need at least {n_cores} pool slots"
            )));
        }
        if stream.k() != proto.k {
            return Err(Error::InvalidConfig(
                "stream chunk size does not match protocol k".into(),
            ));
        }
        let engines = Self::build_engines(wid, proto, &stream, n_cores, None)?;
        stream.reset_undo(proto.pool_size);
        Ok(Worker {
            wid,
            proto: proto.clone(),
            engines,
            stream,
            job: 0,
            epoch: 0,
            stale_epoch: 0,
            rejected: 0,
        })
    }

    /// Partition slots and chunks into per-core engines; `versions`
    /// (one per pool slot, global order) seeds session continuation.
    fn build_engines(
        wid: WorkerId,
        proto: &Protocol,
        stream: &TensorStream,
        n_cores: usize,
        versions: Option<&[crate::packet::PoolVersion]>,
    ) -> Result<Vec<SlotEngine>> {
        let total_chunks = stream.total_chunks();
        let s = proto.pool_size;
        let mut engines = Vec::with_capacity(n_cores);
        for j in 0..n_cores {
            let slot_lo = j * s / n_cores;
            let slot_hi = (j + 1) * s / n_cores;
            let chunk_lo = (j as u64) * total_chunks / n_cores as u64;
            let chunk_hi = (j as u64 + 1) * total_chunks / n_cores as u64;
            let cfg = EngineConfig {
                wid,
                k: proto.k,
                slot_base: slot_lo as u32,
                n_slots: slot_hi - slot_lo,
                chunk_base: chunk_lo,
                n_chunks: chunk_hi - chunk_lo,
                rto: Some(proto.rto_ns),
                rto_policy: proto.rto_policy,
            };
            engines.push(match versions {
                Some(v) => SlotEngine::with_versions(cfg, &v[slot_lo..slot_hi])?,
                None => SlotEngine::new(cfg)?,
            });
        }
        Ok(engines)
    }

    /// The pool version each slot will use on its next send — valid
    /// once [`Worker::is_done`]. Used (usually via
    /// [`Worker::into_next_session`]) to keep aggregating against a
    /// switch whose pools retain state: Appendix B's "single,
    /// continuous stream of data across iterations".
    pub fn slot_versions(&self) -> Result<Vec<crate::packet::PoolVersion>> {
        let mut out = vec![crate::packet::PoolVersion::V0; self.proto.pool_size];
        for e in &self.engines {
            let base = e.config().slot_base as usize;
            for (i, v) in e.next_versions()?.into_iter().enumerate() {
                out[base + i] = v;
            }
        }
        Ok(out)
    }

    /// Finish this aggregation and start the next against the *same*
    /// live switch: returns the aggregated tensors (raw sums, in the
    /// allocations this worker's stream was built from) and a successor
    /// worker whose slots continue the pool-version parity.
    pub fn into_next_session(self, mut stream: TensorStream) -> Result<(Vec<Vec<f32>>, Worker)> {
        if stream.k() != self.proto.k {
            return Err(Error::InvalidConfig(
                "stream chunk size does not match protocol k".into(),
            ));
        }
        let versions = self.slot_versions()?;
        let engines = Self::build_engines(
            self.wid,
            &self.proto,
            &stream,
            self.engines.len(),
            Some(&versions),
        )?;
        stream.reset_undo(self.proto.pool_size);
        let results = self.stream.into_tensors_f32(1)?;
        Ok((
            results,
            Worker {
                wid: self.wid,
                proto: self.proto,
                engines,
                stream,
                job: self.job,
                epoch: self.epoch,
                stale_epoch: 0,
                rejected: 0,
            },
        ))
    }

    /// Resume a partially aggregated stream under a (possibly
    /// different) configuration and a *fresh* switch pool: only the
    /// chunks not yet aggregated are re-streamed, in order, sharded
    /// across `n_cores` engines. This is the worker half of live
    /// reconfiguration — after a peer dies, survivors are rebuilt with
    /// `proto.n_workers` shrunk (and `wid` renumbered densely),
    /// `stream.set_scaling` already applied, and the switch's pool
    /// reset, then they finish the remaining chunks. The stream's undo
    /// chunks are reset to the new pool: whatever the frontier did not
    /// ask for is dropped.
    pub fn resume(
        wid: WorkerId,
        proto: &Protocol,
        mut stream: TensorStream,
        n_cores: usize,
    ) -> Result<Self> {
        proto.validate()?;
        if (wid as usize) >= proto.n_workers {
            return Err(Error::OutOfRange("worker id >= n_workers"));
        }
        if n_cores == 0 {
            return Err(Error::InvalidConfig("n_cores must be > 0".into()));
        }
        if n_cores > proto.pool_size {
            return Err(Error::InvalidConfig(format!(
                "{n_cores} cores need at least {n_cores} pool slots"
            )));
        }
        if stream.k() != proto.k {
            return Err(Error::InvalidConfig(
                "stream chunk size does not match protocol k".into(),
            ));
        }
        stream.reset_undo(proto.pool_size);
        let undone = stream.undone_chunks();
        let s = proto.pool_size;
        let mut engines = Vec::with_capacity(n_cores);
        for j in 0..n_cores {
            let slot_lo = j * s / n_cores;
            let slot_hi = (j + 1) * s / n_cores;
            let lo = j * undone.len() / n_cores;
            let hi = (j + 1) * undone.len() / n_cores;
            let cfg = EngineConfig {
                wid,
                k: proto.k,
                slot_base: slot_lo as u32,
                n_slots: slot_hi - slot_lo,
                chunk_base: 0,
                n_chunks: (hi - lo) as u64,
                rto: Some(proto.rto_ns),
                rto_policy: proto.rto_policy,
            };
            engines.push(SlotEngine::with_chunk_list(cfg, undone[lo..hi].to_vec())?);
        }
        Ok(Worker {
            wid,
            proto: proto.clone(),
            engines,
            stream,
            job: 0,
            epoch: 0,
            stale_epoch: 0,
            rejected: 0,
        })
    }

    /// Consume the worker, recovering its stream (with whatever chunks
    /// have been aggregated so far) for a later [`Worker::resume`].
    pub fn into_stream(self) -> TensorStream {
        self.stream
    }

    /// Disable retransmission (Algorithm 2, for lossless fabrics and
    /// for tests that must fail loudly on loss).
    pub fn without_retransmission(mut self) -> Self {
        for e in &mut self.engines {
            e.disable_retransmission();
        }
        self
    }

    pub fn wid(&self) -> WorkerId {
        self.wid
    }

    /// The job generation this worker stamps on updates and accepts on
    /// results.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Move to a new job generation (§5.4). Results still in flight
    /// from the previous epoch will be counted-and-dropped rather than
    /// installed into the stream.
    pub fn set_epoch(&mut self, epoch: u8) {
        self.epoch = epoch;
    }

    /// The wire job id this worker stamps on updates.
    pub fn job(&self) -> u8 {
        self.job
    }

    /// Aim this worker's updates at wire job `job`'s pool.
    pub fn set_job(&mut self, job: u8) {
        self.job = job;
    }

    pub fn n_cores(&self) -> usize {
        self.engines.len()
    }

    /// Total protocol stats across cores. Counters sum; the RTT
    /// estimate reported is the slowest core's (the one that governs
    /// tail retransmission behaviour).
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for e in &self.engines {
            total.merge(e.stats());
        }
        total.stale_epoch = self.stale_epoch;
        total.rejected = self.rejected;
        total
    }

    /// Per-core stats (for cache-locality / sharding tests).
    pub fn core_stats(&self) -> Vec<EngineStats> {
        self.engines.iter().map(|e| e.stats()).collect()
    }

    /// Which core (engine) owns a slot — the dispatch the paper gets
    /// from NIC Flow Director steering. `None` if no engine owns it.
    pub fn core_for_slot(&self, slot: crate::packet::SlotIndex) -> Option<usize> {
        self.engines.iter().position(|e| e.owns_slot(slot))
    }

    /// Protocol snapshot of every owned slot across all cores, in slot
    /// order — the worker half of the model checker's state
    /// fingerprint, and the oracle's source of truth for which (slot,
    /// version, offset) each worker has outstanding.
    pub fn slot_snapshots(&self) -> Vec<engine::SlotSnapshot> {
        let mut snaps: Vec<_> = self
            .engines
            .iter()
            .flat_map(|e| e.slot_snapshots())
            .collect();
        snaps.sort_by_key(|s| s.slot);
        snaps
    }

    /// Quantize the chunk `d` names and encode the update carrying it
    /// straight into `out` (cleared first), stamped with this worker's
    /// wire job id and epoch. Allocation-free once `out` has capacity.
    pub fn encode_update(&mut self, d: SendDescriptor, out: &mut Vec<u8>) -> Result<()> {
        let meta = UpdateMeta {
            wid: self.wid,
            ver: d.ver,
            idx: d.slot,
            off: d.off,
            job: self.job,
            epoch: self.epoch,
            retransmission: d.retransmission,
        };
        encode_update_frame(meta, self.stream.wire_chunk(d.off)?, out);
        Ok(())
    }

    /// Open the initial window: one update per usable slot across all
    /// cores.
    pub fn start_sends(&mut self, now: TimeNs) -> Vec<SendDescriptor> {
        self.engines.iter_mut().flat_map(|e| e.start(now)).collect()
    }

    /// Handle a received frame: install a fresh result into the stream
    /// and return the follow-up update to transmit, if any (encode it
    /// with [`Worker::encode_update`]). Stale and duplicate results,
    /// other generations' results and results this worker could never
    /// have asked for are counted in [`Worker::stats`] and dropped;
    /// corrupted frames never parse into a view.
    ///
    /// Nothing a packet can carry fails the caller: everything that is
    /// not a fresh result for an outstanding chunk is checked *before*
    /// the engine sees it, so a dropped packet never advances protocol
    /// state.
    pub fn on_view(&mut self, view: &PacketView<'_>, now: TimeNs) -> Option<SendDescriptor> {
        if view.kind() != PacketKind::Result {
            // Not addressed to a worker; ignore defensively.
            return None;
        }
        if view.epoch() != self.epoch {
            // A result from another job generation must not be
            // installed: its aggregate was computed under a different
            // membership/scaling (§5.4 fence, worker side).
            self.stale_epoch += 1;
            return None;
        }
        let (idx, off) = (view.idx(), view.off());
        let engine = self.engines.iter_mut().find(|e| e.owns_slot(idx));
        let (Some(engine), Ok(())) = (engine, self.stream.check_result(off, view)) else {
            self.rejected += 1;
            return None;
        };
        match engine
            .on_result(idx, view.ver(), off, now)
            .expect("the engine owns the slot")
        {
            ResultOutcome::Accepted { off, next } => {
                self.stream
                    .write_result(idx, off, view)
                    .expect("checked before the engine accepted");
                next
            }
            ResultOutcome::Stale => None,
        }
    }

    /// Earliest retransmission deadline across cores.
    pub fn next_deadline(&self) -> Option<TimeNs> {
        self.engines.iter().filter_map(|e| e.next_deadline()).min()
    }

    /// Retransmit every expired slot (Algorithm 4's timeout handler):
    /// the sends, into `out` (cleared first). A sweep that fires
    /// allocates nothing once `out` has room for every slot.
    pub fn expired_into(&mut self, now: TimeNs, out: &mut Vec<SendDescriptor>) {
        out.clear();
        for e in &mut self.engines {
            e.expired_into(now, |_| true, out);
        }
    }

    /// Has the entire model update been aggregated?
    pub fn is_done(&self) -> bool {
        self.engines.iter().all(|e| e.is_done())
    }

    /// Fraction of chunks aggregated (progress reporting).
    pub fn progress(&self) -> f64 {
        let total: u64 = self.engines.iter().map(|e| e.config().n_chunks).sum();
        if total == 0 {
            return 1.0;
        }
        let done: u64 = self.engines.iter().map(|e| e.completed_chunks()).sum();
        done as f64 / total as f64
    }

    /// Access the underlying stream (e.g. to read results).
    pub fn stream(&self) -> &TensorStream {
        &self.stream
    }

    /// Consume the worker and return the aggregated tensors in the
    /// allocations its stream was built from, divided by `divide_by`
    /// (pass `n_workers` for the mean update; the switch only sums —
    /// division is end-host work, §3.3).
    pub fn into_results(self, divide_by: usize) -> Result<Vec<Vec<f32>>> {
        self.stream.into_tensors_f32(divide_by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NumericMode;
    use crate::packet::{Packet, Payload, PoolVersion};

    fn proto(n: usize, k: usize, s: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k,
            pool_size: s,
            rto_ns: 1000,
            scaling_factor: 100.0,
            ..Protocol::default()
        }
    }

    /// Encode `descs` as `w`'s update frames, decoded for asserting.
    fn encode_all(w: &mut Worker, descs: Vec<SendDescriptor>) -> Vec<Packet> {
        let mut frame = Vec::new();
        descs
            .into_iter()
            .map(|d| {
                w.encode_update(d, &mut frame).unwrap();
                Packet::decode(&frame).unwrap()
            })
            .collect()
    }

    fn start(w: &mut Worker, now: TimeNs) -> Vec<Packet> {
        let descs = w.start_sends(now);
        encode_all(w, descs)
    }

    fn expired(w: &mut Worker, now: TimeNs) -> Vec<Packet> {
        let mut descs = Vec::new();
        w.expired_into(now, &mut descs);
        encode_all(w, descs)
    }

    /// Deliver result `r` to `w` as a frame; its follow-up, if any.
    fn on_result(w: &mut Worker, r: &Packet, now: TimeNs) -> Vec<Packet> {
        let frame = r.encode();
        let next = w.on_view(&PacketView::parse(&frame).unwrap(), now);
        encode_all(w, next.into_iter().collect())
    }

    fn stream(elems: usize, k: usize) -> TensorStream {
        let t: Vec<f32> = (0..elems).map(|i| i as f32 * 0.25).collect();
        TensorStream::from_f32(vec![t], NumericMode::Fixed32, 100.0, k).unwrap()
    }

    #[test]
    fn initial_window_one_packet_per_slot() {
        let p = proto(2, 4, 8);
        let mut w = Worker::new(0, &p, stream(64, 4)).unwrap();
        let pkts = start(&mut w, 0);
        assert_eq!(pkts.len(), 8);
        for (i, pkt) in pkts.iter().enumerate() {
            assert_eq!(pkt.idx, i as u32);
            assert_eq!(pkt.off, (i * 4) as u64);
            assert_eq!(pkt.wid, 0);
            assert_eq!(pkt.kind, PacketKind::Update);
        }
    }

    #[test]
    fn result_advances_and_writes() {
        let p = proto(1, 2, 2);
        let mut w = Worker::new(0, &p, stream(8, 2)).unwrap();
        let first = start(&mut w, 0);
        // Echo slot 0's own payload back as the "aggregate".
        let result = Packet {
            kind: PacketKind::Result,
            ..first[0].clone()
        };
        let next = on_result(&mut w, &result, 10);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].off, 4); // advanced by k*s = 4 elements
        assert_eq!(next[0].ver, PoolVersion::V1);
        assert_eq!(w.stream().done_chunks(), 1);
    }

    #[test]
    fn sharding_partitions_slots_and_chunks() {
        let p = proto(2, 4, 8);
        let w = Worker::sharded(0, &p, stream(160, 4), 4).unwrap();
        assert_eq!(w.n_cores(), 4);
        let mut w = w;
        let pkts = start(&mut w, 0);
        // 8 slots across 4 cores → 2 slots each, 40 chunks → 10 each.
        assert_eq!(pkts.len(), 8);
        // Core 1's slots are 2 and 3, starting at its chunk base 10.
        let slot2 = pkts.iter().find(|p| p.idx == 2).unwrap();
        assert_eq!(slot2.off, 40); // chunk 10 × k 4
    }

    #[test]
    fn full_lockstep_aggregation_two_workers() {
        use crate::switch::reliable::ReliableSwitch;
        use crate::switch::{Feed, SwitchAction};
        let p = proto(2, 4, 4);
        let elems = 40;
        let t0: Vec<f32> = (0..elems).map(|i| i as f32).collect();
        let t1: Vec<f32> = (0..elems).map(|i| (i as f32) * 2.0).collect();
        let s0 = TensorStream::from_f32(vec![t0.clone()], NumericMode::Fixed32, 100.0, 4).unwrap();
        let s1 = TensorStream::from_f32(vec![t1.clone()], NumericMode::Fixed32, 100.0, 4).unwrap();
        let mut w0 = Worker::new(0, &p, s0).unwrap();
        let mut w1 = Worker::new(1, &p, s1).unwrap();
        let mut sw = ReliableSwitch::new(&p).unwrap();

        let mut inflight: Vec<Packet> = Vec::new();
        inflight.extend(start(&mut w0, 0));
        inflight.extend(start(&mut w1, 0));
        let mut guard = 0;
        while let Some(pkt) = inflight.pop() {
            guard += 1;
            assert!(guard < 10_000, "protocol did not converge");
            match sw.feed(pkt).unwrap() {
                SwitchAction::Multicast(result) => {
                    inflight.extend(on_result(&mut w0, &result, 0));
                    inflight.extend(on_result(&mut w1, &result, 0));
                }
                SwitchAction::Unicast(_, _) => panic!("no retransmissions in lossless run"),
                SwitchAction::Drop => {}
            }
        }
        assert!(w0.is_done() && w1.is_done());
        let r0 = w0.into_results(1).unwrap();
        let r1 = w1.into_results(1).unwrap();
        for i in 0..elems {
            let expect = t0[i] + t1[i];
            assert!((r0[0][i] - expect).abs() < 0.05, "elem {i}");
            assert_eq!(r0[0][i], r1[0][i]);
        }
    }

    #[test]
    fn timeout_produces_identical_retransmission() {
        let p = proto(2, 4, 2);
        let mut w = Worker::new(0, &p, stream(16, 4)).unwrap();
        let first = start(&mut w, 100);
        assert_eq!(w.next_deadline(), Some(1100));
        let retx = expired(&mut w, 1100);
        assert_eq!(retx.len(), 2);
        for (a, b) in first.iter().zip(&retx) {
            assert_eq!(a.idx, b.idx);
            assert_eq!(a.ver, b.ver);
            assert_eq!(a.off, b.off);
            assert_eq!(a.payload, b.payload);
            assert!(b.retransmission);
        }
    }

    #[test]
    fn stale_result_ignored_without_side_effects() {
        let p = proto(1, 2, 1);
        let mut w = Worker::new(0, &p, stream(4, 2)).unwrap();
        start(&mut w, 0);
        let bogus = Packet {
            kind: PacketKind::Result,
            wid: 0,
            ver: PoolVersion::V1, // wrong version
            idx: 0,
            off: 0,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(vec![1, 1]),
        };
        assert!(on_result(&mut w, &bogus, 0).is_empty());
        assert_eq!(w.stream().done_chunks(), 0);
        assert_eq!(w.stats().stale, 1);
    }

    #[test]
    fn stale_epoch_result_is_fenced() {
        let p = proto(1, 2, 1);
        let mut w = Worker::new(0, &p, stream(4, 2)).unwrap();
        w.set_epoch(2);
        let first = start(&mut w, 0);
        assert_eq!(first[0].epoch, 2, "updates carry the worker's epoch");
        // An epoch-1 result for exactly the outstanding (slot, version,
        // offset) — e.g. delayed from before a reconfiguration — must
        // not be installed.
        let stale = Packet {
            kind: PacketKind::Result,
            epoch: 1,
            ..first[0].clone()
        };
        assert!(on_result(&mut w, &stale, 0).is_empty());
        assert_eq!(w.stream().done_chunks(), 0);
        assert_eq!(w.stats().stale_epoch, 1);
        assert_eq!(w.stats().stale, 0, "fenced before the engine sees it");
        // The same result at the current epoch is accepted.
        let fresh = Packet {
            kind: PacketKind::Result,
            ..first[0].clone()
        };
        on_result(&mut w, &fresh, 0);
        assert_eq!(w.stream().done_chunks(), 1);
    }

    #[test]
    fn update_packets_are_ignored_by_workers() {
        let p = proto(1, 2, 1);
        let mut w = Worker::new(0, &p, stream(4, 2)).unwrap();
        let pkts = start(&mut w, 0);
        assert!(on_result(&mut w, &pkts[0], 0).is_empty());
    }

    #[test]
    fn constructor_validation() {
        let p = proto(2, 4, 4);
        assert!(Worker::new(5, &p, stream(16, 4)).is_err()); // wid too big
        assert!(Worker::sharded(0, &p, stream(16, 4), 0).is_err());
        assert!(Worker::sharded(0, &p, stream(16, 4), 8).is_err()); // cores > slots
        assert!(Worker::new(0, &p, stream(16, 2)).is_err()); // k mismatch
    }

    #[test]
    fn resume_finishes_only_undone_chunks() {
        use crate::switch::reliable::ReliableSwitch;
        use crate::switch::{Feed, SwitchAction};
        // 10 chunks; pretend chunks 0..5 were aggregated under an
        // earlier 3-worker epoch, then a worker died. Two survivors
        // resume the remaining 5 chunks under n=2 with a rescaled f.
        let elems = 40;
        let t0: Vec<f32> = (0..elems).map(|i| i as f32 * 0.5).collect();
        let t1: Vec<f32> = (0..elems).map(|i| i as f32 * 0.25).collect();
        let mk = |t: &Vec<f32>| {
            let mut s =
                TensorStream::from_f32(vec![t.clone()], NumericMode::Fixed32, 100.0, 4).unwrap();
            s.reset_undo(4);
            s
        };
        let (mut s0, mut s1) = (mk(&t0), mk(&t1));
        for chunk in 0..5u64 {
            let frozen = Payload::I32(vec![7; 4]);
            s0.write_result(0, chunk * 4, &frozen).unwrap();
            s1.write_result(0, chunk * 4, &frozen).unwrap();
        }
        s0.set_scaling(200.0).unwrap();
        s1.set_scaling(200.0).unwrap();

        let p = proto(2, 4, 4);
        let p = Protocol {
            scaling_factor: 200.0,
            ..p
        };
        let mut w0 = Worker::resume(0, &p, s0, 2).unwrap();
        let mut w1 = Worker::resume(1, &p, s1, 2).unwrap();
        assert!((w0.progress() - 0.0).abs() < 1e-9, "undone work only");
        let mut sw = ReliableSwitch::new(&p).unwrap();

        let mut inflight: Vec<Packet> = Vec::new();
        inflight.extend(start(&mut w0, 0));
        inflight.extend(start(&mut w1, 0));
        // 4 slots but only 5 chunks left: initial window ≤ pool size.
        assert!(inflight.len() <= 8);
        for pkt in &inflight {
            assert!(pkt.off >= 20, "done chunks must not be re-sent");
        }
        let mut guard = 0;
        while let Some(pkt) = inflight.pop() {
            guard += 1;
            assert!(guard < 10_000, "resume did not converge");
            if let SwitchAction::Multicast(result) = sw.feed(pkt).unwrap() {
                inflight.extend(on_result(&mut w0, &result, 0));
                inflight.extend(on_result(&mut w1, &result, 0));
            }
        }
        assert!(w0.is_done() && w1.is_done());
        let r0 = w0.into_results(1).unwrap();
        // Chunks 0..5 keep the frozen epoch-0 values (installed under
        // f=100); chunks 5..10 carry the fresh 2-worker sums.
        for (i, &v) in r0[0][..20].iter().enumerate() {
            assert!((v - 0.07).abs() < 1e-6, "elem {i}: {v}");
        }
        for i in 20..elems {
            let expect = t0[i] + t1[i];
            assert!((r0[0][i] - expect).abs() < 0.05, "elem {i}");
        }
    }

    #[test]
    fn into_stream_roundtrips_partial_progress() {
        let p = proto(1, 2, 2);
        let mut w = Worker::new(0, &p, stream(8, 2)).unwrap();
        let first = start(&mut w, 0);
        let result = Packet {
            kind: PacketKind::Result,
            ..first[0].clone()
        };
        on_result(&mut w, &result, 0);
        let s = w.into_stream();
        assert_eq!(s.done_chunks(), 1);
        assert_eq!(s.undone_chunks(), vec![1, 2, 3]);
        // A resumed worker picks up exactly those three chunks.
        let w2 = Worker::resume(0, &p, s, 1).unwrap();
        assert!((w2.progress() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn progress_and_empty_stream() {
        let p = proto(1, 2, 2);
        let empty = TensorStream::from_f32(vec![], NumericMode::Fixed32, 1.0, 2).unwrap();
        let mut w = Worker::new(0, &p, empty).unwrap();
        assert!(start(&mut w, 0).is_empty());
        assert!(w.is_done());
        assert_eq!(w.progress(), 1.0);
    }
}
