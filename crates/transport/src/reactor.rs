//! The worker engine: one `SlotEngine` over its region of a worker's
//! tensors, an [`Endpoint`] of the one executor ([`crate::endpoint`]).
//!
//! Worker engines are plain state (`EngineCtx`) seated on a small,
//! fixed pool of **reactor threads** (executor lanes); each thread
//! run-to-completion polls its engines' ports non-blockingly
//! (`recv_batch` with `Duration::ZERO` — see [`crate::port::Port`]) and
//! drives retransmissions from a per-thread hashed
//! [`crate::wheel::TimerWheel`] instead of per-engine blocking timeouts
//! (a thread that owns a single engine has only one port to wait on, so
//! it parks in that port's blocking receive until its next timer
//! instead — [`crate::port::PARK`]). That decouples worker count from
//! thread count — hundreds of engines on a handful of hardware threads,
//! which a multi-rack topology (§6) needs — and every configuration is
//! this one engine:
//!
//! * [`run_allreduce_reactor`] — `n_workers × n_cores` engines on
//!   `n_threads` threads, against [`crate::shard`]'s switch shards;
//! * [`crate::runner::run_allreduce`] — the same with one engine per
//!   thread (the paper's one-core-per-engine DPDK layout); at one core
//!   per worker that is the plain star of one switch and `n` workers;
//! * [`crate::hier::run_allreduce_hier`] — the same engines pointed at
//!   their rack's leaf, with a rack `Fence` supplying the epoch and
//!   the crash-recovery snapshot rendezvous.
//!
//! The wire traffic is identical in all three, which is why every
//! result is bit-identical to the sequential reference (integer
//! aggregation is order-independent, quantization deterministic).
//!
//! ## Ownership model (why no locks)
//!
//! Engines are dealt round-robin across reactor threads at placement
//! and never migrate: thread `t` exclusively owns engines
//! `t, t + T, t + 2T, …` — their `SlotEngine` state, their ports,
//! their scratch buffers, their region of the worker's tensors, and
//! their timers (each lane's wheel only holds its own engines).
//! Nothing on the data path is shared mutably, so there is not a single
//! lock or atomic on the per-packet path of a flat run; the only
//! cross-thread state is the stop flag, the stats hand-off at join,
//! and — for hierarchical runs — the rack fence's epoch.

use crate::endpoint::{self, Endpoint};
use crate::port::{Port, TxBatch};
use crate::runner::{frame_capacity, resolve_run_proto, RunConfig, RunReport};
use crate::shard::{shard_endpoint, sharded_fabric_size, with_rejected, ShardEndpoint};
use std::ops::Range;
use std::time::Duration;
use switchml_core::config::{NumericMode, Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::packet::{
    encode_update_frame, PacketKind, PacketView, UpdateMeta, WireChunk, WireElems, WorkerId,
};
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::{
    EngineConfig, EngineStats, ResultOutcome, SendDescriptor, SlotEngine,
};
use switchml_core::worker::stream::{gather, split};

/// Event-loop health counters, aggregated over all reactor threads of
/// a run (the executor's worker lanes) and surfaced through
/// [`RunReport::reactor`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReactorStats {
    /// Reactor threads the run used.
    pub threads: u64,
    /// Worker engines driven (n_workers × n_cores).
    pub engines: u64,
    /// Non-blocking receive polls issued.
    pub polls: u64,
    /// Polls that returned at least one frame.
    pub rx_batches: u64,
    /// Timer-wheel expirations delivered to engines.
    pub timer_fires: u64,
    /// Timer-wheel entries re-circulated because their deadline lay a
    /// full revolution ahead (high = wheel mis-sized for the RTOs).
    pub cascades: u64,
    /// Times an idle loop napped instead of polling on. This and the
    /// four counters below are [`crate::port::IdleBackoff`]'s, summed
    /// over every polling lane of the run — reactor threads, switch
    /// shards and hierarchy leaves; the counters above are the reactor
    /// threads' alone.
    pub idle_sleeps: u64,
    /// Idle episodes ended by progress landing inside the spin.
    pub spin_hits: u64,
    /// Idle episodes whose spin budget ran out (a nap followed).
    pub spin_misses: u64,
    /// Time spent polling inside idle episodes, before a hit or a nap.
    pub spun_ns: u64,
    /// Time spent asleep in idle naps, measured around the sleep.
    pub napped_ns: u64,
}

impl ReactorStats {
    /// Fold another thread's counters into this one.
    pub fn merge(&mut self, other: ReactorStats) {
        self.threads += other.threads;
        self.engines += other.engines;
        self.polls += other.polls;
        self.rx_batches += other.rx_batches;
        self.timer_fires += other.timer_fires;
        self.cascades += other.cascades;
        self.idle_sleeps += other.idle_sleeps;
        self.spin_hits += other.spin_hits;
        self.spin_misses += other.spin_misses;
        self.spun_ns += other.spun_ns;
        self.napped_ns += other.napped_ns;
    }

    /// Receive polls per second of wall time.
    pub fn polls_per_sec(&self, wall: Duration) -> f64 {
        self.polls as f64 / wall.as_secs_f64().max(1e-9)
    }

    /// Average engines multiplexed per reactor thread.
    pub fn engines_per_thread(&self) -> f64 {
        self.engines as f64 / (self.threads as f64).max(1.0)
    }
}

/// One run's worker-side inputs, validated once: each worker's tensors
/// as one stream in the caller's own allocation, which its engines
/// quantize from and dequantize the aggregate back into, plus the
/// shapes to split it back into tensors.
pub(crate) struct Workload {
    shapes: Vec<usize>,
    streams: Vec<Vec<f32>>,
    k: usize,
    pub total_chunks: u64,
}

/// One engine's share of a worker's stream: a range of chunks and
/// their elements (the last chunk may be ragged).
pub(crate) type Region<'a> = (Range<u64>, &'a mut [f32]);

impl Workload {
    pub fn new(updates: Vec<Vec<Vec<f32>>>, proto: &Protocol) -> Result<Self> {
        if proto.mode != NumericMode::Fixed32 {
            // Engines quantize straight from the caller's tensors
            // rather than going through a `TensorStream`.
            return Err(Error::InvalidConfig(
                "the engine driver supports Fixed32 only".into(),
            ));
        }
        if updates.len() != proto.n_workers {
            return Err(Error::InvalidConfig(format!(
                "need {} update sets, got {}",
                proto.n_workers,
                updates.len()
            )));
        }
        let shapes: Vec<usize> = updates[0].iter().map(|t| t.len()).collect();
        for (w, tensors) in updates.iter().enumerate() {
            if !tensors.iter().map(|t| t.len()).eq(shapes.iter().copied()) {
                return Err(Error::InvalidConfig(format!(
                    "worker {w}'s tensor shapes disagree with worker 0's"
                )));
            }
        }
        let total: usize = shapes.iter().sum();
        let streams = updates.into_iter().map(|t| gather(t).0).collect();
        Ok(Workload {
            shapes,
            streams,
            k: proto.k,
            total_chunks: (total as u64).div_ceil(proto.k as u64),
        })
    }

    /// Cut every worker's stream into `c` disjoint regions, one per
    /// engine: region `j` is chunks `[j·x/c, (j+1)·x/c)`, the partition
    /// `Worker::sharded` applies.
    pub fn regions(&mut self, c: usize) -> Vec<Vec<Region<'_>>> {
        let (k, x) = (self.k, self.total_chunks);
        self.streams
            .iter_mut()
            .map(|stream| {
                let mut rest = stream.as_mut_slice();
                (0..c as u64)
                    .map(|j| {
                        let chunks = j * x / c as u64..(j + 1) * x / c as u64;
                        let len = ((chunks.end - chunks.start) as usize * k).min(rest.len());
                        let (elems, tail) = std::mem::take(&mut rest).split_at_mut(len);
                        rest = tail;
                        (chunks, elems)
                    })
                    .collect()
            })
            .collect()
    }

    /// Hand each worker's aggregated stream back as the caller's
    /// tensors: the tail tensors are cut off the back, and the first
    /// keeps the stream's allocation.
    pub fn split(self) -> Vec<Vec<Vec<f32>>> {
        let shapes = &self.shapes;
        (self.streams.into_iter())
            .map(|stream| split(stream, shapes))
            .collect()
    }
}

/// What makes one engine a member of a fenced aggregation domain: the
/// job generation it stamps on updates and demands of results, plus two
/// rendezvous hooks with whoever owns that generation. Statically
/// dispatched; flat runs use the zero-sized unit fence (generation 0,
/// no rendezvous), [`crate::hier`] supplies the rack fence.
pub(crate) trait Fence: Send {
    /// The generation to stamp and filter by.
    fn epoch(&self) -> u8 {
        0
    }
    /// Called before every poll of the engine's port while it runs.
    fn before_poll(&mut self, _engine: &SlotEngine) {}
    /// Called once, when the engine completes its last chunk.
    fn on_done(&mut self, _engine: &SlotEngine) {}
}

impl Fence for () {}

/// One worker engine and everything it touches but its port, owned
/// exclusively by the thread its lane runs on.
pub(crate) struct EngineCtx<'a, F: Fence = ()> {
    engine: SlotEngine,
    fence: F,
    switch_ep: usize,
    /// Worker id on the wire (rack-local under a leaf).
    wid: WorkerId,
    /// Global worker index and core index (stats and diagnostics).
    pub w: usize,
    j: usize,
    k: usize,
    f: f64,
    /// This engine's region of the worker's stream, starting at stream
    /// element `base`: updates are quantized from it, and each accepted
    /// aggregate overwrites the elements it was quantized from.
    region: &'a mut [f32],
    base: usize,
    frame_cap: usize,
    /// The timer's sends, reused so a firing sweep does not allocate.
    sends: Vec<SendDescriptor>,
    /// The initial window has gone out (its deadline is the launch).
    started: bool,
    /// Results dropped before the engine saw them, counted the way
    /// `Worker` counts them (only `stale_epoch` and `rejected` move).
    dropped: EngineStats,
}

impl<'a, F: Fence> EngineCtx<'a, F> {
    /// Engine `j` of global worker `w`'s `c`, speaking as `wid` to
    /// `switch_ep`, over `region` ([`Workload::regions`]'s `j`-th). The
    /// slots split `j·s/c` contiguously like the chunks, so core `j`'s
    /// slots all live on shard `j`.
    pub fn new(
        fence: F,
        switch_ep: usize,
        wid: WorkerId,
        w: usize,
        (j, c): (usize, usize),
        region: Region<'a>,
        proto: &Protocol,
    ) -> Result<Self> {
        let (k, s) = (proto.k, proto.pool_size);
        let (chunks, elems) = region;
        let engine = SlotEngine::new(EngineConfig {
            wid,
            k,
            slot_base: (j * s / c) as u32,
            n_slots: (j + 1) * s / c - j * s / c,
            chunk_base: chunks.start,
            n_chunks: chunks.end - chunks.start,
            rto: Some(proto.rto_ns),
            rto_policy: proto.rto_policy,
        })?;
        Ok(EngineCtx {
            engine,
            fence,
            switch_ep,
            wid,
            w,
            j,
            k,
            f: proto.scaling_factor,
            region: elems,
            base: chunks.start as usize * k,
            frame_cap: frame_capacity(proto),
            sends: Vec::new(),
            started: false,
            dropped: EngineStats::default(),
        })
    }

    /// The engine's counters, with the results dropped before it.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.engine.stats();
        stats.merge(self.dropped);
        stats
    }

    /// Stage the chunk `d` names as an update stamped with `epoch`,
    /// quantized from the region straight into the frame. The wire
    /// always carries exactly k elements: a ragged final chunk is
    /// zero-padded (the additive identity).
    #[inline]
    fn stage(&mut self, d: SendDescriptor, epoch: u8, txb: &mut TxBatch) {
        let (k, lo) = (self.k, d.off as usize - self.base);
        let n = k.min(self.region.len() - lo);
        let meta = UpdateMeta {
            wid: self.wid,
            ver: d.ver,
            idx: d.slot,
            off: d.off,
            job: 0,
            epoch,
            retransmission: d.retransmission,
        };
        let src = &self.region[lo..lo + n];
        let elems = WireChunk::Fixed32 { src, f: self.f, k };
        encode_update_frame(meta, elems, txb.push(self.switch_ep));
    }
}

impl<F: Fence> Endpoint for EngineCtx<'_, F> {
    const PARKS: bool = true;
    const ENGINE: bool = true;

    #[inline]
    fn before_poll(&mut self) {
        self.fence.before_poll(&self.engine);
    }

    /// Accept a result, dequantize it into the region and stage the
    /// follow-up update.
    #[inline]
    fn on_frame(&mut self, _: usize, frame: &[u8], now: TimeNs, txb: &mut TxBatch) -> Result<bool> {
        let Ok(view) = PacketView::parse(frame) else {
            return Ok(false); // corrupted / foreign datagram
        };
        if view.kind() != PacketKind::Result {
            return Ok(false); // not addressed to a worker
        }
        // The epoch filter is the worker half of fencing: a result
        // multicast by a dead generation must not advance this engine
        // past the state it publishes for the replacement.
        let epoch = self.fence.epoch();
        if view.epoch() != epoch {
            self.dropped.stale_epoch += 1;
            return Ok(false);
        }
        // Only full-k, integer results for a slot and a chunk this
        // engine owns: anything else no send of its could have caused,
        // and is counted before the engine sees it.
        let (k, off) = (self.k, view.off());
        let cfg = self.engine.config();
        let chunks = cfg.chunk_base..cfg.chunk_base + cfg.n_chunks;
        if !self.engine.owns_slot(view.idx())
            || view.k() != k
            || view.is_f16()
            || !off.is_multiple_of(k as u64)
            || !chunks.contains(&(off / k as u64))
        {
            self.dropped.rejected += 1;
            return Ok(false);
        }
        if let ResultOutcome::Accepted { off, next } =
            self.engine.on_result(view.idx(), view.ver(), off, now)?
        {
            // An accepted chunk is never (re)sent again, so its
            // aggregate overwrites its input in place. A ragged final
            // chunk only carries n live elements; the rest is padding.
            let lo = off as usize - self.base;
            let n = k.min(self.region.len() - lo);
            view.dequantize_into(self.f, &mut self.region[lo..lo + n]);
            match next {
                Some(d) => self.stage(d, epoch, txb),
                None if self.engine.is_done() => self.fence.on_done(&self.engine),
                None => {}
            }
        }
        Ok(true)
    }

    /// The launch (the initial window), then Algorithm 4's timeout
    /// handler: expired slots retransmit, Jacobson/Karn state all
    /// inside the engine.
    fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        let epoch = self.fence.epoch();
        let mut sends = std::mem::take(&mut self.sends);
        if self.started {
            self.engine.expired_into(now, |_| true, &mut sends);
        } else {
            self.started = true;
            sends = self.engine.start(now);
        }
        for &d in &sends {
            self.stage(d, epoch, txb);
        }
        self.sends = sends;
        if self.engine.is_done() {
            self.fence.on_done(&self.engine); // a zero-chunk engine
        }
        Ok(())
    }

    #[inline]
    fn next_deadline(&self) -> Option<TimeNs> {
        if self.started {
            self.engine.next_deadline()
        } else {
            Some(0)
        }
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.started && self.engine.is_done()
    }

    fn frame_capacity(&self) -> usize {
        self.frame_cap
    }

    fn progress(&self) -> String {
        let (done, total) = (
            self.engine.completed_chunks(),
            self.engine.config().n_chunks,
        );
        format!("w{}c{} {done}/{total}", self.w, self.j)
    }
}

/// Run one all-reduce with `cfg.n_cores` switch shards and **all**
/// `n_workers × n_cores` worker engines dealt onto at most `n_threads`
/// threads, bit-identical to the sequential reference on the same
/// inputs.
///
/// The run aggregates in place: each worker's engines quantize from
/// its tensors and dequantize the aggregate back into them, so the
/// returned tensors reuse the input allocations (a worker's tensors
/// after the first are gathered onto the first one's allocation for
/// the run, and handed back in allocations of their own).
///
/// `ports` uses the sharded endpoint layout ([`sharded_fabric_size`]);
/// only [`NumericMode::Fixed32`] is supported.
pub fn run_allreduce_reactor<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &RunConfig,
    n_threads: usize,
) -> Result<RunReport> {
    let proto = &resolve_run_proto(proto, &ports)?;
    let n = proto.n_workers;
    let c = cfg.n_cores;
    if c == 0 {
        return Err(Error::InvalidConfig("n_cores must be > 0".into()));
    }
    if n_threads == 0 {
        return Err(Error::InvalidConfig("n_threads must be > 0".into()));
    }
    if c > proto.pool_size {
        return Err(Error::InvalidConfig(format!(
            "{c} cores need at least {c} pool slots"
        )));
    }
    if ports.len() != sharded_fabric_size(n, c) {
        return Err(Error::InvalidConfig(format!(
            "need {} ports ({c} shards + {n}×{c} worker cores), got {}",
            sharded_fabric_size(n, c),
            ports.len()
        )));
    }
    let mut work = Workload::new(updates, proto)?;

    // Peel the fabric apart: shard ports (endpoints 0..c), then worker
    // w's core j at endpoint c + w·c + j.
    let mut shard_ports = ports;
    let mut core_ports = shard_ports.split_off(c).into_iter();
    let mut engines = Vec::with_capacity(n * c);
    for (w, regions) in work.regions(c).into_iter().enumerate() {
        for ((j, region), port) in regions.into_iter().enumerate().zip(core_ports.by_ref()) {
            let wid = w as WorkerId;
            let engine = EngineCtx::new((), shard_endpoint(j), wid, w, (j, c), region, proto)?;
            engines.push((engine, port));
        }
    }

    let ((engines, shards), ran) = endpoint::run(cfg.max_wall, |ex| {
        let shards: Vec<_> = (shard_ports.into_iter().enumerate())
            .map(|(j, port)| {
                ex.place(cfg.burst, move || {
                    Ok(vec![(ShardEndpoint::new(proto, j, c)?, port)])
                })
            })
            .collect();
        let engines = ex.deal(cfg.burst, engines, n_threads);
        let engines = ex.join(engines);
        ex.stop();
        (engines, ex.join(shards))
    });
    let mut switch_stats = SwitchStats::default();
    for shard in &shards {
        switch_stats.merge(shard.stats());
    }
    ran.status.map_err(|e| with_rejected(e, &switch_stats))?;
    let mut worker_stats = vec![EngineStats::default(); n];
    for engine in engines {
        worker_stats[engine.w].merge(engine.stats());
    }
    Ok(RunReport {
        results: work.split(),
        worker_stats,
        switch_stats,
        transport_stats: ran.ports,
        reactor: Some(ran.reactor),
        hier: None,
        wall: ran.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::WHEEL_TICK_NS;
    use crate::faulty::{faulty_fabric, FaultyConfig, ScriptedPort};
    use crate::runner::run_allreduce;
    use crate::shard::{sharded_channel_fabric, worker_core_endpoint};
    use crate::udp::udp_fabric;
    use std::sync::Arc;
    use std::time::Instant;
    use switchml_core::agg::allreduce;
    use switchml_core::config::RtoPolicy;

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000, // 2 ms real time
            scaling_factor: 10_000.0,
            ..Protocol::default()
        }
    }

    fn updates(n: usize, elems: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 5) as f32 * 0.1)
                    .collect()]
            })
            .collect()
    }

    /// Three-way differential: reactor == threaded sharded == the
    /// sequential in-process reference, bit for bit, on a ragged
    /// tensor.
    #[test]
    fn reactor_matches_threaded_and_reference() {
        let n = 3;
        let c = 2;
        let elems = 333; // ragged final chunk
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let reactor =
            run_allreduce_reactor(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg, 2)
                .unwrap();
        let threaded =
            run_allreduce(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(reactor.results[w], threaded.results[w], "worker {w}");
            assert_eq!(reactor.results[w], reference, "worker {w} vs reference");
        }
        let rs = reactor.reactor.expect("reactor stats present");
        assert_eq!(rs.threads, 2);
        assert_eq!(rs.engines, (n * c) as u64);
        assert!(rs.polls > 0);
        assert!(rs.rx_batches > 0);
    }

    /// What replaced what: `run_allreduce` *is* the reactor with one
    /// engine per thread, so at `c = 2` (the sharded layout) it must
    /// agree bit for bit with the reactor multiplexing all four engines
    /// on a single thread, with the reference, and in how many chunks
    /// the shards completed.
    #[test]
    fn sharded_is_the_reactor_with_one_engine_per_thread() {
        let n = 2;
        let c = 2;
        let elems = 1000;
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let sharded =
            run_allreduce(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg).unwrap();
        let reactor =
            run_allreduce_reactor(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg, 1)
                .unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(sharded.results[w], reference, "sharded worker {w}");
            assert_eq!(reactor.results[w], reference, "reactor worker {w}");
        }
        assert_eq!(
            sharded.switch_stats.completions,
            reactor.switch_stats.completions
        );
        assert_eq!(sharded.switch_stats.completions as usize, elems.div_ceil(8));
        let sharded_rs = sharded.reactor.unwrap();
        assert_eq!(sharded_rs.threads, (n * c) as u64);
        assert_eq!(reactor.reactor.unwrap().threads, 1);
        // One-engine threads park and never consult the idle policy, so
        // every idle episode counted here was a switch shard's.
        assert!(sharded_rs.spin_hits + sharded_rs.spin_misses > 0);
    }

    /// The plain layout is the engine driver with a thread per engine:
    /// one shard, and one reactor thread per worker.
    #[test]
    fn plain_layout_is_a_thread_per_engine() {
        let n = 3;
        let elems = 1000;
        let p = proto(n);
        let report = run_allreduce(
            sharded_channel_fabric(n, 1),
            updates(n, elems),
            &p,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(
            report.results[0],
            allreduce(&updates(n, elems), &p).unwrap()
        );
        let rs = report.reactor.unwrap();
        assert_eq!((rs.threads, rs.engines), (n as u64, n as u64));
    }

    /// The epoch filter the unit fence shares with the hierarchy: a
    /// flat engine is generation 0, so a result stamped with any other
    /// generation — here one that matches the engine's very first
    /// (slot, version, offset) and carries garbage — must be ignored,
    /// not taken as chunk 0's aggregate.
    #[test]
    fn flat_engine_ignores_foreign_epoch_result() {
        use switchml_core::packet::{Packet, PacketKind, PoolVersion};
        let n = 2;
        let elems = 200;
        let p = proto(n);
        let cfg = RunConfig::default();
        let foreign = Packet {
            kind: PacketKind::Result,
            epoch: 7,
            ..Packet::update(0, PoolVersion::V0, 0, 0, vec![123_456; p.k])
        };
        let mut ports = sharded_channel_fabric(n, 1);
        ports[shard_endpoint(0)].send(worker_core_endpoint(0, 0, 1), &foreign.encode());
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 1).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert_eq!(report.worker_stats[0].stale_epoch, 1);
        assert_eq!(report.worker_stats[1].stale_epoch, 0);
    }

    /// A frame sized by the run is no longer than its protocol's data
    /// frame, so a valid result with trailing bytes does not fit. The
    /// port must drop it whole and count it — truncated to the frame it
    /// would parse as chunk 0's aggregate and poison it — on the classic
    /// `recvmmsg` path (burst 1) and through a GRO stage (burst 8).
    #[test]
    fn oversize_result_is_dropped_and_counted_not_truncated() {
        use switchml_core::packet::{Packet, PacketKind, PoolVersion};
        let n = 2;
        let elems = 200;
        let p = proto(n);
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        let mut forged = Packet {
            kind: PacketKind::Result,
            ..Packet::update(0, PoolVersion::V0, 0, 0, vec![123_456; p.k])
        }
        .encode()
        .to_vec();
        forged.extend_from_slice(&[0; 64]);
        for burst in [1, 8] {
            let mut ports = udp_fabric(sharded_fabric_size(n, 1)).unwrap();
            ports[shard_endpoint(0)].send(worker_core_endpoint(0, 0, 1), &forged);
            let cfg = RunConfig {
                burst,
                ..RunConfig::default()
            };
            let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 1).unwrap();
            for w in 0..n {
                assert_eq!(report.results[w], reference, "burst {burst} worker {w}");
            }
            assert_eq!(report.transport_stats.send_errors, 1, "burst {burst}");
        }
    }

    /// The headline scaling case: 64 virtual workers on 4 reactor
    /// threads (+1 shard thread) — a topology thread-per-worker cannot
    /// even spawn within budget on a small host — completing
    /// bit-identical to the sequential reference.
    #[test]
    fn sixty_four_workers_on_four_threads() {
        let n = 64;
        let c = 1;
        let elems = 96;
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report =
            run_allreduce_reactor(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg, 4)
                .unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        let rs = report.reactor.unwrap();
        assert_eq!(rs.threads, 4);
        assert_eq!(rs.engines, 64);
        assert!(rs.engines_per_thread() >= 16.0);
    }

    /// Loss + adaptive RTO on the wheel: retransmissions recover the
    /// run, Jacobson's estimator takes clean samples, and the answer
    /// is still exact.
    #[test]
    fn reactor_loss_with_adaptive_rto_recovers() {
        let n = 2;
        let c = 2;
        let elems = 400;
        let p = Protocol {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        let (ports, loss_stats) = faulty_fabric(
            sharded_channel_fabric(n, c),
            FaultyConfig::loss_only(0.05),
            77,
        );
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert!(loss_stats.dropped() > 0, "5% loss should drop something");
        let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        assert!(retx > 0, "losses must trigger wheel-driven retransmissions");
        let samples: u64 = report.worker_stats.iter().map(|s| s.rtt_samples).sum();
        assert!(samples > 0, "adaptive estimator must take clean samples");
        assert!(report.reactor.unwrap().timer_fires > 0);
    }

    /// A straggling engine (its port stalls every receive) delays but
    /// does not corrupt: the wheel keeps its retransmissions flowing
    /// and the final tensor is still bit-identical.
    #[test]
    fn reactor_straggler_is_bit_identical() {
        let n = 2;
        let c = 1;
        let elems = 200;
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let raw = sharded_channel_fabric(n, c);
        let ports: Vec<_> = raw
            .into_iter()
            .enumerate()
            .map(|(ep, port)| {
                // Worker 1's (only) core endpoint straggles.
                let stall = if ep == worker_core_endpoint(1, 0, c) {
                    Duration::from_micros(300)
                } else {
                    Duration::ZERO
                };
                ScriptedPort::new(port, stall, None)
            })
            .collect();
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
    }

    /// A port that stamps every burst it is asked to send with the
    /// sending thread's clock and, if `lose_first`, swallows the first
    /// one (an engine's whole initial window).
    struct StampedPort<P: Port> {
        inner: P,
        lose_first: bool,
        sent_at: Arc<std::sync::Mutex<Vec<Instant>>>,
    }

    impl<P: Port> Port for StampedPort<P> {
        fn n_endpoints(&self) -> usize {
            self.inner.n_endpoints()
        }
        fn index(&self) -> usize {
            self.inner.index()
        }
        fn send(&mut self, to: usize, data: &[u8]) {
            self.inner.send(to, data);
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
            self.inner.recv_timeout(timeout)
        }
        fn recv_into(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> Option<usize> {
            self.inner.recv_into(buf, timeout)
        }
        fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
            let mut sent_at = self.sent_at.lock().unwrap();
            sent_at.push(Instant::now());
            if !(self.lose_first && sent_at.len() == 1) {
                self.inner.send_batch(dests, frames);
            }
        }
    }

    /// The wheel is swept inside the spin. Worker 0's first window is
    /// lost, so nothing can complete and its reactor thread (two
    /// engines: it polls, spins, naps) has nothing to receive until the
    /// RTO: the retransmission must leave on time — measured between
    /// the port's own send stamps, taken on the engine's thread — not
    /// whenever a nap happens to end.
    #[test]
    fn lost_first_window_is_retransmitted_on_time_from_the_idle_loop() {
        let n = 2;
        let elems = 200;
        let p = proto(n);
        let cfg = RunConfig::default();
        let lossy = worker_core_endpoint(0, 0, 1);
        let sent_at = Arc::new(std::sync::Mutex::new(Vec::new()));
        let ports: Vec<_> = sharded_channel_fabric(n, 1)
            .into_iter()
            .enumerate()
            .map(|(ep, inner)| StampedPort {
                inner,
                lose_first: ep == lossy,
                sent_at: if ep == lossy {
                    Arc::clone(&sent_at)
                } else {
                    Arc::default()
                },
            })
            .collect();
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 1).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert!(report.worker_stats[0].retx >= p.pool_size as u64);
        let rs = report.reactor.unwrap();
        assert!(rs.timer_fires > 0);
        assert!(rs.spin_misses > 0, "an RTO-long silence outlasts any spin");

        let sent_at = sent_at.lock().unwrap();
        let gap = sent_at[1].duration_since(sent_at[0]).as_nanos() as u64;
        // Never early (the first stamp trails the engine's own send
        // instant by the window's encode time, hence the slack) ...
        assert!(
            gap >= p.rto_ns - p.rto_ns / 10,
            "retransmitted after {gap} ns"
        );
        // ... and late by at most one wheel tick plus scheduling noise.
        let allowance = 10_000_000;
        assert!(
            gap <= p.rto_ns + WHEEL_TICK_NS + allowance,
            "retransmitted after {gap} ns"
        );
    }

    /// A port that swallows exactly one update — its `drop_at`-th
    /// frame — and stamps when it did and when that (slot, version,
    /// offset) next went out.
    struct DropOnePort<P: Port> {
        inner: P,
        drop_at: Option<usize>,
        frames: usize,
        lost: Option<((u32, u8, u64), Instant)>,
        resent: Arc<std::sync::Mutex<Option<Duration>>>,
    }

    impl<P: Port> DropOnePort<P> {
        /// Should `data` go out?
        fn pass(&mut self, data: &[u8]) -> bool {
            self.frames += 1;
            let v = PacketView::parse(data).expect("engines send well-formed updates");
            let key = (v.idx(), v.ver().index() as u8, v.off());
            if self.drop_at == Some(self.frames) {
                self.lost = Some((key, Instant::now()));
                return false;
            }
            if let Some((lost, at)) = self.lost {
                let mut resent = self.resent.lock().unwrap();
                if lost == key && resent.is_none() {
                    *resent = Some(at.elapsed());
                }
            }
            true
        }
    }

    impl<P: Port> Port for DropOnePort<P> {
        fn n_endpoints(&self) -> usize {
            self.inner.n_endpoints()
        }
        fn index(&self) -> usize {
            self.inner.index()
        }
        fn send(&mut self, to: usize, data: &[u8]) {
            if self.pass(data) {
                self.inner.send(to, data);
            }
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
            self.inner.recv_timeout(timeout)
        }
        fn recv_into(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> Option<usize> {
            self.inner.recv_into(buf, timeout)
        }
        fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
            for (&to, frame) in dests.iter().zip(frames) {
                self.send(to, frame);
            }
        }
    }

    /// One update lost mid-stream under a 5 ms RTO floor: the later
    /// slots keep answering, so the engine retransmits the lost one a
    /// round trip and a reorder window after it fell behind — well
    /// inside the floor a timeout would wait.
    #[test]
    fn lost_update_is_retransmitted_once_a_later_send_is_answered() {
        let n = 2;
        let elems = 2048; // 256 chunks: 16 per slot
        let min_ns = 5_000_000;
        let p = Protocol {
            rto_ns: min_ns,
            rto_policy: RtoPolicy::Adaptive {
                min_ns,
                max_ns: 40_000_000,
            },
            ..proto(n)
        };
        let lossy = worker_core_endpoint(0, 0, 1);
        let resent = Arc::new(std::sync::Mutex::new(None));
        let ports: Vec<_> = sharded_channel_fabric(n, 1)
            .into_iter()
            .enumerate()
            .map(|(ep, inner)| DropOnePort {
                inner,
                // Third wave of worker 0's updates.
                drop_at: (ep == lossy).then_some(40),
                frames: 0,
                lost: None,
                resent: if ep == lossy {
                    Arc::clone(&resent)
                } else {
                    Arc::default()
                },
            })
            .collect();
        let report =
            run_allreduce_reactor(ports, updates(n, elems), &p, &RunConfig::default(), 1).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        let st = report.worker_stats[0];
        assert!(st.early_retx >= 1, "{st:?}");
        assert!(st.retx >= st.early_retx, "{st:?}");
        let gap = resent
            .lock()
            .unwrap()
            .expect("the lost update went out again");
        assert!(
            gap < Duration::from_nanos(min_ns),
            "retransmitted after {gap:?}"
        );
    }

    /// No spin livelock when threads outnumber cores: 8 engines on 4
    /// reactor threads plus a switch shard — five spinning loops on the
    /// 2-core reference host — over real sockets still finish
    /// bit-identical, far inside the wall-clock budget.
    #[test]
    fn oversubscribed_udp_spinners_finish_bit_identical() {
        let n = 8;
        let elems = 4096;
        let p = proto(n);
        let cfg = RunConfig::default();
        let ports = udp_fabric(sharded_fabric_size(n, 1)).unwrap();
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 4).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        let rs = report.reactor.unwrap();
        assert_eq!((rs.threads, rs.engines), (4, 8));
        assert!(report.wall < cfg.max_wall / 6, "took {:?}", report.wall);
    }

    /// Real kernel datagrams through the zero-timeout poll path.
    #[test]
    fn reactor_udp_smoke() {
        let n = 2;
        let c = 2;
        let elems = 256;
        let p = proto(n);
        let ports = udp_fabric(sharded_fabric_size(n, c)).unwrap();
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
    }

    /// Reactor × UDP GRO × 5% loss — the combination the channel-only
    /// loss test above cannot cover. A loss-only `FaultyPort` keeps
    /// burst I/O on `UdpPort`'s own batch path: outgoing bursts still
    /// coalesce into GSO super-datagrams (minus the dropped frames)
    /// and receives delegate to the GRO path, which engages because
    /// the reactor's `RunConfig::burst` (8) meets `UDP_GRO`'s minimum
    /// burst. Loss must be recovered by wheel-driven retransmissions
    /// and the result must still be bit-identical to the sequential
    /// reference.
    #[test]
    fn reactor_udp_gro_loss_is_bit_identical() {
        let n = 2;
        let c = 2;
        let elems = 400;
        let p = Protocol {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        let base = udp_fabric(sharded_fabric_size(n, c)).unwrap();
        let (ports, loss_stats) = faulty_fabric(base, FaultyConfig::loss_only(0.05), 77);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        assert!(cfg.burst >= 8, "burst below UDP_GRO's minimum: GRO off");
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert!(loss_stats.dropped() > 0, "5% loss should drop something");
        assert_eq!(
            report.transport_stats.injected_send_drops,
            loss_stats.dropped(),
            "per-port injected counters must survive the batch path"
        );
        let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        assert!(retx > 0, "losses must trigger wheel-driven retransmissions");
        assert!(report.reactor.unwrap().timer_fires > 0);
    }

    #[test]
    fn reactor_misconfiguration_rejected() {
        let n = 2;
        let cfg = RunConfig {
            n_cores: 1,
            ..RunConfig::default()
        };
        // Zero reactor threads.
        assert!(run_allreduce_reactor(
            sharded_channel_fabric(n, 1),
            updates(n, 16),
            &proto(n),
            &cfg,
            0
        )
        .is_err());
        // Wrong port count.
        assert!(run_allreduce_reactor(
            sharded_channel_fabric(n, 2),
            updates(n, 16),
            &proto(n),
            &cfg,
            1
        )
        .is_err());
        // Non-Fixed32 mode.
        let p16 = Protocol {
            mode: NumericMode::Float16,
            ..proto(n)
        };
        assert!(
            run_allreduce_reactor(sharded_channel_fabric(n, 1), updates(n, 16), &p16, &cfg, 1)
                .is_err()
        );
    }
}
