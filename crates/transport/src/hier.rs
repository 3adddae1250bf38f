//! Two-level hierarchical aggregation over the real transports (§6).
//!
//! The flat runners funnel every worker's update stream into one
//! switch endpoint. The paper's rack-scale argument (§6) is that a
//! **leaf** switch per rack aggregates its rack's workers locally and
//! forwards a *single* partial-aggregate stream to a **spine** switch,
//! which reduces across racks — cross-rack traffic drops from
//! `n_workers` streams to `racks` streams, and per-socket fan-in drops
//! from `n_workers` to `max(workers_per_rack, racks)`. On a real UDP
//! data plane that fan-in bound is the whole ballgame: a flat star at
//! large `n` overruns the switch socket's receive buffer (incast),
//! and every dropped burst costs an RTO.
//!
//! ## Topology and endpoint layout
//!
//! ```text
//!                       spine (endpoint 0)
//!                      /                  \
//!         leaf rack 0 (1)            leaf rack 1 (2)       ... 1 + r
//!          /    |    \                /    |    \
//!        w0    w1    w2  ...        w0    w1    w2  ...
//!   (1+racks + r·wpr + lw)
//! ```
//!
//! Workers are the same reactor-multiplexed virtual workers as
//! [`crate::reactor`] — hundreds of engines on a handful of OS
//! threads — each speaking the unmodified worker protocol to its
//! rack's leaf. The spine is the unmodified switch shard endpoint
//! (shard 0 of 1) with `n_workers = racks`: from the spine's point of
//! view each *leaf* is just a worker with `wid = rack`. The executor
//! places the spine and each leaf on a polling thread of its own.
//!
//! ## The leaf: switch below, worker above
//!
//! [`Leaf`] is the leaf's whole protocol, sans-IO: frames in, frames
//! staged into a [`TxBatch`] in the endpoint layout above. The threads
//! drive it as an endpoint whose kill and snapshot rendezvous are its
//! own deadlines; the simulator drives the same machine through its
//! one endpoint adapter (`switchml_baselines::switchml::SimEndpoint`).
//! It owns two coupled state machines:
//!
//! * a rack-local `ReliableSwitch` (`n_workers = workers_per_rack`)
//!   that aggregates its rack exactly like a switch shard, and
//! * an up-hop [`SlotEngine`] (`wid = rack`) toward the spine, reusing
//!   the worker side's retransmission state machine — the leaf→spine
//!   hop is its **own RTO domain** (its own engine and Jacobson
//!   estimator, seeded from the protocol's `rto_ns`), so rack-local
//!   timers and cross-"rack" timers back off independently and
//!   Jacobson samples on the up hop measure leaf→spine, never the rack.
//!
//! When the rack completes a phase, the leaf forwards the completed
//! partial up (re-arming that slot's RTO at this true send instant via
//! [`SlotEngine::rearm_slot`]), and when the spine's global result
//! comes back it is multicast down the rack, re-stamped with the
//! rack's epoch. The up hop advances in lock-step with the rack: a
//! spine result for a phase the rack has not (re-)completed is dropped
//! (`up_ready` gate), because advancing past a half-aggregated rack
//! cell would leave residue that corrupts the slot two phases later.
//!
//! ## Rack-granularity failure recovery
//!
//! A leaf crash loses *rack* state only. Recovery re-drives only that
//! rack: the replacement leaf ([`Leaf::resume`]) bumps the rack epoch
//! (the packet generation byte, scoped per level — the spine's domain
//! stays at generation 0 and is never touched), waits for each of its
//! workers to publish a [`SlotEngine::slot_snapshots`] lower bound,
//! resumes its up-hop engine at the per-slot **maximum** across those
//! snapshots ([`SlotEngine::resume_at`]), and rebuilds rack state from
//! the workers' retransmissions. Laggard workers one phase behind the
//! resumed engine are served from the leaf's final-result cache, or —
//! when the cache died with the old leaf — by *probing* the spine's
//! shadow copy: the probe is a zero-payload retransmission that is
//! guaranteed to take the switch's duplicate-after-completion path
//! (the laggard's phase is complete at the spine with this rack's
//! contributor bit still set), so the zeros are never aggregated.
//! Quiet racks never see any of this; their traffic never stops.

use crate::endpoint::{self, Endpoint, WHEEL_TICK_NS};
use crate::port::{Port, TxBatch};
use crate::reactor::{EngineCtx, Fence, Workload};
use crate::runner::{frame_capacity, resolve_run_proto, RunConfig, RunReport};
use crate::shard::{with_rejected, AuditedSwitch, ShardEndpoint, ViewSwitch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use switchml_core::config::{Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::packet::{
    encode_result_into, encode_update_into, ElemOffset, PacketKind, PacketView, PoolVersion,
    ResultMeta, SlotIndex, WireElems, WorkerId,
};
use switchml_core::switch::{SwitchStats, WireAction};
use switchml_core::worker::engine::{
    EngineConfig, EngineStats, ResultOutcome, SendDescriptor, SlotEngine, SlotSnapshot,
};

/// The spine aggregation domain is permanently job generation 0: rack
/// epochs fence worker↔leaf traffic only (per-level scoping), so a
/// leaf reboot never perturbs the spine or the other racks.
const SPINE_EPOCH: u8 = 0;

/// The spine switch's endpoint in a hierarchical fabric.
pub const SPINE_ENDPOINT: usize = 0;

/// Endpoint of rack `rack`'s leaf switch.
pub fn leaf_endpoint(rack: usize) -> usize {
    1 + rack
}

/// Endpoint of local worker `lw` in rack `rack`.
pub fn hier_worker_endpoint(racks: usize, wpr: usize, rack: usize, lw: usize) -> usize {
    1 + racks + rack * wpr + lw
}

/// Fabric size for a two-level tree: spine + leaves + workers.
pub fn hier_fabric_size(racks: usize, wpr: usize) -> usize {
    1 + racks + racks * wpr
}

/// Hierarchical run parameters.
#[derive(Debug, Clone)]
pub struct HierConfig {
    pub racks: usize,
    pub workers_per_rack: usize,
    /// Reactor threads multiplexing the virtual workers.
    pub n_threads: usize,
    /// Scripted leaf crash: (rack, wall-clock offset from run start).
    /// The leaf drops *all* soft state at that instant and recovers as
    /// a cold replacement (rack epoch bump + worker-snapshot resume).
    pub kill_leaf: Option<(usize, Duration)>,
}

impl HierConfig {
    pub fn new(racks: usize, workers_per_rack: usize) -> Self {
        HierConfig {
            racks,
            workers_per_rack,
            n_threads: 2,
            kill_leaf: None,
        }
    }
}

/// Per-level counters of a hierarchical run, surfaced through
/// [`RunReport::hier`].
#[derive(Debug, Clone, Default)]
pub struct HierReport {
    pub racks: usize,
    pub workers_per_rack: usize,
    /// Rack-local aggregation counters, one per leaf (merged across
    /// leaf generations if the leaf was killed and replaced).
    pub leaf_switch_stats: Vec<SwitchStats>,
    /// Up-hop (leaf→spine) engine counters, one per leaf: `retx` here
    /// is cross-rack retransmission, `rtt_samples` are leaf→spine
    /// RTTs — the hop-scoped RTO domain made visible.
    pub leaf_up_stats: Vec<EngineStats>,
    /// Final rack epoch per leaf (0 = never rebooted).
    pub rack_epochs: Vec<u8>,
    /// Total scripted leaf reboots executed.
    pub leaf_reboots: u64,
}

/// Cross-thread rendezvous between one leaf and its rack's workers.
/// Quiescent on the data path: workers only touch it when the leaf
/// bumps `snap_gen` (i.e. after a crash).
#[derive(Default)]
struct RackShared {
    /// Current rack epoch (generation byte on the worker↔leaf hop).
    epoch: AtomicU8,
    /// Snapshot-request generation. The leaf stores `epoch` *before*
    /// bumping this (release ordering), so a worker that observes a
    /// new generation is guaranteed to see the new epoch — everything
    /// it publishes is therefore a frozen lower bound: any result that
    /// could advance it past the published state carries the dead
    /// epoch and is fenced.
    snap_gen: AtomicU64,
    /// One published entry per local worker. A `done` entry is
    /// terminal (the engine's state is frozen), so it satisfies any
    /// later generation too.
    snaps: Mutex<Vec<Option<PublishedSnapshot>>>,
}

/// What one worker publishes on a snapshot request:
/// `(generation, engine_done, per-slot snapshots)`.
type PublishedSnapshot = (u64, bool, Vec<SlotSnapshot>);

/// A final aggregate the leaf has already multicast down, kept so
/// laggard retransmissions are served locally instead of re-crossing
/// the spine hop. Indexed `[pool version][slot]`; `off` disambiguates
/// which phase the cached value belongs to.
struct CachedFinal {
    off: ElemOffset,
    values: Vec<i32>,
}

/// Per-slot maximum over the rack's published snapshots — the state
/// the true (dead) up-hop engine must have reached. MAX, not MIN: a
/// worker that advanced past phase p proves the leaf accepted p's
/// final, so resuming lower would re-drive a phase the spine has
/// already retired. On an equal chunk, a retired (inactive) snapshot
/// wins: some worker saw the slot's last final, so the slot is done.
fn merged_states(
    snaps: &[Option<(u64, bool, Vec<SlotSnapshot>)>],
    n_slots: usize,
) -> Vec<(PoolVersion, u64, bool)> {
    (0..n_slots)
        .map(|i| {
            let mut best: Option<(PoolVersion, u64, bool)> = None;
            for entry in snaps.iter().flatten() {
                let sn = &entry.2[i];
                best = Some(match best {
                    None => (sn.ver, sn.chunk, sn.active),
                    Some(b) if sn.chunk > b.1 => (sn.ver, sn.chunk, sn.active),
                    Some(b) if sn.chunk == b.1 && !sn.active => (b.0, b.1, false),
                    Some(b) => b,
                });
            }
            best.expect("at least one worker per rack")
        })
        .collect()
}

/// One §6 leaf switch, sans-IO: rack-local aggregation below, the
/// worker protocol toward the spine above (see the module docs).
///
/// Frames go in through [`Leaf::on_frame`], timer expiries through
/// [`Leaf::on_timer`]; both stage what goes out into a [`TxBatch`],
/// addressed to [`SPINE_ENDPOINT`] or [`hier_worker_endpoint`]. Every
/// update is gated on the up-hop engine's state *before* it may touch
/// the rack switch (current phase → aggregate; one phase behind → serve
/// the cached final or probe the spine; anything else is refused), and
/// the rack switch's answers are never what goes on the wire — a
/// completion becomes an up-hop send, a duplicate is answered from the
/// final cache. Nothing on the wire fails a call: a frame the leaf
/// cannot place is counted in [`Leaf::switch_stats`]' `rejected` (or
/// `stale_epoch`) and dropped, as [`crate::shard::switch_ingress`]
/// does.
pub struct Leaf {
    rack: WorkerId,
    /// Endpoint of local worker 0; local worker `lw` is this plus `lw`.
    worker_ep0: usize,
    wpr: usize,
    k: usize,
    /// Rack epoch: the generation byte on the worker↔leaf hop.
    epoch: u8,
    switch: AuditedSwitch,
    engine: SlotEngine,
    /// Per slot: the rack has completed the up-hop engine's current
    /// phase, so its partial is (or may be re-) sent to the spine.
    up_ready: Vec<bool>,
    final_cache: [Vec<Option<CachedFinal>>; 2],
    /// Laggards waiting on a spine shadow probe, keyed by
    /// (pool version, slot, element offset).
    pending: HashMap<(u8, SlotIndex, ElemOffset), Vec<WorkerId>>,
    /// Frames the leaf refused before the rack switch saw them: updates
    /// ahead of the up-hop engine, results for no slot or of the wrong
    /// width.
    rejected: u64,
    /// Up-hop resends a worker's duplicate prompted (a re-forwarded
    /// partial, a spine probe): retransmissions the engine's timer did
    /// not fire, counted into [`Leaf::up_stats`]' `retx`.
    reforwards: u64,
    tx: Vec<u8>,
    /// [`frame_capacity`] of the rack's protocol.
    frame_cap: usize,
    qbuf: Vec<i32>,
    /// The up-hop timer's resends, reused so a firing sweep does not
    /// allocate.
    resends: Vec<SendDescriptor>,
}

impl Leaf {
    /// Rack `rack`'s leaf (of `racks`) at `now`, for an all-reduce of
    /// `n_chunks` chunks; `rack_proto.n_workers` is the rack's size.
    /// The up-hop engine arms its whole initial window but sends
    /// nothing: a chunk goes up only when the rack completes it.
    pub fn new(
        rack: usize,
        racks: usize,
        rack_proto: &Protocol,
        n_chunks: u64,
        now: TimeNs,
    ) -> Result<Leaf> {
        let mut engine = SlotEngine::new(up_hop_config(rack, rack_proto, n_chunks))?;
        let _ = engine.start(now);
        Leaf::with_engine(rack, racks, rack_proto, 0, engine)
    }

    /// The cold replacement for a leaf that died: rack epoch `epoch`,
    /// its up-hop engine resumed at `states` (the per-slot maximum over
    /// the rack's published worker snapshots) at `now`, and every other
    /// piece of soft state empty.
    pub fn resume(
        rack: usize,
        racks: usize,
        rack_proto: &Protocol,
        n_chunks: u64,
        epoch: u8,
        states: &[(PoolVersion, u64, bool)],
        now: TimeNs,
    ) -> Result<Leaf> {
        let cfg = up_hop_config(rack, rack_proto, n_chunks);
        let engine = SlotEngine::resume_at(cfg, states, now)?;
        Leaf::with_engine(rack, racks, rack_proto, epoch, engine)
    }

    fn with_engine(
        rack: usize,
        racks: usize,
        rack_proto: &Protocol,
        epoch: u8,
        engine: SlotEngine,
    ) -> Result<Leaf> {
        let (wpr, k, n_slots) = (rack_proto.n_workers, rack_proto.k, rack_proto.pool_size);
        let cache = || (0..n_slots).map(|_| None).collect();
        let frame_cap = frame_capacity(rack_proto);
        Ok(Leaf {
            rack: rack as WorkerId,
            worker_ep0: hier_worker_endpoint(racks, wpr, rack, 0),
            wpr,
            k,
            epoch,
            switch: AuditedSwitch::new(rack_proto, epoch)?,
            engine,
            up_ready: vec![false; n_slots],
            final_cache: [cache(), cache()],
            pending: HashMap::new(),
            rejected: 0,
            reforwards: 0,
            tx: Vec::with_capacity(frame_cap),
            frame_cap,
            qbuf: vec![0; k],
            resends: Vec::with_capacity(n_slots),
        })
    }

    /// Handle one received frame at `now`, staging whatever it causes
    /// into `txb` (a corrupted or foreign datagram is skipped). Returns
    /// whether the up-hop engine's deadlines may have moved (a chunk went
    /// up, or a spine result was accepted): re-read
    /// [`Leaf::next_deadline`] then.
    #[inline]
    pub fn on_frame(&mut self, frame: &[u8], now: TimeNs, txb: &mut TxBatch) -> bool {
        PacketView::parse(frame).is_ok_and(|view| self.on_view(&view, now, txb))
    }

    /// [`Leaf::on_frame`] for a frame the caller has already parsed.
    #[inline]
    pub fn on_view(&mut self, view: &PacketView<'_>, now: TimeNs, txb: &mut TxBatch) -> bool {
        match view.kind() {
            PacketKind::Update => self.on_update(view, now, txb),
            PacketKind::Result => self.on_result(view, now, txb),
        }
    }

    #[inline]
    fn on_update(&mut self, view: &PacketView<'_>, now: TimeNs, txb: &mut TxBatch) -> bool {
        let (wid, ver, idx, off) = (view.wid(), view.ver(), view.idx(), view.off());
        if view.epoch() != self.epoch
            || wid as usize >= self.wpr
            || (idx as usize) >= self.up_ready.len()
            || view.k() != self.k
        {
            // Dead-generation or malformed traffic: the switch counts
            // it (`stale_epoch` / `rejected`) and absorbs it, exactly as
            // the shared ingress does.
            let act = self.switch.on_view(view, &mut self.tx);
            debug_assert!(matches!(act, Err(_) | Ok(WireAction::Drop)));
            return false;
        }
        let ss = self.engine.slot_state(idx).expect("slot validated above");
        let cur_off = ss.chunk * self.k as u64;
        if ss.active && ver == ss.ver && off == cur_off {
            // Current phase → rack-local aggregation. A refusal (`Err`)
            // is already counted in the switch's `rejected`.
            match self.switch.on_view(view, &mut self.tx) {
                Ok(WireAction::Multicast) => {
                    // Rack phase complete. This is the up hop's true
                    // send instant: the slot's RTO clock restarts here
                    // so backoff and Jacobson samples are scoped to
                    // leaf→spine.
                    self.final_cache[ver.index()][idx as usize] = None;
                    self.up_ready[idx as usize] = true;
                    self.engine
                        .rearm_slot(idx, now)
                        .expect("slot validated above");
                    self.send_up(ver, idx, off, false, txb);
                    return true;
                }
                Ok(WireAction::Unicast(dup)) => {
                    // Duplicate after rack completion. The switch's
                    // answer is only the rack *partial* — never serve it
                    // down. Serve the cached global final, or nudge the
                    // spine again.
                    if !self.serve_cached(dup, ver, idx, off, txb) {
                        self.reforwards += 1;
                        self.send_up(ver, idx, off, true, txb);
                    }
                }
                Ok(WireAction::Drop) | Err(_) => {}
            }
        } else if ss.active && (ver == ss.ver || off >= cur_off) {
            // Neither this slot's phase nor the one before it: ahead of
            // the up-hop engine, or the current pool version at a past
            // offset. No worker sends either (self-clocking keeps every
            // worker at most one phase behind), and a probe for the
            // second would seed the spine's fresh cell with zeros.
            self.rejected += 1;
        } else if !self.serve_cached(wid, ver, idx, off, txb) {
            // Laggard one phase behind, cache cold (leaf reboot): probe
            // the spine's shadow copy. Safe with a zero payload: a
            // laggard's phase is complete at the spine with our
            // contributor bit still set, so the probe rides the
            // duplicate path and the zeros are never aggregated.
            let wait = self
                .pending
                .entry((ver.index() as u8, idx, off))
                .or_default();
            if !wait.contains(&wid) {
                wait.push(wid);
            }
            self.reforwards += 1;
            encode_update_into(
                self.rack,
                ver,
                idx,
                off,
                SPINE_EPOCH,
                true,
                &vec![0; self.k],
                txb.push(SPINE_ENDPOINT),
            );
        }
        false
    }

    #[inline]
    fn on_result(&mut self, view: &PacketView<'_>, now: TimeNs, txb: &mut TxBatch) -> bool {
        let (ver, idx, off) = (view.ver(), view.idx(), view.off());
        if (idx as usize) >= self.up_ready.len() || view.k() != self.k {
            self.rejected += 1; // a result for no slot of this leaf
            return false;
        }
        let ss = self.engine.slot_state(idx).expect("slot validated above");
        let is_current = ss.active && ver == ss.ver && off == ss.chunk * self.k as u64;
        if is_current && !self.up_ready[idx as usize] {
            // Early final, possible only right after a reboot: the
            // replacement rack switch has not re-completed this phase.
            // Advancing would abandon a half-aggregated cell whose
            // residue corrupts the slot two phases later; the rack will
            // re-complete and the spine answers the re-send from its
            // shadow.
            return false;
        }
        let outcome = self
            .engine
            .on_result(idx, ver, off, now)
            .expect("slot validated above");
        match outcome {
            ResultOutcome::Accepted { off, .. } => {
                // `next` is deliberately ignored: the next up-hop send
                // happens when the rack completes that chunk, not here.
                self.up_ready[idx as usize] = false;
                view.overwrite_into(&mut self.qbuf);
                self.cache_final(ver, idx, off);
                encode_result_into(
                    self.down_meta(0, ver, idx, off, false),
                    &self.qbuf,
                    &mut self.tx,
                );
                for lw in 0..self.wpr {
                    txb.push(self.worker_ep0 + lw).extend_from_slice(&self.tx);
                }
                true
            }
            ResultOutcome::Stale => {
                // Past phases only reach here as probe answers; serve
                // the waiting laggards.
                if let Some(waiters) = self.pending.remove(&(ver.index() as u8, idx, off)) {
                    view.overwrite_into(&mut self.qbuf);
                    self.cache_final(ver, idx, off);
                    encode_result_into(
                        self.down_meta(0, ver, idx, off, true),
                        &self.qbuf,
                        &mut self.tx,
                    );
                    for w in waiters {
                        txb.push(self.worker_ep0 + w as usize)
                            .extend_from_slice(&self.tx);
                    }
                }
                false
            }
        }
    }

    /// Retransmit, at `now`, every expired up-hop slot whose rack phase
    /// is complete; the others have nothing the spine should see yet
    /// (their backoff still advances in the engine, uncounted; the
    /// forward's `rearm_slot` resets it). Call at [`Leaf::next_deadline`].
    pub fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) {
        let (ready, mut resends) = (&self.up_ready, std::mem::take(&mut self.resends));
        self.engine
            .expired_into(now, |slot| ready[slot as usize], &mut resends);
        for d in &resends {
            self.send_up(d.ver, d.slot, d.off, true, txb);
        }
        self.resends = resends;
    }

    /// When [`Leaf::on_timer`] next has work: the up-hop engine's
    /// earliest deadline.
    pub fn next_deadline(&self) -> Option<TimeNs> {
        self.engine.next_deadline()
    }

    /// The rack switch's counters, plus the frames the leaf refused
    /// before they reached it (in `rejected`).
    pub fn switch_stats(&self) -> SwitchStats {
        let mut stats = self.switch.stats();
        stats.rejected += self.rejected;
        stats
    }

    /// The up-hop (leaf→spine) engine's counters. `retx` counts every
    /// resend the leaf put on the up hop: timer retransmissions of a
    /// completed rack partial, and the re-forwards and probes a worker's
    /// duplicate prompted.
    pub fn up_stats(&self) -> EngineStats {
        let mut stats = self.engine.stats();
        stats.retx += self.reforwards;
        stats
    }

    /// The rack epoch this leaf stamps and accepts.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Up-hop chunks whose spine result the leaf has accepted.
    pub fn completed_chunks(&self) -> u64 {
        self.engine.completed_chunks()
    }

    /// Fabric endpoint of local worker `lw` of this leaf's rack.
    pub fn worker_endpoint(&self, lw: usize) -> usize {
        self.worker_ep0 + lw
    }

    /// Stage the rack's partial for `(ver, idx)` to the spine.
    fn send_up(
        &self,
        ver: PoolVersion,
        idx: SlotIndex,
        off: ElemOffset,
        retransmission: bool,
        txb: &mut TxBatch,
    ) {
        encode_update_into(
            self.rack,
            ver,
            idx,
            off,
            SPINE_EPOCH,
            retransmission,
            self.switch.cell(ver, idx as usize).value,
            txb.push(SPINE_ENDPOINT),
        );
    }

    /// Answer worker `wid`'s `(ver, idx, off)` from the final cache;
    /// false on a miss.
    fn serve_cached(
        &self,
        wid: WorkerId,
        ver: PoolVersion,
        idx: SlotIndex,
        off: ElemOffset,
        txb: &mut TxBatch,
    ) -> bool {
        match &self.final_cache[ver.index()][idx as usize] {
            Some(c) if c.off == off => {
                encode_result_into(
                    self.down_meta(wid, ver, idx, off, true),
                    &c.values,
                    txb.push(self.worker_ep0 + wid as usize),
                );
                true
            }
            _ => false,
        }
    }

    /// Keep `qbuf` as the final of `(ver, idx)` at `off`, reusing the
    /// entry's allocation.
    fn cache_final(&mut self, ver: PoolVersion, idx: SlotIndex, off: ElemOffset) {
        match &mut self.final_cache[ver.index()][idx as usize] {
            Some(c) => {
                c.off = off;
                c.values.copy_from_slice(&self.qbuf);
            }
            entry => {
                *entry = Some(CachedFinal {
                    off,
                    values: self.qbuf.clone(),
                })
            }
        }
    }

    /// A result header for the rack, at the rack's epoch.
    fn down_meta(
        &self,
        wid: WorkerId,
        ver: PoolVersion,
        idx: SlotIndex,
        off: ElemOffset,
        retransmission: bool,
    ) -> ResultMeta {
        ResultMeta {
            wid,
            ver,
            idx,
            off,
            job: 0,
            epoch: self.epoch,
            retransmission,
            f16: false,
        }
    }
}

/// The leaf as an endpoint, as netsim drives it. The threads'
/// [`LeafEndpoint`] adds the kill and the rendezvous and calls the
/// leaf's own methods: through this impl, `hier-udp` ran 6–8 % slower.
impl Endpoint for Leaf {
    #[inline]
    fn on_frame(&mut self, _: usize, frame: &[u8], now: TimeNs, txb: &mut TxBatch) -> Result<bool> {
        Ok(Leaf::on_frame(self, frame, now, txb))
    }

    #[inline]
    fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        Leaf::on_timer(self, now, txb);
        Ok(())
    }

    #[inline]
    fn next_deadline(&self) -> Option<TimeNs> {
        Leaf::next_deadline(self)
    }

    fn frame_capacity(&self) -> usize {
        self.frame_cap
    }
}

/// The up-hop engine of rack `rack`'s leaf: worker `rack` of the spine,
/// over the whole tensor, timed by the protocol's RTO and policy.
fn up_hop_config(rack: usize, rack_proto: &Protocol, n_chunks: u64) -> EngineConfig {
    EngineConfig {
        wid: rack as WorkerId,
        k: rack_proto.k,
        slot_base: 0,
        n_slots: rack_proto.pool_size,
        chunk_base: 0,
        n_chunks,
        rto: Some(rack_proto.rto_ns.max(1)),
        rto_policy: rack_proto.rto_policy,
    }
}

/// A leaf as the executor runs it: the [`Leaf`], its scripted kill and
/// the crash-recovery rendezvous with its rack, both deadlines. Killed,
/// it fences the dead generation, asks its rack for snapshots and is
/// `recovering`: it hears nothing, and every wheel tick it looks whether
/// each worker has published, then resumes as [`Leaf::resume`].
struct LeafEndpoint {
    /// The live leaf; while recovering, the dead one's counters.
    leaf: Leaf,
    rack: usize,
    racks: usize,
    rack_proto: Protocol,
    n_chunks: u64,
    shared: Arc<RackShared>,
    kill_at: Option<TimeNs>,
    /// Killed: waiting for the rack's snapshot generation `.0`; looks
    /// again at `.1`.
    recovering: Option<(u64, TimeNs)>,
    /// Rack switch counters of the leaves killed so far.
    dead_switch: SwitchStats,
    reboots: u64,
}

impl LeafEndpoint {
    /// Resume as a cold replacement once every worker of the rack has
    /// published generation `gen` (or finished).
    fn recover(&mut self, gen: u64, now: TimeNs) -> Result<()> {
        let states = {
            let snaps = self.shared.snaps.lock().expect("rack snapshot lock");
            let published = |s: &Option<PublishedSnapshot>| matches!(s, Some((g, done, _)) if *g == gen || *done);
            if !snaps.iter().all(published) {
                self.recovering = Some((gen, now + WHEEL_TICK_NS));
                return Ok(());
            }
            merged_states(&snaps, self.rack_proto.pool_size)
        };
        let epoch = self.leaf.epoch().wrapping_add(1);
        let (rack, racks, n) = (self.rack, self.racks, self.n_chunks);
        let fresh = Leaf::resume(rack, racks, &self.rack_proto, n, epoch, &states, now)?;
        let dead = std::mem::replace(&mut self.leaf, fresh);
        self.dead_switch.merge(dead.switch_stats());
        self.recovering = None;
        Ok(())
    }
}

impl Endpoint for LeafEndpoint {
    /// A frame read while recovering, or past the kill instant before
    /// the kill has fired, is lost with the dead leaf.
    #[inline]
    fn on_frame(&mut self, _: usize, frame: &[u8], now: TimeNs, txb: &mut TxBatch) -> Result<bool> {
        let dead = self.recovering.is_some() || self.kill_at.is_some_and(|at| at <= now);
        Ok(!dead && self.leaf.on_frame(frame, now, txb))
    }

    fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        if self.kill_at.is_some_and(|at| at <= now) {
            // Fence the dead generation first, then ask for snapshots:
            // release ordering on `snap_gen` makes the new epoch visible
            // to anyone who observes the new generation.
            (self.kill_at, self.reboots) = (None, self.reboots + 1);
            let epoch = self.leaf.epoch().wrapping_add(1);
            self.shared.epoch.store(epoch, Ordering::Release);
            let gen = self.shared.snap_gen.load(Ordering::Relaxed) + 1;
            self.shared.snap_gen.store(gen, Ordering::Release);
            self.recovering = Some((gen, now));
            return Ok(());
        }
        match self.recovering {
            Some((gen, _)) => self.recover(gen, now),
            None => {
                self.leaf.on_timer(now, txb);
                Ok(())
            }
        }
    }

    fn next_deadline(&self) -> Option<TimeNs> {
        let own = match self.recovering {
            Some((_, retry_at)) => Some(retry_at),
            None => self.leaf.next_deadline(),
        };
        own.into_iter().chain(self.kill_at).min()
    }

    fn frame_capacity(&self) -> usize {
        frame_capacity(&self.rack_proto)
    }

    fn progress(&self) -> String {
        let done = self.leaf.completed_chunks();
        format!("leaf rack {} up {done}/{}", self.rack, self.n_chunks)
    }
}

/// The rack half of the engine driver's [`Fence`]: a virtual worker
/// stamps and filters by its rack's current epoch, and publishes its
/// engine's per-slot lower bound whenever the leaf asks (after a crash)
/// and once more, terminally, when it finishes — its thread may exit
/// before the leaf ever asks.
struct RackFence {
    shared: Arc<RackShared>,
    /// Local worker index within the rack.
    lw: usize,
    /// Last snapshot generation this worker published.
    pub_gen: u64,
}

impl RackFence {
    fn publish(&self, engine: &SlotEngine) {
        let mut snaps = self.shared.snaps.lock().expect("rack snapshot lock");
        snaps[self.lw] = Some((self.pub_gen, engine.is_done(), engine.slot_snapshots()));
    }
}

impl Fence for RackFence {
    fn epoch(&self) -> u8 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Snapshot requests are served *before* any packet work: once
    /// published, the engine can only advance on results stamped with
    /// the new epoch.
    fn before_poll(&mut self, engine: &SlotEngine) {
        let gen = self.shared.snap_gen.load(Ordering::Acquire);
        if gen != self.pub_gen {
            self.pub_gen = gen;
            self.publish(engine);
        }
    }

    fn on_done(&mut self, engine: &SlotEngine) {
        self.publish(engine);
    }
}

/// Run one all-reduce over a two-level aggregation tree: one spine,
/// `racks` leaves, and `racks × workers_per_rack` reactor-multiplexed
/// virtual workers — bit-identical to the flat runners and the
/// sequential reference on the same inputs (integer aggregation is
/// order-independent, quantization deterministic).
///
/// `ports` uses the hierarchical endpoint layout
/// ([`hier_fabric_size`]); `updates` is indexed by global worker
/// `w = rack × workers_per_rack + lw`. Only `NumericMode::Fixed32`
/// is supported, as in the other scale runners, and like them the run
/// aggregates in place: the returned tensors reuse the input
/// allocations (see [`crate::reactor::run_allreduce_reactor`]).
pub fn run_allreduce_hier<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &RunConfig,
    hier: &HierConfig,
) -> Result<RunReport> {
    let proto = &resolve_run_proto(proto, &ports)?;
    let racks = hier.racks;
    let wpr = hier.workers_per_rack;
    let n = racks * wpr;
    if racks == 0 || wpr == 0 {
        return Err(Error::InvalidConfig(
            "racks and workers_per_rack must be > 0".into(),
        ));
    }
    if proto.n_workers != n {
        return Err(Error::InvalidConfig(format!(
            "n_workers ({}) must equal racks × workers_per_rack ({racks}×{wpr})",
            proto.n_workers
        )));
    }
    if hier.n_threads == 0 {
        return Err(Error::InvalidConfig("n_threads must be > 0".into()));
    }
    if ports.len() != hier_fabric_size(racks, wpr) {
        return Err(Error::InvalidConfig(format!(
            "need {} ports (spine + {racks} leaves + {n} workers), got {}",
            hier_fabric_size(racks, wpr),
            ports.len()
        )));
    }
    if let Some((r, _)) = hier.kill_leaf {
        if r >= racks {
            return Err(Error::InvalidConfig(format!(
                "kill_leaf rack {r} out of range (racks = {racks})"
            )));
        }
    }
    let mut work = Workload::new(updates, proto)?;

    // Per-level protocols: the rack hop and the spine hop each run the
    // standard single-switch protocol at their own fan-in. Both
    // inherit the (already granule-clamped) RTO policy, and so does the
    // up hop's own engine (from the rack protocol).
    let rack_proto = &Protocol {
        n_workers: wpr,
        ..proto.clone()
    };
    rack_proto.validate()?;
    let spine_proto = &Protocol {
        n_workers: racks,
        ..proto.clone()
    };
    spine_proto.validate()?;
    let n_chunks = work.total_chunks;

    let shared: Vec<Arc<RackShared>> = (0..racks)
        .map(|_| {
            let snaps = Mutex::new(vec![None; wpr]);
            Arc::new(RackShared {
                snaps,
                ..RackShared::default()
            })
        })
        .collect();

    // Peel the fabric apart: [spine | leaves | workers].
    let mut ports = ports;
    let worker_ports = ports.split_off(1 + racks);
    let leaf_ports = ports.split_off(1);
    let spine_port = ports.remove(0);

    // The virtual workers are the flat reactor's engines — one per
    // worker, covering the whole tensor — speaking as rack-local worker
    // `lw` to their rack's leaf, fenced by the rack's epoch.
    let mut engines = Vec::with_capacity(n);
    let regions = work.regions(1).into_iter().flatten();
    for ((w, port), region) in worker_ports.into_iter().enumerate().zip(regions) {
        let (rack, lw) = (w / wpr, w % wpr);
        let fence = RackFence {
            shared: Arc::clone(&shared[rack]),
            lw,
            pub_gen: 0,
        };
        let (ep, wid) = (leaf_endpoint(rack), lw as WorkerId);
        let engine = EngineCtx::new(fence, ep, wid, w, (0, 1), region, rack_proto)?;
        engines.push((engine, port));
    }

    let ((engines, spine, leaves), ran) = endpoint::run(cfg.max_wall, |ex| {
        // The spine *is* a switch shard, shard 0 of 1: `worker_core_endpoint(w,
        // 0, 1) = 1 + w` lines up exactly with `leaf_endpoint(w)`, so each
        // leaf is worker `rack` to it.
        let spine = move || Ok(vec![(ShardEndpoint::new(spine_proto, 0, 1)?, spine_port)]);
        let spine = vec![ex.place(cfg.burst, spine)];
        let leaf_seats = leaf_ports.into_iter().zip(shared).enumerate();
        let leaves: Vec<_> = (leaf_seats.map(|(rack, (port, shared))| {
            let kill_at = (hier.kill_leaf)
                .filter(|&(r, _)| r == rack)
                .map(|(_, at)| at.as_nanos() as TimeNs);
            ex.place(cfg.burst, move || {
                let leaf = LeafEndpoint {
                    leaf: Leaf::new(rack, racks, rack_proto, n_chunks, 0)?,
                    rack,
                    racks,
                    rack_proto: rack_proto.clone(),
                    n_chunks,
                    shared,
                    kill_at,
                    recovering: None,
                    dead_switch: SwitchStats::default(),
                    reboots: 0,
                };
                Ok(vec![(leaf, port)])
            })
        }))
        .collect();
        let engines = ex.deal(cfg.burst, engines, hier.n_threads);
        let engines = ex.join(engines);
        ex.stop();
        (engines, ex.join(spine), ex.join(leaves))
    });
    let spine_stats = spine[0].stats();
    let mut report = HierReport {
        racks,
        workers_per_rack: wpr,
        ..HierReport::default()
    };
    let mut switches = spine_stats;
    for leaf in &leaves {
        let mut stats = leaf.dead_switch; // every generation of the leaf
        stats.merge(leaf.leaf.switch_stats());
        switches.merge(stats);
        report.leaf_switch_stats.push(stats);
        report.leaf_up_stats.push(leaf.leaf.up_stats());
        let epoch = leaf.shared.epoch.load(Ordering::Acquire);
        report.rack_epochs.push(epoch);
        report.leaf_reboots += leaf.reboots;
    }
    ran.status.map_err(|e| with_rejected(e, &switches))?;
    let mut worker_stats = vec![EngineStats::default(); n];
    for engine in engines {
        worker_stats[engine.w].merge(engine.stats());
    }
    Ok(RunReport {
        results: work.split(),
        worker_stats,
        switch_stats: spine_stats,
        transport_stats: ran.ports,
        reactor: Some(ran.reactor),
        hier: Some(report),
        wall: ran.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;
    use crate::faulty::{faulty_fabric, FaultyConfig};
    use crate::reactor::run_allreduce_reactor;
    use crate::runner::run_allreduce;
    use crate::shard::{sharded_channel_fabric, sharded_fabric_size};
    use crate::udp::udp_fabric;
    use switchml_core::agg::allreduce;
    use switchml_core::config::RtoPolicy;
    use switchml_core::packet::{Packet, Payload};

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

    fn hier_channel(racks: usize, wpr: usize) -> Vec<crate::channel::ChannelPort> {
        channel_fabric(hier_fabric_size(racks, wpr))
    }

    /// Four-way differential at 2 racks × 4 workers on channel: the
    /// hierarchy == the flat star (threaded) == the flat reactor ==
    /// the sequential reference, bit for bit, on a ragged tensor.
    #[test]
    fn hier_2x4_matches_flat_and_reference() {
        let (racks, wpr) = (2, 4);
        let n = racks * wpr;
        let elems = 333; // ragged final chunk
        let p = proto(n);
        let cfg = RunConfig::default();
        let hc = HierConfig::new(racks, wpr);
        let hier =
            run_allreduce_hier(hier_channel(racks, wpr), updates(n, elems), &p, &cfg, &hc).unwrap();
        let star = run_allreduce(channel_fabric(n + 1), updates(n, elems), &p, &cfg).unwrap();
        let reactor =
            run_allreduce_reactor(sharded_channel_fabric(n, 1), updates(n, elems), &p, &cfg, 2)
                .unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(hier.results[w], star.results[w], "worker {w} vs star");
            assert_eq!(hier.results[w], reactor.results[w], "worker {w} vs reactor");
            assert_eq!(hier.results[w], reference, "worker {w} vs reference");
        }
        let hr = hier.hier.expect("hier stats present");
        assert_eq!(hr.racks, racks);
        assert_eq!(hr.leaf_switch_stats.len(), racks);
        assert_eq!(hr.rack_epochs, vec![0; racks], "no reboots");
        // The spine saw rack-granular traffic: one *fresh* update per
        // rack per chunk, not one per worker — the cross-rack traffic
        // reduction of §6. Timing-free: on a loaded host the 2 ms up-hop
        // RTO fires spuriously and `updates` also counts the duplicates.
        let chunks = elems.div_ceil(8) as u64;
        let spine = hier.switch_stats;
        assert_eq!(spine.updates - spine.duplicates, racks as u64 * chunks);
        assert_eq!(spine.completions, chunks);
        for (r, leaf) in hr.leaf_switch_stats.iter().enumerate() {
            assert_eq!(leaf.completions, chunks, "rack {r}");
        }
    }

    /// Hostile frames at both levels of the tree: three well-formed
    /// frames the spine must reject and six rack 1's leaf must reject
    /// are queued before the run starts. Neither switch thread is torn
    /// down, each counts exactly its own, and the result is still
    /// bit-identical to the reference.
    #[test]
    fn hier_hostile_frames_are_counted_and_dropped() {
        let (racks, wpr) = (2, 4);
        let n = racks * wpr;
        let elems = 333;
        let p = proto(n);
        let mut ports = hier_channel(racks, wpr);
        let spine_proto = Protocol {
            n_workers: racks,
            ..p.clone()
        };
        for frame in &crate::shard::hostile_frames(&spine_proto)[1..] {
            ports[leaf_endpoint(0)].send(SPINE_ENDPOINT, frame);
        }
        let rack_proto = Protocol {
            n_workers: wpr,
            ..p.clone()
        };
        // A leaf legitimately receives results (from the spine), so its
        // first three are the malformed updates. Then one CRC-valid
        // update on the current (version, slot) far ahead of the up-hop
        // engine, and two results for no slot of the leaf: one past the
        // pool, one of the wrong width.
        let mut leaf_hostile = crate::shard::hostile_frames(&rack_proto)[..3].to_vec();
        let ahead = Packet::update(0, PoolVersion::V0, 0, 1 << 40, vec![7; p.k]);
        let result = |idx: usize, k: usize| Packet {
            kind: PacketKind::Result,
            ..Packet::update(0, PoolVersion::V0, idx as SlotIndex, 0, vec![7; k])
        };
        for pkt in [ahead, result(p.pool_size, p.k), result(0, p.k + 1)] {
            leaf_hostile.push(pkt.encode().to_vec());
        }
        for frame in &leaf_hostile {
            ports[hier_worker_endpoint(racks, wpr, 1, 0)].send(leaf_endpoint(1), frame);
        }
        let report = run_allreduce_hier(
            ports,
            updates(n, elems),
            &p,
            &RunConfig::default(),
            &HierConfig::new(racks, wpr),
        )
        .unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert_eq!(report.switch_stats.rejected, 3, "spine");
        let hr = report.hier.unwrap();
        assert_eq!(hr.leaf_switch_stats[1].rejected, 6, "rack 1 leaf");
        assert_eq!(hr.leaf_switch_stats[0].rejected, 0, "rack 0 leaf");
    }

    /// Same differential at 4 racks × 8 workers.
    #[test]
    fn hier_4x8_matches_flat_and_reference() {
        let (racks, wpr) = (4, 8);
        let n = racks * wpr;
        let elems = 257;
        let p = proto(n);
        let cfg = RunConfig::default();
        let hc = HierConfig {
            n_threads: 4,
            ..HierConfig::new(racks, wpr)
        };
        let hier =
            run_allreduce_hier(hier_channel(racks, wpr), updates(n, elems), &p, &cfg, &hc).unwrap();
        let reactor =
            run_allreduce_reactor(sharded_channel_fabric(n, 1), updates(n, elems), &p, &cfg, 4)
                .unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(hier.results[w], reactor.results[w], "worker {w} vs flat");
            assert_eq!(hier.results[w], reference, "worker {w} vs reference");
        }
    }

    /// Real kernel datagrams through the whole tree: worker→leaf GSO
    /// trains, leaf→spine re-aggregation, bit-identical to the flat
    /// star on the same UDP transport and to the reference.
    #[test]
    fn hier_udp_2x4_matches_flat_and_reference() {
        let (racks, wpr) = (2, 4);
        let n = racks * wpr;
        let elems = 256;
        let p = proto(n);
        let cfg = RunConfig::default();
        let hc = HierConfig::new(racks, wpr);
        let ports = udp_fabric(hier_fabric_size(racks, wpr)).unwrap();
        let hier = run_allreduce_hier(ports, updates(n, elems), &p, &cfg, &hc).unwrap();
        let flat_ports = udp_fabric(sharded_fabric_size(n, 1)).unwrap();
        let flat = run_allreduce_reactor(flat_ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(hier.results[w], flat.results[w], "worker {w} vs flat");
            assert_eq!(hier.results[w], reference, "worker {w} vs reference");
        }
    }

    /// 5% loss on *every* link (both hops) with adaptive RTO on both
    /// hops: worker-hop and up-hop retransmissions both fire, both
    /// Jacobson estimators take samples, and the answer is exact.
    #[test]
    fn hier_4x8_loss_adaptive_rto_both_hops() {
        let (racks, wpr) = (4, 8);
        let n = racks * wpr;
        let elems = 400;
        let p = Protocol {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        let (ports, loss_stats) =
            faulty_fabric(hier_channel(racks, wpr), FaultyConfig::loss_only(0.05), 77);
        let cfg = RunConfig::default();
        let hc = HierConfig {
            n_threads: 4,
            ..HierConfig::new(racks, wpr)
        };
        let report = run_allreduce_hier(ports, updates(n, elems), &p, &cfg, &hc).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert!(loss_stats.dropped() > 0, "5% loss should drop something");
        let worker_retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        assert!(worker_retx > 0, "worker-hop losses must retransmit");
        let hr = report.hier.unwrap();
        let up_samples: u64 = hr.leaf_up_stats.iter().map(|s| s.rtt_samples).sum();
        assert!(up_samples > 0, "up-hop adaptive estimator must sample");
    }

    /// Loss over real UDP with GRO engaged (burst ≥ 8), recovered on
    /// both hops, still bit-identical.
    #[test]
    fn hier_udp_loss_is_bit_identical() {
        let (racks, wpr) = (2, 4);
        let n = racks * wpr;
        let elems = 320;
        let p = Protocol {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        let base = udp_fabric(hier_fabric_size(racks, wpr)).unwrap();
        let (ports, loss_stats) = faulty_fabric(base, FaultyConfig::loss_only(0.05), 77);
        let cfg = RunConfig::default();
        let hc = HierConfig::new(racks, wpr);
        let report = run_allreduce_hier(ports, updates(n, elems), &p, &cfg, &hc).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert!(loss_stats.dropped() > 0, "5% loss should drop something");
    }

    /// Rack-granularity failure recovery: kill leaf 1 mid-stream. The
    /// replacement bumps the rack epoch, resumes from worker
    /// snapshots, re-drives only its own rack (rack 0's epoch stays
    /// 0), and the final tensors are still bit-identical everywhere.
    #[test]
    fn hier_leaf_kill_recovers_bit_identical() {
        let (racks, wpr) = (2, 4);
        let n = racks * wpr;
        let elems = 16_384; // long enough that the kill lands mid-run
        let p = Protocol { k: 32, ..proto(n) };
        let cfg = RunConfig::default();
        let hc = HierConfig {
            kill_leaf: Some((1, Duration::from_millis(1))),
            ..HierConfig::new(racks, wpr)
        };
        let report =
            run_allreduce_hier(hier_channel(racks, wpr), updates(n, elems), &p, &cfg, &hc).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        let hr = report.hier.unwrap();
        assert_eq!(hr.leaf_reboots, 1, "the scripted kill must have fired");
        assert_eq!(hr.rack_epochs[1], 1, "killed rack fenced to epoch 1");
        assert_eq!(hr.rack_epochs[0], 0, "quiet rack never re-driven");
    }

    /// The §6 scale story: 128 virtual workers (8 racks × 16) on 4
    /// reactor threads — a flat thread-per-worker topology cannot even
    /// spawn this on a small host — bit-identical to the reference.
    #[test]
    fn hier_128_workers_across_8_racks() {
        let (racks, wpr) = (8, 16);
        let n = racks * wpr;
        let elems = 96;
        let p = proto(n);
        let cfg = RunConfig::default();
        let hc = HierConfig {
            n_threads: 4,
            ..HierConfig::new(racks, wpr)
        };
        let report =
            run_allreduce_hier(hier_channel(racks, wpr), updates(n, elems), &p, &cfg, &hc).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        let rs = report.reactor.unwrap();
        assert_eq!(rs.engines, n as u64);
        assert!(rs.engines_per_thread() >= 32.0);
    }

    /// A tree whose every frame is lost fails at its wall-clock budget
    /// with one error naming every unfinished endpoint: each engine and
    /// each leaf with its progress, and the spine with its rejections.
    #[test]
    fn hier_blackout_names_every_unfinished_endpoint() {
        let (racks, wpr) = (2, 2);
        let n = racks * wpr;
        let (ports, _) = faulty_fabric(hier_channel(racks, wpr), FaultyConfig::loss_only(1.0), 5);
        let cfg = RunConfig {
            max_wall: Duration::from_millis(300),
            ..RunConfig::default()
        };
        let hc = HierConfig::new(racks, wpr);
        let err = run_allreduce_hier(ports, updates(n, 64), &proto(n), &cfg, &hc).unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("exceeded the wall-clock budget"), "{msg}");
        let names = ["w0c0 0/8", "w1c0 0/8", "w2c0 0/8", "w3c0 0/8"]
            .into_iter()
            .chain([
                "leaf rack 0 up 0/8",
                "leaf rack 1 up 0/8",
                "shard 0 rejected 0",
            ]);
        for name in names {
            assert!(msg.contains(name), "{name} unnamed in: {msg}");
        }
    }

    #[test]
    fn hier_misconfiguration_rejected() {
        let cfg = RunConfig::default();
        let hc = HierConfig::new(2, 4);
        // n_workers mismatch.
        assert!(
            run_allreduce_hier(hier_channel(2, 4), updates(8, 16), &proto(7), &cfg, &hc).is_err()
        );
        // Wrong port count.
        assert!(
            run_allreduce_hier(channel_fabric(5), updates(8, 16), &proto(8), &cfg, &hc).is_err()
        );
        // Non-Fixed32 mode.
        let p16 = Protocol {
            mode: switchml_core::config::NumericMode::Float16,
            ..proto(8)
        };
        assert!(run_allreduce_hier(hier_channel(2, 4), updates(8, 16), &p16, &cfg, &hc).is_err());
        // Zero reactor threads.
        let hc0 = HierConfig {
            n_threads: 0,
            ..HierConfig::new(2, 4)
        };
        assert!(
            run_allreduce_hier(hier_channel(2, 4), updates(8, 16), &proto(8), &cfg, &hc0).is_err()
        );
        // Kill target out of range.
        let hck = HierConfig {
            kill_leaf: Some((2, Duration::ZERO)),
            ..HierConfig::new(2, 4)
        };
        assert!(
            run_allreduce_hier(hier_channel(2, 4), updates(8, 16), &proto(8), &cfg, &hck).is_err()
        );
    }

    // ------------------------------------------------ the sans-IO leaf

    /// Rack 1 of 2, two workers, k = 2, two slots, four chunks, 1 µs
    /// fixed up-hop RTO.
    fn leaf_proto() -> Protocol {
        Protocol {
            n_workers: 2,
            k: 2,
            pool_size: 2,
            rto_ns: 1_000,
            ..Protocol::default()
        }
    }

    /// Rack 1's replacement leaf at rack epoch 3, resumed at the start:
    /// what it stamps below differs from the spine's generation 0.
    fn leaf() -> Leaf {
        let start = [(PoolVersion::V0, 0, true), (PoolVersion::V0, 1, true)];
        Leaf::resume(1, 2, &leaf_proto(), 4, 3, &start, 0).unwrap()
    }

    fn update(wid: u16, ver: PoolVersion, idx: u32, off: u64, v: i32, epoch: u8) -> Vec<u8> {
        let mut p = Packet::update(wid, ver, idx, off, vec![v; 2]);
        p.epoch = epoch;
        p.encode().to_vec()
    }

    fn result(ver: PoolVersion, idx: u32, off: u64, v: Vec<i32>) -> Vec<u8> {
        let p = Packet {
            kind: PacketKind::Result,
            ..Packet::update(0, ver, idx, off, v)
        };
        p.encode().to_vec()
    }

    /// Feed `frame` at `now`: the frames the leaf staged, decoded, with
    /// their endpoints.
    fn feed(leaf: &mut Leaf, frame: &[u8], now: TimeNs) -> Vec<(usize, Packet)> {
        let mut txb = TxBatch::new(0);
        leaf.on_frame(frame, now, &mut txb);
        staged(&txb)
    }

    fn staged(txb: &TxBatch) -> Vec<(usize, Packet)> {
        let frames = txb.frames().iter().map(|f| Packet::decode(f).unwrap());
        txb.dests().iter().copied().zip(frames).collect()
    }

    /// Both workers' slot-0 updates at epoch 3: the rack completes.
    fn complete_slot0(leaf: &mut Leaf) -> Vec<(usize, Packet)> {
        assert!(feed(leaf, &update(0, PoolVersion::V0, 0, 0, 1, 3), 0).is_empty());
        feed(leaf, &update(1, PoolVersion::V0, 0, 0, 2, 3), 0)
    }

    /// A leaf endpoint reads a frame that arrives past its kill instant,
    /// before the kill deadline has fired, as the dead leaf it is: the
    /// rack's completion goes nowhere. Without the kill it goes up.
    #[test]
    fn hier_leaf_drops_frames_read_past_its_kill() {
        let run = |kill_at: Option<TimeNs>| {
            let mut ep = LeafEndpoint {
                leaf: leaf(),
                rack: 1,
                racks: 2,
                rack_proto: leaf_proto(),
                n_chunks: 4,
                shared: Arc::new(RackShared {
                    snaps: Mutex::new(vec![None; 2]),
                    ..RackShared::default()
                }),
                kill_at,
                recovering: None,
                dead_switch: SwitchStats::default(),
                reboots: 0,
            };
            let mut txb = TxBatch::new(0);
            for (wid, v) in [(0, 1), (1, 2)] {
                let frame = update(wid, PoolVersion::V0, 0, 0, v, 3);
                ep.on_frame(1 + 2 + wid as usize, &frame, 10, &mut txb)
                    .unwrap();
            }
            staged(&txb).len()
        };
        assert_eq!(run(None), 1, "the rack's partial goes up");
        assert_eq!(run(Some(10)), 0, "a killed leaf forwarded its rack");
    }

    #[test]
    fn hier_leaf_rack_completion_sends_one_update_up() {
        let mut leaf = leaf();
        let sent = complete_slot0(&mut leaf);
        assert_eq!(sent.len(), 1, "{sent:?}");
        let (dest, up) = &sent[0];
        assert_eq!(*dest, SPINE_ENDPOINT);
        assert_eq!(up.kind, PacketKind::Update);
        assert_eq!((up.wid, up.epoch, up.retransmission), (1, 0, false));
        assert_eq!((up.ver, up.idx, up.off), (PoolVersion::V0, 0, 0));
        assert_eq!(up.payload, Payload::I32(vec![3, 3]));
    }

    #[test]
    fn hier_leaf_duplicate_before_final_reforwards_the_partial() {
        let mut leaf = leaf();
        complete_slot0(&mut leaf);
        let sent = feed(&mut leaf, &update(0, PoolVersion::V0, 0, 0, 1, 3), 5);
        assert_eq!(sent.len(), 1, "{sent:?}");
        let (dest, up) = &sent[0];
        assert_eq!(*dest, SPINE_ENDPOINT);
        assert_eq!(up.kind, PacketKind::Update);
        assert_eq!((up.wid, up.epoch, up.retransmission), (1, 0, true));
        assert_eq!(up.payload, Payload::I32(vec![3, 3]));
    }

    #[test]
    fn hier_leaf_duplicate_after_final_is_served_from_the_cache() {
        let mut leaf = leaf();
        complete_slot0(&mut leaf);
        let down = feed(&mut leaf, &result(PoolVersion::V0, 0, 0, vec![33, 33]), 5);
        let dests: Vec<usize> = down.iter().map(|(d, _)| *d).collect();
        assert_eq!(
            dests,
            vec![leaf.worker_endpoint(0), leaf.worker_endpoint(1)]
        );
        assert!(down.iter().all(|(_, r)| r.epoch == 3 && !r.retransmission));
        // Worker 1 missed the multicast and retransmits.
        let sent = feed(&mut leaf, &update(1, PoolVersion::V0, 0, 0, 2, 3), 9);
        assert_eq!(sent.len(), 1, "{sent:?}");
        let (dest, r) = &sent[0];
        assert_eq!(*dest, leaf.worker_endpoint(1));
        assert_eq!(r.kind, PacketKind::Result);
        assert_eq!((r.wid, r.epoch, r.retransmission), (1, 3, true));
        assert_eq!((r.ver, r.idx, r.off), (PoolVersion::V0, 0, 0));
        assert_eq!(r.payload, Payload::I32(vec![33, 33]));
    }

    #[test]
    fn hier_leaf_misdirected_results_are_counted_and_dropped() {
        let mut leaf = leaf();
        for bad in [
            result(PoolVersion::V0, 2, 0, vec![1, 1]), // past the pool
            result(PoolVersion::V0, 0, 0, vec![1, 1, 1]), // wrong width
        ] {
            assert!(feed(&mut leaf, &bad, 0).is_empty());
        }
        assert_eq!(leaf.switch_stats().rejected, 2);
        assert_eq!(leaf.up_stats().results + leaf.up_stats().stale, 0);
    }

    /// Updates no worker sends — ahead of the up-hop engine, or on the
    /// current pool version at a past offset — are counted and dropped:
    /// nothing reaches the rack switch or the spine.
    #[test]
    fn hier_leaf_refuses_updates_ahead_of_its_engine() {
        let mut leaf = leaf();
        assert!(feed(&mut leaf, &update(0, PoolVersion::V0, 0, 1 << 40, 1, 3), 0).is_empty());
        complete_slot0(&mut leaf);
        feed(&mut leaf, &result(PoolVersion::V0, 0, 0, vec![3, 3]), 5);
        // Slot 0 is at chunk 2 on V1 now: a V1 update at offset 0 would
        // be a probe into the spine's fresh cell.
        assert!(feed(&mut leaf, &update(0, PoolVersion::V1, 0, 0, 1, 3), 6).is_empty());
        let stats = leaf.switch_stats();
        assert_eq!((stats.rejected, stats.updates), (2, 2));
    }

    /// The `up_ready` gate: a spine result for a phase the rack has not
    /// completed is dropped without advancing the up-hop engine; once
    /// the rack completes, the same result is accepted.
    #[test]
    fn hier_leaf_spine_result_before_rack_completion_is_dropped() {
        let mut leaf = leaf();
        let early = result(PoolVersion::V0, 0, 0, vec![3, 3]);
        assert!(feed(&mut leaf, &update(0, PoolVersion::V0, 0, 0, 1, 3), 0).is_empty());
        let mut txb = TxBatch::new(0);
        assert!(!leaf.on_frame(&early, 1, &mut txb));
        assert!(txb.is_empty());
        assert_eq!(leaf.up_stats().results, 0);
        assert_eq!(
            feed(&mut leaf, &update(1, PoolVersion::V0, 0, 0, 2, 3), 2).len(),
            1
        );
        assert_eq!(feed(&mut leaf, &early, 3).len(), 2, "multicast to the rack");
        assert_eq!(leaf.up_stats().results, 1);
    }

    /// `on_timer` retransmits only slots whose rack phase is complete:
    /// slot 0 went up, slot 1 still waits for its rack.
    #[test]
    fn hier_leaf_timer_retransmits_only_up_ready_slots() {
        let mut leaf = leaf();
        complete_slot0(&mut leaf);
        assert!(feed(&mut leaf, &update(0, PoolVersion::V0, 1, 2, 1, 3), 0).is_empty());
        let due = leaf.next_deadline().expect("armed");
        let mut txb = TxBatch::new(0);
        leaf.on_timer(due, &mut txb);
        let sent = staged(&txb);
        assert_eq!(sent.len(), 1, "{sent:?}");
        let (dest, up) = &sent[0];
        assert_eq!(*dest, SPINE_ENDPOINT);
        assert_eq!((up.idx, up.off, up.retransmission), (0, 0, true));
        assert_eq!(up.payload, Payload::I32(vec![3, 3]));
        // Both slots expired; the one not sent is not counted.
        assert_eq!(leaf.up_stats().retx, 1);
    }
}
