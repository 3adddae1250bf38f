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
//! rack's leaf. The spine is the unmodified sharded switch loop
//! (`crate::shard::shard_switch_loop`) with `n_workers = racks`:
//! from the spine's point of view each *leaf* is just a worker with
//! `wid = rack`.
//!
//! ## The leaf: switch below, worker above
//!
//! A leaf owns two coupled state machines:
//!
//! * a rack-local `ReliableSwitch` (`n_workers = workers_per_rack`)
//!   that aggregates its rack exactly like the flat switch loop, and
//! * an up-hop [`SlotEngine`] (`wid = rack`) toward the spine, reusing
//!   the worker side's retransmission state machine and the hashed
//!   [`TimerWheel`] — the leaf→spine hop is its **own RTO domain**
//!   (its own engine and Jacobson estimator, seeded from the
//!   protocol's `rto_ns`), so rack-local timers and cross-"rack"
//!   timers back off independently and Jacobson samples on the up hop
//!   measure leaf→spine, never the rack.
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
//! rack: the replacement leaf bumps the rack epoch (the packet
//! generation byte, scoped per level — the spine's domain stays at
//! generation 0 and is never touched), waits for each of its workers
//! to publish a [`SlotEngine::slot_snapshots`] lower bound, resumes
//! its up-hop engine at the per-slot **maximum** across those
//! snapshots ([`SlotEngine::resume_at`]), and rebuilds rack state from
//! the workers' retransmissions. Laggard workers one phase behind the
//! resumed engine are served from the leaf's final-result cache, or —
//! when the cache died with the old leaf — by *probing* the spine's
//! shadow copy: the probe is a zero-payload retransmission that is
//! guaranteed to take the switch's duplicate-after-completion path
//! (the laggard's phase is complete at the spine with this rack's
//! contributor bit still set), so the zeros are never aggregated.
//! Quiet racks never see any of this; their traffic never stops.

use crate::port::{BurstBuf, IdleBackoff, Port, PortStats, TxBatch};
use crate::reactor::{
    run_engines, EngineCtx, Fence, ReactorStats, Workload, WHEEL_BUCKETS, WHEEL_TICK_NS,
};
use crate::runner::{frame_capacity, resolve_run_proto, RunConfig, RunReport};
use crate::shard::{shard_switch_loop, with_rejected, AuditedSwitch, ViewSwitch};
use crate::wheel::TimerWheel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use switchml_core::config::{Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::packet::{
    encode_result_into, encode_update_into, ElemOffset, PacketKind, PacketView, PoolVersion,
    ResultMeta, SlotIndex, WireElems, WorkerId,
};
use switchml_core::switch::{SwitchStats, WireAction};
use switchml_core::worker::engine::{
    EngineConfig, EngineStats, ResultOutcome, SlotEngine, SlotSnapshot,
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

/// Up-hop parameters shared by every leaf.
#[derive(Clone, Copy)]
struct UpHop {
    total_chunks: u64,
    rto: TimeNs,
}

struct LeafOutcome {
    switch_stats: SwitchStats,
    up_stats: EngineStats,
    port_stats: PortStats,
    /// The loop's [`IdleBackoff`] counters.
    waits: ReactorStats,
    epoch: u8,
    reboots: u64,
}

/// One leaf switch: rack-local aggregation below, worker protocol
/// above, run-to-completion over a non-blocking burst poll (the same
/// `Duration::ZERO` contract as a multiplexing reactor thread).
///
/// This is the one switch loop that does not go through
/// [`crate::shard::switch_ingress`]: every update is gated on the
/// up-hop engine's state *before* it may touch the rack switch (current
/// phase → aggregate; behind → serve the cached final or probe the
/// spine; ahead → invariant error), and the rack switch's answers are
/// never what goes on the wire — a completion becomes an up-hop send, a
/// duplicate is answered from the final cache. It shares the audited
/// switch and the count-and-drop rule for frames the switch rejects.
#[allow(clippy::too_many_arguments)]
fn leaf_loop<P: Port>(
    mut port: P,
    rack: usize,
    racks: usize,
    rack_proto: &Protocol,
    up: UpHop,
    burst: usize,
    shared: &RackShared,
    kill_at: Option<Duration>,
    stop: &AtomicBool,
    epoch0: Instant,
    deadline: Instant,
) -> Result<LeafOutcome> {
    let wpr = rack_proto.n_workers;
    let k = rack_proto.k;
    let n_slots = rack_proto.pool_size;
    let wep = |lw: usize| hier_worker_endpoint(racks, wpr, rack, lw);
    let now_ns = || epoch0.elapsed().as_nanos() as u64;
    let ecfg = EngineConfig {
        wid: rack as WorkerId,
        k,
        slot_base: 0,
        n_slots,
        chunk_base: 0,
        n_chunks: up.total_chunks,
        rto: Some(up.rto),
        rto_policy: rack_proto.rto_policy,
    };

    let mut switch = AuditedSwitch::new(rack_proto, 0)?;
    let mut engine = SlotEngine::new(ecfg)?;
    // The initial window is *not* sent: on the up hop a chunk goes out
    // only when the rack completes it. The engine still arms the full
    // window's slots so `slot_state` tracks what the rack owes.
    let _ = engine.start(now_ns());
    let mut up_ready = vec![false; n_slots];
    let mut final_cache: [Vec<Option<CachedFinal>>; 2] = [
        (0..n_slots).map(|_| None).collect(),
        (0..n_slots).map(|_| None).collect(),
    ];
    // Laggards waiting on a spine shadow probe, keyed by
    // (pool version, slot, element offset).
    let mut pending: HashMap<(u8, SlotIndex, ElemOffset), Vec<WorkerId>> = HashMap::new();
    let mut wheel = TimerWheel::new(1, WHEEL_TICK_NS, WHEEL_BUCKETS);
    if let Some(dl) = engine.next_deadline() {
        wheel.schedule(0, dl);
    }

    let mut acc_switch_stats = SwitchStats::default();
    let mut rack_epoch: u8 = 0;
    let mut reboots = 0u64;
    let mut killed = false;

    let frame_cap = frame_capacity(rack_proto);
    let mut rxb = BurstBuf::new(burst, frame_cap);
    let mut txb = TxBatch::new(frame_cap);
    let mut tx = Vec::with_capacity(frame_cap);
    let mut qbuf = vec![0i32; k];
    let zeros = vec![0i32; k];
    let mut idle = IdleBackoff::new();

    while !stop.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(format!(
                "leaf rack {rack} exceeded the wall-clock budget ({}/{} up chunks)",
                engine.completed_chunks(),
                up.total_chunks
            )));
        }

        // Scripted crash: lose every byte of soft state, then recover
        // as a cold replacement leaf.
        if let Some(at) = kill_at {
            if !killed && epoch0.elapsed() >= at {
                killed = true;
                reboots += 1;
                acc_switch_stats.merge(switch.stats());
                // Fence the dead generation first, then ask the rack
                // for snapshots; release ordering on `snap_gen` makes
                // the new epoch visible to anyone who observes the new
                // generation.
                rack_epoch = rack_epoch.wrapping_add(1);
                shared.epoch.store(rack_epoch, Ordering::Release);
                let gen = shared.snap_gen.load(Ordering::Relaxed) + 1;
                shared.snap_gen.store(gen, Ordering::Release);
                let states = loop {
                    if Instant::now() > deadline || stop.load(Ordering::Acquire) {
                        return Err(Error::ProtocolViolation(format!(
                            "leaf rack {rack} interrupted mid-recovery"
                        )));
                    }
                    {
                        let snaps = shared.snaps.lock().expect("rack snapshot lock");
                        if snaps
                            .iter()
                            .all(|s| matches!(s, Some((g, done, _)) if *g == gen || *done))
                        {
                            break merged_states(&snaps, n_slots);
                        }
                    }
                    idle.idle(None);
                };
                engine = SlotEngine::resume_at(ecfg, &states, now_ns())?;
                switch = AuditedSwitch::new(rack_proto, rack_epoch)?;
                up_ready = vec![false; n_slots];
                final_cache = [
                    (0..n_slots).map(|_| None).collect(),
                    (0..n_slots).map(|_| None).collect(),
                ];
                pending.clear();
                wheel = TimerWheel::new(1, WHEEL_TICK_NS, WHEEL_BUCKETS);
                if let Some(dl) = engine.next_deadline() {
                    wheel.schedule(0, dl);
                }
            }
        }

        let mut progress = false;
        let mut rearm_wheel = false;
        if port.recv_batch(&mut rxb, Duration::ZERO) > 0 {
            progress = true;
            for (_from, frame) in rxb.iter() {
                let Ok(view) = PacketView::parse(frame) else {
                    continue; // corrupted / foreign datagram
                };
                match view.kind() {
                    PacketKind::Update => {
                        let (wid, ver, idx, off) = (view.wid(), view.ver(), view.idx(), view.off());
                        if view.epoch() != rack_epoch
                            || wid as usize >= wpr
                            || (idx as usize) >= n_slots
                            || view.k() != k
                        {
                            // Dead-generation or malformed traffic:
                            // the switch counts it (`stale_epoch` /
                            // `rejected`) and absorbs it, exactly as
                            // the shared ingress does.
                            let act = switch.on_view(&view, &mut tx);
                            debug_assert!(matches!(act, Err(_) | Ok(WireAction::Drop)));
                            continue;
                        }
                        let ss = engine.slot_state(idx).expect("slot validated above");
                        let cur_off = ss.chunk * k as u64;
                        if ss.active && ver == ss.ver && off == cur_off {
                            // Current phase → rack-local aggregation.
                            match switch.on_view(&view, &mut tx)? {
                                WireAction::Multicast => {
                                    // Rack phase complete. This is the
                                    // up hop's true send instant: the
                                    // slot's RTO clock restarts here so
                                    // backoff and Jacobson samples are
                                    // scoped to leaf→spine.
                                    final_cache[ver.index()][idx as usize] = None;
                                    up_ready[idx as usize] = true;
                                    engine.rearm_slot(idx, now_ns())?;
                                    rearm_wheel = true;
                                    let cell = switch.cell(ver, idx as usize);
                                    encode_update_into(
                                        rack as WorkerId,
                                        ver,
                                        idx,
                                        off,
                                        SPINE_EPOCH,
                                        false,
                                        cell.value,
                                        txb.push(SPINE_ENDPOINT),
                                    );
                                }
                                WireAction::Unicast(dup) => {
                                    // Duplicate after rack completion.
                                    // The switch's answer is only the
                                    // rack *partial* — never serve it
                                    // down. Serve the cached global
                                    // final, or nudge the spine again.
                                    match &final_cache[ver.index()][idx as usize] {
                                        Some(c) if c.off == off => {
                                            encode_result_into(
                                                ResultMeta {
                                                    wid: dup,
                                                    ver,
                                                    idx,
                                                    off,
                                                    job: 0,
                                                    epoch: rack_epoch,
                                                    retransmission: true,
                                                    f16: false,
                                                },
                                                &c.values,
                                                txb.push(wep(dup as usize)),
                                            );
                                        }
                                        _ => {
                                            let cell = switch.cell(ver, idx as usize);
                                            encode_update_into(
                                                rack as WorkerId,
                                                ver,
                                                idx,
                                                off,
                                                SPINE_EPOCH,
                                                true,
                                                cell.value,
                                                txb.push(SPINE_ENDPOINT),
                                            );
                                        }
                                    }
                                }
                                WireAction::Drop => {}
                            }
                        } else if ss.active && off >= cur_off {
                            return Err(Error::ProtocolViolation(format!(
                                "rack {rack}: worker {wid} is ahead of the up-hop engine \
                                 (slot {idx} off {off}, engine at off {cur_off})"
                            )));
                        } else {
                            // Laggard — self-clocking bounds it to
                            // exactly one phase behind.
                            match &final_cache[ver.index()][idx as usize] {
                                Some(c) if c.off == off => {
                                    encode_result_into(
                                        ResultMeta {
                                            wid,
                                            ver,
                                            idx,
                                            off,
                                            job: 0,
                                            epoch: rack_epoch,
                                            retransmission: true,
                                            f16: false,
                                        },
                                        &c.values,
                                        txb.push(wep(wid as usize)),
                                    );
                                }
                                _ => {
                                    // Cold cache (leaf reboot): probe
                                    // the spine's shadow copy. Safe
                                    // with a zero payload: a laggard's
                                    // phase is complete at the spine
                                    // with our contributor bit still
                                    // set, so the probe rides the
                                    // duplicate path and the zeros are
                                    // never aggregated.
                                    let wait =
                                        pending.entry((ver.index() as u8, idx, off)).or_default();
                                    if !wait.contains(&wid) {
                                        wait.push(wid);
                                    }
                                    encode_update_into(
                                        rack as WorkerId,
                                        ver,
                                        idx,
                                        off,
                                        SPINE_EPOCH,
                                        true,
                                        &zeros,
                                        txb.push(SPINE_ENDPOINT),
                                    );
                                }
                            }
                        }
                    }
                    PacketKind::Result => {
                        let (ver, idx, off) = (view.ver(), view.idx(), view.off());
                        if (idx as usize) >= n_slots || view.k() != k {
                            continue; // foreign datagram
                        }
                        let t = now_ns();
                        let ss = engine.slot_state(idx).expect("slot validated above");
                        let is_current = ss.active && ver == ss.ver && off == ss.chunk * k as u64;
                        if is_current && !up_ready[idx as usize] {
                            // Early final, possible only right after a
                            // reboot: the replacement rack switch has
                            // not re-completed this phase. Advancing
                            // would abandon a half-aggregated cell
                            // whose residue corrupts the slot two
                            // phases later; the rack will re-complete
                            // and the spine answers the re-send from
                            // its shadow.
                            continue;
                        }
                        match engine.on_result(idx, ver, off, t)? {
                            ResultOutcome::Accepted { off, .. } => {
                                // `next` is deliberately ignored: the
                                // next up-hop send happens when the
                                // rack completes that chunk, not here.
                                up_ready[idx as usize] = false;
                                rearm_wheel = true;
                                view.overwrite_into(&mut qbuf[..k]);
                                let entry = &mut final_cache[ver.index()][idx as usize];
                                match entry {
                                    Some(c) => {
                                        c.off = off;
                                        c.values.clear();
                                        c.values.extend_from_slice(&qbuf[..k]);
                                    }
                                    None => {
                                        *entry = Some(CachedFinal {
                                            off,
                                            values: qbuf[..k].to_vec(),
                                        });
                                    }
                                }
                                encode_result_into(
                                    ResultMeta {
                                        wid: 0,
                                        ver,
                                        idx,
                                        off,
                                        job: 0,
                                        epoch: rack_epoch,
                                        retransmission: false,
                                        f16: false,
                                    },
                                    &qbuf[..k],
                                    &mut tx,
                                );
                                for lw in 0..wpr {
                                    txb.push(wep(lw)).extend_from_slice(&tx);
                                }
                            }
                            ResultOutcome::Stale => {
                                // Past phases only reach here as probe
                                // answers; serve the waiting laggards.
                                if let Some(waiters) =
                                    pending.remove(&(ver.index() as u8, idx, off))
                                {
                                    view.overwrite_into(&mut qbuf[..k]);
                                    final_cache[ver.index()][idx as usize] = Some(CachedFinal {
                                        off,
                                        values: qbuf[..k].to_vec(),
                                    });
                                    encode_result_into(
                                        ResultMeta {
                                            wid: 0,
                                            ver,
                                            idx,
                                            off,
                                            job: 0,
                                            epoch: rack_epoch,
                                            retransmission: true,
                                            f16: false,
                                        },
                                        &qbuf[..k],
                                        &mut tx,
                                    );
                                    for w in waiters {
                                        txb.push(wep(w as usize)).extend_from_slice(&tx);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Timer phase: the up hop's own RTO domain. Only slots whose
        // rack phase is complete retransmit — the others have nothing
        // the spine should see yet (their backoff still advances in
        // the engine; `rearm_slot` resets it at the true send).
        let t = now_ns();
        if wheel.advance(t, |_| {}) > 0 {
            for d in engine.expired(t) {
                if !up_ready[d.slot as usize] {
                    continue;
                }
                let cell = switch.cell(d.ver, d.slot as usize);
                encode_update_into(
                    rack as WorkerId,
                    d.ver,
                    d.slot,
                    d.off,
                    SPINE_EPOCH,
                    true,
                    cell.value,
                    txb.push(SPINE_ENDPOINT),
                );
            }
            rearm_wheel = true;
            progress = true;
        }
        // Set on every accepted spine result (the only event that moves
        // the estimate the engine's deadlines derive from), on every
        // `rearm_slot` and on every sweep: the wheel never holds a
        // stale deadline.
        if rearm_wheel {
            match engine.next_deadline() {
                Some(dl) => wheel.schedule(0, dl),
                None => wheel.cancel(0),
            }
        }
        txb.flush(&mut port);

        if progress {
            idle.progress();
        } else {
            let hint = wheel.next_deadline().map(|d| d.saturating_sub(t));
            idle.idle(hint);
        }
    }

    acc_switch_stats.merge(switch.stats());
    Ok(LeafOutcome {
        switch_stats: acc_switch_stats,
        up_stats: engine.stats(),
        port_stats: port.stats(),
        waits: ReactorStats::waits(&idle),
        epoch: rack_epoch,
        reboots,
    })
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
    // up hop's own engine.
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
    let up = UpHop {
        total_chunks: work.total_chunks,
        rto: proto.rto_ns.max(1),
    };

    let t0 = Instant::now();
    let deadline = t0 + cfg.max_wall;
    let stop = AtomicBool::new(false);
    let shared: Vec<Arc<RackShared>> = (0..racks)
        .map(|_| {
            Arc::new(RackShared {
                epoch: AtomicU8::new(0),
                snap_gen: AtomicU64::new(0),
                snaps: Mutex::new((0..wpr).map(|_| None).collect()),
            })
        })
        .collect();

    // Peel the fabric apart: [spine | leaves | workers].
    let mut ports = ports;
    let worker_ports = ports.split_off(1 + racks);
    let leaf_ports = ports.split_off(1);
    let spine_port = ports.pop().expect("spine port");

    // The virtual workers are the flat reactor's engines — one per
    // worker, covering the whole tensor — speaking as rack-local worker
    // `lw` to their rack's leaf, fenced by the rack's epoch.
    let mut ctxs = Vec::with_capacity(n);
    let regions = work.regions(1).into_iter().flatten();
    for ((w, port), region) in worker_ports.into_iter().enumerate().zip(regions) {
        let (rack, lw) = (w / wpr, w % wpr);
        let fence = RackFence {
            shared: Arc::clone(&shared[rack]),
            lw,
            pub_gen: 0,
        };
        ctxs.push(EngineCtx::new(
            port,
            fence,
            leaf_endpoint(rack),
            lw as WorkerId,
            w,
            (0, 1),
            region,
            rack_proto,
            cfg.burst,
        )?);
    }

    let (engines, spine_stats, switch_ports, hier_report) = std::thread::scope(|scope| {
        let stop = &stop;
        // The spine *is* the sharded switch loop with one shard:
        // `worker_core_endpoint(w, 0, 1) = 1 + w` lines up exactly
        // with `leaf_endpoint(w)`, so each leaf is worker `rack` to it.
        let spine_handle = scope.spawn(move || {
            shard_switch_loop(spine_port, 0, 1, cfg.burst, spine_proto, stop, deadline)
        });
        let leaf_handles: Vec<_> = leaf_ports
            .into_iter()
            .zip(&shared)
            .enumerate()
            .map(|(r, (port, shared))| {
                let kill_at = hier.kill_leaf.and_then(|(kr, at)| (kr == r).then_some(at));
                scope.spawn(move || {
                    leaf_loop(
                        port, r, racks, rack_proto, up, cfg.burst, shared, kill_at, stop, t0,
                        deadline,
                    )
                })
            })
            .collect();
        let mut engines = run_engines(ctxs, hier.n_threads, n, t0, deadline);
        stop.store(true, Ordering::Release);

        let (spine_stats, mut switch_ports, spine_waits) =
            spine_handle.join().expect("spine thread panicked")?;
        engines.reactor.merge(spine_waits);
        let mut report = HierReport {
            racks,
            workers_per_rack: wpr,
            ..HierReport::default()
        };
        for h in leaf_handles {
            let o = h.join().expect("leaf thread panicked")?;
            switch_ports.merge(o.port_stats);
            engines.reactor.merge(o.waits);
            report.leaf_switch_stats.push(o.switch_stats);
            report.leaf_up_stats.push(o.up_stats);
            report.rack_epochs.push(o.epoch);
            report.leaf_reboots += o.reboots;
        }
        Ok::<_, Error>((engines, spine_stats, switch_ports, report))
    })?;
    if let Some(e) = engines.first_err {
        let mut switches = spine_stats;
        for leaf in &hier_report.leaf_switch_stats {
            switches.merge(*leaf);
        }
        return Err(with_rejected(e, &switches));
    }
    let mut transport_stats = engines.transport_stats;
    transport_stats.merge(switch_ports);
    Ok(RunReport {
        results: work.split(),
        worker_stats: engines.worker_stats,
        switch_stats: spine_stats,
        transport_stats,
        reactor: Some(engines.reactor),
        hier: Some(hier_report),
        wall: t0.elapsed(),
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
    /// frames the spine must reject and three rack 1's leaf must reject
    /// are queued before the run starts. Neither switch thread is torn
    /// down, each counts exactly its three, and the result is still
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
        // three are the malformed updates.
        for frame in &crate::shard::hostile_frames(&rack_proto)[..3] {
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
        assert_eq!(hr.leaf_switch_stats[1].rejected, 3, "rack 1 leaf");
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
}
