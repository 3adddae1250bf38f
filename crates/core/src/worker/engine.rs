//! The worker-side slot engine — Algorithms 2 and 4.
//!
//! Pure protocol state, independent of gradient data (which lives in
//! [`crate::worker::stream::TensorStream`]): which chunk each slot is
//! carrying, which pool version it is in, and when its retransmission
//! timer fires. One engine drives a contiguous range of slots over a
//! contiguous range of chunks, which is exactly the unit a DPDK core
//! owns in the paper's sharded worker (Appendix B) — so the multi-core
//! worker is simply several engines with disjoint ranges.
//!
//! With `rto = None` the engine is Algorithm 2 (no loss recovery);
//! with a timeout it is Algorithm 4: on expiry the previous update is
//! retransmitted *with the same slot and version*, and results that do
//! not match the slot's outstanding (version, offset) are ignored as
//! stale duplicates. Under [`RtoPolicy::Adaptive`] a slot is also
//! retransmitted before its timeout once a later send of the engine's
//! own has been answered and the slot has stayed silent a reorder
//! window longer (RFC 8985's time-ordered loss detection): results
//! come back in the order their updates were sent, so that silence
//! means a loss.

use crate::config::{RtoPolicy, TimeNs};
use crate::error::{Error, Result};
use crate::packet::{ElemOffset, PoolVersion, SlotIndex, WorkerId};

/// What to put on the wire: enough to materialize an update packet
/// from the tensor stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendDescriptor {
    pub slot: SlotIndex,
    pub ver: PoolVersion,
    pub off: ElemOffset,
    pub retransmission: bool,
}

/// Outcome of feeding a result packet to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultOutcome {
    /// Fresh result: the caller should install the aggregate at `off`
    /// and, if `next` is set, transmit the described update.
    Accepted {
        off: ElemOffset,
        next: Option<SendDescriptor>,
    },
    /// Duplicate or out-of-phase result; ignore it.
    Stale,
}

/// Engine configuration: the slot range and chunk range this engine
/// owns.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    pub wid: WorkerId,
    /// Elements per chunk.
    pub k: usize,
    /// First slot index owned.
    pub slot_base: SlotIndex,
    /// Number of slots owned.
    pub n_slots: usize,
    /// First (global) chunk index owned.
    pub chunk_base: u64,
    /// Number of chunks owned.
    pub n_chunks: u64,
    /// Retransmission timeout; `None` disables retransmission
    /// (Algorithm 2 semantics, for lossless fabrics).
    pub rto: Option<TimeNs>,
    /// How the timeout evolves on repeated expiries of a slot.
    pub rto_policy: RtoPolicy,
}

#[derive(Debug, Clone, Copy)]
struct SlotState {
    ver: PoolVersion,
    /// Global chunk index currently in flight on this slot.
    chunk: u64,
    /// The last (re)transmission of the outstanding chunk. The slot's
    /// deadline is derived, never stored: `last_tx` plus the timeout
    /// the engine's *current* estimate gives at this slot's backoff.
    last_tx: TimeNs,
    /// Expiries since the slot last made progress (the exponent of
    /// ExponentialBackoff's and Adaptive's fallback doubling).
    backoff: u32,
    /// The engine's RTT-sample count at this slot's last expiry: a
    /// backoff carried past progress (Karn's rule) lapses once the
    /// count moves on.
    karn_mark: u64,
    /// When the outstanding chunk was (first) transmitted — the start
    /// of the RTT sample window.
    sent_at: TimeNs,
    /// Has the outstanding chunk been retransmitted? If so a result
    /// cannot be attributed to a specific transmission and must not
    /// become an RTT sample (Karn's rule).
    tainted: bool,
    active: bool,
}

/// Read-only protocol view of one owned slot, for invariant oracles
/// and state fingerprinting (the `switchml-check` model checker).
/// Deliberately excludes timer state: with [`RtoPolicy::Fixed`] the
/// retransmitted bytes are time-independent, so abstracting deadlines
/// away keeps the explored state space finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Global slot index.
    pub slot: SlotIndex,
    /// Pool version the slot will use (or used last, once retired).
    pub ver: PoolVersion,
    /// Global chunk index in flight (meaningful while `active`).
    pub chunk: u64,
    /// Is a chunk outstanding on this slot?
    pub active: bool,
}

/// Cumulative engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// First transmissions.
    pub sent: u64,
    /// Retransmissions, all causes (timer expiries and early fires).
    pub retx: u64,
    /// The part of `retx` fired early by time-ordered loss detection
    /// ([`RtoPolicy::Adaptive`]): the slot was overtaken by a later,
    /// answered send before its timeout ran out.
    pub early_retx: u64,
    /// Results accepted.
    pub results: u64,
    /// Results ignored as stale.
    pub stale: u64,
    /// RTT samples folded into SRTT/RTTVAR ([`RtoPolicy::Adaptive`]).
    pub rtt_samples: u64,
    /// Samples discarded by Karn's rule (result arrived on a slot that
    /// had been retransmitted since its last send).
    pub karn_discards: u64,
    /// Smoothed round-trip time estimate, nanoseconds (0 until the
    /// first sample).
    pub srtt_ns: TimeNs,
    /// RTT variance estimate, nanoseconds.
    pub rttvar_ns: TimeNs,
    /// The retransmission timeout a slot at no backoff waits
    /// ([`SlotEngine::estimated_rto`]), nanoseconds; 0 without loss
    /// recovery.
    pub rto_ns: TimeNs,
    /// Results dropped by the worker's epoch fence (counted at the
    /// [`crate::worker::Worker`] layer, before any engine sees them).
    pub stale_epoch: u64,
    /// Well-formed results of the current epoch that no slot or chunk
    /// of this worker could have asked for — a slot it does not own, a
    /// wrong element count or width, an offset outside the stream —
    /// counted and dropped at the [`crate::worker::Worker`] layer.
    pub rejected: u64,
}

impl EngineStats {
    /// Fold another engine's counters into this one. Counts sum; the
    /// RTT estimate keeps the larger (slower) view, since the slowest
    /// engine's estimate is the one governing tail retransmissions.
    pub fn merge(&mut self, other: EngineStats) {
        self.sent += other.sent;
        self.retx += other.retx;
        self.early_retx += other.early_retx;
        self.results += other.results;
        self.stale += other.stale;
        self.rtt_samples += other.rtt_samples;
        self.karn_discards += other.karn_discards;
        self.srtt_ns = self.srtt_ns.max(other.srtt_ns);
        self.rttvar_ns = self.rttvar_ns.max(other.rttvar_ns);
        self.rto_ns = self.rto_ns.max(other.rto_ns);
        self.stale_epoch += other.stale_epoch;
        self.rejected += other.rejected;
    }
}

/// The newest answered send, RFC 8985's `RACK.xmit_ts` and `RACK.rtt`.
#[derive(Debug, Clone, Copy)]
struct Rack {
    /// When that transmission left.
    xmit: TimeNs,
    /// Its round trip.
    rtt: TimeNs,
}

/// Worker protocol engine for one slot range.
#[derive(Debug, Clone)]
pub struct SlotEngine {
    cfg: EngineConfig,
    slots: Vec<SlotState>,
    /// Jacobson smoothed RTT, `None` until the first sample
    /// ([`RtoPolicy::Adaptive`] only).
    srtt: Option<TimeNs>,
    /// Jacobson RTT variance.
    rttvar: TimeNs,
    /// The latest-sent transmission with a clean (untainted) result
    /// ([`RtoPolicy::Adaptive`] only; `None` until the first): a slot
    /// sent before it is *overtaken*.
    rack: Option<Rack>,
    /// When set, the engine streams this explicit (ordered) list of
    /// global chunk indices instead of the contiguous range
    /// `chunk_base..chunk_base + n_chunks`. `SlotState::chunk` then
    /// holds a *position* in this list. Used to resume a partially
    /// aggregated stream: after a reconfiguration only the chunks not
    /// yet aggregated everywhere are re-streamed.
    chunk_list: Option<Vec<u64>>,
    completed: u64,
    stats: EngineStats,
}

impl SlotEngine {
    pub fn new(cfg: EngineConfig) -> Result<Self> {
        if cfg.k == 0 || cfg.n_slots == 0 {
            return Err(Error::InvalidConfig("k and n_slots must be > 0".into()));
        }
        if cfg.rto == Some(0) {
            return Err(Error::InvalidConfig("rto must be > 0".into()));
        }
        Ok(SlotEngine {
            cfg,
            slots: vec![
                SlotState {
                    ver: PoolVersion::V0,
                    chunk: 0,
                    last_tx: 0,
                    backoff: 0,
                    karn_mark: 0,
                    sent_at: 0,
                    tainted: false,
                    active: false,
                };
                cfg.n_slots
            ],
            srtt: None,
            rttvar: 0,
            rack: None,
            chunk_list: None,
            completed: 0,
            stats: EngineStats::default(),
        })
    }

    /// Engine over an explicit list of global chunk indices (resume
    /// mode). `cfg.chunk_base` must be 0 and `cfg.n_chunks` must equal
    /// `chunks.len()`; descriptors carry the listed chunks' offsets in
    /// list order.
    pub fn with_chunk_list(cfg: EngineConfig, chunks: Vec<u64>) -> Result<Self> {
        if cfg.chunk_base != 0 || cfg.n_chunks != chunks.len() as u64 {
            return Err(Error::InvalidConfig(
                "chunk-list engine needs chunk_base 0 and n_chunks == list length".into(),
            ));
        }
        let mut engine = SlotEngine::new(cfg)?;
        engine.chunk_list = Some(chunks);
        Ok(engine)
    }

    /// Map a logical chunk (position) to the global chunk index it
    /// carries on the wire.
    fn global_chunk(&self, logical: u64) -> u64 {
        match &self.chunk_list {
            Some(list) => list[logical as usize],
            None => logical,
        }
    }

    /// Like [`SlotEngine::new`], but seed each slot's pool version —
    /// used to continue a session against a switch whose pools retain
    /// state from earlier aggregations.
    pub fn with_versions(cfg: EngineConfig, versions: &[PoolVersion]) -> Result<Self> {
        if versions.len() != cfg.n_slots {
            return Err(Error::InvalidConfig(
                "one initial version per owned slot required".into(),
            ));
        }
        let mut engine = SlotEngine::new(cfg)?;
        for (slot, &v) in engine.slots.iter_mut().zip(versions) {
            slot.ver = v;
        }
        Ok(engine)
    }

    /// Reconstruct an engine **mid-stream** from per-slot protocol
    /// state — one `(ver, chunk, active)` triple per owned slot, in
    /// slot order, as captured by [`SlotEngine::slot_snapshots`] on a
    /// peer engine with the identical config. The returned engine is
    /// already past [`SlotEngine::start`]: every `active` slot has its
    /// recorded chunk outstanding with a freshly armed timer (tainted,
    /// so Karn's rule keeps the unattributable first round trip out of
    /// the RTT estimator), and `completed` is derived from each slot's
    /// position in its stride.
    ///
    /// This is what lets a replacement hierarchy leaf rebuild its
    /// upstream engine after a crash: the rack's worker engines are
    /// the durable record of how far each slot advanced, and because
    /// every engine over the same config maps chunks to slots
    /// identically, the rebuilt engine's (slot, ver, off) sequence
    /// rejoins the spine's expectations exactly.
    pub fn resume_at(
        cfg: EngineConfig,
        states: &[(PoolVersion, u64, bool)],
        now: TimeNs,
    ) -> Result<Self> {
        if states.len() != cfg.n_slots {
            return Err(Error::InvalidConfig(
                "one (ver, chunk, active) state per owned slot required".into(),
            ));
        }
        let mut engine = SlotEngine::new(cfg)?;
        let limit = cfg.chunk_base + cfg.n_chunks;
        let mut completed = 0u64;
        for (i, (&(ver, chunk, active), st)) in
            states.iter().zip(engine.slots.iter_mut()).enumerate()
        {
            let first = cfg.chunk_base + i as u64;
            // Chunks this slot owns: first, first + n_slots, … < limit.
            let owned = if first < limit {
                (limit - first).div_ceil(cfg.n_slots as u64)
            } else {
                0
            };
            if active {
                if chunk < first
                    || chunk >= limit
                    || !(chunk - first).is_multiple_of(cfg.n_slots as u64)
                {
                    return Err(Error::InvalidConfig(format!(
                        "slot {i}: chunk {chunk} is not on this slot's stride"
                    )));
                }
                completed += (chunk - first) / cfg.n_slots as u64;
            } else {
                completed += owned;
            }
            *st = SlotState {
                ver,
                chunk: if active { chunk } else { first },
                last_tx: now,
                backoff: 0,
                karn_mark: 0,
                sent_at: now,
                tainted: true,
                active,
            };
        }
        engine.completed = completed;
        Ok(engine)
    }

    /// The pool version each owned slot must use next — valid once
    /// [`SlotEngine::is_done`], for seeding the next session.
    pub fn next_versions(&self) -> Result<Vec<PoolVersion>> {
        if !self.is_done() {
            return Err(Error::ProtocolViolation(
                "next_versions before the session completed".into(),
            ));
        }
        Ok(self.slots.iter().map(|s| s.ver).collect())
    }

    pub fn stats(&self) -> EngineStats {
        EngineStats {
            rto_ns: self.cfg.rto.map_or(0, |_| self.estimated_rto()),
            ..self.stats
        }
    }

    /// The working retransmission timeout of a slot at no backoff.
    /// Under [`RtoPolicy::Adaptive`] this is Jacobson's
    /// `SRTT + 4·RTTVAR` clamped to `[min_ns, max_ns]` (the configured
    /// initial RTO before the first sample); under the other policies
    /// it is the configured RTO.
    pub fn estimated_rto(&self) -> TimeNs {
        match (self.cfg.rto_policy, self.srtt) {
            (RtoPolicy::Adaptive { min_ns, max_ns }, Some(srtt)) => srtt
                .saturating_add(self.rttvar.saturating_mul(4))
                .clamp(min_ns, max_ns),
            _ => self.cfg.rto.unwrap_or(0),
        }
    }

    /// Fold the clean round trip of a transmission sent at `sent_at`
    /// and answered at `now` into SRTT/RTTVAR with RFC 6298 gains
    /// (α = 1/8, β = 1/4; integer arithmetic), and move the newest
    /// answered send up to it. A result for an earlier send never moves
    /// that mark back; slots sent in one burst share a send time.
    fn take_rtt_sample(&mut self, sent_at: TimeNs, now: TimeNs) {
        let sample = now.saturating_sub(sent_at);
        if self.rack.is_none_or(|r| sent_at >= r.xmit) {
            self.rack = Some(Rack {
                xmit: sent_at,
                rtt: sample,
            });
        }
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                self.rttvar = (3 * self.rttvar + srtt.abs_diff(sample)) / 4;
                self.srtt = Some((7 * srtt + sample) / 8);
            }
        }
        self.stats.rtt_samples += 1;
        self.stats.srtt_ns = self.srtt.unwrap_or(0);
        self.stats.rttvar_ns = self.rttvar;
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Does this engine own `slot`?
    pub fn owns_slot(&self, slot: SlotIndex) -> bool {
        slot >= self.cfg.slot_base && (slot - self.cfg.slot_base) < self.cfg.n_slots as SlotIndex
    }

    /// All owned chunks aggregated?
    pub fn is_done(&self) -> bool {
        self.completed == self.cfg.n_chunks
    }

    pub fn completed_chunks(&self) -> u64 {
        self.completed
    }

    /// Protocol snapshot of a single owned slot — the allocation-free
    /// counterpart of [`SlotEngine::slot_snapshots`] for per-packet
    /// filters (a hierarchy leaf checks every update from below
    /// against its upstream engine's in-flight state). `None` if this
    /// engine does not own `slot`.
    pub fn slot_state(&self, slot: SlotIndex) -> Option<SlotSnapshot> {
        if !self.owns_slot(slot) {
            return None;
        }
        let st = &self.slots[(slot - self.cfg.slot_base) as usize];
        let chunk = match &self.chunk_list {
            Some(list) => list.get(st.chunk as usize).copied().unwrap_or(st.chunk),
            None => st.chunk,
        };
        Some(SlotSnapshot {
            slot,
            ver: st.ver,
            chunk,
            active: st.active,
        })
    }

    /// Protocol snapshot of every owned slot, in slot order.
    pub fn slot_snapshots(&self) -> Vec<SlotSnapshot> {
        self.slots
            .iter()
            .enumerate()
            .map(|(local, st)| {
                // `st.chunk` is a list position in chunk-list mode; map
                // it to the global index it carries on the wire (falling
                // back to the raw position on never-started slots of an
                // empty list).
                let chunk = match &self.chunk_list {
                    Some(list) => list.get(st.chunk as usize).copied().unwrap_or(st.chunk),
                    None => st.chunk,
                };
                SlotSnapshot {
                    slot: self.cfg.slot_base + local as SlotIndex,
                    ver: st.ver,
                    chunk,
                    active: st.active,
                }
            })
            .collect()
    }

    /// Irreversibly turn off loss recovery (Algorithm 2 semantics).
    pub fn disable_retransmission(&mut self) {
        self.cfg.rto = None;
    }

    /// A slot's backoff as its timer sees it. A backoff carried past
    /// progress by Karn's rule (the slot is untainted again) holds only
    /// until the engine's next clean sample, on whichever slot it lands.
    fn live_backoff(&self, st: &SlotState) -> u32 {
        if !st.tainted && self.stats.rtt_samples != st.karn_mark {
            0
        } else {
            st.backoff
        }
    }

    fn descriptor(&self, local: usize, retransmission: bool) -> SendDescriptor {
        let st = &self.slots[local];
        SendDescriptor {
            slot: self.cfg.slot_base + local as SlotIndex,
            ver: st.ver,
            off: self.global_chunk(st.chunk) * self.cfg.k as u64,
            retransmission,
        }
    }

    /// Emit the initial window: one packet per slot, covering the
    /// first `min(n_slots, n_chunks)` chunks (Algorithm 2/4 lines 1–8).
    pub fn start(&mut self, now: TimeNs) -> Vec<SendDescriptor> {
        let initial = (self.cfg.n_slots as u64).min(self.cfg.n_chunks) as usize;
        let mut out = Vec::with_capacity(initial);
        for i in 0..initial {
            self.slots[i] = SlotState {
                // Preserve the slot's pool-version parity (V0 on a
                // fresh engine; carried over on session continuation).
                ver: self.slots[i].ver,
                chunk: self.cfg.chunk_base + i as u64,
                last_tx: now,
                backoff: 0,
                karn_mark: 0,
                sent_at: now,
                tainted: false,
                active: true,
            };
            self.stats.sent += 1;
            out.push(self.descriptor(i, false));
        }
        out
    }

    /// Feed a result packet's protocol fields. On acceptance the slot
    /// either advances to its next chunk (flip version, rearm timer)
    /// or retires.
    pub fn on_result(
        &mut self,
        slot: SlotIndex,
        ver: PoolVersion,
        off: ElemOffset,
        now: TimeNs,
    ) -> Result<ResultOutcome> {
        if !self.owns_slot(slot) {
            return Err(Error::OutOfRange(
                "result for a slot this engine does not own",
            ));
        }
        let local = (slot - self.cfg.slot_base) as usize;
        let st = self.slots[local];
        if !st.active || ver != st.ver || off != self.global_chunk(st.chunk) * self.cfg.k as u64 {
            self.stats.stale += 1;
            return Ok(ResultOutcome::Stale);
        }

        self.stats.results += 1;
        self.completed += 1;
        let accepted_off = off;

        // Round-trip accounting for the adaptive estimator.
        if self.cfg.rto.is_some() {
            if let RtoPolicy::Adaptive { .. } = self.cfg.rto_policy {
                if st.tainted {
                    // Karn's rule: the result may answer either the
                    // original or a retransmission — unattributable.
                    self.stats.karn_discards += 1;
                } else {
                    self.take_rtt_sample(st.sent_at, now);
                }
            }
        }

        // Advance by k·s elements — i.e. n_slots chunks (Alg 2 line 9;
        // within this engine's chunk range).
        let next_chunk = st.chunk + self.cfg.n_slots as u64;
        let limit = self.cfg.chunk_base + self.cfg.n_chunks;
        let next = if next_chunk < limit {
            // Progress resets any backoff — except under Adaptive after
            // a tainted round trip, where Karn's rule keeps it until
            // the engine's next clean sample (`live_backoff`).
            let karn_hold = matches!(self.cfg.rto_policy, RtoPolicy::Adaptive { .. })
                && st.tainted
                && self.stats.rtt_samples == st.karn_mark;
            let ns = &mut self.slots[local];
            ns.chunk = next_chunk;
            ns.ver = st.ver.flip();
            ns.last_tx = now;
            ns.backoff = if karn_hold { st.backoff } else { 0 };
            ns.sent_at = now;
            ns.tainted = false;
            self.stats.sent += 1;
            Some(self.descriptor(local, false))
        } else {
            let ns = &mut self.slots[local];
            ns.active = false;
            // Keep the parity rolling: the next aggregation session on
            // this slot (Appendix B's continuous stream *across
            // iterations*) must use the flipped pool.
            ns.ver = st.ver.flip();
            None
        };
        Ok(ResultOutcome::Accepted {
            off: accepted_off,
            next,
        })
    }

    /// Restart one slot's retransmission clock at `now`: backoff
    /// cleared, untainted, RTT window opened. For
    /// senders whose actual wire transmission is decoupled from
    /// protocol advancement — a hierarchy leaf's upstream engine
    /// advances a slot when the spine's result arrives, but the next
    /// update only hits the wire once the rack re-completes the chunk,
    /// so the clock must restart then or the idle gap would both
    /// inflate the backoff and poison the RTT samples. No-op on a
    /// retired slot.
    pub fn rearm_slot(&mut self, slot: SlotIndex, now: TimeNs) -> Result<()> {
        if !self.owns_slot(slot) {
            return Err(Error::OutOfRange(
                "rearm for a slot this engine does not own",
            ));
        }
        let st = &mut self.slots[(slot - self.cfg.slot_base) as usize];
        if st.active {
            st.last_tx = now;
            st.backoff = 0;
            st.sent_at = now;
            st.tainted = false;
        }
        Ok(())
    }

    /// A slot's retransmission deadline under the estimate `est`.
    fn deadline(&self, st: &SlotState, est: TimeNs) -> TimeNs {
        // Nearly every slot has not expired since its last progress and
        // skips the backoff rules: this runs per slot per burst.
        let timeout = match st.backoff {
            0 => est,
            _ => self.timeout(est, self.live_backoff(st)),
        };
        st.last_tx + timeout
    }

    /// The timeout at `backoff` expiries over the estimate `est`:
    /// constant under [`RtoPolicy::Fixed`], `est · 2^backoff` capped at
    /// `max_ns` under the other two.
    fn timeout(&self, est: TimeNs, backoff: u32) -> TimeNs {
        match self.cfg.rto_policy {
            RtoPolicy::ExponentialBackoff { max_ns } | RtoPolicy::Adaptive { max_ns, .. }
                if backoff > 0 =>
            {
                est.saturating_mul(1u64 << backoff.min(63)).min(max_ns)
            }
            _ => est,
        }
    }

    /// The time-order rule's `(mark, wait)`: a slot last sent before
    /// `mark` whose own result is `wait` overdue — the newest answered
    /// send's round trip plus a quarter SRTT of reordering — is lost.
    /// `None` until an [`RtoPolicy::Adaptive`] engine's first clean
    /// result.
    fn overtaken_window(&self) -> Option<(TimeNs, TimeNs)> {
        let rack = self.rack?;
        Some((rack.xmit, rack.rtt + self.srtt.unwrap_or(0) / 4))
    }

    /// Earliest retransmission deadline among active slots, derived
    /// from the current estimate and the newest answered send: both
    /// move whenever a result lands, so a driver re-reads it after
    /// every received burst.
    pub fn next_deadline(&self) -> Option<TimeNs> {
        self.cfg.rto?;
        let est = self.estimated_rto();
        let active = self.slots.iter().filter(|s| s.active);
        // Decided once per call, not per slot: this runs every burst.
        match self.overtaken_window() {
            None => active.map(|s| self.deadline(s, est)).min(),
            Some((mark, wait)) => active
                .map(|s| match self.deadline(s, est) {
                    rto if s.last_tx < mark => rto.min(s.last_tx + wait),
                    rto => rto,
                })
                .min(),
        }
    }

    /// Collect retransmissions for every slot whose timer has expired
    /// at `now` (Algorithm 4's timeout handler), or, under
    /// [`RtoPolicy::Adaptive`], that a later answered send has
    /// overtaken by more than the reorder window. A timer expiry
    /// restarts the slot's clock one backoff step further (under
    /// [`RtoPolicy::ExponentialBackoff`] and [`RtoPolicy::Adaptive`]
    /// each doubles that slot's timeout up to the cap); an early fire
    /// keeps the backoff it had.
    pub fn expired(&mut self, now: TimeNs) -> Vec<SendDescriptor> {
        let mut out = Vec::new();
        self.expired_into(now, |_| true, &mut out);
        out
    }

    /// [`SlotEngine::expired`] for a sender that resends only the slots
    /// `resend` picks, appended to the caller's `out`: every expired
    /// slot's clock moves on as it does there, but only a picked one is
    /// counted (`retx`, `early_retx`) and sent. A hierarchy leaf's
    /// up-hop engine resends a slot only once its rack has completed the
    /// phase. A timer sweep that fires allocates nothing once `out` has
    /// room for every slot.
    pub fn expired_into(
        &mut self,
        now: TimeNs,
        mut resend: impl FnMut(SlotIndex) -> bool,
        out: &mut Vec<SendDescriptor>,
    ) {
        if self.cfg.rto.is_none() {
            return;
        }
        let est = self.estimated_rto();
        let samples = self.stats.rtt_samples;
        let window = self.overtaken_window();
        for local in 0..self.slots.len() {
            let st = self.slots[local];
            if !st.active {
                continue;
            }
            let slot = self.cfg.slot_base + local as SlotIndex;
            let (backoff, early) = if self.deadline(&st, est) <= now {
                (self.live_backoff(&st).saturating_add(1), false)
            } else if window
                .is_some_and(|(mark, wait)| st.last_tx < mark && st.last_tx + wait <= now)
            {
                (self.live_backoff(&st), true)
            } else {
                continue;
            };
            // The outstanding chunk now has two transmissions in
            // flight; its eventual result is off-limits to the RTT
            // estimator (Karn).
            self.slots[local] = SlotState {
                last_tx: now,
                backoff,
                karn_mark: samples,
                tainted: true,
                ..st
            };
            if resend(slot) {
                self.stats.retx += 1;
                self.stats.early_retx += early as u64;
                out.push(self.descriptor(local, true));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(n_slots: usize, n_chunks: u64, rto: Option<TimeNs>) -> EngineConfig {
        EngineConfig {
            wid: 0,
            k: 4,
            slot_base: 0,
            n_slots,
            chunk_base: 0,
            n_chunks,
            rto,
            rto_policy: RtoPolicy::Fixed,
        }
    }

    #[test]
    fn initial_window_covers_first_s_chunks() {
        let mut e = SlotEngine::new(cfg(4, 10, None)).unwrap();
        let descs = e.start(0);
        assert_eq!(descs.len(), 4);
        for (i, d) in descs.iter().enumerate() {
            assert_eq!(d.slot, i as u32);
            assert_eq!(d.off, (i * 4) as u64);
            assert_eq!(d.ver, PoolVersion::V0);
        }
    }

    #[test]
    fn small_stream_uses_fewer_slots_than_pool() {
        let mut e = SlotEngine::new(cfg(8, 3, None)).unwrap();
        assert_eq!(e.start(0).len(), 3);
    }

    #[test]
    fn advance_by_pool_stride_and_flip_version() {
        let mut e = SlotEngine::new(cfg(2, 6, None)).unwrap();
        e.start(0);
        // Slot 0 finished chunk 0 → next carries chunk 2 (stride = 2)
        // at offset 8, version flipped to V1.
        match e.on_result(0, PoolVersion::V0, 0, 0).unwrap() {
            ResultOutcome::Accepted { next: Some(d), .. } => {
                assert_eq!(d.slot, 0);
                assert_eq!(d.off, 8);
                assert_eq!(d.ver, PoolVersion::V1);
            }
            other => panic!("{other:?}"),
        }
        // And again: chunk 4 at offset 16, version back to V0.
        match e.on_result(0, PoolVersion::V1, 8, 0).unwrap() {
            ResultOutcome::Accepted { next: Some(d), .. } => {
                assert_eq!(d.off, 16);
                assert_eq!(d.ver, PoolVersion::V0);
            }
            other => panic!("{other:?}"),
        }
        // Chunk 4 was the last for slot 0 (chunks 0,2,4): retire.
        match e.on_result(0, PoolVersion::V0, 16, 0).unwrap() {
            ResultOutcome::Accepted { next: None, .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(!e.is_done()); // slot 1's chunks still pending
    }

    #[test]
    fn completes_exactly_once_per_chunk() {
        let mut e = SlotEngine::new(cfg(2, 5, None)).unwrap();
        let mut inflight = e.start(0);
        let mut completed = 0;
        while let Some(d) = inflight.pop() {
            match e.on_result(d.slot, d.ver, d.off, 0).unwrap() {
                ResultOutcome::Accepted { next, .. } => {
                    completed += 1;
                    if let Some(n) = next {
                        inflight.push(n);
                    }
                }
                ResultOutcome::Stale => panic!("unexpected stale"),
            }
        }
        assert_eq!(completed, 5);
        assert!(e.is_done());
    }

    #[test]
    fn stale_results_ignored() {
        let mut e = SlotEngine::new(cfg(1, 3, Some(100))).unwrap();
        e.start(0);
        // Wrong version.
        assert_eq!(
            e.on_result(0, PoolVersion::V1, 0, 0).unwrap(),
            ResultOutcome::Stale
        );
        // Wrong offset.
        assert_eq!(
            e.on_result(0, PoolVersion::V0, 4, 0).unwrap(),
            ResultOutcome::Stale
        );
        // Correct one accepted.
        assert!(matches!(
            e.on_result(0, PoolVersion::V0, 0, 0).unwrap(),
            ResultOutcome::Accepted { .. }
        ));
        // Duplicate of the accepted one (e.g. multicast + unicast
        // retransmission both arrive) is now stale: the slot moved on.
        assert_eq!(
            e.on_result(0, PoolVersion::V0, 0, 0).unwrap(),
            ResultOutcome::Stale
        );
        assert_eq!(e.stats().stale, 3);
        // Result for a slot we don't own is an error.
        assert!(e.on_result(7, PoolVersion::V0, 0, 0).is_err());
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut e = SlotEngine::new(cfg(2, 4, Some(100))).unwrap();
        e.start(0);
        assert_eq!(e.next_deadline(), Some(100));
        assert!(e.expired(50).is_empty());
        let rx = e.expired(100);
        assert_eq!(rx.len(), 2);
        assert!(rx.iter().all(|d| d.retransmission));
        // Rearmed at 200.
        assert_eq!(e.next_deadline(), Some(200));
        assert_eq!(e.stats().retx, 2);
        // A result cancels slot 0's timer and rearms for the next
        // chunk.
        e.on_result(0, PoolVersion::V0, 0, 150).unwrap();
        assert_eq!(e.next_deadline(), Some(200)); // slot 1 still at 200
        let rx = e.expired(260);
        assert_eq!(rx.len(), 2); // slot 1 (200) and slot 0 (250)
    }

    #[test]
    fn no_rto_means_no_retransmission() {
        let mut e = SlotEngine::new(cfg(2, 4, None)).unwrap();
        e.start(0);
        assert_eq!(e.next_deadline(), None);
        assert!(e.expired(u64::MAX).is_empty());
    }

    #[test]
    fn retransmission_repeats_same_descriptor() {
        let mut e = SlotEngine::new(cfg(1, 2, Some(10))).unwrap();
        let first = e.start(0)[0];
        let rx = e.expired(10)[0];
        assert_eq!(rx.slot, first.slot);
        assert_eq!(rx.ver, first.ver);
        assert_eq!(rx.off, first.off);
        assert!(rx.retransmission && !first.retransmission);
    }

    #[test]
    fn sharded_ranges_respected() {
        let mut e = SlotEngine::new(EngineConfig {
            wid: 1,
            k: 4,
            slot_base: 8,
            n_slots: 2,
            chunk_base: 100,
            n_chunks: 3,
            rto: None,
            rto_policy: RtoPolicy::Fixed,
        })
        .unwrap();
        let descs = e.start(0);
        assert_eq!(descs[0].slot, 8);
        assert_eq!(descs[0].off, 400); // chunk 100 × k 4
        assert_eq!(descs[1].slot, 9);
        assert!(e.owns_slot(9) && !e.owns_slot(10) && !e.owns_slot(7));
        // Finish all three chunks.
        match e.on_result(8, PoolVersion::V0, 400, 0).unwrap() {
            ResultOutcome::Accepted { next: Some(d), .. } => {
                assert_eq!(d.off, 408); // chunk 102
                e.on_result(8, d.ver, d.off, 0).unwrap();
            }
            other => panic!("{other:?}"),
        }
        e.on_result(9, PoolVersion::V0, 404, 0).unwrap();
        assert!(e.is_done());
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let mut e = SlotEngine::new(EngineConfig {
            rto_policy: RtoPolicy::ExponentialBackoff { max_ns: 700 },
            ..cfg(1, 4, Some(100))
        })
        .unwrap();
        e.start(0);
        // Expiries at 100, then 100+200, then +400, then capped +700.
        assert_eq!(e.expired(100).len(), 1);
        assert_eq!(e.next_deadline(), Some(300));
        assert_eq!(e.expired(300).len(), 1);
        assert_eq!(e.next_deadline(), Some(700));
        assert_eq!(e.expired(700).len(), 1);
        assert_eq!(e.next_deadline(), Some(1400)); // 700 + capped 700
                                                   // Progress resets the backoff to the initial 100.
        e.on_result(0, PoolVersion::V0, 0, 2000).unwrap();
        assert_eq!(e.next_deadline(), Some(2100));
    }

    fn adaptive(
        n_slots: usize,
        n_chunks: u64,
        init: TimeNs,
        min: TimeNs,
        max: TimeNs,
    ) -> EngineConfig {
        EngineConfig {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: min,
                max_ns: max,
            },
            ..cfg(n_slots, n_chunks, Some(init))
        }
    }

    #[test]
    fn adaptive_rto_tracks_measured_rtt() {
        let mut e = SlotEngine::new(adaptive(1, 8, 1_000, 10, 100_000)).unwrap();
        // Before any sample the estimate is the configured initial RTO.
        assert_eq!(e.estimated_rto(), 1_000);
        e.start(0);
        assert_eq!(e.next_deadline(), Some(1_000));
        // First round trip takes 200 ns: SRTT = 200, RTTVAR = 100,
        // RTO = SRTT + 4·RTTVAR = 600; the next chunk arms with it.
        e.on_result(0, PoolVersion::V0, 0, 200).unwrap();
        assert_eq!(e.stats().rtt_samples, 1);
        assert_eq!(e.stats().srtt_ns, 200);
        assert_eq!(e.stats().rttvar_ns, 100);
        assert_eq!(e.estimated_rto(), 600);
        assert_eq!(e.next_deadline(), Some(200 + 600));
        // A second identical sample decays the variance: RTTVAR = 75,
        // RTO = 500.
        e.on_result(0, PoolVersion::V1, 4, 400).unwrap();
        assert_eq!(e.stats().srtt_ns, 200);
        assert_eq!(e.stats().rttvar_ns, 75);
        assert_eq!(e.next_deadline(), Some(400 + 500));
    }

    #[test]
    fn adaptive_rto_clamps_to_floor() {
        // A near-zero RTT must not produce a hair-trigger timer: the
        // estimate clamps to min_ns (which transports raise to their
        // receive-timeout granule).
        let mut e = SlotEngine::new(adaptive(1, 4, 1_000, 50, 100_000)).unwrap();
        e.start(0);
        e.on_result(0, PoolVersion::V0, 0, 1).unwrap();
        e.on_result(0, PoolVersion::V1, 4, 2).unwrap();
        e.on_result(0, PoolVersion::V0, 8, 3).unwrap();
        assert!(e.estimated_rto() >= 50);
        assert_eq!(e.estimated_rto(), 50);
    }

    #[test]
    fn karn_discards_retransmitted_samples_and_holds_backoff() {
        let mut e = SlotEngine::new(adaptive(1, 3, 100, 10, 10_000)).unwrap();
        e.start(0);
        // Two expiries: the fallback backoff doubles 100 → 200 → 400
        // and taints the slot.
        assert_eq!(e.expired(100).len(), 1);
        assert_eq!(e.expired(300).len(), 1);
        assert_eq!(e.next_deadline(), Some(300 + 400));
        // The result finally lands. Its 700 ns "RTT" is unattributable
        // (original send or which retransmission?) — Karn's rule
        // discards it, and the backed-off 400 holds for the next chunk
        // instead of resetting to the untrustworthy estimate.
        match e.on_result(0, PoolVersion::V0, 0, 700).unwrap() {
            ResultOutcome::Accepted { next: Some(_), .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(e.stats().karn_discards, 1);
        assert_eq!(e.stats().rtt_samples, 0);
        assert_eq!(e.stats().srtt_ns, 0);
        assert_eq!(e.next_deadline(), Some(700 + 400));
        // A fresh, never-retransmitted round trip (150 ns) is a valid
        // sample: SRTT = 150, RTTVAR = 75, and the backed-off timer
        // resets to the estimated RTO = 450.
        e.on_result(0, PoolVersion::V1, 4, 850).unwrap();
        assert_eq!(e.stats().rtt_samples, 1);
        assert_eq!(e.stats().karn_discards, 1);
        assert_eq!(e.estimated_rto(), 450);
        assert_eq!(e.next_deadline(), Some(850 + 450));
    }

    #[test]
    fn adaptive_backoff_caps_at_max() {
        let mut e = SlotEngine::new(adaptive(1, 2, 100, 10, 350)).unwrap();
        e.start(0);
        e.expired(100); // 200
        e.expired(300); // 350 (capped)
        e.expired(650); // still 350
        assert_eq!(e.next_deadline(), Some(650 + 350));
        assert_eq!(e.stats().retx, 3);
    }

    #[test]
    fn chunk_list_streams_exactly_the_listed_chunks() {
        // Resume mode: only chunks 1, 4, 5 remain (k=4).
        let mut e = SlotEngine::with_chunk_list(cfg(2, 3, None), vec![1, 4, 5]).unwrap();
        let descs = e.start(0);
        assert_eq!(descs.len(), 2);
        assert_eq!(descs[0].off, 4); // chunk 1
        assert_eq!(descs[1].off, 16); // chunk 4
                                      // Finishing chunk 1 advances slot 0 by the slot stride (2)
                                      // through the *list* → chunk 5 at offset 20.
        match e.on_result(0, PoolVersion::V0, 4, 0).unwrap() {
            ResultOutcome::Accepted { next: Some(d), .. } => assert_eq!(d.off, 20),
            other => panic!("{other:?}"),
        }
        // A result carrying the logical offset is stale, not accepted.
        assert_eq!(
            e.on_result(1, PoolVersion::V0, 4, 0).unwrap(),
            ResultOutcome::Stale
        );
        e.on_result(1, PoolVersion::V0, 16, 0).unwrap();
        e.on_result(0, PoolVersion::V1, 20, 0).unwrap();
        assert!(e.is_done());
        // Config invariants enforced.
        assert!(SlotEngine::with_chunk_list(cfg(2, 2, None), vec![1, 2, 3]).is_err());
    }

    #[test]
    fn disable_retransmission_clears_timers() {
        let mut e = SlotEngine::new(cfg(2, 4, Some(100))).unwrap();
        e.start(0);
        assert_eq!(e.next_deadline(), Some(100));
        e.disable_retransmission();
        assert_eq!(e.next_deadline(), None);
        assert!(e.expired(u64::MAX).is_empty());
    }

    #[test]
    fn resume_at_rejoins_a_peer_engine_mid_stream() {
        // Drive a reference engine halfway, snapshot it, and rebuild a
        // replacement from the snapshot: the replacement must report
        // the same progress and accept the same next results.
        let mut reference = SlotEngine::new(cfg(2, 6, Some(100))).unwrap();
        reference.start(0);
        // Slot 0 completes chunks 0 and 2; slot 1 completes chunk 1.
        reference.on_result(0, PoolVersion::V0, 0, 0).unwrap();
        reference.on_result(0, PoolVersion::V1, 8, 0).unwrap();
        reference.on_result(1, PoolVersion::V0, 4, 0).unwrap();
        let snaps = reference.slot_snapshots();
        let states: Vec<_> = snaps.iter().map(|s| (s.ver, s.chunk, s.active)).collect();

        let mut e = SlotEngine::resume_at(cfg(2, 6, Some(100)), &states, 1_000).unwrap();
        assert_eq!(e.completed_chunks(), 3);
        assert!(!e.is_done());
        // Timers re-armed for the in-flight chunks…
        assert_eq!(e.next_deadline(), Some(1_100));
        let rx = e.expired(1_100);
        assert_eq!(rx.len(), 2);
        assert!(rx.iter().all(|d| d.retransmission));
        // …and the in-flight (slot, ver, off) tuples match the peer's.
        let mut got: Vec<_> = rx.iter().map(|d| (d.slot, d.ver as u8, d.off)).collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (0, PoolVersion::V0 as u8, 16),
                (1, PoolVersion::V1 as u8, 12)
            ]
        );
        // Finishing the remaining chunks completes the engine.
        e.on_result(0, PoolVersion::V0, 16, 1_200).unwrap();
        e.on_result(1, PoolVersion::V1, 12, 1_200).unwrap();
        e.on_result(1, PoolVersion::V0, 20, 1_200).unwrap();
        assert!(e.is_done());
        // Karn: the resumed round trips were unattributable.
        assert_eq!(e.stats().rtt_samples, 0);
    }

    #[test]
    fn resume_at_with_retired_slots_counts_them_complete() {
        // Slot 0 retired (chunks 0, 2 done), slot 1 mid-flight on
        // chunk 3 (chunk 1 done) → 3 of 4 chunks complete.
        let states = vec![(PoolVersion::V0, 0, false), (PoolVersion::V1, 3, true)];
        let e = SlotEngine::resume_at(cfg(2, 4, Some(100)), &states, 0).unwrap();
        assert_eq!(e.completed_chunks(), 3);
        // Off-stride chunk rejected.
        let bad = vec![(PoolVersion::V0, 1, true), (PoolVersion::V0, 1, true)];
        assert!(SlotEngine::resume_at(cfg(2, 4, None), &bad, 0).is_err());
        // Wrong state count rejected.
        assert!(SlotEngine::resume_at(cfg(2, 4, None), &states[..1], 0).is_err());
    }

    #[test]
    fn rearm_slot_resets_clock_and_taint() {
        let mut e = SlotEngine::new(adaptive(1, 4, 100, 10, 10_000)).unwrap();
        e.start(0);
        // Two idle expiries back off 100 → 200 → 400 and taint.
        e.expired(100);
        e.expired(300);
        // The actual send happens at t = 1_000: restart the clock.
        e.rearm_slot(0, 1_000).unwrap();
        assert_eq!(e.next_deadline(), Some(1_100));
        // The result at 1_150 is a clean 150 ns sample, not Karn-binned.
        e.on_result(0, PoolVersion::V0, 0, 1_150).unwrap();
        assert_eq!(e.stats().rtt_samples, 1);
        assert_eq!(e.stats().srtt_ns, 150);
        assert!(e.rearm_slot(9, 0).is_err());
    }

    #[test]
    fn slot_state_reports_inflight_tuple() {
        let mut e = SlotEngine::new(cfg(2, 6, None)).unwrap();
        e.start(0);
        let s = e.slot_state(1).unwrap();
        assert_eq!((s.ver, s.chunk, s.active), (PoolVersion::V0, 1, true));
        e.on_result(1, PoolVersion::V0, 4, 0).unwrap();
        let s = e.slot_state(1).unwrap();
        assert_eq!((s.ver, s.chunk, s.active), (PoolVersion::V1, 3, true));
        assert!(e.slot_state(7).is_none());
        // Consistent with the bulk snapshot.
        assert_eq!(e.slot_snapshots()[1], e.slot_state(1).unwrap());
    }

    #[test]
    fn empty_chunk_range_is_immediately_done() {
        let mut e = SlotEngine::new(cfg(4, 0, None)).unwrap();
        assert!(e.start(0).is_empty());
        assert!(e.is_done());
    }

    #[test]
    fn adaptive_first_sample_rederives_the_first_window() {
        // Both slots go out at t = 0 under the 1 ms initial RTO. Slot
        // 0's clean 80 µs round trip sets SRTT = 80 µs, RTTVAR = 40 µs,
        // RTO = 240 µs — and slot 1, still waiting on its first send,
        // now times out at sent_at + 240 µs instead of at 1 ms.
        let mut e = SlotEngine::new(adaptive(2, 4, 1_000_000, 10_000, 32_000_000)).unwrap();
        e.start(0);
        assert_eq!(e.next_deadline(), Some(1_000_000));
        e.on_result(0, PoolVersion::V0, 0, 80_000).unwrap();
        assert_eq!(e.estimated_rto(), 240_000);
        assert_eq!(e.stats().rto_ns, 240_000);
        assert_eq!(e.next_deadline(), Some(240_000));
        let rx = e.expired(240_000);
        assert_eq!(rx.len(), 1);
        assert_eq!((rx[0].slot, rx[0].off), (1, 4));
        // Slot 0's next chunk left at 80 µs: its deadline is 320 µs.
        assert_eq!(e.next_deadline(), Some(80_000 + 240_000));
    }

    #[test]
    fn karn_hold_lapses_at_the_engines_next_clean_sample() {
        // Slot 0 carries chunks 0, 2; slot 1 carries chunks 1, 3.
        let mut e = SlotEngine::new(adaptive(2, 4, 100, 10, 10_000)).unwrap();
        e.start(0);
        // Both expire once: backoff 1, tainted, deadlines 100 + 200.
        assert_eq!(e.expired(100).len(), 2);
        assert_eq!(e.next_deadline(), Some(300));
        // Both results land unattributable in one burst at 150. No
        // clean sample since the expiries, so each slot keeps its
        // backoff on its next chunk: chunks 2 and 3 (both sent at 150)
        // time out at 150 + 200.
        e.on_result(0, PoolVersion::V0, 0, 150).unwrap();
        e.on_result(1, PoolVersion::V0, 4, 150).unwrap();
        assert_eq!(e.stats().karn_discards, 2);
        assert_eq!(e.next_deadline(), Some(150 + 200));
        // Slot 1's chunk 3 comes back clean (40 ns): SRTT = 40,
        // RTTVAR = 20, RTO = 120. That sample ends slot 0's hold at
        // once, before slot 0 itself sees any result: its deadline is
        // 150 + 120, not 150 + 240. (Chunk 3 left with chunk 2, so its
        // answer does not overtake slot 0.)
        e.on_result(1, PoolVersion::V1, 12, 190).unwrap();
        assert_eq!(e.stats().rtt_samples, 1);
        assert_eq!(e.estimated_rto(), 120);
        assert_eq!(e.next_deadline(), Some(150 + 120));
        // And the next expiry backs off from zero again: 270 + 240.
        assert_eq!(e.expired(270).len(), 1);
        assert_eq!(e.next_deadline(), Some(270 + 240));
    }

    #[test]
    fn overtaken_slot_fires_a_reorder_window_after_the_answer() {
        // A 1 000 ns floor over ~100 ns round trips. Slot 1 answers
        // first, so slot 0's next chunk (sent at 110) leaves after slot
        // 1's (sent at 100); slot 1's chunk is lost.
        let mut e = SlotEngine::new(adaptive(2, 8, 1_000, 1_000, 100_000)).unwrap();
        e.start(0);
        e.on_result(1, PoolVersion::V0, 4, 100).unwrap();
        e.on_result(0, PoolVersion::V0, 0, 110).unwrap();
        assert_eq!(e.next_deadline(), Some(100 + 1_000));
        // Slot 0's later send comes back clean after 100 ns: slot 1 is
        // overtaken and lost once it is a round trip plus a quarter
        // SRTT overdue — long before its floored RTO at 1 100.
        e.on_result(0, PoolVersion::V1, 8, 210).unwrap();
        let srtt = e.stats().srtt_ns;
        assert_eq!(e.estimated_rto(), 1_000);
        let early = 100 + 100 + srtt / 4;
        assert_eq!(e.next_deadline(), Some(early));
        assert!(e.expired(early - 1).is_empty());
        let rx = e.expired(early);
        assert_eq!(rx.len(), 1);
        assert_eq!((rx[0].slot, rx[0].off, rx[0].retransmission), (1, 12, true));
        assert_eq!((e.stats().retx, e.stats().early_retx), (1, 1));
    }

    #[test]
    fn slots_sent_with_the_answered_one_are_not_overtaken() {
        // One burst at t = 0; slot 0's answer is the newest, but the
        // other three left with it and wait out their RTO.
        let mut e = SlotEngine::new(adaptive(4, 8, 1_000, 1_000, 100_000)).unwrap();
        e.start(0);
        e.on_result(0, PoolVersion::V0, 0, 100).unwrap();
        assert_eq!(e.next_deadline(), Some(1_000));
        assert!(e.expired(999).is_empty());
        assert_eq!(e.expired(1_000).len(), 3);
        assert_eq!((e.stats().retx, e.stats().early_retx), (3, 0));
    }

    #[test]
    fn early_fire_taints_keeps_backoff_and_waits_for_a_later_answer() {
        // Slot 0 carries chunks 0, 2, 4, 6; slot 1 carries 1, 3, 5, 7.
        let mut e = SlotEngine::new(adaptive(2, 8, 1_000, 1_000, 100_000)).unwrap();
        e.start(0);
        // Both time out once (backoff 1); slot 0's answer is
        // unattributable and holds its backoff onto chunk 2 (sent at
        // 1 100), whose clean answer sets the mark at 1 100.
        assert_eq!(e.expired(1_000).len(), 2);
        e.on_result(0, PoolVersion::V0, 0, 1_100).unwrap();
        e.on_result(0, PoolVersion::V1, 8, 1_200).unwrap();
        // Slot 1 (last sent at 1 000) is overtaken: it fires early,
        // tainted and still at backoff 1.
        let rx = e.expired(1_200);
        assert_eq!((rx.len(), rx[0].slot), (1, 1));
        assert_eq!((e.stats().retx, e.stats().early_retx), (3, 1));
        assert!(e.slots[1].tainted);
        assert_eq!(e.slots[1].backoff, 1);
        assert_eq!(e.slots[1].karn_mark, e.stats().rtt_samples);
        // Chunk 4 left with the early fire: its answer does not
        // overtake slot 1, whose deadline is its backed-off RTO
        // (1 200 + 2 000), behind slot 0's chunk 6 (1 300 + 1 000).
        e.on_result(0, PoolVersion::V0, 16, 1_300).unwrap();
        assert_eq!(e.next_deadline(), Some(1_300 + 1_000));
        assert!(e.expired(2_299).is_empty());
        // Chunk 6, sent after the early fire, is answered: slot 1 is
        // overtaken again, and fires again without backing off.
        e.on_result(0, PoolVersion::V1, 24, 1_400).unwrap();
        let srtt = e.stats().srtt_ns;
        assert_eq!(e.next_deadline(), Some(1_200 + 100 + srtt / 4));
        assert_eq!(e.expired(2_300).len(), 1);
        assert_eq!((e.stats().retx, e.stats().early_retx), (4, 2));
        assert_eq!(e.slots[1].backoff, 1);
        // Its eventual answer is Karn's: no sample.
        let samples = e.stats().rtt_samples;
        e.on_result(1, PoolVersion::V0, 4, 2_400).unwrap();
        assert_eq!(e.stats().rtt_samples, samples);
        assert_eq!(e.stats().karn_discards, 2);
    }

    #[test]
    fn tainted_answer_leaves_the_mark() {
        let mut e = SlotEngine::new(adaptive(3, 9, 1_000, 1_000, 100_000)).unwrap();
        e.start(0);
        // Clean answers for slots 1 and 2 set the mark: sent at 0,
        // answered after 150 ns.
        e.on_result(1, PoolVersion::V0, 4, 100).unwrap();
        e.on_result(2, PoolVersion::V0, 8, 150).unwrap();
        let mark = e.rack.map(|r| (r.xmit, r.rtt));
        assert_eq!(mark, Some((0, 150)));
        // Slot 0 times out and is retransmitted at 1 000; its answer
        // cannot say which send it answers, so the mark stays put and
        // slots 1 and 2 (sent at 100 and 150) are not overtaken.
        assert_eq!(e.expired(1_000).len(), 1);
        e.on_result(0, PoolVersion::V0, 0, 1_050).unwrap();
        assert_eq!(e.stats().karn_discards, 1);
        assert_eq!(e.rack.map(|r| (r.xmit, r.rtt)), mark);
        assert_eq!(e.next_deadline(), Some(100 + 1_000));
        assert_eq!(e.stats().early_retx, 0);
    }

    /// The parent rule, kept as a reference model: each slot's deadline
    /// and timeout are frozen when it is armed. Under `Fixed` and
    /// `ExponentialBackoff` the estimate never moves, so the derived
    /// deadlines must match it exactly.
    #[derive(Debug, Clone)]
    struct FrozenModel {
        cfg: EngineConfig,
        /// (ver, chunk, deadline, cur_rto, active) per owned slot.
        slots: Vec<(PoolVersion, u64, Option<TimeNs>, TimeNs, bool)>,
    }

    impl FrozenModel {
        fn new(cfg: EngineConfig) -> Self {
            let rto = cfg.rto.unwrap_or(0);
            FrozenModel {
                cfg,
                slots: vec![(PoolVersion::V0, 0, None, rto, false); cfg.n_slots],
            }
        }

        fn rto(&self) -> TimeNs {
            self.cfg.rto.unwrap_or(0)
        }

        fn arm(&self, now: TimeNs) -> Option<TimeNs> {
            self.cfg.rto.map(|r| now + r)
        }

        fn desc(&self, local: usize, retransmission: bool) -> SendDescriptor {
            let (ver, chunk, ..) = self.slots[local];
            SendDescriptor {
                slot: self.cfg.slot_base + local as SlotIndex,
                ver,
                off: chunk * self.cfg.k as u64,
                retransmission,
            }
        }

        fn start(&mut self, now: TimeNs) -> Vec<SendDescriptor> {
            let initial = (self.cfg.n_slots as u64).min(self.cfg.n_chunks) as usize;
            (0..initial)
                .map(|i| {
                    let ver = self.slots[i].0;
                    let chunk = self.cfg.chunk_base + i as u64;
                    self.slots[i] = (ver, chunk, self.arm(now), self.rto(), true);
                    self.desc(i, false)
                })
                .collect()
        }

        fn on_result(
            &mut self,
            local: usize,
            ver: PoolVersion,
            off: u64,
            now: TimeNs,
        ) -> ResultOutcome {
            let (sver, chunk, _, _, active) = self.slots[local];
            if !active || ver != sver || off != chunk * self.cfg.k as u64 {
                return ResultOutcome::Stale;
            }
            let next_chunk = chunk + self.cfg.n_slots as u64;
            let next = if next_chunk < self.cfg.chunk_base + self.cfg.n_chunks {
                self.slots[local] = (sver.flip(), next_chunk, self.arm(now), self.rto(), true);
                Some(self.desc(local, false))
            } else {
                self.slots[local] = (sver.flip(), chunk, None, self.slots[local].3, false);
                None
            };
            ResultOutcome::Accepted { off, next }
        }

        fn expired(&mut self, now: TimeNs) -> Vec<SendDescriptor> {
            if self.cfg.rto.is_none() {
                return Vec::new();
            }
            let mut out = Vec::new();
            for local in 0..self.slots.len() {
                let (_, _, deadline, cur, active) = &mut self.slots[local];
                if *active && deadline.is_some_and(|d| d <= now) {
                    if let RtoPolicy::ExponentialBackoff { max_ns } = self.cfg.rto_policy {
                        *cur = cur.saturating_mul(2).min(max_ns);
                    }
                    *deadline = Some(now + *cur);
                    out.push(self.desc(local, true));
                }
            }
            out
        }

        fn rearm(&mut self, local: usize, now: TimeNs) {
            let armed = self.arm(now);
            let rto = self.rto();
            let (_, _, deadline, cur, active) = &mut self.slots[local];
            if *active {
                *deadline = armed;
                *cur = rto;
            }
        }

        fn resume(&mut self, now: TimeNs) {
            for local in 0..self.slots.len() {
                let armed = self.arm(now);
                let (_, _, deadline, cur, active) = &mut self.slots[local];
                *deadline = if *active { armed } else { None };
                *cur = self.cfg.rto.unwrap_or(0);
            }
        }

        fn disable(&mut self) {
            self.cfg.rto = None;
            for s in &mut self.slots {
                s.2 = None;
            }
        }

        fn next_deadline(&self) -> Option<TimeNs> {
            self.slots.iter().filter(|s| s.4).filter_map(|s| s.2).min()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Step(TimeNs),
        Result { slot: usize, fresh: bool },
        Expired,
        Rearm(usize),
        Resume,
        Disable,
    }

    /// Ops drawn by weight: step 40, result 40, expiry 30, rearm 10,
    /// resume 5, disable 1 (disabling ends all timing, so it is rare).
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..126, 0u64..400, 0usize..4, any::<bool>()).prop_map(|(w, dt, slot, fresh)| match w {
            0..40 => Op::Step(dt),
            40..80 => Op::Result { slot, fresh },
            80..110 => Op::Expired,
            110..120 => Op::Rearm(slot),
            120..125 => Op::Resume,
            _ => Op::Disable,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Derived deadlines change nothing under `Fixed` and
        /// `ExponentialBackoff`: on random schedules of starts, fresh
        /// and stale results, clock steps, expiries, rearms, resumes
        /// and disables, the engine emits the frozen-deadline model's
        /// descriptors and reports its `next_deadline`.
        #[test]
        fn fixed_and_backoff_timing_matches_frozen_deadlines(
            n_slots in 1usize..4,
            n_chunks in 0u64..12,
            slot_base in 0u32..3,
            chunk_base in 0u64..3,
            rto in (0u8..10, 1u64..200).prop_map(|(s, r)| (s > 0).then_some(r)),
            backoff_cap in (any::<bool>(), 1u64..1_600).prop_map(|(b, m)| b.then_some(m)),
            ops in prop::collection::vec(arb_op(), 0..80),
        ) {
            let cfg = EngineConfig {
                wid: 0,
                k: 4,
                slot_base,
                n_slots,
                chunk_base,
                n_chunks,
                rto,
                rto_policy: match backoff_cap {
                    Some(max_ns) => RtoPolicy::ExponentialBackoff { max_ns },
                    None => RtoPolicy::Fixed,
                },
            };
            let mut now = 0;
            let mut e = SlotEngine::new(cfg).unwrap();
            let mut m = FrozenModel::new(cfg);
            prop_assert_eq!(e.start(now), m.start(now));
            prop_assert_eq!(e.next_deadline(), m.next_deadline());
            for op in ops {
                match op {
                    Op::Step(dt) => now += dt,
                    Op::Result { slot, fresh } => {
                        let local = slot % n_slots;
                        let (ver, chunk, ..) = m.slots[local];
                        let ver = if fresh { ver } else { ver.flip() };
                        let off = chunk * 4;
                        let got = e.on_result(slot_base + local as SlotIndex, ver, off, now).unwrap();
                        prop_assert_eq!(got, m.on_result(local, ver, off, now));
                    }
                    Op::Expired => prop_assert_eq!(e.expired(now), m.expired(now)),
                    Op::Rearm(slot) => {
                        let local = slot % n_slots;
                        e.rearm_slot(slot_base + local as SlotIndex, now).unwrap();
                        m.rearm(local, now);
                    }
                    Op::Resume => {
                        let states: Vec<_> = e
                            .slot_snapshots()
                            .iter()
                            .map(|s| (s.ver, s.chunk, s.active))
                            .collect();
                        e = SlotEngine::resume_at(*e.config(), &states, now).unwrap();
                        m.resume(now);
                    }
                    Op::Disable => {
                        e.disable_retransmission();
                        m.disable();
                    }
                }
                prop_assert_eq!(e.next_deadline(), m.next_deadline());
            }
        }

        /// The time-order rule under `Adaptive`, on the same random
        /// schedules: every early fire follows a clean answer to a
        /// transmission sent after the slot's own last one, and
        /// `next_deadline` is never later than the RTO alone gives.
        #[test]
        fn adaptive_early_fires_follow_a_later_answer(
            n_slots in 1usize..5,
            n_chunks in 0u64..16,
            min_ns in 1u64..300,
            init_over in 0u64..300,
            ops in prop::collection::vec(arb_op(), 0..80),
        ) {
            let max_ns = 100_000;
            let cfg = EngineConfig {
                rto_policy: RtoPolicy::Adaptive { min_ns, max_ns },
                ..cfg(n_slots, n_chunks, Some(min_ns + init_over))
            };
            // The RTO-only deadline: the parent rule over the engine's
            // own estimate and backoffs.
            let rto_only = |e: &SlotEngine| {
                e.cfg.rto?;
                let est = e.estimated_rto();
                e.slots.iter().filter(|s| s.active).map(|s| e.deadline(s, est)).min()
            };
            let mut now = 0;
            let mut e = SlotEngine::new(cfg).unwrap();
            // Per slot: when it last went out, and whether it has been
            // retransmitted since its last first send.
            let mut tx = vec![0; n_slots];
            let mut tainted = vec![false; n_slots];
            // The latest send time with a clean answer.
            let mut answered: Option<TimeNs> = None;
            for d in e.start(now) {
                tx[d.slot as usize] = now;
            }
            for op in ops {
                match op {
                    Op::Step(dt) => now += dt,
                    Op::Result { slot, fresh } => {
                        let local = slot % n_slots;
                        let s = e.slot_state(local as SlotIndex).unwrap();
                        let ver = if fresh { s.ver } else { s.ver.flip() };
                        let got = e.on_result(local as SlotIndex, ver, s.chunk * 4, now).unwrap();
                        if let ResultOutcome::Accepted { next, .. } = got {
                            if !tainted[local] {
                                answered = answered.max(Some(tx[local]));
                            }
                            if next.is_some() {
                                tx[local] = now;
                                tainted[local] = false;
                            }
                        }
                    }
                    Op::Expired => {
                        let est = e.estimated_rto();
                        let rto_due: Vec<bool> =
                            e.slots.iter().map(|s| e.deadline(s, est) <= now).collect();
                        let before = e.stats();
                        let rx = e.expired(now);
                        let mut early = 0;
                        for d in &rx {
                            let local = d.slot as usize;
                            if !rto_due[local] {
                                early += 1;
                                prop_assert!(
                                    answered.is_some_and(|a| a > tx[local]),
                                    "slot {} fired early at {} with no later answer", local, now
                                );
                            }
                            tx[local] = now;
                            tainted[local] = true;
                        }
                        let after = e.stats();
                        prop_assert_eq!(after.early_retx - before.early_retx, early);
                        prop_assert_eq!(after.retx - before.retx, rx.len() as u64);
                    }
                    Op::Rearm(slot) => {
                        let local = slot % n_slots;
                        e.rearm_slot(local as SlotIndex, now).unwrap();
                        tx[local] = now;
                        tainted[local] = false;
                    }
                    Op::Resume => {
                        let states: Vec<_> = e
                            .slot_snapshots()
                            .iter()
                            .map(|s| (s.ver, s.chunk, s.active))
                            .collect();
                        e = SlotEngine::resume_at(*e.config(), &states, now).unwrap();
                        tx = vec![now; n_slots];
                        tainted = vec![true; n_slots];
                        answered = None;
                    }
                    Op::Disable => e.disable_retransmission(),
                }
                match (e.next_deadline(), rto_only(&e)) {
                    (Some(d), Some(r)) => prop_assert!(d <= r, "deadline {} past the RTO's {}", d, r),
                    (d, r) => prop_assert_eq!(d, r),
                }
                prop_assert!(e.stats().retx >= e.stats().early_retx);
            }
        }
    }
}
