//! The transport abstraction.
//!
//! A [`Port`] is one endpoint's view of the datagram fabric: fire-and-
//! forget sends to a peer index, and receives that wait at most a
//! timeout (the worker's retransmission clock) — a zero timeout being
//! a poll that never sleeps. Endpoint 0 is the switch;
//! endpoint `w + 1` is worker `w`.
//!
//! Beyond the one-datagram-per-call primitives, ports expose *burst*
//! operations — [`Port::send_batch`] and [`Port::recv_batch`] — the
//! software analogue of DPDK's `rte_eth_tx_burst`/`rx_burst` (§5.2 of
//! the paper pulls bursts of packets per core). The default
//! implementations loop over the per-datagram calls, so every
//! transport keeps working unchanged; [`crate::udp::UdpPort`]
//! overrides them with `sendmmsg`/`recvmmsg`, amortizing one syscall
//! over a whole burst. Burst receive delivers *at most* what is
//! already pending once the first datagram arrives — it never waits
//! to fill the burst, so batching adds no latency.

use std::time::{Duration, Instant};

/// Per-port transport statistics.
///
/// `send_errors` counts datagrams the transport itself dropped: sends
/// it failed to hand to the fabric (kernel `ENOBUFS`, `EMSGSIZE`, …)
/// and received datagrams longer than the frame they would land in
/// (dropped whole, never truncated). The protocol treats these like any
/// other loss, but the counter lets a bench or a
/// [`crate::runner::RunReport`] distinguish transport drops from
/// in-fabric loss.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortStats {
    /// Datagrams the transport dropped itself: failed sends and
    /// oversize receives (counted as loss).
    pub send_errors: u64,
    /// Outgoing datagrams a fault injector deliberately dropped
    /// ([`crate::faulty::FaultyPort`]); 0 on clean transports.
    pub injected_send_drops: u64,
    /// Arriving datagrams a fault injector dropped before delivery.
    pub injected_recv_drops: u64,
    /// Datagrams a fault injector sent twice.
    pub injected_dups: u64,
    /// Datagrams a fault injector held back and released out of order.
    pub injected_reorders: u64,
}

impl PortStats {
    /// Fold another port's counters into this one.
    pub fn merge(&mut self, other: PortStats) {
        self.send_errors += other.send_errors;
        self.injected_send_drops += other.injected_send_drops;
        self.injected_recv_drops += other.injected_recv_drops;
        self.injected_dups += other.injected_dups;
        self.injected_reorders += other.injected_reorders;
    }

    /// Total faults a chaos layer injected through this port.
    pub fn injected_faults(&self) -> u64 {
        self.injected_send_drops
            + self.injected_recv_drops
            + self.injected_dups
            + self.injected_reorders
    }
}

/// A reusable burst-receive buffer: up to `capacity` frames, each a
/// preallocated scratch [`Vec<u8>`], plus the sender index of each
/// received frame. Steady-state loops construct one and pass it to
/// [`Port::recv_batch`] every iteration; after warmup no allocation
/// occurs.
pub struct BurstBuf {
    frames: Vec<Vec<u8>>,
    froms: Vec<usize>,
    len: usize,
}

impl BurstBuf {
    /// A burst buffer holding up to `burst` frames of `frame_cap`
    /// bytes each (`burst` is clamped to at least 1).
    pub fn new(burst: usize, frame_cap: usize) -> Self {
        let burst = burst.max(1);
        BurstBuf {
            frames: (0..burst).map(|_| Vec::with_capacity(frame_cap)).collect(),
            froms: vec![0; burst],
            len: 0,
        }
    }

    /// Maximum frames per burst.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Frames received by the last [`Port::recv_batch`].
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Drop all received frames (keeps the storage).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterate over `(sender, frame)` pairs of the received burst.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.froms[..self.len]
            .iter()
            .copied()
            .zip(self.frames[..self.len].iter().map(|f| f.as_slice()))
    }

    /// The next free frame slot, cleared, for a transport to fill.
    /// Call [`BurstBuf::commit_next`] once it holds a datagram.
    /// Panics when full — check [`BurstBuf::is_full`] first.
    pub fn next_slot(&mut self) -> &mut Vec<u8> {
        let slot = &mut self.frames[self.len];
        slot.clear();
        slot
    }

    /// Commit the slot returned by [`BurstBuf::next_slot`] as a frame
    /// received from `from`.
    pub fn commit_next(&mut self, from: usize) {
        self.froms[self.len] = from;
        self.len += 1;
    }

    /// Raw access to every frame's storage (committed or not) for
    /// transports that fill many slots in one syscall.
    pub(crate) fn storage_mut(&mut self) -> &mut [Vec<u8>] {
        &mut self.frames
    }

    /// Set frame `i`'s length after the kernel wrote into its storage.
    ///
    /// # Safety
    /// The caller must guarantee `len` bytes of `frames[i]`'s capacity
    /// were initialized (e.g. by `recvmmsg`) and `len <= capacity`.
    pub(crate) unsafe fn set_frame_len(&mut self, i: usize, len: usize) {
        debug_assert!(len <= self.frames[i].capacity());
        self.frames[i].set_len(len);
    }

    /// Commit the filled slot at index `i >= len()` as the next
    /// received frame (swapping it into position), attributed to
    /// `from`. Used by multi-frame receives that skip frames from
    /// unknown senders while keeping the committed prefix contiguous.
    pub(crate) fn commit_at(&mut self, i: usize, from: usize) {
        debug_assert!(i >= self.len);
        if i != self.len {
            self.frames.swap(self.len, i);
        }
        self.froms[self.len] = from;
        self.len += 1;
    }
}

/// A reusable burst-send staging buffer: parallel `(dest, frame)`
/// arrays whose frame storage survives [`TxBatch::clear`], so a
/// steady-state loop encodes every outgoing packet straight into the
/// batch and flushes it with one [`Port::send_batch`] call.
pub struct TxBatch {
    dests: Vec<usize>,
    frames: Vec<Vec<u8>>,
    len: usize,
    frame_cap: usize,
}

impl TxBatch {
    /// An empty batch whose frames are allocated on demand with
    /// `frame_cap` bytes of capacity (then reused forever).
    pub fn new(frame_cap: usize) -> Self {
        TxBatch {
            dests: Vec::new(),
            frames: Vec::new(),
            len: 0,
            frame_cap,
        }
    }

    /// Bytes each frame is allocated with.
    pub fn frame_cap(&self) -> usize {
        self.frame_cap
    }

    /// Frames staged since the last clear.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all staged frames (keeps the storage).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Stage a frame for `dest`: returns the cleared scratch buffer to
    /// encode the datagram into.
    pub fn push(&mut self, dest: usize) -> &mut Vec<u8> {
        if self.len == self.frames.len() {
            self.frames.push(Vec::with_capacity(self.frame_cap));
            self.dests.push(0);
        }
        self.dests[self.len] = dest;
        let frame = &mut self.frames[self.len];
        frame.clear();
        self.len += 1;
        frame
    }

    /// Destination endpoint per staged frame.
    pub fn dests(&self) -> &[usize] {
        &self.dests[..self.len]
    }

    /// The staged frames.
    pub fn frames(&self) -> &[Vec<u8>] {
        &self.frames[..self.len]
    }

    /// Flush the staged frames through `port` and clear the batch.
    pub fn flush<P: Port + ?Sized>(&mut self, port: &mut P) {
        if self.len > 0 {
            port.send_batch(self.dests(), self.frames());
        }
        self.clear();
    }
}

/// A datagram endpoint.
pub trait Port: Send {
    /// Number of endpoints on this fabric.
    fn n_endpoints(&self) -> usize;
    /// This endpoint's index.
    fn index(&self) -> usize;
    /// Send a datagram to endpoint `to`. Unreliable by contract: the
    /// datagram may be silently dropped (lossy wrappers, UDP).
    fn send(&mut self, to: usize, data: &[u8]);
    /// Receive the next datagram, waiting at most `timeout`.
    /// `None` means the timeout elapsed.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)>;

    /// Receive the next datagram into a caller-owned scratch buffer,
    /// reusing its capacity; returns the sender index. This is the
    /// allocation-free receive path (the software analogue of DPDK's
    /// preallocated mbuf pool): steady-state loops call it with the
    /// same buffer every iteration. The default routes through
    /// [`Port::recv_timeout`]; transports with internal receive
    /// buffers override it to skip the intermediate `Vec`.
    fn recv_into(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> Option<usize> {
        let (from, data) = self.recv_timeout(timeout)?;
        buf.clear();
        buf.extend_from_slice(&data);
        Some(from)
    }

    /// Send a burst: `frames[i]` goes to endpoint `dests[i]`. Same
    /// loss contract as [`Port::send`]. The default loops over
    /// [`Port::send`]; batching transports override it to amortize
    /// the per-datagram cost (one `sendmmsg` per burst).
    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        debug_assert_eq!(dests.len(), frames.len());
        for (&to, frame) in dests.iter().zip(frames) {
            self.send(to, frame);
        }
    }

    /// Receive a burst into `bufs` (cleared first), waiting at most
    /// `timeout` for the *first* datagram; whatever else is already
    /// pending is drained into the remaining slots without waiting.
    /// Returns the number of frames received (0 = timeout elapsed).
    /// A `Duration::ZERO` timeout is a pure non-blocking poll: drain
    /// what is queued and return immediately, never sleeping — the
    /// contract run-to-completion reactors rely on. The default loops
    /// over [`Port::recv_into`] with a zero timeout after the first
    /// frame; batching transports override it with a single
    /// multi-frame syscall.
    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        bufs.clear();
        let mut wait = timeout;
        while !bufs.is_full() {
            let got = {
                let slot = bufs.next_slot();
                self.recv_into(slot, wait)
            };
            match got {
                Some(from) => bufs.commit_next(from),
                None => break,
            }
            wait = Duration::ZERO;
        }
        bufs.len()
    }

    /// Transport-level counters. The default reports zeros; real
    /// transports (UDP) override it.
    fn stats(&self) -> PortStats {
        PortStats::default()
    }

    /// How late this transport's timed receive returns beyond the time
    /// asked for, if it has such a clock. A retransmission timeout
    /// below this granule can never fire on time, so runners clamp the
    /// effective RTO floor to it. `None` means timeouts are honored at
    /// full resolution. A UDP port waits in `ppoll` and reports
    /// [`SLEEP_OVERSHOOT_NS`].
    fn timeout_granule(&self) -> Option<Duration> {
        None
    }
}

/// Longest nap an idle poll loop *asks* for. What it gets is longer: on
/// the 2-vCPU reference host `thread::sleep(100 µs)` returns after
/// ≈ 172 µs ([`SLEEP_OVERSHOOT_NS`]). Still well under any sane RTO, and
/// it yields the core — essential on hosts with fewer hardware threads
/// than OS threads.
pub const IDLE_NAP_NS: u64 = 100_000;

/// What a sleep costs beyond the time asked for: timer slack plus the
/// wake-up. Measured on the reference host (`CONFIG_HZ=250`, default
/// 50 µs timer slack), medians of 2 000 calls: `sleep(1 µs)` → 73 µs,
/// `sleep(10 µs)` → 82 µs, `sleep(50 µs)` → 122 µs, `sleep(100 µs)` →
/// 172 µs. A deadline nearer than this cannot be met by sleeping, so
/// [`IdleBackoff`] keeps polling instead, and a nap toward a farther
/// deadline is shortened by it.
pub const SLEEP_OVERSHOOT_NS: u64 = 70_000;

/// Cap on the time an idle loop keeps polling before it naps. Its
/// provenance is the nap it replaces: the cheapest nap costs
/// [`SLEEP_OVERSHOOT_NS`] of latency, so a spin of less than half of
/// that is cheaper than sleeping through an answer whenever the answer
/// arrives inside it (on `udp-k32` the switch shard's next burst lands
/// ≈ 10 µs into the spin, 1 800 times a round). Sized on the ledger
/// (EXPERIMENTS.md, "Adaptive spin before the nap"): 32 µs takes
/// `udp-k32` 1.6× for +2 % CPU per element on `udp-k256`; 64 µs takes
/// it 1.8× for +13 %.
pub const SPIN_CAP_NS: u64 = 32_000;

/// A halved budget below this is no spin at all (one poll iteration
/// costs about this much), so it collapses to zero.
const SPIN_MIN_NS: u64 = 1_000;

/// Every this-many idle episodes the spin runs at the cap whatever was
/// learned, so a collapsed budget can recover when the peer speeds up.
const SPIN_PROBE_EVERY: u32 = 16;

/// Longest a lane that owns a **single** endpoint of a parking type
/// parks inside the transport's timed receive before re-checking its
/// stop flag and wall-clock budget: an executor lane with one engine
/// (every engine thread of `run_allreduce`) and the control plane's
/// tenant switch ([`crate::endpoint::Endpoint::PARKS`]). The kernel
/// wakes such a lane the instant a datagram lands, which no nap can
/// match, and otherwise when the park is over (on UDP `ppoll`'s
/// high-resolution timer, ≈ [`SLEEP_OVERSHOOT_NS`] late). Switch shards
/// never park, not even opposite parked engine threads: parking them
/// cost `udp-k256` 24 %, and was no faster for the plain layout
/// (EXPERIMENTS.md, "Data-plane core refactor" and "Plain runner on the
/// engine driver").
pub const PARK: Duration = Duration::from_micros(200);

/// What an idle poll loop does after an empty poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleStep {
    /// Yield the core and poll again.
    Spin,
    /// Sleep this many nanoseconds, then poll again.
    Nap(u64),
}

/// The one wait policy of every `Duration::ZERO` poll loop: poll →
/// bounded, adaptive spin → nap.
///
/// An executor lane that multiplexes **several** ports (a reactor
/// thread with many engines) cannot block on any one of them, so it
/// polls each non-blockingly and must decide what to do on a miss; the
/// switch shards those threads talk to and the hierarchy leaves poll
/// the same way. Each polling lane owns one
/// ([`crate::endpoint::Lane`]). An *idle episode* runs from the first
/// empty poll to the next progress. Within it the lane keeps polling
/// (yielding the core between polls, so its timers are still swept
/// every iteration) until a **time** budget is spent, and only then
/// naps — bounded by the caller's next-deadline hint and
/// [`IDLE_NAP_NS`].
///
/// The budget learns from the loop's own history: it starts at
/// [`SPIN_CAP_NS`], **halves** whenever a spin runs out with nothing
/// received (the peer is slower than the budget, or the host has fewer
/// cores than threads: spinning is futile and the nap's batching pays),
/// **snaps back to the cap** when progress lands inside a spin, and
/// every `SPIN_PROBE_EVERY`-th (16th) episode spins at the cap
/// regardless so a collapsed budget recovers. A deadline closer than
/// [`SLEEP_OVERSHOOT_NS`] is never slept on. The lanes listed at
/// [`PARK`] park instead.
#[derive(Debug)]
pub struct IdleBackoff {
    origin: Instant,
    /// Learned spin budget, `0..=SPIN_CAP_NS`.
    budget_ns: u64,
    episode: Episode,
    /// Idle episodes opened so far (every 16th probes at the cap).
    episodes: u32,
    naps: u64,
    spin_hits: u64,
    spin_misses: u64,
    spun_ns: u64,
    napped_ns: u64,
}

/// Where a loop stands between two moments of progress.
#[derive(Debug, Clone, Copy)]
enum Episode {
    /// Making progress: no empty poll since the last one.
    Closed,
    /// Polling since `since_ns` on a budget of `limit_ns` (the learned
    /// budget, or the cap on a probe episode).
    Spinning { since_ns: u64, limit_ns: u64 },
    /// The budget ran out: napping until progress.
    Napping,
}

impl IdleBackoff {
    pub(crate) fn new() -> Self {
        IdleBackoff {
            origin: Instant::now(),
            budget_ns: SPIN_CAP_NS,
            episode: Episode::Closed,
            episodes: 0,
            naps: 0,
            spin_hits: 0,
            spin_misses: 0,
            spun_ns: 0,
            napped_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The loop made progress (received a burst, fired a timer): close
    /// the idle episode, if one is open.
    pub fn progress(&mut self) {
        if matches!(self.episode, Episode::Spinning { .. }) {
            self.progress_at(self.now_ns());
        } else {
            self.episode = Episode::Closed;
        }
    }

    /// [`IdleBackoff::progress`] at an explicit clock reading.
    fn progress_at(&mut self, now_ns: u64) {
        if let Episode::Spinning { since_ns, limit_ns } = self.episode {
            self.spun_ns += now_ns.saturating_sub(since_ns);
            // Progress after the lone yield of a zero budget teaches
            // nothing about spinning; only the probe re-opens it.
            if limit_ns > 0 {
                self.spin_hits += 1;
                self.budget_ns = SPIN_CAP_NS;
            }
        }
        self.episode = Episode::Closed;
    }

    /// The loop found nothing to do. `hint_ns` is the time until the
    /// caller's next deadline (e.g. the earliest retransmission
    /// timer), bounding the nap so no timer fires late.
    pub fn idle(&mut self, hint_ns: Option<u64>) {
        let now = self.now_ns();
        match self.step(now, hint_ns) {
            IdleStep::Spin => std::thread::yield_now(),
            IdleStep::Nap(ns) => {
                std::thread::sleep(Duration::from_nanos(ns));
                self.naps += 1;
                self.napped_ns += self.now_ns().saturating_sub(now);
            }
        }
    }

    /// The policy itself, a function of this state, the clock reading
    /// and the deadline hint only: what to do after an empty poll at
    /// `now_ns`. The first empty poll of an episode always spins (it
    /// merely yields — traffic may already be in flight from a sibling
    /// thread); later ones spin while the episode's budget lasts.
    fn step(&mut self, now_ns: u64, hint_ns: Option<u64>) -> IdleStep {
        match self.episode {
            Episode::Closed => {
                self.episodes = self.episodes.wrapping_add(1);
                let limit_ns = if self.episodes.is_multiple_of(SPIN_PROBE_EVERY) {
                    SPIN_CAP_NS
                } else {
                    self.budget_ns
                };
                self.episode = Episode::Spinning {
                    since_ns: now_ns,
                    limit_ns,
                };
                return IdleStep::Spin;
            }
            Episode::Spinning { since_ns, limit_ns } => {
                let spun = now_ns.saturating_sub(since_ns);
                if spun < limit_ns {
                    return IdleStep::Spin;
                }
                self.episode = Episode::Napping;
                self.spun_ns += spun;
                if limit_ns > 0 {
                    self.spin_misses += 1;
                    self.budget_ns /= 2;
                    if self.budget_ns < SPIN_MIN_NS {
                        self.budget_ns = 0;
                    }
                }
            }
            Episode::Napping => {}
        }
        match hint_ns {
            // Sleeping would overshoot the deadline: poll up to it.
            Some(h) if h < SLEEP_OVERSHOOT_NS => IdleStep::Spin,
            Some(h) => IdleStep::Nap((h - SLEEP_OVERSHOOT_NS).clamp(1, IDLE_NAP_NS)),
            None => IdleStep::Nap(IDLE_NAP_NS),
        }
    }

    /// The policy's counters (naps, spin hits and misses, time spun
    /// and napped), every other field zero.
    pub fn waits(&self) -> crate::reactor::ReactorStats {
        crate::reactor::ReactorStats {
            idle_sleeps: self.naps,
            spin_hits: self.spin_hits,
            spin_misses: self.spin_misses,
            spun_ns: self.spun_ns,
            napped_ns: self.napped_ns,
            ..Default::default()
        }
    }
}

/// Conventional endpoint index of the switch.
pub const SWITCH_ENDPOINT: usize = 0;

/// Endpoint index of worker `wid`.
pub fn worker_endpoint(wid: usize) -> usize {
    wid + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;

    #[test]
    fn default_batch_impls_roundtrip() {
        let mut ports = channel_fabric(2);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        let mut batch = TxBatch::new(16);
        for i in 0..5u8 {
            batch.push(1).extend_from_slice(&[i, i, i]);
        }
        assert_eq!(batch.len(), 5);
        batch.flush(&mut tx);
        assert!(batch.is_empty());

        let mut bufs = BurstBuf::new(8, 16);
        let n = rx.recv_batch(&mut bufs, Duration::from_millis(200));
        assert_eq!(n, 5);
        for (i, (from, frame)) in bufs.iter().enumerate() {
            assert_eq!(from, 0);
            assert_eq!(frame, &[i as u8; 3]);
        }
    }

    #[test]
    fn recv_batch_respects_capacity() {
        let mut ports = channel_fabric(2);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        for i in 0..10u8 {
            tx.send(1, &[i]);
        }
        let mut bufs = BurstBuf::new(4, 16);
        assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(200)), 4);
        assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(200)), 4);
        assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(200)), 2);
        assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(20)), 0);
        assert!(bufs.is_empty());
    }

    /// Drive one idle episode that starts at `t0` and polls every
    /// microsecond until the policy naps; returns the time spun.
    fn spin_out(idle: &mut IdleBackoff, t0: u64) -> u64 {
        let mut t = t0;
        while idle.step(t, None) == IdleStep::Spin {
            t += 1_000;
            assert!(t - t0 <= SPIN_CAP_NS + 1_000, "spun past the cap");
        }
        t - t0
    }

    #[test]
    fn spin_budget_halves_on_a_miss_and_never_exceeds_the_cap() {
        let mut idle = IdleBackoff::new();
        let mut t = 0;
        let mut want = SPIN_CAP_NS;
        // Stop short of the first probe episode (the 16th).
        for _ in 0..8 {
            let spun = spin_out(&mut idle, t);
            // 1 µs polls: the spin ends on the first poll at or past
            // the budget (a zero budget still yields once).
            assert_eq!(spun, want.div_ceil(1_000).max(1) * 1_000);
            want = if want / 2 < SPIN_MIN_NS { 0 } else { want / 2 };
            assert_eq!(idle.budget_ns, want);
            t += 1_000_000;
            // Progress after the nap: neither a hit nor a miss.
            idle.progress_at(t);
            assert_eq!(idle.budget_ns, want);
        }
        assert_eq!(want, 0, "eight misses collapse a 32 µs budget");
        assert_eq!(idle.waits().spin_hits, 0);
        // A zero budget's lone yield is not a spin that missed.
        assert_eq!(idle.waits().spin_misses, 6);
    }

    #[test]
    fn spin_budget_resets_on_a_hit() {
        let mut idle = IdleBackoff::new();
        spin_out(&mut idle, 0);
        idle.progress_at(500_000);
        spin_out(&mut idle, 1_000_000);
        idle.progress_at(1_500_000);
        assert_eq!(idle.budget_ns, SPIN_CAP_NS / 4);
        // A frame lands 3 µs into the next spin.
        assert_eq!(idle.step(2_000_000, None), IdleStep::Spin);
        assert_eq!(idle.step(2_003_000, None), IdleStep::Spin);
        idle.progress_at(2_004_000);
        assert_eq!(idle.budget_ns, SPIN_CAP_NS);
        assert_eq!((idle.waits().spin_hits, idle.waits().spin_misses), (1, 2));
        assert_eq!(idle.waits().spun_ns, SPIN_CAP_NS + SPIN_CAP_NS / 2 + 4_000);
    }

    #[test]
    fn collapsed_budget_probes_every_16th_episode_and_recovers() {
        let mut idle = IdleBackoff::new();
        let mut t = 0;
        let mut spins = Vec::new();
        for _ in 0..2 * SPIN_PROBE_EVERY {
            spins.push(spin_out(&mut idle, t));
            t += 1_000_000;
            idle.progress_at(t);
        }
        assert_eq!(idle.budget_ns, 0);
        for (i, &spun) in spins.iter().enumerate().skip(8) {
            let probe = (i as u32 + 1).is_multiple_of(SPIN_PROBE_EVERY);
            assert_eq!(spun, if probe { SPIN_CAP_NS } else { 1_000 }, "episode {i}");
        }
        // Episodes 33..=47 yield once each; the 48th probes at the cap,
        // and a frame landing inside it restores the whole budget.
        for _ in 0..SPIN_PROBE_EVERY - 1 {
            assert_eq!(spin_out(&mut idle, t), 1_000);
            t += 1_000_000;
            idle.progress_at(t);
        }
        assert_eq!(idle.step(t, None), IdleStep::Spin);
        assert_eq!(idle.step(t + SPIN_CAP_NS / 2, None), IdleStep::Spin);
        idle.progress_at(t + SPIN_CAP_NS / 2 + 1);
        assert_eq!(idle.budget_ns, SPIN_CAP_NS);
    }

    #[test]
    fn deadline_nearer_than_a_sleep_is_polled_for_not_slept_on() {
        let mut idle = IdleBackoff::new();
        spin_out(&mut idle, 0);
        // Budget spent, but the next timer is due sooner than the
        // shortest sleep returns: stay in the poll loop.
        for hint in [0, 1, 50_000, SLEEP_OVERSHOOT_NS - 1] {
            assert_eq!(idle.step(100_000, Some(hint)), IdleStep::Spin, "{hint}");
        }
        // A farther deadline is napped toward, never past, and never
        // for longer than the cap.
        for hint in [SLEEP_OVERSHOOT_NS, 90_000, 150_000, 10_000_000, u64::MAX] {
            match idle.step(100_000, Some(hint)) {
                IdleStep::Nap(ns) => {
                    assert!((1..=IDLE_NAP_NS).contains(&ns), "hint {hint}: nap {ns}");
                    assert!(ns <= hint, "hint {hint}: nap {ns}");
                }
                IdleStep::Spin => panic!("hint {hint}: expected a nap"),
            }
        }
        assert_eq!(idle.step(100_000, None), IdleStep::Nap(IDLE_NAP_NS));
    }

    #[test]
    fn tx_batch_reuses_storage() {
        let mut batch = TxBatch::new(8);
        batch.push(3).extend_from_slice(b"abc");
        batch.push(1).extend_from_slice(b"defg");
        assert_eq!(batch.dests(), &[3, 1]);
        assert_eq!(batch.frames()[1], b"defg");
        batch.clear();
        // Refilled frames reuse the same backing storage.
        batch.push(2).extend_from_slice(b"xy");
        assert_eq!(batch.dests(), &[2]);
        assert_eq!(batch.frames()[0], b"xy");
    }
}
