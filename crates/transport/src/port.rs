//! The transport abstraction.
//!
//! A [`Port`] is one endpoint's view of the datagram fabric: fire-and-
//! forget sends to a peer index, and blocking receives with a timeout
//! (the worker's retransmission clock). Endpoint 0 is the switch;
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

use std::time::Duration;

/// Per-port transport statistics.
///
/// `send_errors` counts datagrams the transport itself failed to hand
/// to the fabric (kernel `ENOBUFS`, `EMSGSIZE`, …). The protocol
/// treats these like any other loss, but the counter lets a bench or
/// a [`crate::runner::RunReport`] distinguish kernel-side drops from
/// in-fabric loss.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortStats {
    /// Sends the transport failed to complete (counted as loss).
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

    /// The coarsest step of this transport's receive-timeout clock, if
    /// it has one. A retransmission timeout below this granule can
    /// never fire on time (the blocking receive rounds its wait up to
    /// the granule), so runners clamp the effective RTO floor to it.
    /// `None` means timeouts are honored at full resolution.
    fn timeout_granule(&self) -> Option<Duration> {
        None
    }
}

/// Default idle-nap cap for non-blocking event loops: 100 µs keeps a
/// quiet loop responsive (well under any sane RTO) while yielding the
/// core — essential on hosts with fewer hardware threads than OS
/// threads.
pub const IDLE_NAP_NS: u64 = 100_000;

/// Longest a loop that owns a **single** port parks inside the
/// transport's blocking receive before re-checking its stop flag and
/// wall-clock budget: the plain runner's and the control plane's switch
/// threads, and a reactor thread with one engine. The kernel wakes such
/// a loop the instant a datagram lands, which no nap can match —
/// with a zero-timeout poll + [`IdleBackoff`] instead, the plain runner
/// measured 2× slower on a 2-core host (EXPERIMENTS.md, "Data-plane
/// core refactor").
pub const PARK: Duration = Duration::from_micros(200);

/// Yield-then-nap backoff for `Duration::ZERO` poll loops.
///
/// A loop that multiplexes **several** ports (a reactor thread with
/// many engines) cannot block on any one of them, so it polls each
/// non-blockingly and must decide what to do on a miss; the switch
/// shards those threads talk to and the hierarchy leaf loop poll the
/// same way. The shared policy: the first
/// idle iteration merely yields the core (traffic may already be in
/// flight from a sibling thread), and every subsequent idle iteration
/// naps — bounded by the caller's next-deadline hint and the
/// [`IDLE_NAP_NS`] cap — so a quiet loop burns no CPU yet wakes in
/// time for its earliest timer. The loops listed at [`PARK`] park
/// instead.
#[derive(Debug, Default)]
pub struct IdleBackoff {
    streak: u32,
    naps: u64,
}

impl IdleBackoff {
    pub fn new() -> Self {
        IdleBackoff::default()
    }

    /// The loop made progress: reset the streak.
    pub fn progress(&mut self) {
        self.streak = 0;
    }

    /// The loop found nothing to do. `hint_ns` is the time until the
    /// caller's next deadline (e.g. the earliest retransmission
    /// timer), bounding the nap so no timer fires late.
    pub fn idle(&mut self, hint_ns: Option<u64>) {
        self.streak += 1;
        if self.streak == 1 {
            std::thread::yield_now();
        } else {
            let nap = hint_ns.unwrap_or(IDLE_NAP_NS).clamp(1, IDLE_NAP_NS);
            std::thread::sleep(Duration::from_nanos(nap));
            self.naps += 1;
        }
    }

    /// Times the loop napped instead of spinning (for stats).
    pub fn naps(&self) -> u64 {
        self.naps
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
