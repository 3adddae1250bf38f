//! Fault-injecting transport wrappers, both deterministic:
//!
//! * [`FaultyPort`] — probabilistic send-side loss, recv-side loss,
//!   duplication and bounded reordering, each with its own
//!   probability, all a pure function of the seed. One-knob loss is
//!   `faulty_fabric(ports, FaultyConfig::loss_only(p), seed)`.
//! * [`ScriptedPort`] — scripted per-endpoint shaping: a fixed stall
//!   before every send (a straggler whose pipelined window drains
//!   slowly, §4.2) and/or a death instant after which the endpoint
//!   neither sends nor receives (a crash, as the rest of the fabric
//!   observes it).
//!
//! The scenario lab (`switchml-scenario`) stacks the two per endpoint,
//! `FaultyPort<ScriptedPort<P>>`, to run a whole fault plan.
//!
//! Reordering is bounded the way real fabrics reorder: a held datagram
//! is released after at most [`FaultyConfig::reorder_span`] subsequent
//! sends, so the protocol's one-phase-lag assumption (§3.5 — a packet
//! never survives past its slot's reuse) stays realistic. Unbounded
//! holding is the model checker's job (`switchml-check`), not the
//! threaded fabric's.

use crate::port::{BurstBuf, Port, PortStats};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-fault probabilities and bounds. All probabilities default to
/// zero: a default `FaultyPort` is a transparent wrapper.
#[derive(Debug, Clone, Copy)]
pub struct FaultyConfig {
    /// P(an outgoing datagram is silently dropped).
    pub send_drop: f64,
    /// P(an arriving datagram is dropped before the caller sees it).
    pub recv_drop: f64,
    /// P(an outgoing datagram is sent twice).
    pub dup: f64,
    /// P(an outgoing datagram is held back and released later).
    pub reorder: f64,
    /// A held datagram is released after at most this many subsequent
    /// sends on the same port.
    pub reorder_span: u32,
    /// Cap on concurrently held datagrams per port; when full,
    /// reordering is skipped rather than queued unboundedly.
    pub max_held: usize,
}

impl Default for FaultyConfig {
    fn default() -> Self {
        FaultyConfig {
            send_drop: 0.0,
            recv_drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_span: 3,
            max_held: 8,
        }
    }
}

impl FaultyConfig {
    /// Send-side loss only: a single drop probability.
    pub fn loss_only(p: f64) -> Self {
        FaultyConfig {
            send_drop: p,
            ..FaultyConfig::default()
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("send_drop", self.send_drop),
            ("recv_drop", self.recv_drop),
            ("dup", self.dup),
            ("reorder", self.reorder),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} not a probability");
        }
    }
}

/// Shared fault statistics across all wrapped ports of one fabric.
#[derive(Debug, Default)]
pub struct FaultyStats {
    inner: Mutex<Counters>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    sent: u64,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    recv_dropped: u64,
}

impl FaultyStats {
    pub fn sent(&self) -> u64 {
        self.inner.lock().sent
    }
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
    pub fn duplicated(&self) -> u64 {
        self.inner.lock().duplicated
    }
    pub fn reordered(&self) -> u64 {
        self.inner.lock().reordered
    }
    pub fn recv_dropped(&self) -> u64 {
        self.inner.lock().recv_dropped
    }
}

struct Held {
    to: usize,
    data: Vec<u8>,
    /// Released when this reaches zero; decremented on every send.
    countdown: u32,
}

/// A port with configurable, seed-deterministic fault injection.
pub struct FaultyPort<P: Port> {
    inner: P,
    cfg: FaultyConfig,
    rng: SmallRng,
    held: Vec<Held>,
    stats: Arc<FaultyStats>,
    /// This port's own share of the fabric-wide counters. `stats()`
    /// reports these — the shared [`FaultyStats`] covers the whole
    /// fabric, so surfacing it per port would multiply-count faults
    /// when a runner merges every port's `PortStats`.
    local: Counters,
}

impl<P: Port> FaultyPort<P> {
    pub fn new(inner: P, cfg: FaultyConfig, seed: u64, stats: Arc<FaultyStats>) -> Self {
        cfg.validate();
        FaultyPort {
            inner,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            held: Vec::new(),
            stats,
            local: Counters::default(),
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    /// Age held datagrams by one send and release the expired ones.
    fn tick_held(&mut self) {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].countdown == 0 {
                let h = self.held.swap_remove(i);
                self.inner.send(h.to, &h.data);
            } else {
                self.held[i].countdown -= 1;
                i += 1;
            }
        }
    }
}

/// Wrap every port of a fabric with the same fault configuration.
/// Each port gets a distinct RNG stream derived from `seed`, so the
/// whole fabric's behavior is a pure function of `(cfg, seed)`.
pub fn faulty_fabric<P: Port>(
    ports: Vec<P>,
    cfg: FaultyConfig,
    seed: u64,
) -> (Vec<FaultyPort<P>>, Arc<FaultyStats>) {
    let stats = Arc::new(FaultyStats::default());
    let wrapped = ports
        .into_iter()
        .enumerate()
        .map(|(i, port)| {
            FaultyPort::new(port, cfg, seed.wrapping_add(i as u64), Arc::clone(&stats))
        })
        .collect();
    (wrapped, stats)
}

impl<P: Port> Drop for FaultyPort<P> {
    /// Reordering bounds delay; it must not turn into loss when the
    /// port closes with datagrams still held back.
    fn drop(&mut self) {
        for h in std::mem::take(&mut self.held) {
            self.inner.send(h.to, &h.data);
        }
    }
}

impl<P: Port> Port for FaultyPort<P> {
    fn n_endpoints(&self) -> usize {
        self.inner.n_endpoints()
    }

    fn index(&self) -> usize {
        self.inner.index()
    }

    fn send(&mut self, to: usize, data: &[u8]) {
        self.stats.inner.lock().sent += 1;
        self.local.sent += 1;
        if self.roll(self.cfg.send_drop) {
            self.stats.inner.lock().dropped += 1;
            self.local.dropped += 1;
            self.tick_held();
            return;
        }
        if self.roll(self.cfg.reorder) && self.held.len() < self.cfg.max_held {
            self.stats.inner.lock().reordered += 1;
            self.local.reordered += 1;
            self.held.push(Held {
                to,
                data: data.to_vec(),
                countdown: self.cfg.reorder_span,
            });
        } else {
            self.inner.send(to, data);
            if self.roll(self.cfg.dup) {
                self.stats.inner.lock().duplicated += 1;
                self.local.duplicated += 1;
                self.inner.send(to, data);
            }
        }
        self.tick_held();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        loop {
            let got = self.inner.recv_timeout(timeout)?;
            if self.roll(self.cfg.recv_drop) {
                self.stats.inner.lock().recv_dropped += 1;
                self.local.recv_dropped += 1;
                continue;
            }
            return Some(got);
        }
    }

    // Bursts stay bursts wherever a fault cannot reshape them, so the
    // inner transport's burst path (UDP GSO/GRO, one syscall per burst,
    // zero-timeout polls that never sleep) stays engaged under injected
    // loss. Drops roll once per frame in either path, so the fault
    // schedule is the per-datagram one frame for frame.

    /// Duplication and reordering insert and hold frames, so those
    /// configurations send frame by frame. Otherwise each run of
    /// survivors between two drops goes down as one inner batch,
    /// borrowed in place.
    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        debug_assert_eq!(dests.len(), frames.len());
        if self.cfg.dup > 0.0 || self.cfg.reorder > 0.0 {
            for (&to, frame) in dests.iter().zip(frames) {
                self.send(to, frame);
            }
            return;
        }
        let mut drops = 0u64;
        let mut run = 0;
        for i in 0..frames.len() {
            if self.roll(self.cfg.send_drop) {
                drops += 1;
                if run < i {
                    self.inner.send_batch(&dests[run..i], &frames[run..i]);
                }
                run = i + 1;
            }
        }
        if run < frames.len() {
            self.inner.send_batch(&dests[run..], &frames[run..]);
        }
        {
            let mut s = self.stats.inner.lock();
            s.sent += frames.len() as u64;
            s.dropped += drops;
        }
        self.local.sent += frames.len() as u64;
        self.local.dropped += drops;
    }

    /// Without receive-side loss a burst receive is the inner one.
    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        if self.cfg.recv_drop == 0.0 {
            return self.inner.recv_batch(bufs, timeout);
        }
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

    fn stats(&self) -> PortStats {
        let mut s = self.inner.stats();
        s.injected_send_drops += self.local.dropped;
        s.injected_recv_drops += self.local.recv_dropped;
        s.injected_dups += self.local.duplicated;
        s.injected_reorders += self.local.reordered;
        s
    }

    fn timeout_granule(&self) -> Option<Duration> {
        self.inner.timeout_granule()
    }
}

/// When a scripted crash takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillAt {
    /// The endpoint goes silent this long after its port was built — a
    /// crash at a wall-clock instant.
    Elapsed(Duration),
    /// The endpoint dies after completing this many sends — "kill at
    /// chunk N" expressed in the unit a schedule can count
    /// deterministically (data-plane transmissions), independent of
    /// machine speed.
    AfterSends(u64),
}

/// Deterministic per-endpoint shaping: a fixed `stall` before every
/// send and an optional `death`, after which the endpoint neither
/// sends nor receives.
pub struct ScriptedPort<P: Port> {
    inner: P,
    stall: Duration,
    death: Option<KillAt>,
    sends: u64,
    t0: Instant,
}

impl<P: Port> ScriptedPort<P> {
    pub fn new(inner: P, stall: Duration, death: Option<KillAt>) -> Self {
        ScriptedPort {
            inner,
            stall,
            death,
            sends: 0,
            t0: Instant::now(),
        }
    }

    fn dead(&self) -> bool {
        match self.death {
            None => false,
            Some(KillAt::Elapsed(d)) => self.t0.elapsed() >= d,
            Some(KillAt::AfterSends(n)) => self.sends >= n,
        }
    }
}

impl<P: Port> Port for ScriptedPort<P> {
    fn n_endpoints(&self) -> usize {
        self.inner.n_endpoints()
    }

    fn index(&self) -> usize {
        self.inner.index()
    }

    fn send(&mut self, to: usize, data: &[u8]) {
        if self.dead() {
            return;
        }
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        self.inner.send(to, data);
        self.sends += 1;
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        if self.dead() {
            // A crashed endpoint hears nothing; sleep out the wait so
            // the driving thread does not spin.
            std::thread::sleep(timeout);
            return None;
        }
        self.inner.recv_timeout(timeout)
    }

    // Bursts stay bursts wherever there is nothing to shape: only a
    // straggler pays (its stall) frame by frame. A scripted death is
    // still exact — `AfterSends(n)` lets precisely the frames before
    // the n-th out of a burst it lands in — and a dead endpoint hears
    // nothing, whichever receive it is parked in.

    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        debug_assert_eq!(dests.len(), frames.len());
        if !self.stall.is_zero() {
            for (&to, frame) in dests.iter().zip(frames) {
                self.send(to, frame);
            }
            return;
        }
        let live = match self.death {
            _ if self.dead() => 0,
            Some(KillAt::AfterSends(n)) => ((n - self.sends) as usize).min(frames.len()),
            _ => frames.len(),
        };
        if live > 0 {
            self.inner.send_batch(&dests[..live], &frames[..live]);
            self.sends += live as u64;
        }
    }

    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        if self.dead() {
            bufs.clear();
            std::thread::sleep(timeout);
            return 0;
        }
        self.inner.recv_batch(bufs, timeout)
    }

    fn stats(&self) -> PortStats {
        self.inner.stats()
    }

    fn timeout_granule(&self) -> Option<Duration> {
        self.inner.timeout_granule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;
    use crate::runner::{run_allreduce, RunConfig};
    use switchml_core::config::Protocol;

    fn chaos() -> FaultyConfig {
        FaultyConfig {
            send_drop: 0.03,
            recv_drop: 0.03,
            dup: 0.05,
            reorder: 0.1,
            reorder_span: 3,
            max_held: 8,
        }
    }

    /// Loss-only bursts: every staged frame either arrives or is
    /// counted dropped, survivors go down the inner batch path, and the
    /// schedule is still a pure function of the seed.
    #[test]
    fn batch_preserving_loss_filters_bursts() {
        use crate::port::{BurstBuf, TxBatch};
        let run = |seed: u64| {
            let (mut ports, stats) =
                faulty_fabric(channel_fabric(2), FaultyConfig::loss_only(0.2), seed);
            let mut rx = ports.pop().unwrap();
            let mut tx = ports.pop().unwrap();
            let mut batch = TxBatch::new(4);
            for i in 0..300u16 {
                batch.push(1).extend_from_slice(&i.to_be_bytes());
                if batch.len() == 10 {
                    batch.flush(&mut tx);
                }
            }
            batch.flush(&mut tx);
            let mut bufs = BurstBuf::new(16, 4);
            let mut seen = Vec::new();
            while rx.recv_batch(&mut bufs, Duration::from_millis(5)) > 0 {
                for (_, frame) in bufs.iter() {
                    seen.push(u16::from_be_bytes([frame[0], frame[1]]));
                }
            }
            assert_eq!(seen.len() as u64 + stats.dropped(), 300);
            assert!((20..=120).contains(&stats.dropped()), "{}", stats.dropped());
            // Loss only, in-order transport: survivors sorted + unique.
            assert!(seen.windows(2).all(|w| w[0] < w[1]));
            seen
        };
        assert_eq!(run(77), run(77), "schedule must be seed-deterministic");
    }

    /// Push a fixed workload through a 2-port faulty fabric and record
    /// exactly what the receiver sees.
    fn observe(cfg: FaultyConfig, seed: u64) -> Vec<Vec<u8>> {
        let (mut ports, _stats) = faulty_fabric(channel_fabric(2), cfg, seed);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        for i in 0..200u8 {
            tx.send(1, &[i]);
        }
        drop(tx); // flush any still-held datagrams
        let mut seen = Vec::new();
        while let Some((_, data)) = rx.recv_timeout(Duration::from_millis(1)) {
            seen.push(data);
        }
        seen
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let a = observe(chaos(), 1234);
        let b = observe(chaos(), 1234);
        assert_eq!(a, b, "identical seeds must inject identical faults");
        let c = observe(chaos(), 5678);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn loss_only_drops_at_configured_rate() {
        let (mut ports, stats) = faulty_fabric(channel_fabric(2), FaultyConfig::loss_only(0.5), 42);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        for _ in 0..1000 {
            tx.send(1, b"x");
        }
        let mut received = 0;
        while rx.recv_timeout(Duration::from_millis(1)).is_some() {
            received += 1;
        }
        assert_eq!(stats.sent(), 1000);
        let dropped = stats.dropped();
        assert_eq!(received + dropped as usize, 1000);
        assert!((350..=650).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn zero_loss_passes_everything() {
        let (mut ports, stats) = faulty_fabric(channel_fabric(2), FaultyConfig::loss_only(0.0), 1);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        for _ in 0..100 {
            tx.send(1, b"y");
        }
        let mut received = 0;
        while rx.recv_timeout(Duration::from_millis(1)).is_some() {
            received += 1;
        }
        assert_eq!(received, 100);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn duplicates_and_reorders_show_up() {
        let cfg = FaultyConfig {
            dup: 0.3,
            reorder: 0.3,
            ..FaultyConfig::default()
        };
        let (mut ports, stats) = faulty_fabric(channel_fabric(2), cfg, 7);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        for i in 0..200u8 {
            tx.send(1, &[i]);
        }
        drop(tx); // flush any still-held datagrams
        let mut seen = Vec::new();
        while let Some((_, data)) = rx.recv_timeout(Duration::from_millis(1)) {
            seen.push(data[0]);
        }
        assert!(stats.duplicated() > 0, "no duplicates at p=0.3");
        assert!(stats.reordered() > 0, "no reorders at p=0.3");
        // No loss configured: everything sent arrives (held packets
        // release within reorder_span sends), plus the duplicates.
        assert_eq!(seen.len() as u64, 200 + stats.duplicated());
        assert!(
            seen.windows(2).any(|w| w[0] > w[1]),
            "reordering never changed arrival order"
        );
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "a datagram went missing");
    }

    /// The trait's default `recv_batch` over a faulty port: burst
    /// receive must see the same loss discipline as per-datagram
    /// receive — nothing delivered twice, everything either delivered
    /// or counted as recv-dropped.
    #[test]
    fn recv_batch_under_loss_uses_default_impl() {
        use crate::port::{BurstBuf, TxBatch};
        let cfg = FaultyConfig {
            recv_drop: 0.3,
            ..FaultyConfig::default()
        };
        let (mut ports, stats) = faulty_fabric(channel_fabric(2), cfg, 31);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        let mut batch = TxBatch::new(4);
        for i in 0..300u16 {
            batch.push(1).extend_from_slice(&i.to_be_bytes());
            if batch.len() == 10 {
                batch.flush(&mut tx);
            }
        }
        batch.flush(&mut tx);
        let mut bufs = BurstBuf::new(16, 4);
        let mut seen = Vec::new();
        let mut multi_frame_bursts = 0u32;
        loop {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(5));
            if n == 0 {
                break;
            }
            if n > 1 {
                multi_frame_bursts += 1;
            }
            for (from, frame) in bufs.iter() {
                assert_eq!(from, 0);
                seen.push(u16::from_be_bytes([frame[0], frame[1]]));
            }
        }
        assert_eq!(seen.len() as u64 + stats.recv_dropped(), 300);
        assert!((30..=160).contains(&stats.recv_dropped()));
        assert!(multi_frame_bursts > 0, "bursts never batched");
        // In-order channel + drops only: survivors stay sorted and
        // unique.
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn recv_drop_loses_datagrams() {
        let cfg = FaultyConfig {
            recv_drop: 0.5,
            ..FaultyConfig::default()
        };
        let (mut ports, stats) = faulty_fabric(channel_fabric(2), cfg, 21);
        let mut rx = ports.pop().unwrap();
        let mut tx = ports.pop().unwrap();
        for i in 0..200u8 {
            tx.send(1, &[i]);
        }
        let mut received = 0u64;
        while rx.recv_timeout(Duration::from_millis(1)).is_some() {
            received += 1;
        }
        assert_eq!(received + stats.recv_dropped(), 200);
        assert!((40..=160).contains(&stats.recv_dropped()));
    }

    /// The full allreduce must converge to the right sums through a
    /// fabric that drops (both sides), duplicates, and reorders —
    /// duplicates exercising the switch's `seen` bitmap and the
    /// workers' stale-result paths end to end.
    ///
    /// Reordering is only injected on the switch→worker result path.
    /// Holding a worker→switch *update* past its slot's phase boundary
    /// breaks Algorithm 3's bounded packet-lifetime assumption (§3.5's
    /// self-clocking argument): the next-phase contribution clears the
    /// stale update's `seen` bit, the late release then looks fresh
    /// and poisons the pool — the exact ABA schedule `switchml-check`
    /// ages out of its model (see its `world` module docs). The paper's
    /// rack fabric never does this; a faulty fabric that did would be
    /// testing a scenario outside the protocol's contract.
    #[test]
    fn allreduce_converges_under_chaos() {
        let n = 3;
        let elems = 400;
        let proto = Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000,
            scaling_factor: 10_000.0,
            ..Protocol::default()
        };
        let updates: Vec<Vec<Vec<f32>>> = (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 5) as f32 * 0.1)
                    .collect()]
            })
            .collect();
        let stats = Arc::new(FaultyStats::default());
        let worker_cfg = FaultyConfig {
            reorder: 0.0,
            ..chaos()
        };
        let ports: Vec<FaultyPort<_>> = channel_fabric(n + 1)
            .into_iter()
            .enumerate()
            .map(|(i, port)| {
                let cfg = if i == 0 { chaos() } else { worker_cfg };
                FaultyPort::new(port, cfg, 99 + i as u64, Arc::clone(&stats))
            })
            .collect();
        let report = run_allreduce(ports, updates, &proto, &RunConfig::default()).unwrap();
        assert!(stats.dropped() + stats.recv_dropped() > 0, "no faults hit");
        assert!(stats.duplicated() > 0, "no duplicates hit");
        // The injected faults also surface per-port through `PortStats`
        // and sum to the fabric-wide totals in the run report.
        let t = &report.transport_stats;
        assert_eq!(t.injected_send_drops, stats.dropped());
        assert_eq!(t.injected_recv_drops, stats.recv_dropped());
        assert_eq!(t.injected_dups, stats.duplicated());
        assert_eq!(t.injected_reorders, stats.reordered());
        assert!(t.injected_faults() > 0);
        for r in &report.results {
            for (i, a) in r[0].iter().enumerate() {
                let want = (1..=n).map(|w| w as f32).sum::<f32>() + n as f32 * (i % 5) as f32 * 0.1;
                assert!((a - want).abs() < 0.01, "elem {i}: {a} vs {want}");
            }
        }
    }

    /// Send 300 numbered frames through a scripted + faulty port (the
    /// scenario lab's stack) to a bare one — as bursts of ten
    /// (`batched`) or one `send` per frame — and return what arrives,
    /// in order.
    fn sent_through(
        cfg: FaultyConfig,
        death: Option<KillAt>,
        batched: bool,
    ) -> (Vec<u16>, PortStats) {
        use crate::port::TxBatch;
        let mut ports = channel_fabric(2);
        let mut tx = FaultyPort::new(
            ScriptedPort::new(ports.pop().unwrap(), Duration::ZERO, death),
            cfg,
            77,
            Arc::new(FaultyStats::default()),
        );
        let mut rx = ports.pop().unwrap();
        let mut batch = TxBatch::new(4);
        for i in 0..300u16 {
            if batched {
                batch.push(0).extend_from_slice(&i.to_be_bytes());
                if batch.len() == 10 {
                    batch.flush(&mut tx);
                }
            } else {
                tx.send(0, &i.to_be_bytes());
            }
        }
        let stats = tx.stats();
        drop(tx); // release any still-held datagrams
        let mut bufs = BurstBuf::new(16, 4);
        let mut seen = Vec::new();
        while rx.recv_batch(&mut bufs, Duration::from_millis(5)) > 0 {
            seen.extend(bufs.iter().map(|(_, f)| u16::from_be_bytes([f[0], f[1]])));
        }
        (seen, stats)
    }

    /// Whatever else a configuration injects, a burst drops exactly
    /// the frames the same sends made one by one drop: loss only (the
    /// runs between drops go down as inner bursts), loss with
    /// duplication and reordering (frame by frame), and loss with
    /// receive-side drops (send side batched, receive side per frame).
    #[test]
    fn every_config_drops_the_same_frames_burst_wise_as_frame_wise() {
        let loss = FaultyConfig::loss_only(0.2);
        for cfg in [
            loss,
            FaultyConfig {
                dup: 0.2,
                reorder: 0.2,
                ..loss
            },
            FaultyConfig {
                recv_drop: 0.2,
                ..loss
            },
        ] {
            let (burst, burst_stats) = sent_through(cfg, None, true);
            let (single, single_stats) = sent_through(cfg, None, false);
            assert_eq!(burst, single, "{cfg:?}");
            assert_eq!(burst_stats, single_stats, "{cfg:?}");
            assert!(burst_stats.injected_send_drops > 0, "{cfg:?}");
        }
    }

    /// A loss-only port keeps its bursts (so GSO/GRO stays on
    /// underneath) and still injects exactly the per-frame schedule:
    /// same seed, same send sequence → the same frames dropped.
    #[test]
    fn loss_only_bursts_drop_the_same_frames_as_single_sends() {
        let cfg = FaultyConfig::loss_only(0.2);
        let (burst, burst_stats) = sent_through(cfg, None, true);
        let (single, single_stats) = sent_through(cfg, None, false);
        assert_eq!(burst, single, "drop positions differ between the two paths");
        assert_eq!(burst_stats, single_stats);
        let dropped = burst_stats.injected_send_drops;
        assert_eq!(burst.len() as u64 + dropped, 300);
        assert!((20..=120).contains(&dropped), "{dropped}");
    }

    /// `KillAt::AfterSends(n)` landing inside a burst falls on the same
    /// frame as it does frame by frame: exactly the first n leave.
    #[test]
    fn kill_after_n_sends_is_exact_mid_burst() {
        let death = Some(KillAt::AfterSends(25));
        let want: Vec<u16> = (0..25).collect();
        let cfg = FaultyConfig::default();
        assert_eq!(sent_through(cfg, death, true).0, want);
        assert_eq!(sent_through(cfg, death, false).0, want);
    }

    /// A straggler's stall is paid per frame, burst or not.
    #[test]
    fn straggler_stall_is_paid_per_frame_of_a_burst() {
        let stall = Duration::from_millis(2);
        let mut ports = channel_fabric(2);
        let mut rx = ports.pop().unwrap();
        let mut tx = ScriptedPort::new(ports.pop().unwrap(), stall, None);
        let frames = vec![vec![1u8]; 5];
        let t0 = Instant::now();
        tx.send_batch(&[1; 5], &frames);
        assert!(t0.elapsed() >= stall * 5, "{:?}", t0.elapsed());
        let mut bufs = BurstBuf::new(8, 4);
        assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(50)), 5);
    }
}
