//! Point-to-point links with bandwidth, delay, queuing and fault
//! injection.
//!
//! Each directed link models a store-and-forward path: a packet queued
//! at time `t` begins serializing when the transmitter is free, takes
//! `wire_bytes * 8 / bandwidth` to serialize, then `propagation` to
//! arrive. A finite transmit queue drops from the tail when full, and a
//! fault injector can drop or corrupt packets uniformly at random — the
//! same knobs the paper's loss experiments (§5.5) use.

use crate::time::Nanos;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Static link parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Line rate in bits per second (e.g. `10_000_000_000` for 10 Gbps).
    pub bandwidth_bps: u64,
    /// One-way propagation delay. In the paper's rack this is sub-µs;
    /// combined with host processing it forms the end-to-end delay used
    /// for BDP-based pool sizing (§3.6).
    pub propagation: Nanos,
    /// Transmit queue capacity in bytes. Tail-drop beyond this.
    pub queue_bytes: usize,
    /// Uniform probability that a packet is silently dropped.
    pub loss_prob: f64,
    /// Uniform probability that a packet is corrupted in flight (the
    /// receiver's checksum will reject it).
    pub corrupt_prob: f64,
    /// Uniform probability that a delivered packet is duplicated: a
    /// second identical copy arrives one serialization time behind the
    /// original (the path retransmitted, the original survived).
    pub dup_prob: f64,
    /// Uniform probability that a delivered packet is held back by a
    /// random extra delay in `(0, reorder_spread]`, letting packets
    /// queued behind it overtake (multi-path or NIC-queue reordering).
    pub reorder_prob: f64,
    /// Maximum extra delay a reordered packet can pick up.
    pub reorder_spread: Nanos,
    /// Fixed extra delay added to every delivery on this link — a
    /// straggling host or a chronically slow path.
    pub straggle_extra: Nanos,
}

impl LinkSpec {
    /// A clean (lossless) link at the given rate and delay with a deep
    /// queue. Queue depth defaults to one bandwidth-delay product or
    /// 256 KiB, whichever is larger.
    pub fn clean(bandwidth_bps: u64, propagation: Nanos) -> Self {
        let bdp = (bandwidth_bps as u128 * propagation.0 as u128 / 8 / 1_000_000_000) as usize;
        LinkSpec {
            bandwidth_bps,
            propagation,
            queue_bytes: bdp.max(256 * 1024),
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_spread: Nanos::ZERO,
            straggle_extra: Nanos::ZERO,
        }
    }

    /// Same link with a uniform loss probability applied.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_prob = p;
        self
    }

    /// Same link with a uniform corruption probability applied.
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt probability out of range");
        self.corrupt_prob = p;
        self
    }

    /// Same link with a uniform duplication probability applied.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability out of range");
        self.dup_prob = p;
        self
    }

    /// Same link with probabilistic reordering: each delivered packet
    /// is delayed by up to `spread` extra with probability `p`.
    pub fn with_reordering(mut self, p: f64, spread: Nanos) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder probability out of range");
        self.reorder_prob = p;
        self.reorder_spread = spread;
        self
    }

    /// Same link with a fixed straggle delay added to every delivery.
    pub fn with_straggle(mut self, extra: Nanos) -> Self {
        self.straggle_extra = extra;
        self
    }

    /// Same link with an explicit queue capacity.
    pub fn with_queue_bytes(mut self, q: usize) -> Self {
        self.queue_bytes = q;
        self
    }

    /// The bandwidth-delay product of this link in bytes, the quantity
    /// the paper tunes the aggregator pool size against (§3.6).
    pub fn bdp_bytes(&self, extra_delay: Nanos) -> usize {
        let delay = self.propagation + extra_delay;
        (self.bandwidth_bps as u128 * delay.0 as u128 / 8 / 1_000_000_000) as usize
    }
}

/// What the fault/queue admission decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Deliver at the contained time (possibly corrupted). When the
    /// fault injector duplicated the packet, `dup_arrival` carries the
    /// arrival time of the trailing copy.
    Deliver {
        arrival: Nanos,
        corrupted: bool,
        dup_arrival: Option<Nanos>,
    },
    /// Dropped by random loss.
    Lost,
    /// Dropped by queue overflow.
    QueueFull,
}

/// Dynamic state of one directed link.
#[derive(Debug)]
pub struct Link {
    pub spec: LinkSpec,
    /// Time at which the transmitter finishes everything queued so
    /// far, in **picoseconds**. Nanosecond granularity would shave up
    /// to 1 ns per packet (e.g. a 180-byte packet at 100 Gbps is
    /// 14.4 ns) and let long runs beat line rate by whole percents.
    tx_free_ps: u128,
    /// Counters for diagnostics.
    pub sent: u64,
    pub lost: u64,
    pub corrupted: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub queue_drops: u64,
    pub bytes_sent: u64,
}

impl Link {
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            tx_free_ps: 0,
            sent: 0,
            lost: 0,
            corrupted: 0,
            duplicated: 0,
            reordered: 0,
            queue_drops: 0,
            bytes_sent: 0,
        }
    }

    /// Admit a packet of `wire_bytes` at time `now`. Advances the
    /// transmitter clock and applies queue admission and fault
    /// injection. Randomly-lost packets still consume transmit time
    /// (they were serialized onto the wire; loss happens "in flight"),
    /// whereas queue-full drops do not.
    pub fn admit(&mut self, now: Nanos, wire_bytes: usize, rng: &mut SmallRng) -> Admission {
        let now_ps = now.0 as u128 * 1000;
        // Backlog currently waiting on the transmitter, in time units.
        let backlog_ps = self.tx_free_ps.saturating_sub(now_ps);
        let backlog_bytes =
            (self.spec.bandwidth_bps as u128 * backlog_ps / 8 / 1_000_000_000_000) as usize;
        if backlog_bytes + wire_bytes > self.spec.queue_bytes {
            self.queue_drops += 1;
            return Admission::QueueFull;
        }

        let start_ps = self.tx_free_ps.max(now_ps);
        let done_ps = start_ps + Self::tx_time_ps(wire_bytes, self.spec.bandwidth_bps);
        self.tx_free_ps = done_ps;
        self.sent += 1;
        self.bytes_sent += wire_bytes as u64;

        if self.spec.loss_prob > 0.0 && rng.gen_bool(self.spec.loss_prob) {
            self.lost += 1;
            return Admission::Lost;
        }
        let corrupted = self.spec.corrupt_prob > 0.0 && rng.gen_bool(self.spec.corrupt_prob);
        if corrupted {
            self.corrupted += 1;
        }
        let mut arrival =
            Nanos(done_ps.div_ceil(1000) as u64) + self.spec.propagation + self.spec.straggle_extra;
        if self.spec.reorder_prob > 0.0
            && self.spec.reorder_spread > Nanos::ZERO
            && rng.gen_bool(self.spec.reorder_prob)
        {
            self.reordered += 1;
            arrival += Nanos(rng.gen_range(1..=self.spec.reorder_spread.0));
        }
        let dup_arrival = if self.spec.dup_prob > 0.0 && rng.gen_bool(self.spec.dup_prob) {
            self.duplicated += 1;
            // The copy trails by one serialization time — it re-rode
            // the same wire, it did not teleport — and holds the wire
            // for that time, so it still lands ahead of the next
            // packet: duplication never reorders (§3.5's placement).
            let tx_ps = done_ps - start_ps;
            self.tx_free_ps = done_ps + tx_ps;
            Some(arrival + Nanos((tx_ps.div_ceil(1000) as u64).max(1)))
        } else {
            None
        };
        Admission::Deliver {
            arrival,
            corrupted,
            dup_arrival,
        }
    }

    /// Serialization time in picoseconds.
    fn tx_time_ps(bytes: usize, bps: u64) -> u128 {
        bytes as u128 * 8 * 1_000_000_000_000 / bps as u128
    }

    /// Earliest time a packet queued right now would arrive, without
    /// mutating state. Useful for analytic assertions in tests.
    pub fn peek_arrival(&self, now: Nanos, wire_bytes: usize) -> Nanos {
        let start_ps = self.tx_free_ps.max(now.0 as u128 * 1000);
        let done_ps = start_ps + Self::tx_time_ps(wire_bytes, self.spec.bandwidth_bps);
        Nanos(done_ps.div_ceil(1000) as u64) + self.spec.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn serialization_and_propagation() {
        let spec = LinkSpec::clean(10_000_000_000, Nanos::from_micros(1));
        let mut link = Link::new(spec);
        // 1250 bytes at 10G = 1us tx + 1us prop = 2us arrival.
        match link.admit(Nanos::ZERO, 1250, &mut rng()) {
            Admission::Deliver {
                arrival, corrupted, ..
            } => {
                assert_eq!(arrival, Nanos::from_micros(2));
                assert!(!corrupted);
            }
            other => panic!("unexpected admission {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let spec = LinkSpec::clean(10_000_000_000, Nanos::ZERO);
        let mut link = Link::new(spec);
        let mut r = rng();
        let a1 = link.admit(Nanos::ZERO, 1250, &mut r);
        let a2 = link.admit(Nanos::ZERO, 1250, &mut r);
        let t1 = match a1 {
            Admission::Deliver { arrival, .. } => arrival,
            _ => panic!(),
        };
        let t2 = match a2 {
            Admission::Deliver { arrival, .. } => arrival,
            _ => panic!(),
        };
        // Second packet waits for the first to finish serializing.
        assert_eq!(t2 - t1, Nanos::from_micros(1));
    }

    #[test]
    fn queue_tail_drop() {
        let spec = LinkSpec::clean(1_000_000_000, Nanos::ZERO).with_queue_bytes(3000);
        let mut link = Link::new(spec);
        let mut r = rng();
        // Each packet is 1500B; queue holds 2. The third back-to-back
        // packet (queued while ~3000B of backlog exist) is dropped.
        assert!(matches!(
            link.admit(Nanos::ZERO, 1500, &mut r),
            Admission::Deliver { .. }
        ));
        assert!(matches!(
            link.admit(Nanos::ZERO, 1500, &mut r),
            Admission::Deliver { .. }
        ));
        assert_eq!(link.admit(Nanos::ZERO, 1500, &mut r), Admission::QueueFull);
        assert_eq!(link.queue_drops, 1);
    }

    #[test]
    fn loss_rate_statistics() {
        let spec = LinkSpec::clean(100_000_000_000, Nanos::ZERO).with_loss(0.1);
        let mut link = Link::new(spec);
        let mut r = rng();
        let mut lost = 0;
        for i in 0..10_000 {
            // Space packets out so the queue never fills.
            let t = Nanos::from_micros(i);
            if matches!(link.admit(t, 100, &mut r), Admission::Lost) {
                lost += 1;
            }
        }
        let rate = lost as f64 / 10_000.0;
        assert!((0.08..=0.12).contains(&rate), "observed loss {rate}");
    }

    #[test]
    fn corruption_flag_set() {
        let spec = LinkSpec::clean(100_000_000_000, Nanos::ZERO).with_corruption(1.0);
        let mut link = Link::new(spec);
        match link.admit(Nanos::ZERO, 100, &mut rng()) {
            Admission::Deliver { corrupted, .. } => assert!(corrupted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplication_yields_trailing_copy() {
        let spec = LinkSpec::clean(10_000_000_000, Nanos::from_micros(1)).with_duplication(1.0);
        let mut link = Link::new(spec);
        match link.admit(Nanos::ZERO, 1250, &mut rng()) {
            Admission::Deliver {
                arrival,
                dup_arrival: Some(dup),
                ..
            } => {
                // The copy trails by one serialization time (1us for
                // 1250B at 10G), never arrives with the original.
                assert_eq!(arrival, Nanos::from_micros(2));
                assert_eq!(dup, Nanos::from_micros(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(link.duplicated, 1);
        // The copy held the wire: the next packet, sent back to back,
        // lands behind it, not on top of it.
        match link.admit(Nanos::ZERO, 1250, &mut rng()) {
            Admission::Deliver { arrival, .. } => assert_eq!(arrival, Nanos::from_micros(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reordering_adds_bounded_delay() {
        let spread = Nanos::from_micros(10);
        let spec =
            LinkSpec::clean(10_000_000_000, Nanos::from_micros(1)).with_reordering(1.0, spread);
        let mut link = Link::new(spec);
        let base = link.peek_arrival(Nanos::ZERO, 100);
        match link.admit(Nanos::ZERO, 100, &mut rng()) {
            Admission::Deliver { arrival, .. } => {
                assert!(arrival > base, "reordered packet must be delayed");
                assert!(arrival <= base + spread, "delay bounded by spread");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(link.reordered, 1);
    }

    #[test]
    fn straggle_shifts_every_delivery() {
        let extra = Nanos::from_micros(50);
        let clean = LinkSpec::clean(10_000_000_000, Nanos::from_micros(1));
        let mut fast = Link::new(clean);
        let mut slow = Link::new(clean.with_straggle(extra));
        let a = match fast.admit(Nanos::ZERO, 1250, &mut rng()) {
            Admission::Deliver { arrival, .. } => arrival,
            other => panic!("unexpected {other:?}"),
        };
        let b = match slow.admit(Nanos::ZERO, 1250, &mut rng()) {
            Admission::Deliver { arrival, .. } => arrival,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(b - a, extra);
    }

    #[test]
    fn bdp_matches_paper_scale() {
        // ~10 Gbps with 50us end-to-end delay: BDP = 62.5 KB; at
        // b = 180 bytes that needs ceil(BDP/b) = 348 slots; the paper
        // rounds to a power of two (512 at 100 Gbps, 128 at 10 Gbps
        // for their measured RTTs).
        let spec = LinkSpec::clean(10_000_000_000, Nanos::ZERO);
        assert_eq!(spec.bdp_bytes(Nanos::from_micros(50)), 62_500);
    }
}
