//! Protocol configuration and pool-size tuning (§3.6).

use crate::bitmap::MAX_WORKERS;
use crate::error::{Error, Result};
use crate::packet::{wire_bytes, DEFAULT_K};

/// Time in nanoseconds. The core crate is dependency-free and sans-IO;
/// drivers (simulator, threaded transports) convert to their own
/// clock types.
pub type TimeNs = u64;

/// Wire representation of gradient elements (§3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericMode {
    /// Workers convert f32 → scaled i32; switch adds integers.
    #[default]
    Fixed32,
    /// Workers send scaled binary16; switch converts to fixed point at
    /// ingress and back at egress. Halves wire volume.
    Float16,
    /// Payload already is native i32 (the paper's overhead-isolation
    /// experiment, Figure 8, uses this to bypass scaling/conversion).
    NativeInt32,
}

impl NumericMode {
    /// Bytes per element on the wire.
    pub fn elem_bytes(self) -> usize {
        match self {
            NumericMode::Float16 => 2,
            _ => 4,
        }
    }
}

/// Retransmission-timeout policy (§6 notes "one should take care to
/// adapt the retransmission timeout according to variations in
/// end-to-end RTT"; exponential backoff is the classic adaptation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtoPolicy {
    /// Retransmit every `rto_ns`, forever (Algorithm 4 as written).
    #[default]
    Fixed,
    /// Double the slot's timeout after every expiry, capped at
    /// `max_ns`; reset to `rto_ns` when the slot makes progress.
    /// Tames retransmission storms when the network degrades far
    /// beyond the provisioned RTT.
    ExponentialBackoff {
        /// Upper bound on the per-slot timeout, nanoseconds.
        max_ns: TimeNs,
    },
    /// Jacobson/Karn adaptive estimation (the §6 recommendation made
    /// concrete): each accepted result whose slot was *not*
    /// retransmitted since its last send contributes an RTT sample to
    /// SRTT/RTTVAR (RFC 6298 gains: α = 1/8, β = 1/4); samples from
    /// retransmitted slots are discarded (Karn's rule, since the
    /// result cannot be attributed to a specific transmission). The
    /// working timeout is `SRTT + 4·RTTVAR`, clamped to
    /// `[min_ns, max_ns]`, seeded by `rto_ns` until the first sample.
    /// Expiries still back off exponentially (capped at `max_ns`) as
    /// the fallback when the estimate proves too optimistic; a slot's
    /// backoff outlives its progress only until the engine's next
    /// clean sample. Every slot's deadline follows the current
    /// estimate, not the one it was armed with.
    ///
    /// Losses are also detected by time order (RFC 8985): once a
    /// transmission sent after a slot's last one has a clean result,
    /// the slot is retransmitted when it is that result's round trip
    /// plus `SRTT/4` overdue, if that comes before its timeout. Such an
    /// early retransmission is Karn-tainted but does not back off.
    Adaptive {
        /// Lower bound on the estimated timeout, nanoseconds. Drivers
        /// raise this to their receive-timeout granularity.
        min_ns: TimeNs,
        /// Upper bound on both the estimate and the backoff.
        max_ns: TimeNs,
    },
}

/// Static configuration shared by the switch and all workers of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct Protocol {
    /// Number of workers `n`.
    pub n_workers: usize,
    /// Elements per packet `k` (32 in the paper's deployment; 366 for
    /// the MTU-sized what-if of §5.5).
    pub k: usize,
    /// Aggregator pool size `s` (slots per pool version).
    pub pool_size: usize,
    /// Retransmission timeout for the reliable protocol (1 ms in the
    /// paper's loss experiments).
    pub rto_ns: TimeNs,
    /// How the timeout evolves on repeated expiries of one slot.
    pub rto_policy: RtoPolicy,
    /// Wire numeric representation.
    pub mode: NumericMode,
    /// Use wrapping (mod 2³²) addition in the switch instead of
    /// saturating addition. Saturating (the default) degrades
    /// gracefully when Appendix C's overflow bound is violated;
    /// wrapping is required for the Appendix D privacy scheme, where
    /// full-range additive masks must cancel exactly. Tofino ALUs
    /// support both.
    pub wrapping_add: bool,
    /// Scaling factor `f` applied by workers (ignored for NativeInt32).
    pub scaling_factor: f64,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            n_workers: 8,
            k: DEFAULT_K,
            pool_size: 128,
            rto_ns: 1_000_000, // 1 ms
            rto_policy: RtoPolicy::Fixed,
            mode: NumericMode::Fixed32,
            wrapping_add: false,
            scaling_factor: 1_000_000.0,
        }
    }
}

impl Protocol {
    /// Validate invariants the algorithms rely on.
    pub fn validate(&self) -> Result<()> {
        if self.n_workers == 0 {
            return Err(Error::InvalidConfig("n_workers must be > 0".into()));
        }
        if self.n_workers > MAX_WORKERS {
            return Err(Error::InvalidConfig(format!(
                "n_workers {} exceeds the {MAX_WORKERS}-worker bitmap",
                self.n_workers
            )));
        }
        if self.k == 0 {
            return Err(Error::InvalidConfig("k must be > 0".into()));
        }
        if self.pool_size == 0 {
            return Err(Error::InvalidConfig("pool_size must be > 0".into()));
        }
        if self.rto_ns == 0 {
            return Err(Error::InvalidConfig("rto must be > 0".into()));
        }
        match self.rto_policy {
            RtoPolicy::Fixed => {}
            RtoPolicy::ExponentialBackoff { max_ns } => {
                if max_ns < self.rto_ns {
                    return Err(Error::InvalidConfig(
                        "backoff cap must be >= the initial rto".into(),
                    ));
                }
            }
            RtoPolicy::Adaptive { min_ns, max_ns } => {
                if min_ns > max_ns {
                    return Err(Error::InvalidConfig(
                        "adaptive rto floor must be <= its cap".into(),
                    ));
                }
                if max_ns < self.rto_ns || self.rto_ns < min_ns {
                    return Err(Error::InvalidConfig(
                        "initial rto must lie within the adaptive [min, max] clamp".into(),
                    ));
                }
            }
        }
        if self.mode != NumericMode::NativeInt32 && self.scaling_factor <= 0.0 {
            return Err(Error::InvalidConfig("scaling factor must be > 0".into()));
        }
        Ok(())
    }

    /// Wire bytes per packet `b` under this configuration.
    pub fn packet_wire_bytes(&self) -> usize {
        crate::packet::HEADER_OVERHEAD_BYTES + self.mode.elem_bytes() * self.k
    }

    /// Bytes of per-pool element state one slot consumes on the switch.
    pub fn slot_bytes(&self) -> usize {
        4 * self.k
    }
}

/// §3.6: the optimal pool size is `⌈BDP / b⌉` — enough in-flight
/// packets to fill the bandwidth-delay product — rounded up to a power
/// of two because DPDK batching wants one.
///
/// `delay_ns` is the *end-to-end* delay including host processing
/// time, "easily measured in a given deployment".
pub fn tune_pool_size(bandwidth_bps: u64, delay_ns: TimeNs, k: usize) -> usize {
    let b = wire_bytes(k) as u128;
    let bdp_bytes = bandwidth_bps as u128 * delay_ns as u128 / 8 / 1_000_000_000;
    let slots = bdp_bytes.div_ceil(b).max(1) as usize;
    slots.next_power_of_two()
}

/// Register space (bytes) consumed on the switch for a pool of `s`
/// slots of `k` elements: two pool versions (active + shadow copy) of
/// 32-bit values, packed two-to-a-64-bit-register as in the paper's P4
/// program. Matches the paper's reported 32 KB at s = 128 and 128 KB
/// at s = 512.
pub fn pool_register_bytes(s: usize, k: usize) -> usize {
    2 * s * k * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pool_sizes() {
        // "we use 128 and 512 as the pool size for 10 and 100 Gbps".
        // Back out the end-to-end delays this implies: at 10 Gbps with
        // b = 180, 128 slots ≈ 128*180*8/10e9 ≈ 18.4 us of delay; use
        // 15 us -> ceil = 105 -> 128. At 100 Gbps use the same 7.4 us?
        // 512*180*8/100e9 = 7.4 us; use 6 us -> 417 -> 512.
        assert_eq!(tune_pool_size(10_000_000_000, 15_000, DEFAULT_K), 128);
        assert_eq!(tune_pool_size(100_000_000_000, 6_000, DEFAULT_K), 512);
    }

    #[test]
    fn paper_register_space() {
        // "This occupies 32 KB and 128 KB of register space in the
        // switch, respectively."
        assert_eq!(pool_register_bytes(128, DEFAULT_K), 32 * 1024);
        assert_eq!(pool_register_bytes(512, DEFAULT_K), 128 * 1024);
    }

    #[test]
    fn pool_size_is_power_of_two_and_positive() {
        for bw in [1_000_000_000u64, 10_000_000_000, 100_000_000_000] {
            for d in [100u64, 1_000, 10_000, 1_000_000] {
                let s = tune_pool_size(bw, d, DEFAULT_K);
                assert!(s.is_power_of_two());
                assert!(s >= 1);
            }
        }
    }

    #[test]
    fn validate_catches_bad_configs() {
        let ok = Protocol::default();
        ok.validate().unwrap();
        assert!(Protocol {
            n_workers: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(Protocol {
            n_workers: 300,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(Protocol { k: 0, ..ok.clone() }.validate().is_err());
        assert!(Protocol {
            pool_size: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(Protocol {
            rto_ns: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(Protocol {
            scaling_factor: 0.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(Protocol {
            scaling_factor: 0.0,
            mode: NumericMode::NativeInt32,
            ..ok
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn packet_wire_bytes_by_mode() {
        let mut p = Protocol::default();
        assert_eq!(p.packet_wire_bytes(), 180);
        p.mode = NumericMode::Float16;
        assert_eq!(p.packet_wire_bytes(), 52 + 64);
    }
}
