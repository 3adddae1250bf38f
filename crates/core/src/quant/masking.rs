//! Additive masking for privacy-preserving aggregation (Appendix D).
//!
//! The paper observes that in-switch aggregation is "simple integer
//! summation", so additively-homomorphic schemes compose with it: "the
//! worker could encrypt all the vector elements using such \[a\]
//! cryptosystem, knowing that the aggregated model update can be
//! obtained by decrypting the data aggregated at the switches."
//!
//! Paillier-class cryptosystems are far beyond a 32-bit dataplane, but
//! the classic *pairwise additive masking* construction (the core of
//! secure-aggregation protocols) is exactly integer addition mod 2³²:
//! each ordered worker pair (i < j) derives a shared keystream; worker
//! i **adds** the pairwise mask to its quantized update and worker j
//! **subtracts** it, so every mask cancels in the switch's wrapping
//! sum while each individual packet is computationally uniform noise
//! to the switch and any on-path observer.
//!
//! Requirements this module enforces / documents:
//!
//! * The switch must use **wrapping** addition
//!   ([`crate::config::Protocol::wrapping_add`]): a saturating ALU
//!   would clip masked values and break cancellation.
//! * All `n` workers must contribute to every element (guaranteed by
//!   the protocol's completion rule), otherwise masks leak.
//! * The keystream here is a seeded xorshift PRF — a stand-in with the
//!   right *structure*; a deployment would use a proper PRF and a key
//!   agreement, which are out of scope exactly as Appendix D scopes
//!   them.

/// Deterministic 64→32-bit keystream (splitmix64 finalizer). Not
/// cryptographic; structurally a PRF keyed by (pair seed, offset).
fn keystream(seed: u64, index: u64) -> i32 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32 as i32
}

/// Derives pairwise masks for one worker in an `n`-worker group.
#[derive(Debug, Clone)]
pub struct Masker {
    wid: usize,
    n: usize,
    /// Group secret from which pairwise seeds derive (deployments
    /// would run a key agreement per pair instead).
    group_seed: u64,
}

impl Masker {
    pub fn new(wid: usize, n: usize, group_seed: u64) -> Self {
        assert!(wid < n, "worker id out of range");
        Masker { wid, n, group_seed }
    }

    /// Seed for the ordered pair (i, j), i < j.
    fn pair_seed(&self, i: usize, j: usize) -> u64 {
        debug_assert!(i < j);
        self.group_seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(((i as u64) << 32) | j as u64)
    }

    /// Total mask this worker applies at element offset `off`:
    /// + keystream for every higher-ranked peer, − for every lower.
    pub fn mask_at(&self, off: u64) -> i32 {
        let mut m = 0i32;
        for peer in 0..self.n {
            if peer == self.wid {
                continue;
            }
            let (lo, hi) = if self.wid < peer {
                (self.wid, peer)
            } else {
                (peer, self.wid)
            };
            let ks = keystream(self.pair_seed(lo, hi), off);
            if self.wid < peer {
                m = m.wrapping_add(ks);
            } else {
                m = m.wrapping_sub(ks);
            }
        }
        m
    }

    /// Mask a quantized update in place: `v[i] += mask(off + i)`
    /// (wrapping). The result is what goes on the wire.
    pub fn mask_chunk(&self, off: u64, values: &mut [i32]) {
        for (i, v) in values.iter_mut().enumerate() {
            *v = v.wrapping_add(self.mask_at(off + i as u64));
        }
    }
}

/// Masks cancel in the full sum, so the aggregate needs no unmasking —
/// provided every worker contributed (which the switch's completion
/// rule enforces) and addition wrapped. This helper documents that as
/// an assertion point for tests.
pub fn masks_cancel(n: usize, group_seed: u64, off: u64) -> bool {
    let total = (0..n)
        .map(|w| Masker::new(w, n, group_seed).mask_at(off))
        .fold(0i32, |a, b| a.wrapping_add(b));
    total == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::packet::{Packet, Payload, PoolVersion};
    use crate::switch::basic::BasicSwitch;
    use crate::switch::{Feed, SwitchAction};

    #[test]
    fn pairwise_masks_cancel() {
        for n in [2usize, 3, 5, 8, 17] {
            for off in [0u64, 1, 1000, u32::MAX as u64] {
                assert!(masks_cancel(n, 0xC0FFEE, off), "n={n} off={off}");
            }
        }
    }

    #[test]
    fn masked_values_look_uniform_ish() {
        // Weak sanity check: masks spread across the full i32 range.
        let m = Masker::new(0, 4, 42);
        let vals: Vec<i32> = (0..1000).map(|i| m.mask_at(i)).collect();
        let big = vals.iter().filter(|v| v.unsigned_abs() > 1 << 29).count();
        assert!(big > 400, "only {big}/1000 masks in the outer range");
        // And differ across offsets.
        assert_ne!(vals[0], vals[1]);
    }

    #[test]
    fn masked_aggregation_through_wrapping_switch() {
        let n = 3;
        let k = 8;
        let proto = Protocol {
            n_workers: n,
            k,
            pool_size: 1,
            wrapping_add: true, // REQUIRED for cancellation
            ..Protocol::default()
        };
        let mut sw = BasicSwitch::new(&proto).unwrap();
        let updates: Vec<Vec<i32>> = (0..n)
            .map(|w| (0..k).map(|i| (w * 100 + i) as i32).collect())
            .collect();
        let expected: Vec<i32> = (0..k).map(|i| updates.iter().map(|u| u[i]).sum()).collect();
        let mut result = None;
        for (w, u) in updates.iter().enumerate() {
            let mut masked = u.clone();
            Masker::new(w, n, 7777).mask_chunk(0, &mut masked);
            // The wire value is unrecognizable...
            assert_ne!(&masked, u);
            if let SwitchAction::Multicast(r) = sw
                .feed(Packet::update(w as u16, PoolVersion::V0, 0, 0, masked))
                .unwrap()
            {
                // Move the aggregate out of the result packet — no copy.
                result = match r.payload {
                    Payload::I32(v) => Some(v),
                    other => panic!("expected i32 payload, got {other:?}"),
                };
            }
        }
        // ...but the aggregate is exact: the masks cancelled.
        assert_eq!(result.unwrap(), expected);
    }

    #[test]
    fn saturating_switch_breaks_masking() {
        // Negative control: without wrapping_add the masked sum clips.
        let n = 3;
        let proto = Protocol {
            n_workers: n,
            k: 4,
            pool_size: 1,
            wrapping_add: false,
            ..Protocol::default()
        };
        let mut sw = BasicSwitch::new(&proto).unwrap();
        let mut broke = false;
        for w in 0..n {
            let mut masked = vec![1i32; 4];
            Masker::new(w, n, 31337).mask_chunk(0, &mut masked);
            if let SwitchAction::Multicast(r) = sw
                .feed(Packet::update(w as u16, PoolVersion::V0, 0, 0, masked))
                .unwrap()
            {
                broke = r.payload != Payload::I32(vec![n as i32; 4]);
            }
        }
        assert!(broke, "saturation should have corrupted the masked sum");
    }

    #[test]
    fn different_group_seeds_give_different_masks() {
        let a = Masker::new(0, 2, 1).mask_at(0);
        let b = Masker::new(0, 2, 2).mask_at(0);
        assert_ne!(a, b);
    }
}
