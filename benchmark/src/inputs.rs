//! Seed → inputs. The program under test only ever receives tensors
//! generated here; the same seed gives the same tensors on every host.

/// Every element is uniform in (−`BOUND`, `BOUND`).
pub const BOUND: f32 = 8.0;

/// The scaling factor every workload quantizes with. With |x| < 8 and
/// at most 8 workers the i32 sum stays far inside Appendix C's bound.
pub const SCALING_FACTOR: f64 = 10_000.0;

/// SplitMix64: tiny, seedable, and identical everywhere — the
/// benchmark's inputs must not depend on a library's stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Worker `worker`'s gradient tensor for `seed`: `elems` values uniform
/// in (−8, 8), an independent stream per (seed, worker).
pub fn tensor(seed: u64, worker: usize, elems: usize) -> Vec<f32> {
    let mut rng = SplitMix64(seed ^ (worker as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    (0..elems)
        .map(|_| {
            // 24 random mantissa bits → u in [0, 1); never exactly ±8.
            let u = (rng.next() >> 40) as f32 / (1u32 << 24) as f32;
            (2.0 * u - 1.0) * BOUND * (1.0 - f32::EPSILON)
        })
        .collect()
}

/// One tensor per worker `first_worker..first_worker + n`.
pub fn tensors(seed: u64, first_worker: usize, n: usize, elems: usize) -> Vec<Vec<f32>> {
    (first_worker..first_worker + n)
        .map(|w| tensor(seed, w, elems))
        .collect()
}

/// FNV-1a over the tensors' bit patterns: the determinism check's
/// fingerprint of "the inputs this seed generated".
pub fn fingerprint(tensors: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for t in tensors {
        for x in t {
            h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = tensors(7, 0, 3, 1000);
        assert_eq!(fingerprint(&a), fingerprint(&tensors(7, 0, 3, 1000)));
        assert_ne!(fingerprint(&a), fingerprint(&tensors(8, 0, 3, 1000)));
        assert_ne!(a[0], a[1], "workers draw from independent streams");
        assert_eq!(
            a[1],
            tensor(7, 1, 1000),
            "a worker's stream ignores its neighbours"
        );
    }

    #[test]
    fn values_stay_strictly_inside_the_bound() {
        let t = tensor(1, 0, 100_000);
        assert!(t.iter().all(|x| x.abs() < BOUND));
        let mean = t.iter().map(|&x| f64::from(x)).sum::<f64>() / t.len() as f64;
        assert!(mean.abs() < 0.1, "roughly centred, got {mean}");
        assert!(t.iter().any(|&x| x > 7.0) && t.iter().any(|&x| x < -7.0));
    }
}
