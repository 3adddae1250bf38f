//! CRC-32 (IEEE 802.3) checksum.
//!
//! §3.4: "A simple checksum can be used to detect corruption and
//! discard corrupted packets." We use the standard reflected CRC-32
//! polynomial 0xEDB88320 — the same algorithm Ethernet FCS uses, so a
//! corrupted-in-flight packet is rejected exactly where the real
//! deployment would reject it.
//!
//! ## Two arms, one value
//!
//! The reference is a slicing-by-8 table loop: eight lookup tables let
//! each iteration consume 8 input bytes with independent table loads
//! instead of the bytewise algorithm's serial 1-byte-per-iteration
//! dependency chain. It runs at about 1.1 B/ns on a Sapphire Rapids
//! Xeon, slower per frame than the aggregation the check guards.
//!
//! On x86-64 with PCLMULQDQ, [`Crc32::update`] therefore folds the
//! 16-byte-multiple body of any input of at least 64 bytes with
//! carry-less multiplication (Gopal et al., Intel 2009, "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ"). Four 128-bit
//! lanes each absorb 16 bytes per step: the lane's two 64-bit halves
//! are multiplied by `x^(4·128±32) mod P` and the next block is xored
//! in. The lanes then fold into one, and a Barrett reduction brings the
//! last 64 bits back to the 32-bit register. The constants (`k1k2`,
//! `k3k4`, `k5`, `P'`/`μ`) are the ones zlib's and Linux's
//! `crc32-pclmul` use for this polynomial; the kernel is
//! `simd::clmul::crc32_fold`. The table loop then takes the `< 16`-byte
//! tail, and all of any shorter input.
//!
//! A frame's checksum covers the frame with its checksum field read as
//! zero ([`crc32_zeroed`]). On the fold arm that is one fold over the
//! whole frame and no table loop at all: the frame is padded in front
//! to whole 16-byte blocks with zero bytes, built in a register, and
//! the fold starts from the register those zero bytes advance to the
//! initial one, so the padding changes nothing; the block holding the
//! field is masked. Table lookups are what a frame paid for most in a
//! running data plane: each burst's send and receive system calls
//! evict the 8 KiB of tables, so the table loop's serial chain waits on
//! cache misses (EXPERIMENTS.md).
//!
//! Both arms compute the same polynomial division, so the checksum is
//! identical for every input and every incremental split — the frames
//! on the wire do not depend on which arm produced them. The fold runs
//! only when [`crate::simd::active_backend`] is AVX2 and the CPU also
//! has PCLMULQDQ and SSE4.1, so `SWITCHML_FORCE_SCALAR=1` pins the
//! table loop like every other kernel. (The hardware `crc32`
//! instruction is *not* usable here: it implements CRC-32C, a
//! different polynomial.)

/// Number of slicing tables / bytes consumed per unrolled iteration.
const SLICES: usize = 8;

/// Build the slicing-by-8 tables at compile time. `TABLES[0]` is the
/// classic reflected bytewise table; `TABLES[s][i]` extends
/// `TABLES[s-1][i]` by one more zero byte, so xoring one lookup per
/// input byte at the right shift yields the same polynomial division
/// the bytewise loop performs serially.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; SLICES] = build_tables();

/// Incremental CRC-32 state, for checksumming a packet in pieces
/// (header then payload) without copying.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum: the carry-less-multiply fold
    /// over the 16-byte-multiple body of a long enough input when the
    /// fold arm is active, the table loop over the rest.
    pub fn update(&mut self, data: &[u8]) {
        let (state, tail) = crate::simd::crc32_fold(self.state, data);
        self.state = table_update(state, tail);
    }

    /// Finish and return the checksum value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// CRC-32 of `data` with its four bytes at `at` read as zero — a frame
/// whose checksum field is cleared, received or still to be filled in.
/// On the fold arm a frame of 64 bytes or more takes no table loop: the
/// fold runs over `m` zero bytes and then the frame, `m` padding it to
/// whole 16-byte blocks, and starts from the register that those `m`
/// zero bytes take to the initial one ([`ZERO_PREFIX`]), so the prefix
/// changes nothing. Elsewhere it is three [`Crc32::update`]s.
pub(crate) fn crc32_zeroed(data: &[u8], at: usize) -> u32 {
    let m = (16 - data.len() % 16) % 16;
    if let Some(raw) = crate::simd::crc32_fold_zeroed(ZERO_PREFIX[m], data, at) {
        return raw ^ 0xFFFF_FFFF;
    }
    let mut crc = Crc32::new();
    crc.update(&data[..at]);
    crc.update(&[0; 4]);
    crc.update(&data[at + 4..]);
    crc.finalize()
}

/// `ZERO_PREFIX[m]`: the raw register that `m` zero bytes advance to the
/// initial `0xFFFF_FFFF`. Each zero bit's step `s → (s >> 1) ⊕ (P if s
/// is odd)` is undone from the top bit, which is set exactly when `P`
/// was xored in (`P`'s top bit is set and `s >> 1`'s is not).
static ZERO_PREFIX: [u32; 16] = {
    let mut t = [0u32; 16];
    let mut s = 0xFFFF_FFFFu32;
    let mut m = 0;
    while m < 16 {
        t[m] = s;
        let mut bit = 0;
        while bit < 8 {
            s = if s & 0x8000_0000 != 0 {
                ((s ^ 0xEDB8_8320) << 1) | 1
            } else {
                s << 1
            };
            bit += 1;
        }
        m += 1;
    }
    t
};

/// One-shot CRC-32 on the table loop alone, whatever the dispatch: the
/// reference the fold is held to, and the baseline benchmarks time it
/// against.
pub fn crc32_table(data: &[u8]) -> u32 {
    table_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advance the raw CRC register over `data`: slicing-by-8 over the
/// body, the bytewise recurrence over the `< 8`-byte remainder.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(SLICES);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd;

    /// Bytewise reference implementation, kept in tests only.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// The fold arm's `update` on the raw register, run whenever the
    /// CPU can execute it — also under `SWITCHML_FORCE_SCALAR=1`, so
    /// one test run checks both arms. `None` on a CPU without it.
    fn fold_update(state: u32, data: &[u8]) -> Option<u32> {
        if !simd::clmul_detected() {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        if data.len() >= simd::CRC_FOLD_MIN {
            let body = data.len() & !15;
            // SAFETY: `clmul_detected` checked PCLMULQDQ and SSE4.1.
            let state = unsafe { simd::clmul::crc32_fold(state, &data[..body]) };
            return Some(table_update(state, &data[body..]));
        }
        Some(table_update(state, data))
    }

    /// Every arm's one-shot CRC of `data`: the dispatched one, the
    /// table loop and (where the CPU has it) the fold.
    fn every_arm(data: &[u8]) -> Vec<u32> {
        let mut v = vec![crc32(data), crc32_table(data)];
        v.extend(fold_update(0xFFFF_FFFF, data).map(|s| s ^ 0xFFFF_FFFF));
        v
    }

    /// Pseudo-random bytes (a fixed LCG): no period a fold could hide in.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors, plus two long enough to fold
        // (values from zlib's `crc32`).
        let nines = b"123456789".repeat(8);
        let frame_of_zeros = [0u8; 4124];
        for (data, want) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&nines, 0x8811_A440),
            (&frame_of_zeros, 0x9722_EDDC),
        ] {
            for got in every_arm(data) {
                assert_eq!(got, want, "len {}", data.len());
            }
        }
    }

    /// The zeroed-field CRC equals the bytewise CRC of a copy with the
    /// four bytes cleared, at every length to past an MTU frame and at
    /// every field position the fold takes or hands back (a frame's is
    /// 24), on the dispatched arm and, where the CPU has it, the fold's.
    #[test]
    fn zeroed_field_crc_matches_the_cleared_copy() {
        for (m, &pre) in ZERO_PREFIX.iter().enumerate() {
            assert_eq!(table_update(pre, &vec![0; m]), 0xFFFF_FFFF, "m = {m}");
        }
        let data = noise(1100);
        for len in 4..=data.len() {
            for at in [0, 3, 12, 24, 29, 44, len - 4] {
                if at + 4 > len {
                    continue;
                }
                let mut cleared = data[..len].to_vec();
                cleared[at..at + 4].fill(0);
                let want = crc32_bytewise(&cleared);
                assert_eq!(crc32_zeroed(&data[..len], at), want, "len {len} at {at}");
                #[cfg(target_arch = "x86_64")]
                if simd::clmul_detected() {
                    let m = (16 - len % 16) % 16;
                    let (block, o) = ((at + m) / 16, (at + m) % 16);
                    if len + m >= simd::CRC_FOLD_MIN && block < 4 && o <= 12 {
                        let d = &data[..len];
                        // SAFETY: `clmul_detected` checked PCLMULQDQ and
                        // SSE4.1; the kernel's preconditions were checked.
                        let raw = unsafe { simd::clmul::crc32_fold_zeroed(ZERO_PREFIX[m], d, at) };
                        assert_eq!(raw ^ 0xFFFF_FFFF, want, "fold len {len} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello switchml world";
        let mut c = Crc32::new();
        c.update(&data[..5]);
        c.update(&data[5..]);
        assert_eq!(c.finalize(), crc32(data));
    }

    /// Every arm equals the bytewise recurrence at every length up to
    /// past the largest frame (`HEADER_LEN + 4·MAX_K` = 4 124 B): each
    /// residue mod 8 (slicing) and mod 16 (the fold's hand-off to the
    /// table), and both sides of the fold's 64-byte threshold.
    #[test]
    fn every_arm_matches_bytewise_at_every_length() {
        let data = noise(4200);
        for len in 0..=data.len() {
            let d = &data[..len];
            let want = crc32_bytewise(d);
            for got in every_arm(d) {
                assert_eq!(got, want, "len {len}");
            }
        }
    }

    /// A `k = 256` frame (1 052 B) checksummed in two `update`s, split
    /// at every point, the raw register carried across: equal to the
    /// one-shot reference on the dispatched arm and on the fold arm.
    #[test]
    fn every_split_of_a_frame_carries_the_register() {
        let d = noise(1052);
        let want = crc32_bytewise(&d);
        for split in 0..=d.len() {
            let mut c = Crc32::new();
            c.update(&d[..split]);
            c.update(&d[split..]);
            assert_eq!(c.finalize(), want, "split {split}");
            if let Some(head) = fold_update(0xFFFF_FFFF, &d[..split]) {
                let state = fold_update(head, &d[split..]).unwrap();
                assert_eq!(state ^ 0xFFFF_FFFF, want, "fold split {split}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 180];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        let orig = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), orig, "missed flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
