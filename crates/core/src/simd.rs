//! Explicit SIMD kernels with one-time runtime dispatch.
//!
//! The paper implements quantization with SSE/AVX and measures
//! negligible overhead (§3.7, Figure 8); the Tofino aggregates 32-bit
//! integers at line rate. This module is the software analogue: hand-
//! written `std::arch` AVX2 kernels (NEON on aarch64) for the three
//! hot loops —
//!
//! * float ↔ fixed-point conversion (`quantize` / `dequantize`),
//! * the switch's slot-register accumulation (`saturating_add` /
//!   `wrapping_add`),
//! * big-endian wire-word load/accumulate/store (`be_*`), the
//!   `htonl`/`ntohl` byteswap of Appendix B,
//! * the frame checksum's CRC-32 fold (`crc32_fold`, carry-less
//!   multiply on x86-64; see [`crate::checksum`]) —
//!
//! with the autovectorized scalar loops (for the CRC, the slicing-by-8
//! table loop) as the universal fallback.
//!
//! ## Dispatch
//!
//! The backend is selected **once** per process ([`active_backend`]):
//! `is_x86_feature_detected!("avx2")` on x86-64, unconditionally NEON
//! on aarch64, scalar everywhere else. The CRC fold rides the AVX2 arm
//! and additionally needs PCLMULQDQ and SSE4.1 ([`crc_fold_active`]);
//! aarch64 keeps the table loop. Setting `SWITCHML_FORCE_SCALAR=1` in
//! the environment pins the scalar arm, which CI uses to keep both arms
//! green.
//!
//! ## Bit parity is a correctness requirement, not a nicety
//!
//! The differential oracles in this workspace (checker, chaos harness,
//! sharded-vs-sequential tests) assert **bit-identical** final tensors
//! across runners and transports. Those oracles only compose if every
//! backend of every kernel is bit-identical to the scalar reference on
//! every input — including NaN, ±∞, saturating magnitudes and ragged
//! tail lengths. The property tests at the bottom of this file hold
//! each backend to exactly that bar, mirroring the ρ-parity
//! methodology of `quant::fixed`.

use std::sync::OnceLock;

/// Unroll width of the scalar chunk kernels. Eight f64 lanes span two
/// AVX2 registers (or four NEON ones) — wide enough for LLVM to emit
/// packed conversions, small enough that the `k = 32` per-packet case
/// is exactly four iterations.
pub(crate) const LANES: usize = 8;

/// The instruction-set backend the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Autovectorized portable loops — the universal fallback and the
    /// reference every other backend must match bit-for-bit.
    Scalar,
    /// Hand-written `std::arch::x86_64` AVX2 kernels.
    Avx2,
    /// Hand-written `std::arch::aarch64` NEON kernels.
    Neon,
}

impl Backend {
    /// Stable lowercase name, for benchmarks and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

fn detect_backend() -> Backend {
    if std::env::var("SWITCHML_FORCE_SCALAR").is_ok_and(|v| v == "1") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    return Backend::Neon;
    #[allow(unreachable_code)]
    Backend::Scalar
}

/// The backend selected for this process. Detection (CPUID + the
/// `SWITCHML_FORCE_SCALAR` override) runs once; every later call is an
/// atomic load.
pub fn active_backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect_backend)
}

/// Whether [`crc32_fold`] folds: the AVX2 backend is active and the CPU
/// also has PCLMULQDQ and SSE4.1. Decided once, on top of
/// [`active_backend`], so `SWITCHML_FORCE_SCALAR=1` pins the CRC's
/// table loop too.
pub fn crc_fold_active() -> bool {
    static FOLD: OnceLock<bool> = OnceLock::new();
    *FOLD.get_or_init(|| active_backend() == Backend::Avx2 && clmul_detected())
}

/// Whether the CPU has what [`clmul::crc32_fold`] executes, whatever
/// the dispatch.
pub(crate) fn clmul_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[allow(unreachable_code)]
    false
}

// ---------------------------------------------------------------------
// Scalar reference kernels (the universal fallback).
//
// These are the previously hand-unrolled autovectorizable loops from
// `quant::fixed` / `packet`; they define the semantics every SIMD
// backend must reproduce bit-for-bit.
// ---------------------------------------------------------------------

/// Branch-free ρ: round half away from zero, saturate to `i32`,
/// NaN → 0. Rust's float→int `as` cast saturates and maps NaN to 0,
/// so the operator lowers to `round` + a clamped conversion.
#[inline(always)]
fn rho_scalar(x: f64) -> i32 {
    x.round() as i32
}

pub(crate) fn quantize_scalar(src: &[f32], f: f64, dst: &mut [i32]) {
    let split = src.len() - src.len() % LANES;
    let (s_body, s_tail) = src.split_at(split);
    let (d_body, d_tail) = dst.split_at_mut(split);
    for (s, d) in s_body
        .chunks_exact(LANES)
        .zip(d_body.chunks_exact_mut(LANES))
    {
        for i in 0..LANES {
            d[i] = rho_scalar(s[i] as f64 * f);
        }
    }
    for (d, &s) in d_tail.iter_mut().zip(s_tail) {
        *d = rho_scalar(s as f64 * f);
    }
}

pub(crate) fn dequantize_scalar(src: &[i32], f: f64, dst: &mut [f32]) {
    let split = src.len() - src.len() % LANES;
    let (s_body, s_tail) = src.split_at(split);
    let (d_body, d_tail) = dst.split_at_mut(split);
    for (s, d) in s_body
        .chunks_exact(LANES)
        .zip(d_body.chunks_exact_mut(LANES))
    {
        for i in 0..LANES {
            d[i] = (s[i] as f64 / f) as f32;
        }
    }
    for (d, &s) in d_tail.iter_mut().zip(s_tail) {
        *d = (s as f64 / f) as f32;
    }
}

pub(crate) fn saturating_add_scalar(acc: &mut [i32], v: &[i32]) {
    for (a, &b) in acc.iter_mut().zip(v) {
        *a = a.saturating_add(b);
    }
}

pub(crate) fn wrapping_add_scalar(acc: &mut [i32], v: &[i32]) {
    for (a, &b) in acc.iter_mut().zip(v) {
        *a = a.wrapping_add(b);
    }
}

pub(crate) fn be_load_scalar(bytes: &[u8], dst: &mut [i32]) {
    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *d = i32::from_be_bytes([c[0], c[1], c[2], c[3]]);
    }
}

pub(crate) fn be_saturating_add_scalar(bytes: &[u8], acc: &mut [i32]) {
    for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
        *a = a.saturating_add(i32::from_be_bytes([c[0], c[1], c[2], c[3]]));
    }
}

pub(crate) fn be_wrapping_add_scalar(bytes: &[u8], acc: &mut [i32]) {
    for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
        *a = a.wrapping_add(i32::from_be_bytes([c[0], c[1], c[2], c[3]]));
    }
}

pub(crate) fn be_store_extend_scalar(values: &[i32], out: &mut Vec<u8>) {
    for &v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

// ---------------------------------------------------------------------
// AVX2 kernels.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// ρ over four f64 lanes: round half away from zero, with NaN
    /// lanes pre-squashed to +0.0 (ρ(NaN) = 0 = ρ(0.0), so squashing
    /// first is exact and saves a post-conversion mask).
    ///
    /// `f64::round` is a libm call LLVM cannot vectorize — the whole
    /// reason the autovectorized quantize loop crawls. Half-away
    /// rounding is emulated exactly: `t = trunc(v)`; `v - t` is the
    /// fractional part, computed exactly (both are multiples of
    /// `ulp(v)`, so IEEE subtraction is error-free); if `|v - t| ≥
    /// 0.5`, step `t` one unit away from zero.
    #[inline(always)]
    unsafe fn round_away_pd(v: __m256d) -> __m256d {
        let sign_mask = _mm256_set1_pd(-0.0);
        // NaN → +0.0 (ordered-compare mask is 0 exactly on NaN lanes).
        let v = _mm256_and_pd(v, _mm256_cmp_pd(v, v, _CMP_ORD_Q));
        let t = _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        let frac = _mm256_sub_pd(v, t);
        let absfrac = _mm256_andnot_pd(sign_mask, frac);
        let ge_half = _mm256_cmp_pd(absfrac, _mm256_set1_pd(0.5), _CMP_GE_OQ);
        // copysign(1.0, v), applied only where |frac| ≥ 0.5. ±∞ lanes
        // produce frac = NaN, the compare is false, and ±∞ passes
        // through to the clamp — same as `f64::round`.
        let one_signed = _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(v, sign_mask));
        _mm256_add_pd(t, _mm256_and_pd(ge_half, one_signed))
    }

    /// Saturating f64 → i32 over four lanes. Inputs are integral (or
    /// ±∞); both bounds are exactly representable as f64, so the clamp
    /// + truncating conversion is exact.
    #[inline(always)]
    unsafe fn cvt_sat_epi32(r: __m256d) -> __m128i {
        let lo = _mm256_set1_pd(i32::MIN as f64);
        let hi = _mm256_set1_pd(i32::MAX as f64);
        _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(r, lo), hi))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize(src: &[f32], f: f64, dst: &mut [i32]) {
        let n = src.len();
        let fv = _mm256_set1_pd(f);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
            let qlo = cvt_sat_epi32(round_away_pd(_mm256_mul_pd(lo, fv)));
            let qhi = cvt_sat_epi32(round_away_pd(_mm256_mul_pd(hi, fv)));
            let q = _mm256_set_m128i(qhi, qlo);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, q);
            i += 8;
        }
        super::quantize_scalar(&src[i..], f, &mut dst[i..]);
    }

    /// Dequantize on AVX2 hosts.
    ///
    /// Deliberately the unrolled scalar kernel: `(q as f64 / f) as
    /// f32` is one exact conversion, one IEEE division and one IEEE
    /// demotion per lane, which LLVM already vectorizes — and the f64
    /// divider has the *same per-element throughput* at xmm and ymm
    /// width on Intel, so a hand-rolled `_mm256_div_pd` loop only adds
    /// shuffle glue around the real bottleneck (measured ~25% slower
    /// than the autovectorized loop on Skylake-SP). The hand-written
    /// AVX2 path is reserved for quantize, where `f64::round` blocks
    /// autovectorization entirely.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequantize(src: &[i32], f: f64, dst: &mut [f32]) {
        super::dequantize_scalar(src, f, dst);
    }

    /// Saturating i32 add over eight lanes. AVX2 has no 32-bit
    /// saturating add, so overflow is detected from the sign algebra
    /// (`(~(a ^ b)) & (a ^ sum)` has the sign bit set iff the operands
    /// agree in sign and the wrapped sum does not) and overflowing
    /// lanes are blended with the sign-appropriate saturation value.
    #[inline(always)]
    unsafe fn sat_add_epi32(a: __m256i, b: __m256i) -> __m256i {
        let sum = _mm256_add_epi32(a, b);
        let ovf = _mm256_andnot_si256(_mm256_xor_si256(a, b), _mm256_xor_si256(a, sum));
        let ovf_mask = _mm256_srai_epi32(ovf, 31);
        // a ≥ 0 → 0x7FFF_FFFF (MAX); a < 0 → 0x8000_0000 (MIN).
        let sat = _mm256_xor_si256(_mm256_srai_epi32(a, 31), _mm256_set1_epi32(i32::MAX));
        _mm256_blendv_epi8(sum, sat, ovf_mask)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn saturating_add(acc: &mut [i32], v: &[i32]) {
        let n = acc.len();
        let mut i = 0;
        while i + 8 <= n {
            let a = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(v.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(acc.as_mut_ptr().add(i) as *mut __m256i, sat_add_epi32(a, b));
            i += 8;
        }
        super::saturating_add_scalar(&mut acc[i..], &v[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn wrapping_add(acc: &mut [i32], v: &[i32]) {
        let n = acc.len();
        let mut i = 0;
        while i + 8 <= n {
            let a = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(v.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_add_epi32(a, b),
            );
            i += 8;
        }
        super::wrapping_add_scalar(&mut acc[i..], &v[i..]);
    }

    /// Per-lane byteswap of eight big-endian wire words (the vector
    /// `ntohl`): a single `pshufb` with a 3-2-1-0 pattern in each
    /// 32-bit lane.
    #[inline(always)]
    unsafe fn bswap_epi32(x: __m256i) -> __m256i {
        #[rustfmt::skip]
        let mask = _mm256_setr_epi8(
            3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
            3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
        );
        _mm256_shuffle_epi8(x, mask)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn be_load(bytes: &[u8], dst: &mut [i32]) {
        let n = dst.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm256_loadu_si256(bytes.as_ptr().add(4 * i) as *const __m256i);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, bswap_epi32(raw));
            i += 8;
        }
        super::be_load_scalar(&bytes[4 * i..], &mut dst[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn be_saturating_add(bytes: &[u8], acc: &mut [i32]) {
        let n = acc.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm256_loadu_si256(bytes.as_ptr().add(4 * i) as *const __m256i);
            let a = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(i) as *mut __m256i,
                sat_add_epi32(a, bswap_epi32(raw)),
            );
            i += 8;
        }
        super::be_saturating_add_scalar(&bytes[4 * i..], &mut acc[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn be_wrapping_add(bytes: &[u8], acc: &mut [i32]) {
        let n = acc.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm256_loadu_si256(bytes.as_ptr().add(4 * i) as *const __m256i);
            let a = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_add_epi32(a, bswap_epi32(raw)),
            );
            i += 8;
        }
        super::be_wrapping_add_scalar(&bytes[4 * i..], &mut acc[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn be_store_extend(values: &[i32], out: &mut Vec<u8>) {
        let n = values.len();
        out.reserve(4 * n);
        let mut i = 0;
        let mut tmp = [0u8; 32];
        while i + 8 <= n {
            let x = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, bswap_epi32(x));
            out.extend_from_slice(&tmp);
            i += 8;
        }
        super::be_store_extend_scalar(&values[i..], out);
    }
}

// ---------------------------------------------------------------------
// CRC-32 fold (x86-64 PCLMULQDQ).
// ---------------------------------------------------------------------

/// Shortest input the fold takes: its four lanes start full.
pub(crate) const CRC_FOLD_MIN: usize = 64;

/// Advance the raw (pre-xorout) CRC-32 register over the
/// 16-byte-multiple body of `data` when the fold arm is active and
/// `data` holds at least [`CRC_FOLD_MIN`] bytes. Returns the new
/// register and the bytes left for the table loop — all of `data` when
/// nothing was folded.
pub(crate) fn crc32_fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CRC_FOLD_MIN && crc_fold_active() {
        let (body, tail) = data.split_at(data.len() & !15);
        // SAFETY: `crc_fold_active` implies PCLMULQDQ and SSE4.1.
        return (unsafe { clmul::crc32_fold(state, body) }, tail);
    }
    (state, data)
}

/// The reflected CRC-32 (0xEDB88320) by carry-less-multiply folding,
/// after Gopal et al. (Intel 2009). The constants are zlib's and
/// Linux's `crc32-pclmul` ones: each is `x^n mod P`, bit-reflected and
/// shifted left by one, for the `n` the step advances.
#[cfg(target_arch = "x86_64")]
pub(crate) mod clmul {
    use std::arch::x86_64::*;

    /// Fold distance 4 × 128 bits: (x^(4·128+32), x^(4·128−32)) mod P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold distance 128 bits: (x^(128+32), x^(128−32)) mod P.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P, for the 96 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: P itself and μ = ⌊x^64 / P⌋, reflected.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    #[inline(always)]
    unsafe fn load(body: &[u8], i: usize) -> __m128i {
        _mm_loadu_si128(body.as_ptr().add(i) as *const __m128i)
    }

    /// Carry `acc` forward by the distance `k` encodes and add `next`:
    /// `acc.lo · k.lo ⊕ acc.hi · k.hi ⊕ next`.
    #[inline(always)]
    unsafe fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw CRC register `state` over `body`, whose length
    /// must be a multiple of 16 and at least 64 (asserted: the loads
    /// rely on it).
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub unsafe fn crc32_fold(state: u32, body: &[u8]) -> u32 {
        assert!(body.len() >= super::CRC_FOLD_MIN && body.len().is_multiple_of(16));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let low32 = _mm_set_epi32(0, 0, 0, -1);

        // The register enters as the first four message bytes' xor, as
        // in the bytewise recurrence.
        let mut x0 = _mm_xor_si128(load(body, 0), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(body, 16);
        let mut x2 = load(body, 32);
        let mut x3 = load(body, 48);
        let mut i = 64;
        while i + 64 <= body.len() {
            x0 = fold(x0, load(body, i), k1k2);
            x1 = fold(x1, load(body, i + 16), k1k2);
            x2 = fold(x2, load(body, i + 32), k1k2);
            x3 = fold(x3, load(body, i + 48), k1k2);
            i += 64;
        }
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        while i < body.len() {
            x = fold(x, load(body, i), k3k4);
            i += 16;
        }

        // 128 → 96 bits (the low half times x^(128−32)), then 96 → 64.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P; the
        // reflected remainder is bits 32..64 of x ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

// ---------------------------------------------------------------------
// NEON kernels (aarch64). Cheap wins only: the ISA has native
// round-half-away (FRINTA), saturating converts/adds and a lane
// byteswap, so each kernel is a direct transliteration.
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// ρ over two f64 lanes: FRINTA rounds half away from zero
    /// natively; FCVTZS saturates and maps NaN → 0 natively.
    #[inline(always)]
    unsafe fn rho_f64x2(v: float64x2_t) -> int64x2_t {
        vcvtq_s64_f64(vrndaq_f64(v))
    }

    /// Saturating i64 → i32 narrow of two ρ results.
    #[inline(always)]
    unsafe fn narrow_sat(lo: int64x2_t, hi: int64x2_t) -> int32x4_t {
        vcombine_s32(vqmovn_s64(lo), vqmovn_s64(hi))
    }

    pub unsafe fn quantize(src: &[f32], f: f64, dst: &mut [i32]) {
        let n = src.len();
        let fv = vdupq_n_f64(f);
        let mut i = 0;
        while i + 4 <= n {
            let x = vld1q_f32(src.as_ptr().add(i));
            let lo = vmulq_f64(vcvt_f64_f32(vget_low_f32(x)), fv);
            let hi = vmulq_f64(vcvt_f64_f32(vget_high_f32(x)), fv);
            let q = narrow_sat(rho_f64x2(lo), rho_f64x2(hi));
            vst1q_s32(dst.as_mut_ptr().add(i), q);
            i += 4;
        }
        super::quantize_scalar(&src[i..], f, &mut dst[i..]);
    }

    pub unsafe fn dequantize(src: &[i32], f: f64, dst: &mut [f32]) {
        let n = src.len();
        let fv = vdupq_n_f64(f);
        let mut i = 0;
        while i + 4 <= n {
            let q = vld1q_s32(src.as_ptr().add(i));
            let lo = vdivq_f64(vcvtq_f64_s64(vmovl_s32(vget_low_s32(q))), fv);
            let hi = vdivq_f64(vcvtq_f64_s64(vmovl_s32(vget_high_s32(q))), fv);
            let out = vcombine_f32(vcvt_f32_f64(lo), vcvt_f32_f64(hi));
            vst1q_f32(dst.as_mut_ptr().add(i), out);
            i += 4;
        }
        super::dequantize_scalar(&src[i..], f, &mut dst[i..]);
    }

    pub unsafe fn saturating_add(acc: &mut [i32], v: &[i32]) {
        let n = acc.len();
        let mut i = 0;
        while i + 4 <= n {
            let a = vld1q_s32(acc.as_ptr().add(i));
            let b = vld1q_s32(v.as_ptr().add(i));
            vst1q_s32(acc.as_mut_ptr().add(i), vqaddq_s32(a, b));
            i += 4;
        }
        super::saturating_add_scalar(&mut acc[i..], &v[i..]);
    }

    pub unsafe fn wrapping_add(acc: &mut [i32], v: &[i32]) {
        let n = acc.len();
        let mut i = 0;
        while i + 4 <= n {
            let a = vld1q_s32(acc.as_ptr().add(i));
            let b = vld1q_s32(v.as_ptr().add(i));
            vst1q_s32(acc.as_mut_ptr().add(i), vaddq_s32(a, b));
            i += 4;
        }
        super::wrapping_add_scalar(&mut acc[i..], &v[i..]);
    }

    #[inline(always)]
    unsafe fn be_load_s32x4(bytes: *const u8) -> int32x4_t {
        vreinterpretq_s32_u8(vrev32q_u8(vld1q_u8(bytes)))
    }

    pub unsafe fn be_load(bytes: &[u8], dst: &mut [i32]) {
        let n = dst.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 4 <= n {
            vst1q_s32(
                dst.as_mut_ptr().add(i),
                be_load_s32x4(bytes.as_ptr().add(4 * i)),
            );
            i += 4;
        }
        super::be_load_scalar(&bytes[4 * i..], &mut dst[i..]);
    }

    pub unsafe fn be_saturating_add(bytes: &[u8], acc: &mut [i32]) {
        let n = acc.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 4 <= n {
            let a = vld1q_s32(acc.as_ptr().add(i));
            let b = be_load_s32x4(bytes.as_ptr().add(4 * i));
            vst1q_s32(acc.as_mut_ptr().add(i), vqaddq_s32(a, b));
            i += 4;
        }
        super::be_saturating_add_scalar(&bytes[4 * i..], &mut acc[i..]);
    }

    pub unsafe fn be_wrapping_add(bytes: &[u8], acc: &mut [i32]) {
        let n = acc.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 4 <= n {
            let a = vld1q_s32(acc.as_ptr().add(i));
            let b = be_load_s32x4(bytes.as_ptr().add(4 * i));
            vst1q_s32(acc.as_mut_ptr().add(i), vaddq_s32(a, b));
            i += 4;
        }
        super::be_wrapping_add_scalar(&bytes[4 * i..], &mut acc[i..]);
    }

    pub unsafe fn be_store_extend(values: &[i32], out: &mut Vec<u8>) {
        let n = values.len();
        out.reserve(4 * n);
        let mut i = 0;
        let mut tmp = [0u8; 16];
        while i + 4 <= n {
            let x = vld1q_s32(values.as_ptr().add(i));
            vst1q_u8(tmp.as_mut_ptr(), vrev32q_u8(vreinterpretq_u8_s32(x)));
            out.extend_from_slice(&tmp);
            i += 4;
        }
        super::be_store_extend_scalar(&values[i..], out);
    }
}

// ---------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------

/// `dst[i] = ρ(f · src[i])`. Slices must have equal length.
pub fn quantize(src: &[f32], f: f64, dst: &mut [i32]) {
    assert_eq!(src.len(), dst.len());
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only selected after
        // `is_x86_feature_detected!("avx2")` succeeds.
        Backend::Avx2 => unsafe { avx2::quantize(src, f, dst) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::quantize(src, f, dst) },
        _ => quantize_scalar(src, f, dst),
    }
}

/// `dst[i] = (src[i] as f64 / f) as f32`. Slices must have equal length.
pub fn dequantize(src: &[i32], f: f64, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::dequantize(src, f, dst) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dequantize(src, f, dst) },
        _ => dequantize_scalar(src, f, dst),
    }
}

/// `acc[i] = acc[i] ⊕ v[i]` with saturating i32 addition.
pub fn saturating_add(acc: &mut [i32], v: &[i32]) {
    debug_assert_eq!(acc.len(), v.len());
    let n = acc.len().min(v.len());
    let (acc, v) = (&mut acc[..n], &v[..n]);
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::saturating_add(acc, v) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::saturating_add(acc, v) },
        _ => saturating_add_scalar(acc, v),
    }
}

/// `acc[i] = acc[i] + v[i]` mod 2³².
pub fn wrapping_add(acc: &mut [i32], v: &[i32]) {
    debug_assert_eq!(acc.len(), v.len());
    let n = acc.len().min(v.len());
    let (acc, v) = (&mut acc[..n], &v[..n]);
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::wrapping_add(acc, v) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::wrapping_add(acc, v) },
        _ => wrapping_add_scalar(acc, v),
    }
}

/// Load big-endian wire words: `dst[i] = ntohl(bytes[4i..4i+4])`,
/// over `min(dst.len(), bytes.len() / 4)` elements.
pub fn be_load(bytes: &[u8], dst: &mut [i32]) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::be_load(bytes, dst) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::be_load(bytes, dst) },
        _ => be_load_scalar(bytes, dst),
    }
}

/// Fold big-endian wire words into `acc` with saturating addition —
/// the switch's slot-register accumulation straight off the wire.
pub fn be_saturating_add(bytes: &[u8], acc: &mut [i32]) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::be_saturating_add(bytes, acc) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::be_saturating_add(bytes, acc) },
        _ => be_saturating_add_scalar(bytes, acc),
    }
}

/// Fold big-endian wire words into `acc` with wrapping addition.
pub fn be_wrapping_add(bytes: &[u8], acc: &mut [i32]) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::be_wrapping_add(bytes, acc) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::be_wrapping_add(bytes, acc) },
        _ => be_wrapping_add_scalar(bytes, acc),
    }
}

/// Append `values` to `out` as big-endian wire words (the vector
/// `htonl` of the encode path).
pub fn be_store_extend(values: &[i32], out: &mut Vec<u8>) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::be_store_extend(values, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::be_store_extend(values, out) },
        _ => be_store_extend_scalar(values, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Run `f` against every backend available on this host: the
    /// dispatched arm (whatever `active_backend()` picked, which CI
    /// also pins to scalar via `SWITCHML_FORCE_SCALAR=1`), the scalar
    /// reference, and — explicitly — the AVX2 kernels when the CPU has
    /// them, so a single test run covers both dispatch arms.
    fn backends() -> Vec<Backend> {
        let mut v = vec![active_backend(), Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Backend::Avx2);
        }
        v.dedup();
        v
    }

    fn quantize_with(b: Backend, src: &[f32], f: f64, dst: &mut [i32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::quantize(src, f, dst) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::quantize(src, f, dst) },
            _ => quantize_scalar(src, f, dst),
        }
    }

    fn dequantize_with(b: Backend, src: &[i32], f: f64, dst: &mut [f32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::dequantize(src, f, dst) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::dequantize(src, f, dst) },
            _ => dequantize_scalar(src, f, dst),
        }
    }

    fn sat_add_with(b: Backend, acc: &mut [i32], v: &[i32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::saturating_add(acc, v) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::saturating_add(acc, v) },
            _ => saturating_add_scalar(acc, v),
        }
    }

    fn wrap_add_with(b: Backend, acc: &mut [i32], v: &[i32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::wrapping_add(acc, v) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::wrapping_add(acc, v) },
            _ => wrapping_add_scalar(acc, v),
        }
    }

    fn be_load_with(b: Backend, bytes: &[u8], dst: &mut [i32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::be_load(bytes, dst) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::be_load(bytes, dst) },
            _ => be_load_scalar(bytes, dst),
        }
    }

    fn be_sat_with(b: Backend, bytes: &[u8], acc: &mut [i32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::be_saturating_add(bytes, acc) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::be_saturating_add(bytes, acc) },
            _ => be_saturating_add_scalar(bytes, acc),
        }
    }

    fn be_wrap_with(b: Backend, bytes: &[u8], acc: &mut [i32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::be_wrapping_add(bytes, acc) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::be_wrapping_add(bytes, acc) },
            _ => be_wrapping_add_scalar(bytes, acc),
        }
    }

    fn be_store_with(b: Backend, values: &[i32], out: &mut Vec<u8>) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::be_store_extend(values, out) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::be_store_extend(values, out) },
            _ => be_store_extend_scalar(values, out),
        }
    }

    /// Scalar reference ρ ∘ scale, element-wise.
    fn quantize_ref(src: &[f32], f: f64) -> Vec<i32> {
        src.iter().map(|&x| (x as f64 * f).round() as i32).collect()
    }

    #[test]
    fn backend_detection_is_stable_and_named() {
        let b = active_backend();
        assert_eq!(b, active_backend());
        assert!(["scalar", "avx2", "neon"].contains(&b.name()));
    }

    /// f32s drawn from the raw bit space: every pattern including
    /// NaNs, infinities, subnormals and both zeros.
    fn any_bits_f32() -> impl Strategy<Value = f32> {
        any::<u32>().prop_map(f32::from_bits)
    }

    /// Scale factors covering the paper's range and pathological
    /// extremes that drive ρ into saturation.
    fn arb_scale() -> impl Strategy<Value = f64> {
        (-60i32..60).prop_map(|e| 2f64.powi(e))
    }

    /// i32s biased toward the saturation boundaries, where the
    /// overflow-detection algebra has its edge cases.
    fn edge_i32() -> impl Strategy<Value = i32> {
        (any::<i32>(), 0u8..8).prop_map(|(x, sel)| match sel {
            0 => i32::MAX,
            1 => i32::MIN,
            2 => x % 4,
            3 => i32::MAX - (x & 3),
            4 => i32::MIN + (x & 3),
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every backend's quantize is bit-identical to the scalar
        /// reference on every f32 bit pattern and every remainder
        /// length 0..(2 vector widths + lane_width − 1).
        #[test]
        fn quantize_parity(
            src in prop::collection::vec(any_bits_f32(), 0..67),
            f in arb_scale(),
        ) {
            let want = quantize_ref(&src, f);
            for b in backends() {
                let mut got = vec![0i32; src.len()];
                quantize_with(b, &src, f, &mut got);
                prop_assert_eq!(&got, &want, "backend {:?}", b);
            }
        }

        /// Every backend's dequantize is bit-identical (compared via
        /// `to_bits`) to the scalar reference.
        #[test]
        fn dequantize_parity(
            src in prop::collection::vec(any::<i32>(), 0..67),
            f in arb_scale(),
        ) {
            let want: Vec<u32> = src
                .iter()
                .map(|&q| ((q as f64 / f) as f32).to_bits())
                .collect();
            for b in backends() {
                let mut got = vec![0f32; src.len()];
                dequantize_with(b, &src, f, &mut got);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&bits, &want, "backend {:?}", b);
            }
        }

        /// Saturating add: every backend equals `i32::saturating_add`
        /// element-wise, including at both saturation rails.
        #[test]
        fn saturating_add_parity(
            pairs in prop::collection::vec((edge_i32(), edge_i32()), 0..67),
        ) {
            let a0: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let v: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let want: Vec<i32> = pairs.iter().map(|p| p.0.saturating_add(p.1)).collect();
            for b in backends() {
                let mut acc = a0.clone();
                sat_add_with(b, &mut acc, &v);
                prop_assert_eq!(&acc, &want, "backend {:?}", b);
            }
        }

        /// Wrapping add parity.
        #[test]
        fn wrapping_add_parity(
            pairs in prop::collection::vec((edge_i32(), edge_i32()), 0..67),
        ) {
            let a0: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let v: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let want: Vec<i32> = pairs.iter().map(|p| p.0.wrapping_add(p.1)).collect();
            for b in backends() {
                let mut acc = a0.clone();
                wrap_add_with(b, &mut acc, &v);
                prop_assert_eq!(&acc, &want, "backend {:?}", b);
            }
        }

        /// Big-endian wire load / accumulate / store: every backend
        /// matches `i32::from_be_bytes` / `to_be_bytes` semantics.
        #[test]
        fn be_wire_parity(
            words in prop::collection::vec(edge_i32(), 0..67),
            acc0 in prop::collection::vec(edge_i32(), 0..67),
        ) {
            let n = words.len().min(acc0.len());
            let mut bytes = Vec::new();
            be_store_extend_scalar(&words, &mut bytes);

            for b in backends() {
                // Store: backend bytes == scalar bytes.
                let mut out = Vec::new();
                be_store_with(b, &words, &mut out);
                prop_assert_eq!(&out, &bytes, "store backend {:?}", b);

                // Load roundtrips the words.
                let mut loaded = vec![0i32; words.len()];
                be_load_with(b, &bytes, &mut loaded);
                prop_assert_eq!(&loaded, &words, "load backend {:?}", b);

                // Accumulate (both ALU modes) over the common prefix.
                let mut sat = acc0.clone();
                be_sat_with(b, &bytes, &mut sat[..n.min(acc0.len())]);
                let mut wrap = acc0.clone();
                be_wrap_with(b, &bytes, &mut wrap[..n.min(acc0.len())]);
                for i in 0..n {
                    prop_assert_eq!(sat[i], acc0[i].saturating_add(words[i]), "sat {:?}", b);
                    prop_assert_eq!(wrap[i], acc0[i].wrapping_add(words[i]), "wrap {:?}", b);
                }
            }
        }
    }

    /// Deterministic boundary sweep: exactly the inputs where the AVX2
    /// round-half-away emulation could diverge from `f64::round`.
    #[test]
    fn quantize_rounding_boundaries() {
        // With f = 1.0 the product is the input itself, so these drive
        // ρ directly through the vector path (8 at a time).
        let cases: Vec<f32> = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            0.49999997,
            -0.49999997,
            2.5,
            -2.5,
            8388608.5_f64 as f32, // 2^23 territory: f32 granularity
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        // Pad to cover full vectors + tail.
        let mut src = cases.clone();
        src.extend_from_slice(&cases);
        src.push(1.5);
        for f in [1.0, 0.5, 2.0_f64.powi(40), 2.0_f64.powi(-40), 1e6] {
            let want = quantize_ref(&src, f);
            for b in backends() {
                let mut got = vec![0i32; src.len()];
                quantize_with(b, &src, f, &mut got);
                assert_eq!(got, want, "backend {b:?} f {f}");
            }
        }
    }
}
