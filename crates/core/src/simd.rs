//! Explicit SIMD kernels with one-time runtime dispatch.
//!
//! The paper implements quantization with SSE/AVX and measures
//! negligible overhead (§3.7, Figure 8); the Tofino aggregates 32-bit
//! integers at line rate. This module is the software analogue: hand-
//! written `std::arch` AVX2 kernels (NEON on aarch64) for the three
//! hot loops —
//!
//! * float ↔ fixed-point conversion (`quantize` / `dequantize`, and
//!   `quantize_be` / `dequantize_be`, which read or write the big-endian
//!   wire payload in the same pass),
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
//! aarch64 keeps the table loop. The dequantize kernels' reciprocal
//! divide needs FMA on top of AVX2 ([`fma_active`]). Setting `SWITCHML_FORCE_SCALAR=1` in
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

/// Whether [`dequantize`] and [`dequantize_be`] take the reciprocal-FMA
/// kernels: the AVX2 backend is active and the CPU also has FMA.
/// Decided once, like [`crc_fold_active`].
pub fn fma_active() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| active_backend() == Backend::Avx2 && fma_detected())
}

fn fma_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("fma");
    #[allow(unreachable_code)]
    false
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

pub(crate) fn be_store_scalar(values: &[i32], dst: &mut [u8]) {
    for (d, &v) in dst.chunks_exact_mut(4).zip(values) {
        d.copy_from_slice(&v.to_be_bytes());
    }
}

pub(crate) fn quantize_be_scalar(src: &[f32], f: f64, dst: &mut [u8]) {
    for (d, &s) in dst.chunks_exact_mut(4).zip(src) {
        d.copy_from_slice(&rho_scalar(s as f64 * f).to_be_bytes());
    }
}

pub(crate) fn dequantize_be_scalar(bytes: &[u8], f: f64, dst: &mut [f32]) {
    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *d = (i32::from_be_bytes([c[0], c[1], c[2], c[3]]) as f64 / f) as f32;
    }
}

/// Scales whose quotients [`dequantize`] and [`dequantize_be`] may take
/// by reciprocal multiply instead of division: `|f|` within `2^±512`.
/// Over that range `1/f` and every `q / f` with `|q| ≤ 2^31` are normal
/// and finite, and no product or residual the corrections form is
/// subnormal or overflows, which is what the Markstein argument on
/// `avx2::div_by_reciprocal` assumes. Anything else (0, subnormals,
/// ±∞, NaN, magnitudes near the exponent limits) divides.
pub(crate) fn reciprocal_exact(f: f64) -> bool {
    const LO: f64 = f64::from_bits((1023 - 512) << 52); // 2^-512
    const HI: f64 = f64::from_bits((1023 + 512) << 52); // 2^512
    (LO..=HI).contains(&f.abs())
}

// ---------------------------------------------------------------------
// AVX2 kernels.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// ρ over four f64 lanes: round half away from zero, saturate to
    /// `i32`, NaN → 0.
    ///
    /// `f64::round` is a libm call LLVM cannot vectorize — the whole
    /// reason the autovectorized quantize loop crawls. Half-away
    /// rounding is `trunc(v + copysign(h, v))` with `h = 0.5 − 2^-54`,
    /// the largest double below one half, and that is exact for every
    /// `v`: when `|frac(v)| < 0.5` the sum stays at least `ulp(v) +
    /// 2^-54` short of the next integer out, so it cannot round up to
    /// it; when `|frac(v)| ≥ 0.5` it is within `2^-54` of that integer,
    /// at most half the spacing below it, and rounds onto it (`h = 0.5`
    /// would round `0.5 − 2^-54` up to 1). The clamp to the `i32` range
    /// (both bounds are exact in f64) commutes with truncation, so the
    /// truncating conversion does the `trunc`. ±∞ clamps like
    /// `f64::round` then `as i32`; NaN lanes are zeroed after the add
    /// (ρ(NaN) = 0 = ρ(±h)), since the clamp would keep NaN's bound.
    /// This is a shorter dependency chain than a round-toward-zero,
    /// fraction test and step, which is what a 32-element chunk waits
    /// on.
    #[inline(always)]
    unsafe fn rho_epi32(v: __m256d) -> __m128i {
        let sign_mask = _mm256_set1_pd(-0.0);
        let half = _mm256_set1_pd(0.5 - f64::EPSILON / 4.0);
        let signed_half = _mm256_or_pd(half, _mm256_and_pd(v, sign_mask));
        let sum = _mm256_add_pd(v, signed_half);
        // NaN → +0.0 (ordered-compare mask is 0 exactly on NaN lanes).
        let sum = _mm256_and_pd(sum, _mm256_cmp_pd(v, v, _CMP_ORD_Q));
        let lo = _mm256_set1_pd(i32::MIN as f64);
        let hi = _mm256_set1_pd(i32::MAX as f64);
        _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(sum, lo), hi))
    }

    /// ρ(f · x) over eight f32 lanes, in f64 like the scalar reference.
    #[inline(always)]
    unsafe fn quantize8(x: __m256, f: __m256d) -> __m256i {
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
        let qlo = rho_epi32(_mm256_mul_pd(lo, f));
        let qhi = rho_epi32(_mm256_mul_pd(hi, f));
        _mm256_set_m128i(qhi, qlo)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize(src: &[f32], f: f64, dst: &mut [i32]) {
        let n = src.len();
        let fv = _mm256_set1_pd(f);
        let mut i = 0;
        while i + 8 <= n {
            let q = quantize8(_mm256_loadu_ps(src.as_ptr().add(i)), fv);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, q);
            i += 8;
        }
        super::quantize_scalar(&src[i..], f, &mut dst[i..]);
    }

    /// [`quantize`] with each vector byte-swapped straight into the
    /// wire payload: `dst` receives `4 · src.len()` big-endian bytes, in
    /// whole 32-byte stores where it has room (see [`be_store`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_be(src: &[f32], f: f64, dst: &mut [u8]) {
        let n = src.len();
        let fv = _mm256_set1_pd(f);
        let mut i = 0;
        while i + 8 <= n {
            let q = quantize8(_mm256_loadu_ps(src.as_ptr().add(i)), fv);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4 * i) as *mut __m256i, bswap_epi32(q));
            i += 8;
        }
        if i < n && dst.len() >= 4 * i + 32 {
            // Dead lanes load as 0.0, and ρ(0 · f) = 0 for every f.
            let x = _mm256_maskload_ps(src.as_ptr().add(i), tail_mask(n - i));
            let q = bswap_epi32(quantize8(x, fv));
            _mm256_storeu_si256(dst.as_mut_ptr().add(4 * i) as *mut __m256i, q);
        } else {
            super::quantize_be_scalar(&src[i..], f, &mut dst[4 * i..]);
        }
    }

    /// `x / f` over four f64 lanes without the divider, given
    /// `y = RN(1/f)`: `q0 = x·y`, then two residual corrections
    /// `q ← fma(fma(−q, f, x), y, q)`.
    ///
    /// Why this is the IEEE quotient, bit for bit: `q0` is within 1.5
    /// ulp of `x/f` (one rounding in `y`, one in the product). The first
    /// correction brings it within half an ulp plus a term of order
    /// 2^-52 ulp, so within one ulp, whether or not its residual was
    /// exact. Markstein's theorem (IBM J. Res. Dev. 34(1), 1990): if `y`
    /// is within half an ulp of `1/f` and `q` within one ulp of `x/f`,
    /// the residual `r = x − q·f` is exactly representable (the inner
    /// FMA computes it without rounding) and `RN(q + r·y)` equals
    /// `RN(x/f)`. The second correction therefore lands on the correctly
    /// rounded quotient. The theorem assumes no intermediate is
    /// subnormal or overflows, which holds for `|f|` within `2^±512`
    /// and `|x| ≤ 2^31` ([`super::reciprocal_exact`]); callers divide
    /// outside that range.
    #[inline(always)]
    unsafe fn div_by_reciprocal(x: __m256d, f: __m256d, y: __m256d) -> __m256d {
        let q0 = _mm256_mul_pd(x, y);
        let q1 = _mm256_fmadd_pd(_mm256_fnmadd_pd(q0, f, x), y, q0);
        _mm256_fmadd_pd(_mm256_fnmadd_pd(q1, f, x), y, q1)
    }

    /// `(q as f64 / f) as f32` over eight i32 lanes: exact widening, the
    /// reciprocal quotient, and the IEEE demotion `as f32` performs
    /// (round to nearest even, the MXCSR default).
    #[inline(always)]
    unsafe fn dequantize8(q: __m256i, f: __m256d, y: __m256d) -> __m256 {
        let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(q));
        let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(q, 1));
        let lo = _mm256_cvtpd_ps(div_by_reciprocal(lo, f, y));
        let hi = _mm256_cvtpd_ps(div_by_reciprocal(hi, f, y));
        _mm256_set_m128(hi, lo)
    }

    /// Dequantize on AVX2+FMA hosts. The scalar loop's f64 divide is
    /// the throughput limit of the autovectorized loop (the divider
    /// takes about as long per element at xmm and ymm width); within
    /// the safe range of [`super::reciprocal_exact`] each quotient is
    /// instead a multiply and two FMA corrections
    /// ([`div_by_reciprocal`]), bit-identical to the division. Outside
    /// it, the scalar loop divides.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dequantize(src: &[i32], f: f64, dst: &mut [f32]) {
        if !super::reciprocal_exact(f) {
            return super::dequantize_scalar(src, f, dst);
        }
        let (fv, yv) = (_mm256_set1_pd(f), _mm256_set1_pd(1.0 / f));
        let n = src.len();
        let mut i = 0;
        while i + 8 <= n {
            let q = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), dequantize8(q, fv, yv));
            i += 8;
        }
        super::dequantize_scalar(&src[i..], f, &mut dst[i..]);
    }

    /// [`dequantize`] reading big-endian wire words in place: `bytes`
    /// holds at least `4 · dst.len()` of them.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dequantize_be(bytes: &[u8], f: f64, dst: &mut [f32]) {
        if !super::reciprocal_exact(f) {
            return super::dequantize_be_scalar(bytes, f, dst);
        }
        let (fv, yv) = (_mm256_set1_pd(f), _mm256_set1_pd(1.0 / f));
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm256_loadu_si256(bytes.as_ptr().add(4 * i) as *const __m256i);
            let q = bswap_epi32(raw);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), dequantize8(q, fv, yv));
            i += 8;
        }
        super::dequantize_be_scalar(&bytes[4 * i..], f, &mut dst[i..]);
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

    /// Lanes `0..r` set, the rest clear: the mask of a ragged tail's
    /// `r < 8` live elements.
    #[inline(always)]
    unsafe fn tail_mask(r: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(r as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Byte-swap `values` into `dst` in whole 32-byte stores. A ragged
    /// tail is one more full store, its dead lanes zero, when `dst` has
    /// room for it, and scalar otherwise.
    #[target_feature(enable = "avx2")]
    pub unsafe fn be_store(values: &[i32], dst: &mut [u8]) {
        let n = values.len();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4 * i) as *mut __m256i, bswap_epi32(x));
            i += 8;
        }
        if i < n && dst.len() >= 4 * i + 32 {
            let x = _mm256_maskload_epi32(values.as_ptr().add(i), tail_mask(n - i));
            _mm256_storeu_si256(dst.as_mut_ptr().add(4 * i) as *mut __m256i, bswap_epi32(x));
        } else {
            super::be_store_scalar(&values[i..], &mut dst[4 * i..]);
        }
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

/// [`clmul::crc32_fold_zeroed`] when the fold arm is active and its
/// preconditions hold for `data` and `at`; `None` when the caller must
/// take the incremental path.
pub(crate) fn crc32_fold_zeroed(pre: u32, data: &[u8], at: usize) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        let m = (16 - data.len() % 16) % 16;
        let (block, o) = ((at + m) / 16, (at + m) % 16);
        let fits = data.len() + m >= CRC_FOLD_MIN && at + 4 <= data.len();
        if fits && block < 4 && o <= 12 && crc_fold_active() {
            // SAFETY: `crc_fold_active` implies PCLMULQDQ and SSE4.1;
            // the kernel's asserted preconditions were just checked.
            return Some(unsafe { clmul::crc32_fold_zeroed(pre, data, at) });
        }
    }
    None
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
        // The register enters as the first four message bytes' xor, as
        // in the bytewise recurrence.
        let x0 = _mm_xor_si128(load(body, 0), _mm_cvtsi32_si128(state as i32));
        let lanes = [x0, load(body, 16), load(body, 32), load(body, 48)];
        fold_lanes(lanes, &body[64..])
    }

    /// Byte `i` of a 16-byte window at `SHIFT[16 − m..]` is `i − m`, or
    /// 0x80 (a zero byte, for `pshufb`) below `m`.
    static SHIFT: [u8; 32] = {
        let mut t = [0x80u8; 32];
        let mut i = 16;
        while i < 32 {
            t[i] = (i - 16) as u8;
            i += 1;
        }
        t
    };

    /// A 16-byte window at `ZERO[16 − o..]` is all ones but for bytes
    /// `o..o + 4`.
    static ZERO: [u8; 36] = {
        let mut t = [0xFFu8; 36];
        let mut i = 16;
        while i < 20 {
            t[i] = 0;
            i += 1;
        }
        t
    };

    /// Advance the raw CRC register `pre` over `m` zero bytes and then
    /// `data` with its four bytes at `at` read as zero, where `m` pads
    /// `data` to whole 16-byte blocks: every block is folded, the first
    /// built in a register (shifted up by `m`, its low bytes zero) and
    /// the one holding the zeroed bytes masked. The zero prefix is the
    /// caller's to cancel through `pre` (`checksum::crc32_zeroed`).
    /// Asserted: `data.len() + m` is at least 64, and the four bytes lie
    /// inside `data` and inside one of the first four blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 (SSSE3 with it).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub unsafe fn crc32_fold_zeroed(pre: u32, data: &[u8], at: usize) -> u32 {
        let m = (16 - data.len() % 16) % 16;
        let (block, o) = ((at + m) / 16, (at + m) % 16);
        assert!(data.len() + m >= super::CRC_FOLD_MIN && at + 4 <= data.len());
        assert!(block < 4 && o <= 12);
        let shift = _mm_loadu_si128(SHIFT.as_ptr().add(16 - m) as *const __m128i);
        let mut lanes = [
            _mm_shuffle_epi8(load(data, 0), shift),
            load(data, 16 - m),
            load(data, 32 - m),
            load(data, 48 - m),
        ];
        let zero = _mm_loadu_si128(ZERO.as_ptr().add(16 - o) as *const __m128i);
        lanes[block] = _mm_and_si128(lanes[block], zero);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(pre as i32));
        fold_lanes(lanes, &data[64 - m..])
    }

    /// Fold four 16-byte lanes, then the whole blocks of `rest` (its
    /// length a multiple of 16), into one and reduce it to the raw CRC
    /// register.
    #[inline(always)]
    unsafe fn fold_lanes(lanes: [__m128i; 4], rest: &[u8]) -> u32 {
        let k1k2 = _mm_set_epi64x(K2, K1);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let [mut x0, mut x1, mut x2, mut x3] = lanes;
        let mut i = 0;
        while i + 64 <= rest.len() {
            x0 = fold(x0, load(rest, i), k1k2);
            x1 = fold(x1, load(rest, i + 16), k1k2);
            x2 = fold(x2, load(rest, i + 32), k1k2);
            x3 = fold(x3, load(rest, i + 48), k1k2);
            i += 64;
        }
        let mut x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);
        while i < rest.len() {
            x = fold(x, load(rest, i), k3k4);
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
        // SAFETY: `fma_active` implies AVX2 and FMA are present.
        Backend::Avx2 if fma_active() => unsafe { avx2::dequantize(src, f, dst) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { neon::dequantize(src, f, dst) },
        _ => dequantize_scalar(src, f, dst),
    }
}

/// [`quantize`] straight into a wire payload: `dst[4i..4i+4]` receives
/// `htonl(ρ(f · src[i]))`. `dst` holds at least `4 · src.len()` bytes,
/// and may have bytes past those zeroed as in [`be_store`]. NEON hosts
/// take the portable loop, which LLVM vectorizes there (`f64::round`
/// is one FRINTA instruction on aarch64).
pub fn quantize_be(src: &[f32], f: f64, dst: &mut [u8]) {
    assert!(dst.len() >= 4 * src.len());
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::quantize_be(src, f, dst) },
        _ => quantize_be_scalar(src, f, dst),
    }
}

/// [`dequantize`] straight out of a wire payload: `dst[i] =
/// (ntohl(bytes[4i..4i+4]) as f64 / f) as f32`. `bytes` must hold at
/// least `4 · dst.len()` bytes. NEON hosts take the portable loop.
pub fn dequantize_be(bytes: &[u8], f: f64, dst: &mut [f32]) {
    assert!(bytes.len() >= 4 * dst.len());
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `fma_active` implies AVX2 and FMA are present.
        Backend::Avx2 if fma_active() => unsafe { avx2::dequantize_be(bytes, f, dst) },
        _ => dequantize_be_scalar(bytes, f, dst),
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

/// Store `values` into `dst` as big-endian wire words (the vector
/// `htonl` of the encode path). `dst` holds at least `4 · values.len()`
/// bytes; the AVX2 kernel may zero bytes past those, up to the next
/// multiple of 32, to store a ragged tail as one whole vector. NEON
/// hosts take the portable loop, which LLVM vectorizes (REV32).
pub fn be_store(values: &[i32], dst: &mut [u8]) {
    assert!(dst.len() >= 4 * values.len());
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backend selection implies AVX2 is present.
        Backend::Avx2 => unsafe { avx2::be_store(values, dst) },
        _ => be_store_scalar(values, dst),
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
            // SAFETY: only called when AVX2 was detected; FMA is checked.
            Backend::Avx2 if fma_detected() => unsafe { avx2::dequantize(src, f, dst) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::dequantize(src, f, dst) },
            _ => dequantize_scalar(src, f, dst),
        }
    }

    fn quantize_be_with(b: Backend, src: &[f32], f: f64, dst: &mut [u8]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::quantize_be(src, f, dst) },
            _ => quantize_be_scalar(src, f, dst),
        }
    }

    fn dequantize_be_with(b: Backend, bytes: &[u8], f: f64, dst: &mut [f32]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected; FMA is checked.
            Backend::Avx2 if fma_detected() => unsafe { avx2::dequantize_be(bytes, f, dst) },
            _ => dequantize_be_scalar(bytes, f, dst),
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

    fn be_store_with(b: Backend, values: &[i32], dst: &mut [u8]) {
        match b {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only called when AVX2 was detected.
            Backend::Avx2 => unsafe { avx2::be_store(values, dst) },
            _ => be_store_scalar(values, dst),
        }
    }

    /// `values` as big-endian wire bytes.
    fn be_bytes(values: &[i32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_be_bytes()).collect()
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

    /// [`arb_scale`] plus what a power of two cannot show a reciprocal
    /// divide: 1, non-dyadic values such as 1e6/3, and random
    /// significands at every exponent from 2^-60 to 2^60.
    fn any_scale() -> impl Strategy<Value = f64> {
        let mantissa = (1u64 << 52) - 1;
        (any::<u64>(), -60i64..61, 0u8..8).prop_map(move |(m, e, sel)| match sel {
            0 => 2f64.powi(e as i32),
            1 => 1.0,
            2 => 1e6 / 3.0,
            3 => 10_000.0,
            _ => f64::from_bits(((1023 + e) as u64) << 52 | (m & mantissa)),
        })
    }

    /// Integers with the dequantize edge cases mixed in.
    fn dequant_i32() -> impl Strategy<Value = i32> {
        (any::<i32>(), 0u8..8).prop_map(|(x, sel)| match sel {
            0 => i32::MIN,
            1 => i32::MAX,
            2 => 0,
            3 => 1,
            4 => -1,
            _ => x,
        })
    }

    /// Reference bits of `(q as f64 / f) as f32`.
    fn dequantize_ref(src: &[i32], f: f64) -> Vec<u32> {
        src.iter()
            .map(|&q| ((q as f64 / f) as f32).to_bits())
            .collect()
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
            src in prop::collection::vec(dequant_i32(), 0..67),
            f in any_scale(),
        ) {
            let want = dequantize_ref(&src, f);
            for b in backends() {
                let mut got = vec![0f32; src.len()];
                dequantize_with(b, &src, f, &mut got);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&bits, &want, "backend {:?}", b);
            }
        }

        /// The fused wire kernels equal the two-step paths they replace:
        /// `quantize_be` is `quantize` then `htonl`, byte for byte, and
        /// `dequantize_be` is `ntohl` then `dequantize`, bit for bit.
        #[test]
        fn wire_kernel_parity(
            src in prop::collection::vec(any_bits_f32(), 0..67),
            words in prop::collection::vec(dequant_i32(), 0..67),
            f in any_scale(),
        ) {
            let want_bytes = be_bytes(&quantize_ref(&src, f));
            let wire = be_bytes(&words);
            let want_floats = dequantize_ref(&words, f);
            for b in backends() {
                let mut bytes = vec![0xAAu8; 4 * src.len()];
                quantize_be_with(b, &src, f, &mut bytes);
                prop_assert_eq!(&bytes, &want_bytes, "quantize_be backend {:?}", b);
                let mut padded = vec![0xAAu8; (4 * src.len()).next_multiple_of(32) + 32];
                quantize_be_with(b, &src, f, &mut padded);
                prop_assert_eq!(&padded[..want_bytes.len()], &want_bytes[..], "padded {:?}", b);
                let pad = &padded[want_bytes.len()..];
                prop_assert!(pad.iter().all(|&x| x == 0 || x == 0xAA), "padding {:?}", b);
                let mut got = vec![0f32; words.len()];
                dequantize_be_with(b, &wire, f, &mut got);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&bits, &want_floats, "dequantize_be backend {:?}", b);
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
            let bytes = be_bytes(&words);

            for b in backends() {
                // Store: backend bytes == scalar bytes, exactly sized,
                // and with room for whole vectors, where bytes past the
                // words may only be zeroed.
                let mut out = vec![0xAAu8; bytes.len()];
                be_store_with(b, &words, &mut out);
                prop_assert_eq!(&out, &bytes, "store backend {:?}", b);
                let mut padded = vec![0xAAu8; bytes.len().next_multiple_of(32) + 32];
                be_store_with(b, &words, &mut padded);
                prop_assert_eq!(&padded[..bytes.len()], &bytes[..], "padded store {:?}", b);
                prop_assert!(padded[bytes.len()..].iter().all(|&x| x == 0 || x == 0xAA));

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

    /// ρ at every rounding boundary the f64 product can sit on: with an
    /// input of 1.0 the product is the scale itself, so each `v` below
    /// reaches the vector ρ as is — halves, integers and their
    /// neighbours one ulp either side, at every magnitude up to 2^53,
    /// and the saturation edges.
    #[test]
    fn quantize_rho_boundaries_in_f64() {
        let mut vs = vec![0.5 - f64::EPSILON / 4.0, 0.5 + f64::EPSILON / 2.0];
        for e in 0..=53 {
            let p = 2f64.powi(e);
            for n in [p - 1.0, p, p + 1.0] {
                for v in [n, n + 0.5, n - 0.5, n + 0.25, n + 0.75] {
                    vs.extend([v, v.next_up(), v.next_down()]);
                }
            }
        }
        for edge in [i32::MAX as f64, i32::MIN as f64] {
            vs.extend([edge, edge + 0.5, edge - 0.5, edge + 1.0, edge - 1.0]);
        }
        vs.extend(vs.clone().iter().map(|v| -v));
        let src = [1.0f32; 11];
        for &f in &vs {
            let want = quantize_ref(&src, f);
            let want_bytes = be_bytes(&want);
            for b in backends() {
                let mut got = vec![0i32; src.len()];
                quantize_with(b, &src, f, &mut got);
                assert_eq!(got, want, "backend {b:?} v {f:e}");
                let mut bytes = vec![0u8; 4 * src.len()];
                quantize_be_with(b, &src, f, &mut bytes);
                assert_eq!(bytes, want_bytes, "quantize_be backend {b:?} v {f:e}");
            }
        }
    }

    /// Quotients on an f32 rounding tie, where a quotient one f64 ulp
    /// off flips the f32 result: `f = x / m` for `m` halfway between two
    /// adjacent f32s. A kernel that skips the FMA corrections and keeps
    /// `x · RN(1/f)` fails about one case in eight here (random inputs
    /// almost never show it: the narrowing to f32 hides an f64 ulp).
    #[test]
    fn dequantize_is_exact_on_f32_ties() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4_000 {
            let x = (next() >> 33) as i32 | 1 << 20;
            let v = f32::from_bits((next() as u32 % 0x7e00_0000) + 0x0080_0000);
            let m = v as f64 + (f32::from_bits(v.to_bits() + 1) as f64 - v as f64) / 2.0;
            let f = x as f64 / m;
            let src = [x; 9];
            let want = dequantize_ref(&src, f);
            let wire = be_bytes(&src);
            for b in backends() {
                let mut got = [0f32; 9];
                dequantize_with(b, &src, f, &mut got);
                assert_eq!(
                    got.map(f32::to_bits),
                    *want,
                    "dequantize {b:?} x {x} f {f:e}"
                );
                dequantize_be_with(b, &wire, f, &mut got);
                assert_eq!(
                    got.map(f32::to_bits),
                    *want,
                    "dequantize_be {b:?} x {x} f {f:e}"
                );
            }
        }
    }

    /// Deterministic sweep of scales × edge integers through both
    /// dequantize kernels. The scales run over every exponent the
    /// reciprocal path takes and past both ends of its safe range, with
    /// significands that are 1, all ones, and non-dyadic; the
    /// out-of-range rows (0, subnormal, near the exponent limits, ±∞,
    /// NaN, negative) must fall back to the division, and a kernel
    /// that multiplies by `1/f` there returns NaN or ∞ where the
    /// division does not. (No test here can tell the second FMA
    /// correction from none: the first already lands on the correctly
    /// rounded quotient whenever `x · y` is within one ulp of it, which
    /// 200 M random and tie-crafted samples never missed. The second is
    /// the margin for the half-ulp `x · y` may lie beyond that.)
    #[test]
    fn dequantize_sweep_covers_the_division_fallback() {
        let mut ints = vec![
            i32::MIN,
            i32::MIN + 1,
            -(1 << 24) - 1,
            -3,
            -1,
            0,
            1,
            3,
            (1 << 24) + 1,
            i32::MAX - 1,
            i32::MAX,
        ];
        ints.extend((0..21).map(|i: i32| i.wrapping_mul(0x5bd1_e995) ^ 0x2f3a));
        let mut scales = Vec::new();
        for e in -600i32..=600 {
            let p = 2f64.powi(e);
            for m in [1.0, 2.0 - f64::EPSILON, 1e6 / 3.0 / 2f64.powi(18), 1.1, 1.7] {
                scales.push(p * m);
                scales.push(-p * m);
            }
        }
        scales.extend([
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        let wire: Vec<u8> = ints.iter().flat_map(|q| q.to_be_bytes()).collect();
        for &f in &scales {
            let want = dequantize_ref(&ints, f);
            for b in backends() {
                let mut got = vec![0f32; ints.len()];
                dequantize_with(b, &ints, f, &mut got);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, want, "dequantize backend {b:?} f {f:e}");
                dequantize_be_with(b, &wire, f, &mut got);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, want, "dequantize_be backend {b:?} f {f:e}");
            }
        }
        assert!(!reciprocal_exact(f64::MIN_POSITIVE) && reciprocal_exact(1e6 / 3.0));
    }
}
