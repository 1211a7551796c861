//! 512-bit fused CTR+GHASH kernel (x86-64: AVX-512 + VAES + VPCLMULQDQ).
//!
//! The same single-pass layout as [`crate::fused`], four blocks per
//! register: a 256-byte stride runs 16 counter blocks through `VAESENC` in
//! 4 zmm, XORs them into the message, and multiplies the 16 ciphertext
//! blocks lane-wise against H¹⁶…H¹ with `VPCLMULQDQ`. The partial products
//! are XOR-summed across registers and lanes *before* the modular reduction
//! (both are linear), so a stride pays one `shift_reduce` where the 128-bit
//! tier pays four. With 32 registers the round keys, the powers and a whole
//! stride stay live, so seal and open are one body: `DEC` only picks which
//! side of the XOR is hashed, and no software pipelining is needed.
//!
//! Counter semantics are GCM `inc32`, identical to
//! [`crate::aes::Aes::xor_ctr_keystream`].

#![cfg(target_arch = "x86_64")]

use crate::aes::{RoundKeys, MAX_ROUNDS};
use crate::ghash::pclmul::{bswap_mask, load_elem, shift_reduce, store_elem};
use std::arch::x86_64::*;

/// Bytes processed per stride (16 AES blocks).
pub(crate) const STRIDE: usize = 256;

/// H¹⁶…H¹, descending, so zmm `i` of the table meets blocks `4i..4i+3` of a
/// stride. A field element held as `u128` is already in the kernel's
/// register layout on little-endian x86 (see [`load_elem`]): the table is
/// loaded, never rebuilt, per call.
pub(crate) type Powers = [u128; STRIDE / 16];

/// Whether this CPU can run [`crypt_blocks`].
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("vaes")
        && is_x86_feature_detected!("vpclmulqdq")
        && is_x86_feature_detected!("pclmulqdq")
}

/// XORs the four 128-bit lanes of `v` together.
#[inline(always)]
unsafe fn fold_lanes(v: __m512i) -> __m128i {
    let half = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
    _mm_xor_si128(
        _mm256_castsi256_si128(half),
        _mm256_extracti128_si256::<1>(half),
    )
}

/// XORs `data` in place with the CTR keystream starting at `icb` and
/// absorbs the ciphertext — the input when `DEC`, the output otherwise —
/// into the GHASH accumulator `acc`. Returns the updated accumulator.
/// Whole 256-byte strides only: a trailing partial stride is left untouched
/// for the caller's tail path.
///
/// # Safety
/// The CPU must support `avx512f`, `avx512bw`, `avx512vl`, `vaes`,
/// `vpclmulqdq` and `pclmulqdq` ([`available`] checks exactly these). All
/// memory access goes through `data`'s own `chunks_exact_mut` and the two
/// borrowed key tables, so there is no length or alignment precondition.
#[target_feature(
    enable = "avx512f",
    enable = "avx512bw",
    enable = "avx512vl",
    enable = "vaes",
    enable = "vpclmulqdq",
    enable = "pclmulqdq"
)]
pub(crate) unsafe fn crypt_blocks<const DEC: bool>(
    keys: &RoundKeys,
    powers: &Powers,
    icb: &[u8; 16],
    acc: u128,
    data: &mut [u8],
) -> u128 {
    let rounds = keys.rounds();
    let mut rk = [_mm512_setzero_si512(); MAX_ROUNDS + 1];
    for (wide, k) in rk.iter_mut().zip(keys.keys()) {
        *wide = _mm512_broadcast_i32x4(_mm_loadu_si128(k.as_ptr().cast()));
    }
    let h: [__m512i; 4] =
        std::array::from_fn(|i| _mm512_loadu_si512(powers.as_ptr().add(4 * i).cast()));

    // Per-lane byte reversal: wire block <-> field element, and big-endian
    // counter block <-> the little-endian form the vector add steps.
    let rev = _mm512_broadcast_i32x4(bswap_mask());
    // Reversed, the 32-bit counter is dword 0 of each lane, so a dword add
    // is `inc32`: it wraps the counter word and cannot carry into the nonce.
    let icb4 = _mm512_broadcast_i32x4(_mm_loadu_si128(icb.as_ptr().cast()));
    let mut ctr = _mm512_add_epi32(
        _mm512_shuffle_epi8(icb4, rev),
        _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0),
    );
    let four = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
    let mut a = load_elem(acc);

    for stride in data.chunks_exact_mut(STRIDE) {
        let p = stride.as_mut_ptr().cast::<__m512i>();
        let input: [__m512i; 4] = std::array::from_fn(|i| _mm512_loadu_si512(p.add(i).cast()));

        let mut ks = [_mm512_setzero_si512(); 4];
        for k in ks.iter_mut() {
            *k = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, rev), rk[0]);
            ctr = _mm512_add_epi32(ctr, four);
        }
        for round_key in &rk[1..rounds] {
            for k in ks.iter_mut() {
                *k = _mm512_aesenc_epi128(*k, *round_key);
            }
        }
        let mut output = input;
        for (i, (out, k)) in output.iter_mut().zip(ks).enumerate() {
            *out = _mm512_xor_si512(*out, _mm512_aesenclast_epi128(k, rk[rounds]));
            _mm512_storeu_si512(p.add(i).cast(), *out);
        }

        // acc' = (acc ^ C0)·H¹⁶ ^ C1·H¹⁵ ^ … ^ C15·H¹, as schoolbook
        // lo/mid/hi partial products summed before one reduction.
        let ct = if DEC { input } else { output };
        let zero = _mm512_setzero_si512();
        let (mut lo, mut mid, mut hi) = (zero, zero, zero);
        for (i, (c, h)) in ct.into_iter().zip(h).enumerate() {
            let mut b = _mm512_shuffle_epi8(c, rev);
            if i == 0 {
                b = _mm512_xor_si512(b, _mm512_zextsi128_si512(a));
            }
            lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(b, h));
            hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(b, h));
            mid = _mm512_ternarylogic_epi64::<0x96>(
                mid,
                _mm512_clmulepi64_epi128::<0x10>(b, h),
                _mm512_clmulepi64_epi128::<0x01>(b, h),
            );
        }
        lo = _mm512_xor_si512(lo, _mm512_bslli_epi128::<8>(mid));
        hi = _mm512_xor_si512(hi, _mm512_bsrli_epi128::<8>(mid));
        a = shift_reduce(fold_lanes(lo), fold_lanes(hi));
    }
    store_elem(a)
}
