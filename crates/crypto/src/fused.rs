//! Fused CTR+GHASH kernel (x86-64, AES-NI + PCLMULQDQ).
//!
//! GCM's two halves are computationally independent per block: the CTR
//! keystream is pure AESENC work and the authentication pass is pure
//! PCLMULQDQ work. Running them as separate sweeps (the textbook layout)
//! walks the message twice and leaves one execution port idle in each sweep.
//! This module interleaves them: each 128-byte stride generates eight
//! keystream blocks, XORs them into the message in place, and feeds the
//! ciphertext into two 4-block aggregated GHASH updates. Out-of-order
//! execution then overlaps the AESENC chains of one stride with the
//! carry-less multiplies of its neighbour, so AES and GHASH throughput add
//! instead of serialize.
//!
//! [`crypt_blocks`] is the 128-bit tier of [`crate::gcm::AesGcm`]'s
//! dispatch; [`crate::wide`] is the 512-bit one. It takes whole 128-byte
//! strides; callers route the tail through the unfused block paths. Counter
//! semantics are GCM `inc32` (only the low 32 bits of the counter block
//! increment), identical to [`crate::aes::Aes::xor_ctr_keystream`].

#![cfg(target_arch = "x86_64")]

use crate::aes::{aesni, RoundKeys};
use crate::ghash::pclmul::{bswap, ghash4, load_elem, store_elem};
use std::arch::x86_64::*;

/// Bytes processed per fused stride (8 AES blocks).
pub(crate) const STRIDE: usize = 128;

/// Absorbs one 128-byte stride of ciphertext at `p` into the accumulator.
/// Loading from (L1-resident) memory instead of carrying the eight
/// ciphertext values in registers is what keeps the fused loop inside the
/// sixteen-xmm budget — carrying them live alongside the eight AES states
/// spills to the stack and costs more than the reload.
#[inline(always)]
unsafe fn ghash_stride(a: __m128i, p: *const __m128i, h: [__m128i; 4]) -> __m128i {
    let quad = |q: *const __m128i| {
        [
            bswap(_mm_loadu_si128(q)),
            bswap(_mm_loadu_si128(q.add(1))),
            bswap(_mm_loadu_si128(q.add(2))),
            bswap(_mm_loadu_si128(q.add(3))),
        ]
    };
    let a = ghash4(a, quad(p), h[0], h[1], h[2], h[3]);
    ghash4(a, quad(p.add(4)), h[0], h[1], h[2], h[3])
}

/// XORs `data` in place with the CTR keystream starting at `icb` and
/// absorbs the ciphertext — the input when `DEC`, the output otherwise —
/// into the GHASH accumulator `acc` using the precomputed `powers` H¹..H⁴.
/// Returns the updated accumulator. Whole 128-byte strides only: a trailing
/// partial stride is left untouched for the caller's tail path.
///
/// Software-pipelined one stride deep, so the AESENC and PCLMUL chains of
/// every iteration are independent and overlap under out-of-order
/// execution: iteration *s* runs the first stage on stride *s* and the
/// second on stride *s−1*. Sealing, the stages are encrypt then hash (the
/// ciphertext of *s−1* is already in L1); opening, hash then decrypt (the
/// ciphertext of *s* is read before the next iteration overwrites it).
///
/// # Safety
/// The CPU must support `aes`, `pclmulqdq`, `sse2`, and `ssse3`.
#[target_feature(
    enable = "aes",
    enable = "pclmulqdq",
    enable = "sse2",
    enable = "ssse3"
)]
pub(crate) unsafe fn crypt_blocks<const DEC: bool>(
    keys: &RoundKeys,
    powers: &[u128; 4],
    icb: &[u8; 16],
    acc: u128,
    data: &mut [u8],
) -> u128 {
    let loaded = aesni::load_keys(keys);
    let (base_hi, mut ctr32) = aesni::split_counter(icb);
    let h = powers.map(|p| load_elem(p));
    let mut a = load_elem(acc);

    let strides = data.len() / STRIDE;
    let base = data.as_mut_ptr();
    // In bounds for every s < strides, which is all the loop passes it.
    let at = |s: usize| base.add(s * STRIDE) as *mut __m128i;
    for s in 0..=strides {
        let (first, second) = ((s < strides).then_some(s), s.checked_sub(1));
        let (xor, hash) = if DEC {
            (second, first)
        } else {
            (first, second)
        };
        if let Some(x) = xor {
            aesni::xor_stride8(&loaded, base_hi, &mut ctr32, at(x));
        }
        if let Some(x) = hash {
            a = ghash_stride(a, at(x), h);
        }
    }
    store_elem(a)
}
