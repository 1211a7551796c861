//! The AES block cipher (FIPS 197) for 128-, 192-, and 256-bit keys.
//!
//! Three implementations live here:
//! - a portable software implementation built on the S-box with column-wise
//!   `MixColumns`, used everywhere as the reference;
//! - a constant-time portable variant that computes the S-box algebraically
//!   (inversion in GF(2^8) by exponentiation) instead of by table lookup,
//!   for environments where table-timing side channels matter and AES-NI is
//!   unavailable;
//! - an AES-NI implementation behind runtime CPU feature detection on
//!   x86-64, used automatically when available (and constant-time by
//!   construction).
//!
//! Only the pieces GCM needs are on the hot path (block encryption and the
//! fused CTR loop); the inverse cipher is provided for completeness and is
//! exercised by tests.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Maximum number of rounds (AES-256).
pub(crate) const MAX_ROUNDS: usize = 14;

/// The AES S-box.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box (built at first use from [`SBOX`]).
fn inv_sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// General GF(2^8) multiplication (used by the inverse cipher, the
/// constant-time S-box, and tests). Constant-time: the loop shape depends
/// only on public values.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    for _ in 0..8 {
        // Conditionally XOR without branching on secret bits.
        acc ^= a & 0u8.wrapping_sub(b & 1);
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// The AES S-box computed algebraically: `affine(x^254)` in GF(2^8).
/// Table-free and constant-time (at the cost of ~30 field multiplications).
pub fn sbox_constant_time(x: u8) -> u8 {
    // x^254 = inverse(x) for x != 0, and 0 for x = 0 (as required).
    // Addition chain: compute x^2, x^3, x^6, x^12, x^15, x^240, x^254.
    let x2 = gf_mul(x, x);
    let x3 = gf_mul(x2, x);
    let x6 = gf_mul(x3, x3);
    let x12 = gf_mul(x6, x6);
    let x15 = gf_mul(x12, x3);
    let x30 = gf_mul(x15, x15);
    let x60 = gf_mul(x30, x30);
    let x120 = gf_mul(x60, x60);
    let x240 = gf_mul(x120, x120);
    let x252 = gf_mul(x240, x12);
    let inv = gf_mul(x252, x2); // x^254

    // Affine transformation: b ^ rotl1(b) ^ rotl2(b) ^ rotl3(b) ^ rotl4(b) ^ 0x63.
    inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
}

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    /// Number of cipher rounds.
    pub fn rounds(&self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    fn from_key_len(len: usize) -> KeySize {
        match len {
            16 => KeySize::Aes128,
            24 => KeySize::Aes192,
            32 => KeySize::Aes256,
            other => panic!("unsupported AES key length: {other} bytes"),
        }
    }
}

/// Expanded round keys (11, 13, or 15 of them depending on key size).
#[derive(Clone)]
pub struct RoundKeys {
    rk: [[u8; 16]; MAX_ROUNDS + 1],
    rounds: usize,
}

impl RoundKeys {
    /// Runs the FIPS-197 key expansion for a 16-, 24-, or 32-byte key.
    pub fn expand(key: &[u8]) -> Self {
        let size = KeySize::from_key_len(key.len());
        let nk = key.len() / 4;
        let rounds = size.rounds();
        let total_words = 4 * (rounds + 1);

        let mut w = vec![[0u8; 4]; total_words];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                // AES-256 extra SubWord step.
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }

        let mut rk = [[0u8; 16]; MAX_ROUNDS + 1];
        for (r, round_key) in rk.iter_mut().enumerate().take(rounds + 1) {
            for c in 0..4 {
                round_key[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        RoundKeys { rk, rounds }
    }

    /// The round-key slice (rounds + 1 entries).
    #[inline]
    pub fn keys(&self) -> &[[u8; 16]] {
        &self.rk[..self.rounds + 1]
    }

    /// Number of cipher rounds.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Which implementation the cipher dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable software implementation (table-based S-box).
    Soft,
    /// Portable constant-time implementation (algebraic S-box).
    SoftConstantTime,
    /// x86-64 AES-NI instructions.
    AesNi,
}

/// An AES cipher instance with an expanded key (any supported key size).
#[derive(Clone)]
pub struct Aes {
    keys: RoundKeys,
    backend: Backend,
}

/// AES with a 128-bit key (the paper's AES-GCM-128 building block).
pub type Aes128 = Aes;

impl Aes {
    /// Expands a 16-, 24-, or 32-byte `key` and selects the fastest
    /// available backend.
    pub fn new(key: &[u8]) -> Self {
        Aes {
            keys: RoundKeys::expand(key),
            backend: detect_backend(),
        }
    }

    /// Forces the portable table-based backend (for tests and cross-checks).
    pub fn new_soft(key: &[u8]) -> Self {
        Aes {
            keys: RoundKeys::expand(key),
            backend: Backend::Soft,
        }
    }

    /// Forces the portable constant-time backend (no table lookups).
    pub fn new_constant_time(key: &[u8]) -> Self {
        Aes {
            keys: RoundKeys::expand(key),
            backend: Backend::SoftConstantTime,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The expanded round keys (for the fused CTR+GHASH kernel).
    #[inline]
    pub(crate) fn round_keys(&self) -> &RoundKeys {
        &self.keys
    }

    /// The key size in force.
    pub fn key_size(&self) -> KeySize {
        match self.keys.rounds() {
            10 => KeySize::Aes128,
            12 => KeySize::Aes192,
            _ => KeySize::Aes256,
        }
    }

    /// Encrypts one 16-byte block in place.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match self.backend {
            Backend::Soft => encrypt_soft(&self.keys, block, false),
            Backend::SoftConstantTime => encrypt_soft(&self.keys, block, true),
            Backend::AesNi => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: backend is only AesNi when the CPU reports AES support.
                unsafe {
                    aesni::encrypt_block(&self.keys, block)
                }
                #[cfg(not(target_arch = "x86_64"))]
                encrypt_soft(&self.keys, block, false)
            }
        }
    }

    /// Decrypts one 16-byte block in place (inverse cipher).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        // The inverse cipher is off the GCM hot path; the portable
        // implementation is used unconditionally.
        decrypt_soft(&self.keys, block);
    }

    /// XORs `data` with the CTR keystream starting at counter block `icb`
    /// (GCM `inc32` semantics: only the low 32 bits increment). The AES-NI
    /// path loads the round keys once and pipelines eight blocks.
    pub fn xor_ctr_keystream(&self, icb: &[u8; 16], data: &mut [u8]) {
        match self.backend {
            Backend::Soft | Backend::SoftConstantTime => xor_ctr_soft(self, icb, data),
            Backend::AesNi => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: backend is only AesNi when the CPU reports AES
                // (and SSE2, implied by x86-64) support.
                unsafe {
                    aesni::xor_ctr(&self.keys, icb, data)
                }
                #[cfg(not(target_arch = "x86_64"))]
                xor_ctr_soft(self, icb, data)
            }
        }
    }

    /// Encrypts four consecutive blocks; the AES-NI path pipelines them.
    #[inline]
    pub fn encrypt_blocks4(&self, blocks: &mut [u8; 64]) {
        match self.backend {
            Backend::Soft | Backend::SoftConstantTime => {
                for i in 0..4 {
                    let mut b = [0u8; 16];
                    b.copy_from_slice(&blocks[16 * i..16 * i + 16]);
                    self.encrypt_block(&mut b);
                    blocks[16 * i..16 * i + 16].copy_from_slice(&b);
                }
            }
            Backend::AesNi => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: backend is only AesNi when the CPU reports AES support.
                unsafe {
                    aesni::encrypt_blocks4(&self.keys, blocks)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AesNi backend selected on non-x86_64")
            }
        }
    }
}

pub(crate) fn detect_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if !crate::dispatch::force_soft() && std::arch::is_x86_feature_detected!("aes") {
            return Backend::AesNi;
        }
    }
    Backend::Soft
}

/// Portable CTR keystream XOR (block-at-a-time).
fn xor_ctr_soft(aes: &Aes, icb: &[u8; 16], data: &mut [u8]) {
    let mut counter = *icb;
    let mut ctr32 = u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]]);
    for chunk in data.chunks_mut(16) {
        counter[12..].copy_from_slice(&ctr32.to_be_bytes());
        ctr32 = ctr32.wrapping_add(1);
        let mut ks = counter;
        aes.encrypt_block(&mut ks);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
    }
}

// ---------------------------------------------------------------------------
// Portable implementation
// ---------------------------------------------------------------------------

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16], constant_time: bool) {
    if constant_time {
        for s in state.iter_mut() {
            *s = sbox_constant_time(*s);
        }
    } else {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for s in state.iter_mut() {
        *s = inv[*s as usize];
    }
}

/// State layout: byte `i` of the buffer is row `i % 4`, column `i / 4`
/// (FIPS-197 column-major order, matching the wire order of the block).
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = state[13];
    state[13] = state[9];
    state[9] = state[5];
    state[5] = state[1];
    state[1] = t;
    // Row 2: shift right by 2 (same as left by 2).
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = state[3];
    state[3] = state[7];
    state[7] = state[11];
    state[11] = state[15];
    state[15] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a0 = col[0];
        let a1 = col[1];
        let a2 = col[2];
        let a3 = col[3];
        let x = a0 ^ a1 ^ a2 ^ a3;
        col[0] = a0 ^ x ^ xtime(a0 ^ a1);
        col[1] = a1 ^ x ^ xtime(a1 ^ a2);
        col[2] = a2 ^ x ^ xtime(a2 ^ a3);
        col[3] = a3 ^ x ^ xtime(a3 ^ a0);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a0 = col[0];
        let a1 = col[1];
        let a2 = col[2];
        let a3 = col[3];
        col[0] = gf_mul(a0, 0x0e) ^ gf_mul(a1, 0x0b) ^ gf_mul(a2, 0x0d) ^ gf_mul(a3, 0x09);
        col[1] = gf_mul(a0, 0x09) ^ gf_mul(a1, 0x0e) ^ gf_mul(a2, 0x0b) ^ gf_mul(a3, 0x0d);
        col[2] = gf_mul(a0, 0x0d) ^ gf_mul(a1, 0x09) ^ gf_mul(a2, 0x0e) ^ gf_mul(a3, 0x0b);
        col[3] = gf_mul(a0, 0x0b) ^ gf_mul(a1, 0x0d) ^ gf_mul(a2, 0x09) ^ gf_mul(a3, 0x0e);
    }
}

fn encrypt_soft(keys: &RoundKeys, block: &mut [u8; 16], constant_time: bool) {
    let rk = keys.keys();
    let rounds = keys.rounds();
    add_round_key(block, &rk[0]);
    for round_key in rk.iter().take(rounds).skip(1) {
        sub_bytes(block, constant_time);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, round_key);
    }
    sub_bytes(block, constant_time);
    shift_rows(block);
    add_round_key(block, &rk[rounds]);
}

fn decrypt_soft(keys: &RoundKeys, block: &mut [u8; 16]) {
    let rk = keys.keys();
    let rounds = keys.rounds();
    add_round_key(block, &rk[rounds]);
    for round in (1..rounds).rev() {
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &rk[round]);
        inv_mix_columns(block);
    }
    inv_shift_rows(block);
    inv_sub_bytes(block);
    add_round_key(block, &rk[0]);
}

// ---------------------------------------------------------------------------
// AES-NI implementation (x86-64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod aesni {
    use super::{RoundKeys, MAX_ROUNDS};
    use std::arch::x86_64::*;

    /// Expanded round keys in registers, with the round count.
    pub(crate) type LoadedKeys = ([__m128i; MAX_ROUNDS + 1], usize);

    #[inline]
    pub(crate) unsafe fn load_keys(keys: &RoundKeys) -> LoadedKeys {
        let mut out = [_mm_setzero_si128(); MAX_ROUNDS + 1];
        for (o, rk) in out.iter_mut().zip(keys.keys().iter()) {
            *o = _mm_loadu_si128(rk.as_ptr() as *const __m128i);
        }
        (out, keys.rounds())
    }

    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_block(keys: &RoundKeys, block: &mut [u8; 16]) {
        let (rk, rounds) = load_keys(keys);
        let mut b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        b = _mm_xor_si128(b, rk[0]);
        for k in rk.iter().take(rounds).skip(1) {
            b = _mm_aesenc_si128(b, *k);
        }
        b = _mm_aesenclast_si128(b, rk[rounds]);
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, b);
    }

    /// Splits a counter block into its nonce part (counter word zeroed) and
    /// the 32-bit big-endian counter GCM increments.
    #[inline(always)]
    pub(crate) unsafe fn split_counter(icb: &[u8; 16]) -> (__m128i, u32) {
        let base = _mm_loadu_si128(icb.as_ptr() as *const __m128i);
        let word_mask = _mm_set_epi32(-1, 0, 0, 0);
        let ctr32 = u32::from_be_bytes([icb[12], icb[13], icb[14], icb[15]]);
        (_mm_andnot_si128(word_mask, base), ctr32)
    }

    #[inline(always)]
    unsafe fn counter_block(base_hi: __m128i, ctr32: u32) -> __m128i {
        let word = _mm_set_epi32(ctr32.swap_bytes() as i32, 0, 0, 0);
        _mm_or_si128(base_hi, word)
    }

    /// XORs the 128 bytes at `p` with the keystream of the eight counter
    /// blocks from `*ctr32` on (GCM `inc32`: the word wraps, the nonce part
    /// never changes), advancing `*ctr32` by eight. Eight independent
    /// blocks in flight fill the AESENC pipeline. The one 8-block stride of
    /// this crate: the plain CTR sweep below and the fused CTR+GHASH kernel
    /// both run it.
    ///
    /// Callers guarantee `p` is valid for 128 bytes of reads and writes.
    #[inline(always)]
    pub(crate) unsafe fn xor_stride8(
        (rk, rounds): &LoadedKeys,
        base_hi: __m128i,
        ctr32: &mut u32,
        p: *mut __m128i,
    ) {
        let mut blocks = [_mm_setzero_si128(); 8];
        for b in blocks.iter_mut() {
            *b = _mm_xor_si128(counter_block(base_hi, *ctr32), rk[0]);
            *ctr32 = ctr32.wrapping_add(1);
        }
        for k in &rk[1..*rounds] {
            for b in blocks.iter_mut() {
                *b = _mm_aesenc_si128(*b, *k);
            }
        }
        for (i, b) in blocks.iter().enumerate() {
            let ks = _mm_aesenclast_si128(*b, rk[*rounds]);
            _mm_storeu_si128(p.add(i), _mm_xor_si128(_mm_loadu_si128(p.add(i)), ks));
        }
    }

    /// CTR keystream XOR with round keys hoisted out of the loop:
    /// [`xor_stride8`] over the whole strides, then block by block.
    #[target_feature(enable = "aes")]
    pub unsafe fn xor_ctr(keys: &RoundKeys, icb: &[u8; 16], data: &mut [u8]) {
        let loaded = load_keys(keys);
        let (base_hi, mut ctr32) = split_counter(icb);

        let mut strides = data.chunks_exact_mut(128);
        for stride in &mut strides {
            xor_stride8(&loaded, base_hi, &mut ctr32, stride.as_mut_ptr().cast());
        }
        let (rk, rounds) = loaded;
        for chunk in strides.into_remainder().chunks_mut(16) {
            let mut b = _mm_xor_si128(counter_block(base_hi, ctr32), rk[0]);
            ctr32 = ctr32.wrapping_add(1);
            for k in &rk[1..rounds] {
                b = _mm_aesenc_si128(b, *k);
            }
            b = _mm_aesenclast_si128(b, rk[rounds]);
            let mut ks = [0u8; 16];
            _mm_storeu_si128(ks.as_mut_ptr() as *mut __m128i, b);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
        }
    }

    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_blocks4(keys: &RoundKeys, blocks: &mut [u8; 64]) {
        let (rk, rounds) = load_keys(keys);
        let p = blocks.as_mut_ptr() as *mut __m128i;
        let mut b0 = _mm_loadu_si128(p);
        let mut b1 = _mm_loadu_si128(p.add(1));
        let mut b2 = _mm_loadu_si128(p.add(2));
        let mut b3 = _mm_loadu_si128(p.add(3));
        b0 = _mm_xor_si128(b0, rk[0]);
        b1 = _mm_xor_si128(b1, rk[0]);
        b2 = _mm_xor_si128(b2, rk[0]);
        b3 = _mm_xor_si128(b3, rk[0]);
        for k in rk.iter().take(rounds).skip(1) {
            b0 = _mm_aesenc_si128(b0, *k);
            b1 = _mm_aesenc_si128(b1, *k);
            b2 = _mm_aesenc_si128(b2, *k);
            b3 = _mm_aesenc_si128(b3, *k);
        }
        b0 = _mm_aesenclast_si128(b0, rk[rounds]);
        b1 = _mm_aesenclast_si128(b1, rk[rounds]);
        b2 = _mm_aesenclast_si128(b2, rk[rounds]);
        b3 = _mm_aesenclast_si128(b3, rk[rounds]);
        _mm_storeu_si128(p, b0);
        _mm_storeu_si128(p.add(1), b1);
        _mm_storeu_si128(p.add(2), b2);
        _mm_storeu_si128(p.add(3), b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes::new_soft(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expect);
        aes.decrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34
            ]
        );
    }

    /// FIPS-197 Appendix C known-answer tests for all three key sizes.
    #[test]
    fn fips197_appendix_c_all_key_sizes() {
        let plain: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);

        // C.1: AES-128.
        let key128: Vec<u8> = (0..16).map(|i| i as u8).collect();
        let mut block = plain;
        Aes::new_soft(&key128).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );

        // C.2: AES-192.
        let key192: Vec<u8> = (0..24).map(|i| i as u8).collect();
        let mut block = plain;
        Aes::new_soft(&key192).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0xdd, 0xa9, 0x7c, 0xa4, 0x86, 0x4c, 0xdf, 0xe0, 0x6e, 0xaf, 0x70, 0xa0, 0xec, 0x0d,
                0x71, 0x91
            ]
        );

        // C.3: AES-256.
        let key256: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let mut block = plain;
        Aes::new_soft(&key256).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
    }

    #[test]
    fn all_backends_agree_for_all_key_sizes() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
            let hw = Aes::new(&key);
            let sw = Aes::new_soft(&key);
            let ct = Aes::new_constant_time(&key);
            for seed in 0u8..16 {
                let mut a: [u8; 16] =
                    core::array::from_fn(|i| seed.wrapping_mul(17).wrapping_add(i as u8));
                let mut b = a;
                let mut c = a;
                hw.encrypt_block(&mut a);
                sw.encrypt_block(&mut b);
                ct.encrypt_block(&mut c);
                assert_eq!(a, b, "hw vs soft, key_len {key_len}");
                assert_eq!(b, c, "soft vs constant-time, key_len {key_len}");
            }
        }
    }

    #[test]
    fn decrypt_inverts_encrypt_all_key_sizes() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 31) as u8).collect();
            let aes = Aes::new_soft(&key);
            for seed in 0u8..16 {
                let original: [u8; 16] =
                    core::array::from_fn(|i| seed.wrapping_mul(31).wrapping_add((i * i) as u8));
                let mut block = original;
                aes.encrypt_block(&mut block);
                assert_ne!(block, original);
                aes.decrypt_block(&mut block);
                assert_eq!(block, original);
            }
        }
    }

    #[test]
    fn constant_time_sbox_matches_table() {
        for x in 0..=255u8 {
            assert_eq!(sbox_constant_time(x), SBOX[x as usize], "x = {x:#04x}");
        }
    }

    #[test]
    fn blocks4_matches_single_block_path() {
        let key = [0x3Cu8; 16];
        let aes = Aes::new(&key);
        let mut quad = [0u8; 64];
        for (i, q) in quad.iter_mut().enumerate() {
            *q = (i * 7 % 256) as u8;
        }
        let mut expect = quad;
        for i in 0..4 {
            let mut b = [0u8; 16];
            b.copy_from_slice(&expect[16 * i..16 * i + 16]);
            aes.encrypt_block(&mut b);
            expect[16 * i..16 * i + 16].copy_from_slice(&b);
        }
        aes.encrypt_blocks4(&mut quad);
        assert_eq!(quad, expect);
    }

    #[test]
    fn ctr_keystream_matches_across_backends_and_key_sizes() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 1) as u8).collect();
            let hw = Aes::new(&key);
            let sw = Aes::new_soft(&key);
            let icb = [0x07u8; 16];
            let mut a: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
            let mut b = a.clone();
            hw.xor_ctr_keystream(&icb, &mut a);
            sw.xor_ctr_keystream(&icb, &mut b);
            assert_eq!(a, b, "key_len {key_len}");
        }
    }

    #[test]
    fn key_sizes_report_rounds() {
        assert_eq!(Aes::new(&[0u8; 16]).key_size(), KeySize::Aes128);
        assert_eq!(Aes::new(&[0u8; 24]).key_size(), KeySize::Aes192);
        assert_eq!(Aes::new(&[0u8; 32]).key_size(), KeySize::Aes256);
        assert_eq!(KeySize::Aes128.rounds(), 10);
        assert_eq!(KeySize::Aes192.rounds(), 12);
        assert_eq!(KeySize::Aes256.rounds(), 14);
        assert_eq!(KeySize::Aes256.key_len(), 32);
    }

    #[test]
    #[should_panic(expected = "unsupported AES key length")]
    fn rejects_bad_key_length() {
        let _ = Aes::new(&[0u8; 20]);
    }

    #[test]
    fn gf_mul_matches_known_products() {
        // {57} x {83} = {c1} from FIPS-197 Section 4.2.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        // {57} x {13} = {fe}.
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x01, 0xab), 0xab);
        assert_eq!(gf_mul(0x00, 0xab), 0x00);
    }
}
