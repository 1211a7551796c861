//! The ChaCha20 stream cipher (RFC 8439 §2.1–2.4).
//!
//! ChaCha20 is the AEAD workhorse for hosts without AES-NI: its block
//! function is 16 32-bit words of add/rotate/xor, which runs at full speed
//! on plain integer ALUs. Two implementations live here:
//!
//! - a portable scalar one (the reference, runnable everywhere), one block
//!   per pass;
//! - on x86-64, one multi-block **row-layout** body (`rows::xor_sets`)
//!   instantiated per register width. A register holds one state row
//!   (words 0–3, 4–7, 8–11 or 12–15) of a *different block in each 128-bit
//!   lane* — 1 block per xmm, 2 per ymm, 4 per zmm — so the column round is
//!   four vertical ops, the diagonal round is the same after a per-lane
//!   `pshufd`, and the keystream leaves the registers through a 4×4 lane
//!   shuffle rather than a 16×16 word transpose. Four independent register
//!   sets are interleaved to cover the add→xor→rotate latency chain, which
//!   makes a stride 4 / 8 / 16 blocks (256 B / 512 B / 1 KiB); the tail
//!   ladders down through one register set to one block.
//!
//! Which instance runs is a [`ChaChaBackend`] fixed at key set-up from what
//! the CPU reports. Every tier computes the same function — per-lane block
//! counters are `counter + lane` wrapping mod 2³², exactly the scalar
//! sequence — and the `EAG_CRYPTO_FORCE_SOFT` override is shared with the
//! other primitives via [`crate::dispatch`].

/// The ChaCha20 constants: `"expand 32-byte k"` as four LE words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Which kernel a [`ChaCha20`] instance runs: the tier, fixed at key set-up.
///
/// Public only so that [`ChaCha20::backend`] can be printed; no public
/// constructor takes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaChaBackend {
    /// Portable scalar implementation (the reference), one block per pass.
    Soft,
    /// x86-64 SSE2: one block per register, 4 blocks per stride.
    Sse2,
    /// x86-64 AVX2: two blocks per register, 8 blocks per stride.
    Avx2,
    /// x86-64 AVX-512F/VL: four blocks per register, 16 blocks per stride.
    Avx512,
}

impl ChaChaBackend {
    /// Every tier, the portable reference first, then narrowest to widest.
    pub(crate) const ALL: [ChaChaBackend; 4] = [
        ChaChaBackend::Soft,
        ChaChaBackend::Sse2,
        ChaChaBackend::Avx2,
        ChaChaBackend::Avx512,
    ];

    /// Whether this process may run the tier: the CPU has its instructions
    /// and `EAG_CRYPTO_FORCE_SOFT` is off.
    pub(crate) fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if !crate::dispatch::force_soft() {
            use std::arch::is_x86_feature_detected as has;
            return match self {
                ChaChaBackend::Soft => true,
                ChaChaBackend::Sse2 => has!("sse2"),
                ChaChaBackend::Avx2 => has!("avx2"),
                ChaChaBackend::Avx512 => has!("avx512f") && has!("avx512vl"),
            };
        }
        self == ChaChaBackend::Soft
    }

    /// The widest tier this process may run.
    pub(crate) fn widest() -> ChaChaBackend {
        let runnable = Self::ALL.into_iter().rev().find(|t| t.supported());
        runnable.unwrap_or(ChaChaBackend::Soft)
    }
}

/// A ChaCha20 instance with a 256-bit key.
///
/// Nonces are 96-bit and the block counter 32-bit (the RFC 8439 layout used
/// by ChaCha20-Poly1305).
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    backend: ChaChaBackend,
}

impl ChaCha20 {
    /// Creates an instance on the widest kernel this CPU runs.
    pub fn new(key: &[u8; 32]) -> Self {
        Self::at_tier(key, ChaChaBackend::widest())
    }

    /// Forces the portable scalar backend (for tests and cross-checks).
    pub fn new_soft(key: &[u8; 32]) -> Self {
        Self::at_tier(key, ChaChaBackend::Soft)
    }

    /// Creates an instance pinned to `tier`. Panics if the tier is not
    /// [`ChaChaBackend::supported`]: the kernels' safety rests on that check.
    pub(crate) fn at_tier(key: &[u8; 32], tier: ChaChaBackend) -> Self {
        assert!(tier.supported(), "{tier:?} kernel not runnable here");
        let mut words = [0u32; 8];
        for (w, b) in words.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        ChaCha20 {
            key: words,
            backend: tier,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend(&self) -> ChaChaBackend {
        self.backend
    }

    /// XORs `data` with the keystream starting at block `counter`
    /// (incrementing per 64-byte block, wrapping mod 2^32). XORing zeros
    /// yields the keystream itself.
    pub fn xor(&self, nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
        let n = [
            u32::from_le_bytes([nonce[0], nonce[1], nonce[2], nonce[3]]),
            u32::from_le_bytes([nonce[4], nonce[5], nonce[6], nonce[7]]),
            u32::from_le_bytes([nonce[8], nonce[9], nonce[10], nonce[11]]),
        ];
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `at_tier` admits a SIMD tier only when `supported` saw the
        // CPU report every feature that tier's entry point enables.
        unsafe {
            match self.backend {
                ChaChaBackend::Soft => {}
                ChaChaBackend::Sse2 => return rows::xor_sse2(&self.key, &n, counter, data),
                ChaChaBackend::Avx2 => return rows::xor_avx2(&self.key, &n, counter, data),
                ChaChaBackend::Avx512 => return rows::xor_avx512(&self.key, &n, counter, data),
            }
        }
        xor_by_block(counter, data, |ctr, block| {
            block_soft(&self.key, &n, ctr, block)
        });
    }
}

/// XORs `data` one 64-byte block at a time through `xor_block(counter,
/// block)`; a final partial block goes through a zero-padded stack copy, so
/// `xor_block` only ever sees whole blocks.
#[inline(always)]
fn xor_by_block(counter: u32, data: &mut [u8], mut xor_block: impl FnMut(u32, &mut [u8; 64])) {
    let mut ctr = counter;
    let mut blocks = data.chunks_exact_mut(64);
    for block in &mut blocks {
        xor_block(ctr, block.try_into().expect("chunks_exact yields 64 bytes"));
        ctr = ctr.wrapping_add(1);
    }
    let rest = blocks.into_remainder();
    if !rest.is_empty() {
        let mut block = [0u8; 64];
        block[..rest.len()].copy_from_slice(rest);
        xor_block(ctr, &mut block);
        rest.copy_from_slice(&block[..rest.len()]);
    }
}

#[inline(always)]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// XORs the keystream block at `counter` into `out`.
fn block_soft(key: &[u32; 8], nonce: &[u32; 3], counter: u32, out: &mut [u8; 64]) {
    let mut init = [0u32; 16];
    init[..4].copy_from_slice(&SIGMA);
    init[4..12].copy_from_slice(key);
    init[12] = counter;
    init[13..].copy_from_slice(nonce);

    let mut s = init;
    for _ in 0..10 {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    // Keystream to a local first: with the output kept apart from the
    // state the compiler vectorises the feed-forward, the XOR and part of
    // the rounds (1.3 vs 2.4 ns/B measured when XORing word by word).
    let mut ks = [0u8; 64];
    for i in 0..16 {
        ks[4 * i..4 * i + 4].copy_from_slice(&s[i].wrapping_add(init[i]).to_le_bytes());
    }
    for (o, k) in out.iter_mut().zip(ks) {
        *o ^= k;
    }
}

/// The row-layout multi-block kernel and its three register widths.
#[cfg(target_arch = "x86_64")]
mod rows {
    use super::{xor_by_block, SIGMA};
    use std::arch::x86_64::*;

    /// A register of [`Rows::BLOCKS`] 128-bit lanes, lane `i` holding one
    /// row (four state words) of block `i`. The methods are the handful of
    /// operations the ChaCha20 body needs, spelled per width.
    ///
    /// # Safety
    /// Every method executes the width's instructions: callers must have
    /// verified the CPU features of the entry point they are inlined into
    /// ([`xor_sse2`], [`xor_avx2`], [`xor_avx512`]).
    trait Rows: Copy {
        /// Blocks per register.
        const BLOCKS: usize;
        /// `row` in every lane.
        unsafe fn splat(row: __m128i) -> Self;
        /// `[i, 0, 0, 0]` in lane `i`: the per-lane block-counter offsets.
        unsafe fn lane_index() -> Self;
        /// Word-wise wrapping add.
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn xor(self, o: Self) -> Self;
        /// Rotates every word left by `L` bits; `R` must equal `32 - L`
        /// (shift intrinsics take immediates, so both are spelled out).
        unsafe fn rol<const L: i32, const R: i32>(self) -> Self;
        /// `pshufd` within every lane: the (un)diagonalising word rotation.
        unsafe fn lane_words<const IMM: i32>(self) -> Self;
        /// XORs the `BLOCKS` keystream blocks held as rows `[a, b, c, d]`
        /// into `out` (`64 * BLOCKS` bytes) in block order — the 4×4 lane
        /// shuffle — with full-width unaligned loads and stores.
        unsafe fn xor_into(rows: [Self; 4], out: &mut [u8]);
    }

    impl Rows for __m128i {
        const BLOCKS: usize = 1;
        #[inline(always)]
        unsafe fn splat(row: __m128i) -> Self {
            row
        }
        #[inline(always)]
        unsafe fn lane_index() -> Self {
            _mm_setzero_si128()
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm_add_epi32(self, o)
        }
        #[inline(always)]
        unsafe fn xor(self, o: Self) -> Self {
            _mm_xor_si128(self, o)
        }
        #[inline(always)]
        unsafe fn rol<const L: i32, const R: i32>(self) -> Self {
            _mm_or_si128(_mm_slli_epi32::<L>(self), _mm_srli_epi32::<R>(self))
        }
        #[inline(always)]
        unsafe fn lane_words<const IMM: i32>(self) -> Self {
            _mm_shuffle_epi32::<IMM>(self)
        }
        #[inline(always)]
        unsafe fn xor_into(rows: [Self; 4], out: &mut [u8]) {
            assert_eq!(out.len(), 64);
            let p = out.as_mut_ptr().cast::<__m128i>();
            for (i, row) in rows.into_iter().enumerate() {
                // SAFETY (memory): `out` is 64 bytes (asserted), `i < 4`.
                _mm_storeu_si128(p.add(i), _mm_xor_si128(_mm_loadu_si128(p.add(i)), row));
            }
        }
    }

    impl Rows for __m256i {
        const BLOCKS: usize = 2;
        #[inline(always)]
        unsafe fn splat(row: __m128i) -> Self {
            _mm256_broadcastsi128_si256(row)
        }
        #[inline(always)]
        unsafe fn lane_index() -> Self {
            _mm256_set_epi32(0, 0, 0, 1, 0, 0, 0, 0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_epi32(self, o)
        }
        #[inline(always)]
        unsafe fn xor(self, o: Self) -> Self {
            _mm256_xor_si256(self, o)
        }
        #[inline(always)]
        unsafe fn rol<const L: i32, const R: i32>(self) -> Self {
            // Whole-byte rotations are one byte shuffle.
            let bytes = |lo: i64, hi: i64| _mm256_set_epi64x(hi, lo, hi, lo);
            match L {
                16 => {
                    _mm256_shuffle_epi8(self, bytes(0x0504_0706_0100_0302, 0x0d0c_0f0e_0908_0b0a))
                }
                8 => _mm256_shuffle_epi8(self, bytes(0x0605_0407_0201_0003, 0x0e0d_0c0f_0a09_080b)),
                _ => _mm256_or_si256(_mm256_slli_epi32::<L>(self), _mm256_srli_epi32::<R>(self)),
            }
        }
        #[inline(always)]
        unsafe fn lane_words<const IMM: i32>(self) -> Self {
            _mm256_shuffle_epi32::<IMM>(self)
        }
        #[inline(always)]
        unsafe fn xor_into([a, b, c, d]: [Self; 4], out: &mut [u8]) {
            assert_eq!(out.len(), 128);
            let blocks = [
                _mm256_permute2x128_si256::<0x20>(a, b),
                _mm256_permute2x128_si256::<0x20>(c, d),
                _mm256_permute2x128_si256::<0x31>(a, b),
                _mm256_permute2x128_si256::<0x31>(c, d),
            ];
            let p = out.as_mut_ptr().cast::<__m256i>();
            for (i, ks) in blocks.into_iter().enumerate() {
                // SAFETY (memory): `out` is 128 bytes (asserted), `i < 4`.
                let v = _mm256_xor_si256(_mm256_loadu_si256(p.add(i)), ks);
                _mm256_storeu_si256(p.add(i), v);
            }
        }
    }

    impl Rows for __m512i {
        const BLOCKS: usize = 4;
        #[inline(always)]
        unsafe fn splat(row: __m128i) -> Self {
            _mm512_broadcast_i32x4(row)
        }
        #[inline(always)]
        unsafe fn lane_index() -> Self {
            _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm512_add_epi32(self, o)
        }
        #[inline(always)]
        unsafe fn xor(self, o: Self) -> Self {
            _mm512_xor_si512(self, o)
        }
        #[inline(always)]
        unsafe fn rol<const L: i32, const R: i32>(self) -> Self {
            _mm512_rol_epi32::<L>(self)
        }
        #[inline(always)]
        unsafe fn lane_words<const IMM: i32>(self) -> Self {
            _mm512_shuffle_epi32::<IMM>(self)
        }
        #[inline(always)]
        unsafe fn xor_into([a, b, c, d]: [Self; 4], out: &mut [u8]) {
            assert_eq!(out.len(), 256);
            // [a0 a1 b0 b1], [c0 c1 d0 d1], [a2 a3 b2 b3], [c2 c3 d2 d3] …
            let ab_lo = _mm512_shuffle_i32x4::<0x44>(a, b);
            let cd_lo = _mm512_shuffle_i32x4::<0x44>(c, d);
            let ab_hi = _mm512_shuffle_i32x4::<0xEE>(a, b);
            let cd_hi = _mm512_shuffle_i32x4::<0xEE>(c, d);
            // … then even lanes are block 0 (2), odd lanes block 1 (3).
            let blocks = [
                _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo),
                _mm512_shuffle_i32x4::<0xDD>(ab_lo, cd_lo),
                _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi),
                _mm512_shuffle_i32x4::<0xDD>(ab_hi, cd_hi),
            ];
            let p = out.as_mut_ptr().cast::<__m512i>();
            for (i, ks) in blocks.into_iter().enumerate() {
                // SAFETY (memory): `out` is 256 bytes (asserted), `i < 4`.
                let v = _mm512_xor_si512(_mm512_loadu_si512(p.add(i).cast()), ks);
                _mm512_storeu_si512(p.add(i).cast(), v);
            }
        }
    }

    /// The three key rows (σ, key words 0–3, key words 4–7) and the nonce.
    #[derive(Clone, Copy)]
    struct Schedule {
        rows: [__m128i; 3],
        nonce: [u32; 3],
    }

    impl Schedule {
        /// Row 3 of the block at `counter`.
        #[inline(always)]
        unsafe fn counter_row(&self, counter: u32) -> __m128i {
            let [n0, n1, n2] = self.nonce;
            _mm_set_epi32(n2 as i32, n1 as i32, n0 as i32, counter as i32)
        }
    }

    /// The one ChaCha20 body: XORs `SETS * V::BLOCKS` keystream blocks,
    /// starting at block `counter`, into `data` (exactly that many × 64
    /// bytes). `SETS` independent register sets step through the 20 rounds
    /// one operation at a time so each dependent chain has `SETS − 1` others
    /// to hide behind. Lane `l` of set `s` carries block
    /// `counter + s·BLOCKS + l`; the add is per 32-bit word, so the counter
    /// wraps mod 2³² and never carries into the nonce.
    #[inline(always)]
    unsafe fn xor_sets<V: Rows, const SETS: usize>(key: &Schedule, counter: u32, data: &mut [u8]) {
        assert_eq!(data.len(), SETS * V::BLOCKS * 64);
        let [a0, b0, c0] = key.rows.map(|r| V::splat(r));
        let step = V::splat(_mm_set_epi32(0, 0, 0, V::BLOCKS as i32));
        let mut d0 = [V::splat(key.counter_row(counter)).add(V::lane_index()); SETS];
        for s in 1..SETS {
            d0[s] = d0[s - 1].add(step);
        }
        let (mut a, mut b, mut c, mut d) = ([a0; SETS], [b0; SETS], [c0; SETS], d0);

        macro_rules! each_set {
            (|$s:ident| $body:expr) => {
                for $s in 0..SETS {
                    $body;
                }
            };
        }
        // One quarter-round on all four columns (or diagonals) of every
        // block in flight.
        macro_rules! round {
            () => {
                each_set!(|s| a[s] = a[s].add(b[s]));
                each_set!(|s| d[s] = d[s].xor(a[s]).rol::<16, 16>());
                each_set!(|s| c[s] = c[s].add(d[s]));
                each_set!(|s| b[s] = b[s].xor(c[s]).rol::<12, 20>());
                each_set!(|s| a[s] = a[s].add(b[s]));
                each_set!(|s| d[s] = d[s].xor(a[s]).rol::<8, 24>());
                each_set!(|s| c[s] = c[s].add(d[s]));
                each_set!(|s| b[s] = b[s].xor(c[s]).rol::<7, 25>());
            };
        }
        for _ in 0..10 {
            round!();
            // Diagonalise: rotate the words of rows b/c/d left by 1/2/3.
            each_set!(|s| b[s] = b[s].lane_words::<0b00_11_10_01>());
            each_set!(|s| c[s] = c[s].lane_words::<0b01_00_11_10>());
            each_set!(|s| d[s] = d[s].lane_words::<0b10_01_00_11>());
            round!();
            each_set!(|s| b[s] = b[s].lane_words::<0b10_01_00_11>());
            each_set!(|s| c[s] = c[s].lane_words::<0b01_00_11_10>());
            each_set!(|s| d[s] = d[s].lane_words::<0b00_11_10_01>());
        }
        for (s, out) in data.chunks_exact_mut(V::BLOCKS * 64).enumerate() {
            let ks = [a[s].add(a0), b[s].add(b0), c[s].add(c0), d[s].add(d0[s])];
            V::xor_into(ks, out);
        }
    }

    /// Runs `xor_sets::<V, SETS>` over every whole stride of `data`,
    /// advancing `counter`; returns the unprocessed remainder.
    #[inline(always)]
    unsafe fn sweep<'a, V: Rows, const SETS: usize>(
        key: &Schedule,
        counter: &mut u32,
        data: &'a mut [u8],
    ) -> &'a mut [u8] {
        let blocks = SETS * V::BLOCKS;
        let mut strides = data.chunks_exact_mut(blocks * 64);
        for stride in &mut strides {
            xor_sets::<V, SETS>(key, *counter, stride);
            *counter = counter.wrapping_add(blocks as u32);
        }
        strides.into_remainder()
    }

    /// The ladder every width shares: four-set strides, then one register
    /// set at a time, then single blocks (the 128-bit instance), the last of
    /// them partial.
    #[inline(always)]
    unsafe fn xor_wide<V: Rows>(key: &[u32; 8], nonce: &[u32; 3], counter: u32, data: &mut [u8]) {
        let row = |w: &[u32]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
        let key = Schedule {
            rows: [row(&SIGMA), row(&key[..4]), row(&key[4..])],
            nonce: *nonce,
        };
        let mut counter = counter;
        let rest = sweep::<V, 4>(&key, &mut counter, data);
        let rest = sweep::<V, 1>(&key, &mut counter, rest);
        xor_by_block(counter, rest, |ctr, block| {
            xor_sets::<__m128i, 1>(&key, ctr, block)
        });
    }

    /// XORs `data` with the keystream from block `counter`, 4 blocks per
    /// stride.
    ///
    /// # Safety
    /// The CPU must support SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn xor_sse2(key: &[u32; 8], nonce: &[u32; 3], counter: u32, data: &mut [u8]) {
        xor_wide::<__m128i>(key, nonce, counter, data)
    }

    /// XORs `data` with the keystream from block `counter`, 8 blocks per
    /// stride.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_avx2(key: &[u32; 8], nonce: &[u32; 3], counter: u32, data: &mut [u8]) {
        xor_wide::<__m256i>(key, nonce, counter, data)
    }

    /// XORs `data` with the keystream from block `counter`, 16 blocks per
    /// stride.
    ///
    /// # Safety
    /// The CPU must support AVX-512F and AVX-512VL.
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    pub(super) unsafe fn xor_avx512(
        key: &[u32; 8],
        nonce: &[u32; 3],
        counter: u32,
        data: &mut [u8],
    ) {
        xor_wide::<__m512i>(key, nonce, counter, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    fn rfc_key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    /// One instance of `key` per runnable tier, the scalar reference first.
    fn each_tier(key: &[u8; 32]) -> Vec<ChaCha20> {
        let tiers = ChaChaBackend::ALL.into_iter().filter(|t| t.supported());
        tiers.map(|t| ChaCha20::at_tier(key, t)).collect()
    }

    /// RFC 8439 §2.3.2: the block function test vector, on every tier.
    #[test]
    fn block_function_known_answer() {
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&hex("000000090000004a00000000"));
        let expect = hex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        for cipher in each_tier(&rfc_key()) {
            let mut block = [0u8; 64];
            cipher.xor(&nonce, 1, &mut block);
            assert_eq!(&block[..], &expect[..], "{:?}", cipher.backend());
        }
    }

    /// RFC 8439 §2.4.2: the encryption test vector, on every tier.
    #[test]
    fn encryption_known_answer() {
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&hex("000000000000004a00000000"));
        let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let expect = hex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        for cipher in each_tier(&rfc_key()) {
            let mut buf = pt.to_vec();
            cipher.xor(&nonce, 1, &mut buf);
            assert_eq!(buf, expect, "{:?}", cipher.backend());
            // XOR is its own inverse.
            cipher.xor(&nonce, 1, &mut buf);
            assert_eq!(&buf[..], &pt[..]);
        }
    }

    /// Dispatch picks the widest runnable tier, `new_soft` the reference,
    /// and the forced-soft override reaches no SIMD tier.
    #[test]
    fn dispatch_selects_widest_tier_and_honours_forced_soft() {
        let tiers = each_tier(&rfc_key());
        let widest = tiers.last().unwrap().backend();
        assert_eq!(ChaCha20::new(&rfc_key()).backend(), widest);
        assert_eq!(
            ChaCha20::new_soft(&rfc_key()).backend(),
            ChaChaBackend::Soft
        );
        assert_eq!(tiers[0].backend(), ChaChaBackend::Soft);
        if crate::dispatch::force_soft() {
            assert_eq!(tiers.len(), 1);
        }
    }

    /// The scalar reference keystream, generated one block per call so no
    /// multi-block logic (strides, ladders, lane counters) is shared with
    /// what it checks.
    fn reference_keystream(key: &[u8; 32], nonce: &[u8; 12], counter: u32, len: usize) -> Vec<u8> {
        let soft = ChaCha20::new_soft(key);
        let mut out = vec![0u8; len];
        for (i, block) in out.chunks_mut(64).enumerate() {
            soft.xor(nonce, counter.wrapping_add(i as u32), block);
        }
        out
    }

    /// Every tier's keystream equals the scalar reference at lengths that
    /// straddle every stride and tail class of every width, from counters
    /// that include a wrap of the 32-bit block counter in mid-stride.
    #[test]
    fn every_tier_computes_the_same_keystream() {
        let key = rfc_key();
        let nonce = [7u8; 12];
        let mut lens = vec![0usize, 1, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025];
        if !cfg!(miri) {
            lens.extend([16 * 1024 + 28, 70_001]);
        }
        for cipher in each_tier(&key) {
            for &len in &lens {
                for counter in [0u32, 1, u32::MAX - 5] {
                    let expect = reference_keystream(&key, &nonce, counter, len);
                    let mut got = vec![0u8; len];
                    cipher.xor(&nonce, counter, &mut got);
                    assert!(
                        got == expect,
                        "{:?} len={len} counter={counter:#x}",
                        cipher.backend()
                    );
                    // And it is XORed into the data, not written over it.
                    cipher.xor(&nonce, counter, &mut got);
                    assert!(got.iter().all(|&b| b == 0), "{:?}", cipher.backend());
                }
            }
        }
    }
}
