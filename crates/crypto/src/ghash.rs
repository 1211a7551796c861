//! GHASH — the universal hash over GF(2^128) used by GCM (NIST SP 800-38D §6.4).
//!
//! Three multiplication backends:
//! - a portable bitwise reference implementation (`gf128_mul_soft`);
//! - a portable byte-serial table-driven implementation (Shoup's method);
//! - a PCLMULQDQ carry-less-multiply fast path on x86-64 with 4-block
//!   aggregation over precomputed powers of H.
//!
//! Field elements use GCM's reflected bit order: bit 0 of a block is the most
//! significant bit of its first byte. Blocks are converted to `u128` with
//! big-endian loads, which makes "bit 0" the `u128` MSB and the reduction
//! polynomial `R = 0xE1 << 120`.

/// The GCM reduction constant: x^128 = x^7 + x^2 + x + 1 in reflected form.
const R: u128 = 0xE1u128 << 120;

/// Multiplies two GF(2^128) elements (reference, portable).
pub fn gf128_mul_soft(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// Which multiplication backend a [`GHash`] instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulBackend {
    /// Portable bitwise implementation (the reference; 128 steps/block).
    Soft,
    /// Portable byte-serial implementation with a per-key 4 KiB table
    /// (Shoup's method): ~8× faster than bitwise, no special instructions.
    SoftTable,
    /// x86-64 PCLMULQDQ carry-less multiply.
    Pclmul,
}

/// Multiplication of the low-byte field element by x^8 — the per-byte
/// Horner step of the table-driven path. Key-independent, built once.
fn x8_reduce_table() -> &'static [u128; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u128; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        // The element x^8 has coefficient bit 127-8 set.
        let x8 = 1u128 << 119;
        let mut t = [0u128; 256];
        for (v, slot) in t.iter_mut().enumerate() {
            *slot = gf128_mul_soft(v as u128, x8);
        }
        t
    })
}

/// Per-key byte table: `T[b] = (b as the degree-0..7 element) · H`.
fn byte_table(h: u128) -> std::sync::Arc<[u128; 256]> {
    let mut t = [0u128; 256];
    for (b, slot) in t.iter_mut().enumerate() {
        // Byte b in block-byte-0 position = most significant byte of the
        // big-endian u128.
        *slot = gf128_mul_soft((b as u128) << 120, h);
    }
    std::sync::Arc::new(t)
}

/// Byte-serial multiply-by-H using the per-key table (Horner over the 16
/// bytes of `x`, degree-descending).
fn mul_h_table(table: &[u128; 256], x: u128) -> u128 {
    let reduce = x8_reduce_table();
    let bytes = x.to_be_bytes();
    let mut z = 0u128;
    for &b in bytes.iter().rev() {
        // z := z·x^8 + T[b]
        z = (z >> 8) ^ reduce[(z & 0xFF) as usize] ^ table[b as usize];
    }
    z
}

/// Multiplies a GHASH field element by x (one step of the reduction walk).
/// This is `mulX_GHASH` from RFC 8452 Appendix A, used to translate a
/// POLYVAL key into the GHASH representation.
pub(crate) fn mulx_ghash(v: u128) -> u128 {
    let lsb = v & 1;
    let mut v = v >> 1;
    if lsb == 1 {
        v ^= R;
    }
    v
}

pub(crate) fn detect_backend() -> MulBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if !crate::dispatch::force_soft()
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            return MulBackend::Pclmul;
        }
    }
    MulBackend::Soft
}

/// Incremental GHASH state keyed by `H = E_K(0^128)`.
///
/// Cloning is allocation-free (the per-key table is shared), so a long-lived
/// instance can serve as a per-key prototype: build once with [`GHash::new`],
/// then stamp out fresh accumulators with [`GHash::fresh`] on every message.
#[derive(Clone)]
pub struct GHash {
    h: u128,
    acc: u128,
    backend: MulBackend,
    /// Per-key byte table (SoftTable backend only), shared across clones.
    table: Option<std::sync::Arc<[u128; 256]>>,
    /// H¹..H⁴ for aggregated multiplies (Pclmul backend only; zeroed
    /// otherwise to keep portable key setup cheap).
    powers: [u128; 4],
}

impl GHash {
    /// Creates a GHASH instance for hash subkey `h` (16 bytes, wire order),
    /// selecting the fastest available backend (PCLMULQDQ, else the
    /// table-driven portable path).
    pub fn new(h: &[u8; 16]) -> Self {
        match detect_backend() {
            MulBackend::Pclmul => {
                let mut g = GHash {
                    backend: MulBackend::Pclmul,
                    ..GHash::new_soft(h)
                };
                g.powers = g.h_powers();
                g
            }
            _ => GHash::new_soft_table(h),
        }
    }

    /// Creates an instance pinned to the portable bitwise reference
    /// (for cross-checks).
    pub fn new_soft(h: &[u8; 16]) -> Self {
        GHash {
            h: u128::from_be_bytes(*h),
            acc: 0,
            backend: MulBackend::Soft,
            table: None,
            powers: [0; 4],
        }
    }

    /// Creates an instance pinned to the table-driven portable backend.
    pub fn new_soft_table(h: &[u8; 16]) -> Self {
        let soft = GHash::new_soft(h);
        GHash {
            backend: MulBackend::SoftTable,
            table: Some(byte_table(soft.h)),
            ..soft
        }
    }

    /// A fresh accumulator sharing this instance's key material. No
    /// allocation: the byte table (if any) is reference-counted.
    pub fn fresh(&self) -> GHash {
        let mut g = self.clone();
        g.acc = 0;
        g
    }

    /// The multiplication backend in use.
    pub fn backend(&self) -> MulBackend {
        self.backend
    }

    /// The raw accumulator (for the fused CTR+GHASH kernel).
    #[inline]
    pub(crate) fn acc_raw(&self) -> u128 {
        self.acc
    }

    /// Overwrites the raw accumulator (for the fused CTR+GHASH kernel).
    #[inline]
    pub(crate) fn set_acc_raw(&mut self, acc: u128) {
        self.acc = acc;
    }

    /// Precomputed H¹..H⁴ (Pclmul backend only).
    #[inline]
    pub(crate) fn powers(&self) -> &[u128; 4] {
        &self.powers
    }

    /// H¹..Hᴺ, ascending, computed with this instance's own (dispatched)
    /// multiply — key set-up for the aggregated kernels.
    pub(crate) fn h_powers<const N: usize>(&self) -> [u128; N] {
        let mut p = [self.h; N];
        for i in 1..N {
            p[i] = self.mul_h(p[i - 1]);
        }
        p
    }

    #[inline]
    fn mul_h(&self, x: u128) -> u128 {
        match self.backend {
            MulBackend::Soft => gf128_mul_soft(x, self.h),
            MulBackend::SoftTable => {
                mul_h_table(self.table.as_deref().expect("table built at init"), x)
            }
            MulBackend::Pclmul => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: backend is Pclmul only when the CPU reports
                // pclmulqdq + sse2 + ssse3 support.
                unsafe {
                    pclmul::gf128_mul(x, self.h)
                }
                #[cfg(not(target_arch = "x86_64"))]
                gf128_mul_soft(x, self.h)
            }
        }
    }

    /// Absorbs one full 16-byte block.
    #[inline]
    pub fn update_block(&mut self, block: &[u8; 16]) {
        self.acc = self.mul_h(self.acc ^ u128::from_be_bytes(*block));
    }

    /// Absorbs `data`, zero-padding the final partial block (GHASH padding).
    pub fn update_padded(&mut self, data: &[u8]) {
        let full = data.len() - data.len() % 16;
        // Bulk path: keep the accumulator in an SSE register across blocks.
        #[cfg(target_arch = "x86_64")]
        if self.backend == MulBackend::Pclmul && full > 0 {
            // SAFETY: backend is Pclmul only when pclmulqdq+sse2+ssse3 are
            // reported by the CPU.
            self.acc = unsafe { pclmul::ghash_blocks(self.acc, &self.powers, &data[..full]) };
        } else {
            self.update_full_blocks_soft(&data[..full]);
        }
        #[cfg(not(target_arch = "x86_64"))]
        self.update_full_blocks_soft(&data[..full]);

        let rem = &data[full..];
        if !rem.is_empty() {
            let mut b = [0u8; 16];
            b[..rem.len()].copy_from_slice(rem);
            self.update_block(&b);
        }
    }

    fn update_full_blocks_soft(&mut self, data: &[u8]) {
        for chunk in data.chunks_exact(16) {
            let mut b = [0u8; 16];
            b.copy_from_slice(chunk);
            self.update_block(&b);
        }
    }

    /// Absorbs the GCM length block: `[len(A)]64 || [len(C)]64` in bits.
    pub fn update_lengths(&mut self, aad_bytes: u64, ct_bytes: u64) {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&(aad_bytes * 8).to_be_bytes());
        b[8..].copy_from_slice(&(ct_bytes * 8).to_be_bytes());
        self.update_block(&b);
    }

    /// Returns the current accumulator as a 16-byte block.
    pub fn finalize(&self) -> [u8; 16] {
        self.acc.to_be_bytes()
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod pclmul {
    use std::arch::x86_64::*;

    /// Loads a GCM field element (given as a big-endian `u128`, the same
    /// convention as the portable code) into an SSE register in *reflected*
    /// layout: byte 0 of the block in lane 15. In this layout the classic
    /// Intel "GCM with bit-reflected data" multiply below applies directly.
    /// On little-endian x86 that register is the `u128`'s own memory image,
    /// so tables of elements (`[u128; N]`) load as they lie.
    #[inline(always)]
    pub(crate) unsafe fn load_elem(x: u128) -> __m128i {
        std::mem::transmute(x)
    }

    #[inline(always)]
    pub(crate) unsafe fn store_elem(v: __m128i) -> u128 {
        std::mem::transmute(v)
    }

    /// The `PSHUFB` control that byte-reverses 16 lanes.
    #[inline(always)]
    pub(crate) unsafe fn bswap_mask() -> __m128i {
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
    }

    /// Byte-reverses the 16 lanes.
    #[inline(always)]
    pub(crate) unsafe fn bswap(v: __m128i) -> __m128i {
        _mm_shuffle_epi8(v, bswap_mask())
    }

    /// Raw 256-bit carry-less product of two 128-bit operands
    /// (Karatsuba-free schoolbook: 4 PCLMULQDQs), returned as (lo, hi).
    #[inline(always)]
    pub(crate) unsafe fn clmul256(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
        let mut lo = _mm_clmulepi64_si128(a, b, 0x00);
        let mut mid = _mm_clmulepi64_si128(a, b, 0x10);
        let mid2 = _mm_clmulepi64_si128(a, b, 0x01);
        let mut hi = _mm_clmulepi64_si128(a, b, 0x11);
        mid = _mm_xor_si128(mid, mid2);
        lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
        hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
        (lo, hi)
    }

    /// Finishes a (possibly aggregated) 256-bit product of bit-reflected
    /// operands — the well-known sequence from Intel's GCM white paper:
    /// shift left by one (reflection fixup), then reduce modulo
    /// x^128 + x^7 + x^2 + x + 1. Both steps are linear, so products may be
    /// XOR-summed before a single call.
    #[inline(always)]
    pub(crate) unsafe fn shift_reduce(mut tmp3: __m128i, mut tmp6: __m128i) -> __m128i {
        // Shift the 256-bit product left by 1 bit.
        let tmp7 = _mm_srli_epi32(tmp3, 31);
        let tmp8 = _mm_srli_epi32(tmp6, 31);
        tmp3 = _mm_slli_epi32(tmp3, 1);
        tmp6 = _mm_slli_epi32(tmp6, 1);
        let tmp9 = _mm_srli_si128(tmp7, 12);
        let tmp8s = _mm_slli_si128(tmp8, 4);
        let tmp7s = _mm_slli_si128(tmp7, 4);
        tmp3 = _mm_or_si128(tmp3, tmp7s);
        tmp6 = _mm_or_si128(tmp6, tmp8s);
        tmp6 = _mm_or_si128(tmp6, tmp9);

        // Reduction.
        let tmp7r = _mm_slli_epi32(tmp3, 31);
        let tmp8r = _mm_slli_epi32(tmp3, 30);
        let tmp9r = _mm_slli_epi32(tmp3, 25);
        let mut tmp7x = _mm_xor_si128(tmp7r, tmp8r);
        tmp7x = _mm_xor_si128(tmp7x, tmp9r);
        let tmp8x = _mm_srli_si128(tmp7x, 4);
        let tmp7y = _mm_slli_si128(tmp7x, 12);
        tmp3 = _mm_xor_si128(tmp3, tmp7y);

        let mut tmp2 = _mm_srli_epi32(tmp3, 1);
        let tmp4r = _mm_srli_epi32(tmp3, 2);
        let tmp5r = _mm_srli_epi32(tmp3, 7);
        tmp2 = _mm_xor_si128(tmp2, tmp4r);
        tmp2 = _mm_xor_si128(tmp2, tmp5r);
        tmp2 = _mm_xor_si128(tmp2, tmp8x);
        tmp3 = _mm_xor_si128(tmp3, tmp2);
        _mm_xor_si128(tmp6, tmp3)
    }

    /// One GF(2^128) multiply of bit-reflected operands.
    #[inline(always)]
    pub(crate) unsafe fn mul_reflected(a: __m128i, b: __m128i) -> __m128i {
        let (lo, hi) = clmul256(a, b);
        shift_reduce(lo, hi)
    }

    /// GF(2^128) multiply in GCM's representation (big-endian `u128`s, as
    /// in [`super::gf128_mul_soft`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "ssse3")]
    pub unsafe fn gf128_mul(x: u128, y: u128) -> u128 {
        let a = load_elem(x);
        let b = load_elem(y);
        store_elem(mul_reflected(a, b))
    }

    /// Aggregates four bit-reflected blocks into the accumulator with one
    /// reduction: `acc' = (acc^B0)·H⁴ ⊕ B1·H³ ⊕ B2·H² ⊕ B3·H`.
    #[inline(always)]
    pub(crate) unsafe fn ghash4(
        a: __m128i,
        b: [__m128i; 4],
        h1: __m128i,
        h2: __m128i,
        h3: __m128i,
        h4: __m128i,
    ) -> __m128i {
        let (mut lo, mut hi) = clmul256(_mm_xor_si128(a, b[0]), h4);
        let (l1, h1p) = clmul256(b[1], h3);
        let (l2, h2p) = clmul256(b[2], h2);
        let (l3, h3p) = clmul256(b[3], h1);
        lo = _mm_xor_si128(_mm_xor_si128(lo, l1), _mm_xor_si128(l2, l3));
        hi = _mm_xor_si128(_mm_xor_si128(hi, h1p), _mm_xor_si128(h2p, h3p));
        shift_reduce(lo, hi)
    }

    /// Absorbs full 16-byte blocks, keeping the accumulator in a register
    /// throughout. Four blocks are aggregated per reduction using the
    /// precomputed `powers` H¹..H⁴ (see [`ghash4`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "ssse3")]
    pub unsafe fn ghash_blocks(acc: u128, powers: &[u128; 4], data: &[u8]) -> u128 {
        debug_assert_eq!(data.len() % 16, 0);
        let h1 = load_elem(powers[0]);
        let h2 = load_elem(powers[1]);
        let h3 = load_elem(powers[2]);
        let h4 = load_elem(powers[3]);
        let mut a = load_elem(acc);

        let mut chunks = data.chunks_exact(64);
        for quad in &mut chunks {
            let p = quad.as_ptr() as *const __m128i;
            let b = [
                bswap(_mm_loadu_si128(p)),
                bswap(_mm_loadu_si128(p.add(1))),
                bswap(_mm_loadu_si128(p.add(2))),
                bswap(_mm_loadu_si128(p.add(3))),
            ];
            a = ghash4(a, b, h1, h2, h3, h4);
        }
        for chunk in chunks.remainder().chunks_exact(16) {
            let block = bswap(_mm_loadu_si128(chunk.as_ptr() as *const __m128i));
            a = mul_reflected(_mm_xor_si128(a, block), h1);
        }
        store_elem(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test case 2 of the GCM spec (McGrew & Viega): H and a single
    /// ciphertext block with known GHASH output.
    #[test]
    fn ghash_known_answer() {
        // AES-128 key 0^128: H = E_K(0) = 66e94bd4ef8a2c3b884cfa59ca342b2e.
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let c = hex16("0388dace60b6a392f328c2b971b2fe78");
        let mut g = GHash::new_soft(&h);
        g.update_block(&c);
        g.update_lengths(0, 16);
        // GHASH(H, {}, C) from the GCM test vectors.
        assert_eq!(g.finalize(), hex16("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn mul_identity_and_zero() {
        // The multiplicative identity in GCM's representation is the block
        // 0x80 00...00 (bit 0 set), i.e. u128 MSB.
        let one = 1u128 << 127;
        for x in [0u128, 1, 0xdeadbeef, u128::MAX, one] {
            assert_eq!(gf128_mul_soft(x, one), x);
            assert_eq!(gf128_mul_soft(one, x), x);
            assert_eq!(gf128_mul_soft(x, 0), 0);
        }
    }

    #[test]
    fn mul_commutes() {
        let samples = [
            0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128,
            0xffff_0000_ffff_0000_1111_2222_3333_4444u128,
            1u128,
            u128::MAX,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(gf128_mul_soft(a, b), gf128_mul_soft(b, a));
            }
        }
    }

    #[test]
    fn pclmul_matches_soft_when_available() {
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let fast = GHash::new(&h);
        if fast.backend() != MulBackend::Pclmul {
            return; // nothing to cross-check on this CPU
        }
        let samples = [
            0u128,
            1,
            1u128 << 127,
            0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978,
            u128::MAX,
            0x8000_0000_0000_0000_0000_0000_0000_0001,
        ];
        let hval = u128::from_be_bytes(h);
        for &x in &samples {
            #[cfg(target_arch = "x86_64")]
            {
                let want = gf128_mul_soft(x, hval);
                // SAFETY: guarded above — the test returns early unless the
                // detected backend is Pclmul (CPU has pclmulqdq+sse2+ssse3).
                let got = unsafe { pclmul::gf128_mul(x, hval) };
                assert_eq!(got, want, "x = {x:032x}");
            }
        }
    }

    #[test]
    fn bulk_path_matches_soft_for_all_lengths() {
        // Exercises the 4-block aggregated path, its single-block tail, and
        // the padded remainder, against the portable reference.
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        for len in 0..=200usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut fast = GHash::new(&h);
            let mut soft = GHash::new_soft(&h);
            fast.update_padded(&data);
            soft.update_padded(&data);
            assert_eq!(fast.finalize(), soft.finalize(), "len = {len}");
        }
    }

    #[test]
    fn bulk_path_composes_with_prior_state() {
        // Absorbing in two calls must equal absorbing at once (full blocks).
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let data: Vec<u8> = (0..160).map(|i| (i * 7) as u8).collect();
        let mut split = GHash::new(&h);
        split.update_padded(&data[..64]);
        split.update_padded(&data[64..]);
        let mut whole = GHash::new(&h);
        whole.update_padded(&data);
        assert_eq!(split.finalize(), whole.finalize());
    }

    #[test]
    fn table_backend_matches_bitwise_reference() {
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        for len in [0usize, 5, 16, 33, 64, 129] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            let mut table = GHash::new_soft_table(&h);
            let mut soft = GHash::new_soft(&h);
            table.update_padded(&data);
            soft.update_padded(&data);
            assert_eq!(table.finalize(), soft.finalize(), "len = {len}");
        }
    }

    #[test]
    fn table_mul_matches_bitwise_for_edge_elements() {
        let h = u128::from_be_bytes(hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let table = byte_table(h);
        for x in [
            0u128,
            1,
            1u128 << 127,
            u128::MAX,
            0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978,
        ] {
            assert_eq!(mul_h_table(&table, x), gf128_mul_soft(x, h), "x = {x:032x}");
        }
    }

    #[test]
    fn update_padded_pads_with_zeros() {
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let mut a = GHash::new_soft(&h);
        a.update_padded(&[0xAB; 5]);
        let mut b = GHash::new_soft(&h);
        let mut block = [0u8; 16];
        block[..5].copy_from_slice(&[0xAB; 5]);
        b.update_block(&block);
        assert_eq!(a.finalize(), b.finalize());
    }

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }
}
