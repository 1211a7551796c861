//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Poly1305 evaluates the message as a polynomial over the prime field
//! GF(2^130 − 5) at a secret point `r`, then adds a one-time pad `s`.
//!
//! Values are held in radix 2⁴⁴ — three limbs of 44/44/42 bits. One block at
//! a time, Horner's rule `h ← (h + m)·r` is a chain of dependent
//! multiply-and-carry steps, so bulk input is absorbed several blocks per
//! step over precomputed powers of `r`, by the one body [`Poly1305`]'s
//! `PolyBackend` selects:
//!
//! - **portable, four blocks per step** — `u64 × u64 → u128` products, which
//!   every 64-bit target has as one or two instructions:
//!
//!   ```text
//!   h ← (h + m₀)·r⁴ + m₁·r³ + m₂·r² + m₃·r
//!   ```
//!
//!   The four products are independent and their limb columns are summed
//!   in `u128` before **one** carry chain per 64 bytes.
//! - **AVX-512 IFMA, eight blocks per step** (x86-64) — the same radix is
//!   what `VPMADD52LUQ/HUQ` multiply natively: eight 64-bit lanes each run
//!   their own Horner chain over r⁸ (lane `j` takes blocks `j, j+8, …`), the
//!   last step multiplies lane `j` by r⁸⁻ʲ instead, and the lanes are summed.
//!   Whole 128-byte groups go this way; what is left goes the portable way.
//!
//! The powers cost one multiplication each and are only computed for an
//! update that brings enough bytes to use them (`PolyBackend::lanes`).
//! Control flow depends on lengths alone: no branch or index is derived from
//! the key, the message or the accumulator.
//!
//! The key (`r || s`, 32 bytes) must be used for **one** message only; the
//! AEAD construction ([`crate::chacha20poly1305`]) derives a fresh key per
//! nonce from the ChaCha20 block function.

/// A field element: limbs of 44, 44 and 42 bits, little-endian. Limbs may
/// run a few bits over between carries.
type Limbs = [u64; 3];

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Which bulk body a [`Poly1305`] runs. Both compute the same function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolyBackend {
    /// Radix 2⁴⁴ with `u128` products, four blocks per step. Runs anywhere.
    Portable,
    /// Radix 2⁴⁴ on AVX-512 IFMA, eight blocks per step.
    Ifma,
}

impl PolyBackend {
    /// Whether this process may run the backend: the CPU has its
    /// instructions and `EAG_CRYPTO_FORCE_SOFT` is off.
    pub(crate) fn supported(self) -> bool {
        match self {
            PolyBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            PolyBackend::Ifma => !crate::dispatch::force_soft() && ifma::available(),
            #[cfg(not(target_arch = "x86_64"))]
            PolyBackend::Ifma => false,
        }
    }

    /// The widest backend this process may run.
    pub(crate) fn widest() -> PolyBackend {
        if PolyBackend::Ifma.supported() {
            PolyBackend::Ifma
        } else {
            PolyBackend::Portable
        }
    }

    /// How many blocks per step a run of `len` bytes of whole blocks is
    /// absorbed at — which is also the highest power of `r` it needs. Short
    /// runs are not worth the powers: below two steps' worth it drops to the
    /// next narrower body.
    fn lanes(self, len: usize) -> usize {
        match (self, len) {
            (PolyBackend::Ifma, 256..) => 8,
            (_, 128..) => 4,
            _ => 1,
        }
    }
}

/// Incremental Poly1305 state. Feed with [`Poly1305::update`], consume with
/// [`Poly1305::finalize`].
#[derive(Clone)]
pub struct Poly1305 {
    backend: PolyBackend,
    /// The evaluation point r, clamped.
    r: Limbs,
    /// The accumulator.
    h: Limbs,
    /// The pad s, as two LE words.
    pad: [u64; 2],
    /// Bytes buffered toward the next 16-byte block.
    buffer: [u8; 16],
    leftover: usize,
}

/// The first eight bytes of `b`, little-endian.
#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("eight bytes"))
}

/// The 16-byte block `b` as a field element, plus `hibit` (the 2¹²⁸ term:
/// `1 << 40` in limb 2 for a full block, 0 when the caller has already
/// appended the 0x01 terminator to a short final block).
#[inline(always)]
fn block_limbs(b: &[u8], hibit: u64) -> Limbs {
    let (t0, t1) = (le64(&b[..8]), le64(&b[8..16]));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | hibit,
    ]
}

#[inline(always)]
fn add(a: Limbs, b: Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// The three limb columns of `a·b` modulo 2¹³⁰ − 5, uncarried. Limbs that
/// overflow x¹³² wrap around multiplied by 20 (2¹³² ≡ 4·5). With `a` under
/// 2⁴⁶ per limb and `b` carried, a column is under 2⁹⁷: sixteen of them
/// still fit a `u128`.
#[inline(always)]
fn mul_columns(a: Limbs, b: Limbs) -> [u128; 3] {
    let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let [a0, a1, a2] = a;
    let [b0, b1, b2] = b;
    let (s1, s2) = (b1 * 20, b2 * 20);
    [
        m(a0, b0) + m(a1, s2) + m(a2, s1),
        m(a0, b1) + m(a1, b0) + m(a2, s2),
        m(a0, b2) + m(a1, b1) + m(a2, b0),
    ]
}

/// Partial carry propagation of summed columns back to 44/44/42-bit limbs
/// (limb 1 may keep one extra bit; full reduction is deferred to finalize).
#[inline(always)]
fn carry([d0, d1, d2]: [u128; 3]) -> Limbs {
    let d1 = d1 + (d0 >> 44);
    let d2 = d2 + (d1 >> 44);
    let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

impl Poly1305 {
    /// Creates an authenticator from the 32-byte one-time key `r || s`, on
    /// the widest backend this CPU runs. Clamping of `r` (RFC 8439 §2.5) is
    /// applied here.
    pub fn new(key: &[u8; 32]) -> Self {
        Self::at_tier(key, PolyBackend::widest())
    }

    /// Like [`Poly1305::new`] but pinned to `backend`. Panics if the backend
    /// is not [`PolyBackend::supported`]: the kernel's safety rests on that
    /// check.
    pub(crate) fn at_tier(key: &[u8; 32], backend: PolyBackend) -> Self {
        assert!(backend.supported(), "{backend:?} kernel not runnable here");
        let t0 = le64(&key[..8]) & 0x0fff_fffc_0fff_ffff;
        let t1 = le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc;
        let r = [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24];
        Poly1305 {
            backend,
            r,
            h: [0; 3],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            buffer: [0; 16],
            leftover: 0,
        }
    }

    /// Absorbs full 16-byte blocks from `m`, each with `hibit` added (see
    /// [`block_limbs`]): the bulk several blocks per step when the run is
    /// long enough (see [`PolyBackend::lanes`]), the rest one at a time.
    fn blocks(&mut self, m: &[u8], hibit: u64) {
        let lanes = self.backend.lanes(m.len());
        let rest = if lanes > 1 {
            self.bulk(m, hibit, lanes)
        } else {
            m
        };
        let mut h = self.h;
        for block in rest.chunks_exact(16) {
            h = carry(mul_columns(add(h, block_limbs(block, hibit)), self.r));
        }
        self.h = h;
    }

    /// The multi-block body: absorbs whole 128-byte groups eight blocks per
    /// step when `lanes` is 8, then whole 64-byte groups four blocks per
    /// step over r⁴…r¹; returns what is left (under 64 bytes). Kept out of
    /// line so that short updates do not pay for its frame.
    #[inline(never)]
    fn bulk<'a>(&mut self, m: &'a [u8], hibit: u64, lanes: usize) -> &'a [u8] {
        let r = self.r;
        // powers[i] = rⁱ⁺¹ for i < lanes, each from the two powers nearest
        // half its exponent so that the dependency chain is log₂(lanes) deep.
        let mut powers = [r; 8];
        for i in 1..lanes {
            powers[i] = carry(mul_columns(powers[i / 2], powers[(i - 1) / 2]));
        }
        let mut h = self.h;
        let mut rest = m;
        #[cfg(target_arch = "x86_64")]
        if lanes == 8 {
            // SAFETY: `lanes` is 8 only for `PolyBackend::Ifma`, which
            // `at_tier` admits only when `supported` saw the CPU report
            // every feature `ifma::absorb` enables.
            rest = unsafe { ifma::absorb(&mut h, &powers, m, hibit) };
        }
        let [_, r2, r3, r4, ..] = powers;
        let mut groups = rest.chunks_exact(64);
        for g in &mut groups {
            let p0 = mul_columns(add(h, block_limbs(&g[..16], hibit)), r4);
            let p1 = mul_columns(block_limbs(&g[16..32], hibit), r3);
            let p2 = mul_columns(block_limbs(&g[32..48], hibit), r2);
            let p3 = mul_columns(block_limbs(&g[48..], hibit), r);
            h = carry(std::array::from_fn(|i| p0[i] + p1[i] + p2[i] + p3[i]));
        }
        self.h = h;
        groups.remainder()
    }

    /// Absorbs message bytes (any length; buffered to 16-byte blocks).
    pub fn update(&mut self, mut data: &[u8]) {
        if self.leftover > 0 {
            let want = (16 - self.leftover).min(data.len());
            self.buffer[self.leftover..self.leftover + want].copy_from_slice(&data[..want]);
            self.leftover += want;
            data = &data[want..];
            if self.leftover < 16 {
                return;
            }
            let block = self.buffer;
            self.blocks(&block, 1 << 40);
            self.leftover = 0;
        }
        let (whole, tail) = data.split_at(data.len() - data.len() % 16);
        self.blocks(whole, 1 << 40);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.leftover = tail.len();
    }

    /// Completes the MAC: processes the padded final block, fully reduces
    /// the accumulator, and adds the pad `s` modulo 2^128.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.leftover > 0 {
            // Short final block: append 0x01 then zero-fill; the 2^128 bit
            // is therefore already in the data and hibit is 0.
            let mut block = [0u8; 16];
            block[..self.leftover].copy_from_slice(&self.buffer[..self.leftover]);
            block[self.leftover] = 1;
            self.blocks(&block, 0);
        }

        // Full carry propagation: two passes settle every limb.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // Compute g = h + 5 − 2^130; select it when it does not borrow
        // (i.e. when h ≥ 2^130 − 5), branch-free.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let mask = (g2 >> 63).wrapping_sub(1); // all-ones iff no borrow
        h0 = (h0 & !mask) | (g0 & MASK44 & mask);
        h1 = (h1 & !mask) | (g1 & MASK44 & mask);
        h2 = (h2 & !mask) | (g2 & MASK42 & mask);

        // tag = (h + s) mod 2^128, on the low 128 bits as two words.
        let (lo, carry) = (h0 | (h1 << 44)).overflowing_add(self.pad[0]);
        let hi = ((h1 >> 20) | (h2 << 24))
            .wrapping_add(self.pad[1])
            .wrapping_add(u64::from(carry));

        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }
}

/// The eight-lane AVX-512 IFMA body.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{carry, Limbs, MASK42, MASK44};
    use std::arch::x86_64::*;

    /// Bytes absorbed per step (eight blocks).
    const GROUP: usize = 128;

    /// Whether this CPU can run [`absorb`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
    }

    /// A multiplier per lane, limb-sliced, with the two wrap-around limbs
    /// pre-multiplied by 20 (2¹³² ≡ 20).
    struct Multiplier {
        p: [__m512i; 3],
        s1: __m512i,
        s2: __m512i,
    }

    impl Multiplier {
        /// Limb `i` of the multiplier is `p[i]`, lane by lane.
        #[inline(always)]
        unsafe fn new(p: [__m512i; 3]) -> Self {
            // ×20 = ×16 + ×4.
            let x20 = |v| _mm512_add_epi64(_mm512_slli_epi64::<4>(v), _mm512_slli_epi64::<2>(v));
            Multiplier {
                p,
                s1: x20(p[1]),
                s2: x20(p[2]),
            }
        }
    }

    /// `h·m` per lane, partially carried back to 44/44/42-bit limbs (limb 1
    /// may keep a few extra bits). `VPMADD52` multiplies the low 52 bits of
    /// each operand and accumulates the low or the high 52 bits of the
    /// 104-bit product; the high halves weigh 2⁵² = 2⁸·2⁴⁴, i.e. they join
    /// the next limb up shifted by 8 (by 10 out of the 42-bit top limb).
    /// Inputs stay under 2⁵²: limbs of `h` under 2⁴⁶, of `m` under 2⁴⁵,
    /// ×20 under 2⁴⁹.
    #[inline(always)]
    unsafe fn mul_carry([h0, h1, h2]: [__m512i; 3], m: &Multiplier) -> [__m512i; 3] {
        let [p0, p1, p2] = m.p;
        let (s1, s2) = (m.s1, m.s2);
        let z = _mm512_setzero_si512();
        macro_rules! column {
            ($half:ident, $a:expr, $b:expr, $c:expr) => {
                $half($half($half(z, h0, $a), h1, $b), h2, $c)
            };
        }
        let lo = _mm512_madd52lo_epu64;
        let hi = _mm512_madd52hi_epu64;
        let (d0l, d0h) = (column!(lo, p0, s2, s1), column!(hi, p0, s2, s1));
        let (d1l, d1h) = (column!(lo, p1, p0, s2), column!(hi, p1, p0, s2));
        let (d2l, d2h) = (column!(lo, p2, p1, p0), column!(hi, p2, p1, p0));

        let add = _mm512_add_epi64;
        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        let mask42 = _mm512_set1_epi64(MASK42 as i64);
        let d1l = add(
            d1l,
            add(_mm512_srli_epi64::<44>(d0l), _mm512_slli_epi64::<8>(d0h)),
        );
        let d2l = add(
            d2l,
            add(_mm512_srli_epi64::<44>(d1l), _mm512_slli_epi64::<8>(d1h)),
        );
        // What leaves the top limb re-enters at the bottom times 5.
        let c = add(_mm512_srli_epi64::<42>(d2l), _mm512_slli_epi64::<10>(d2h));
        let h0 = add(
            _mm512_and_si512(d0l, mask44),
            add(c, _mm512_slli_epi64::<2>(c)),
        );
        let h1 = add(_mm512_and_si512(d1l, mask44), _mm512_srli_epi64::<44>(h0));
        [
            _mm512_and_si512(h0, mask44),
            h1,
            _mm512_and_si512(d2l, mask42),
        ]
    }

    /// Absorbs every whole 128-byte group of `m` into `h` (each block with
    /// `hibit` added) and returns the remainder. `powers[i]` must hold
    /// rⁱ⁺¹ for all eight entries.
    ///
    /// # Safety
    /// The CPU must support `avx512f` and `avx512ifma` ([`available`]
    /// checks exactly these). All loads come from `m`'s own `chunks_exact`,
    /// so there is no length or alignment precondition.
    #[target_feature(enable = "avx512f", enable = "avx512ifma")]
    pub(super) unsafe fn absorb<'a>(
        h: &mut Limbs,
        powers: &[Limbs; 8],
        m: &'a [u8],
        hibit: u64,
    ) -> &'a [u8] {
        let mut groups = m.chunks_exact(GROUP);
        let count = groups.len();
        if count == 0 {
            return m;
        }
        // Every step but the last advances each lane's chain by r⁸; the last
        // weighs lane j by r⁸⁻ʲ, which lines the eight chains up for the sum.
        let stride = Multiplier::new(powers[7].map(|limb| _mm512_set1_epi64(limb as i64)));
        let finish = Multiplier::new(std::array::from_fn(|i| {
            let lanes: [u64; 8] = std::array::from_fn(|j| powers[7 - j][i]);
            // SAFETY (memory): `lanes` is eight `u64`s, one unaligned zmm.
            _mm512_loadu_si512(lanes.as_ptr().cast())
        }));

        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        let hibit = _mm512_set1_epi64(hibit as i64);
        let low_words = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
        let high_words = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
        // The running accumulator joins block 0, in lane 0.
        let lane0 = |x: u64| _mm512_maskz_set1_epi64(1, x as i64);
        let mut acc = [lane0(h[0]), lane0(h[1]), lane0(h[2])];
        for (i, g) in (&mut groups).enumerate() {
            // SAFETY (memory): `g` is 128 bytes, two unaligned zmm.
            let a = _mm512_loadu_si512(g.as_ptr().cast());
            let b = _mm512_loadu_si512(g.as_ptr().add(64).cast());
            // Word 0 and word 1 of block j to lane j, then the limb split of
            // `block_limbs`; 0xA8 is (x | y) & z.
            let t0 = _mm512_permutex2var_epi64(a, low_words, b);
            let t1 = _mm512_permutex2var_epi64(a, high_words, b);
            let m0 = _mm512_and_si512(t0, mask44);
            let m1 = _mm512_ternarylogic_epi64::<0xA8>(
                _mm512_srli_epi64::<44>(t0),
                _mm512_slli_epi64::<20>(t1),
                mask44,
            );
            let m2 = _mm512_or_si512(_mm512_srli_epi64::<24>(t1), hibit);
            let sum = [
                _mm512_add_epi64(acc[0], m0),
                _mm512_add_epi64(acc[1], m1),
                _mm512_add_epi64(acc[2], m2),
            ];
            acc = mul_carry(sum, if i + 1 == count { &finish } else { &stride });
        }
        // Eight carried limbs sum to under 2⁴⁸; one scalar carry settles them.
        let sum = |v| u128::from(_mm512_reduce_add_epi64(v) as u64);
        *h = carry([sum(acc[0]), sum(acc[1]), sum(acc[2])]);
        groups.remainder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the radix-2⁴⁴ code is checked against: the classic
    /// 26-bit-limb Poly1305 (five limbs, `u64` products, one block per
    /// carry chain), one-shot. It shares no arithmetic with the code above.
    fn mac26(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        const M: u64 = 0x03ff_ffff;
        let le32 = |b: &[u8]| u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        let [r0, r1, r2, r3, r4] = [
            le32(&key[0..4]) & 0x03ff_ffff,
            (le32(&key[3..7]) >> 2) & 0x03ff_ff03,
            (le32(&key[6..10]) >> 4) & 0x03ff_c0ff,
            (le32(&key[9..13]) >> 6) & 0x03f0_3fff,
            (le32(&key[12..16]) >> 8) & 0x000f_ffff,
        ];
        let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);
        let [mut h0, mut h1, mut h2, mut h3, mut h4] = [0u64; 5];

        for chunk in data.chunks(16) {
            let mut block = [0u8; 17];
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()] = 1; // the 2^(8·len) terminator bit
            h0 += le32(&block[0..4]) & M;
            h1 += (le32(&block[3..7]) >> 2) & M;
            h2 += (le32(&block[6..10]) >> 4) & M;
            h3 += (le32(&block[9..13]) >> 6) & M;
            h4 += (le32(&block[12..16]) >> 8) | (u64::from(block[16]) << 24);

            let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
            let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2 + (d0 >> 26);
            let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3 + (d1 >> 26);
            let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4 + (d2 >> 26);
            let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0 + (d3 >> 26);
            h0 = (d0 & M) + (d4 >> 26) * 5;
            h1 = (d1 & M) + (h0 >> 26);
            h0 &= M;
            (h2, h3, h4) = (d2 & M, d3 & M, d4 & M);
        }

        // Full carry, then the conditional subtraction of 2^130 − 5.
        for _ in 0..2 {
            h2 += h1 >> 26;
            h1 &= M;
            h3 += h2 >> 26;
            h2 &= M;
            h4 += h3 >> 26;
            h3 &= M;
            h0 += (h4 >> 26) * 5;
            h4 &= M;
            h1 += h0 >> 26;
            h0 &= M;
        }
        let h = u128::from(h0)
            | u128::from(h1) << 26
            | u128::from(h2) << 52
            | u128::from(h3) << 78
            | u128::from(h4 & 0xff_ffff) << 104;
        let top = h4 >> 24; // bits 128 and 129
        let ge_p = top == 3 && h >= u128::MAX - 4;
        let h = if ge_p { h.wrapping_add(5) } else { h };
        let mut s = [0u8; 16];
        s.copy_from_slice(&key[16..]);
        h.wrapping_add(u128::from_le_bytes(s)).to_le_bytes()
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    fn key_of(s: &str) -> [u8; 32] {
        let mut key = [0u8; 32];
        key.copy_from_slice(&hex(s));
        key
    }

    const RFC_KEY: &str = "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b";

    /// Every backend this process may run, the portable one first.
    fn tiers() -> impl Iterator<Item = PolyBackend> {
        let all = [PolyBackend::Portable, PolyBackend::Ifma];
        all.into_iter().filter(|t| t.supported())
    }

    fn mac_on(tier: PolyBackend, key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::at_tier(key, tier);
        p.update(data);
        p.finalize()
    }

    /// `new` picks the widest runnable backend; forced soft leaves one.
    #[test]
    fn dispatch_selects_widest_tier_and_honours_forced_soft() {
        let key = key_of(RFC_KEY);
        assert_eq!(Poly1305::new(&key).backend, tiers().last().unwrap());
        assert_eq!(tiers().next(), Some(PolyBackend::Portable));
        if crate::dispatch::force_soft() {
            assert_eq!(tiers().count(), 1);
        }
    }

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn mac_known_answer() {
        let msg = b"Cryptographic Forum Research Group";
        let tag = hex("a8061dc1305136c6c22b8baf0c0127a9");
        assert_eq!(&Poly1305::mac(&key_of(RFC_KEY), msg)[..], &tag[..]);
        assert_eq!(&mac26(&key_of(RFC_KEY), msg)[..], &tag[..]);
        for tier in tiers() {
            assert_eq!(
                &mac_on(tier, &key_of(RFC_KEY), msg)[..],
                &tag[..],
                "{tier:?}"
            );
        }
    }

    /// RFC 8439 Appendix A.3, vectors #1–#11: long and short texts, and the
    /// seven hand-built cases that break implementations whose carries or
    /// final reduction are subtly wrong (2^130 − 5 wrap, h = p, limb
    /// borders).
    #[test]
    fn rfc8439_appendix_a3_vectors() {
        const IETF: &str = "Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within the \
context of an IETF activity is considered an \"IETF Contribution\". Such statements include \
oral statements in IETF sessions, as well as written and electronic communications made at any \
time or place, which are addressed to";
        const JABBERWOCKY: &str = "'Twas brillig, and the slithy toves\nDid gyre and gimble in \
the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        let zero16 = "00000000000000000000000000000000";
        let r_is = |r: &str| format!("{r}{zero16}");
        let vectors: [(String, Vec<u8>, &str); 11] = [
            (r_is(zero16), vec![0; 64], zero16),
            (
                format!("{zero16}36e5f6b5c5e06070f0efca96227a863e"),
                IETF.as_bytes().to_vec(),
                "36e5f6b5c5e06070f0efca96227a863e",
            ),
            (
                r_is("36e5f6b5c5e06070f0efca96227a863e"),
                IETF.as_bytes().to_vec(),
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            (
                "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0".into(),
                JABBERWOCKY.as_bytes().to_vec(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            (
                r_is("02000000000000000000000000000000"),
                hex("ffffffffffffffffffffffffffffffff"),
                "03000000000000000000000000000000",
            ),
            (
                "02000000000000000000000000000000ffffffffffffffffffffffffffffffff".into(),
                hex("02000000000000000000000000000000"),
                "03000000000000000000000000000000",
            ),
            (
                r_is("01000000000000000000000000000000"),
                hex(
                    "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff\
                     11000000000000000000000000000000",
                ),
                "05000000000000000000000000000000",
            ),
            (
                r_is("01000000000000000000000000000000"),
                hex(
                    "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe\
                     01010101010101010101010101010101",
                ),
                zero16,
            ),
            (
                r_is("02000000000000000000000000000000"),
                hex("fdffffffffffffffffffffffffffffff"),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                r_is("01000000000000000400000000000000"),
                hex(
                    "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
                     0000000000000000000000000000000001000000000000000000000000000000",
                ),
                "14000000000000005500000000000000",
            ),
            (
                r_is("01000000000000000400000000000000"),
                hex(
                    "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
                     00000000000000000000000000000000",
                ),
                "13000000000000000000000000000000",
            ),
        ];
        assert_eq!(vectors[1].1.len(), 375);
        assert_eq!(vectors[3].1.len(), 127);
        for (i, (key, msg, tag)) in vectors.iter().enumerate() {
            let key = key_of(key);
            assert_eq!(&mac26(&key, msg)[..], &hex(tag)[..], "#{} (26-bit)", i + 1);
            for tier in tiers() {
                assert_eq!(
                    &mac_on(tier, &key, msg)[..],
                    &hex(tag)[..],
                    "#{} {tier:?}",
                    i + 1
                );
            }
        }
    }

    /// Split updates equal one-shot MACs at every split point, including
    /// splits that put the bulk path on either side of a buffered block.
    #[test]
    fn incremental_updates_compose() {
        let key = key_of(RFC_KEY);
        let msg: Vec<u8> = (0..700u32).map(|i| (i * 7 + 1) as u8).collect();
        let whole = mac26(&key, &msg);
        for tier in tiers() {
            for split in 0..msg.len() {
                let mut p = Poly1305::at_tier(&key, tier);
                p.update(&msg[..split]);
                p.update(&msg[split..]);
                assert_eq!(p.finalize(), whole, "{tier:?} split = {split}");
            }
        }
    }

    /// A small deterministic generator for the randomised checks.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Every backend agrees with the 26-bit reference where carries are
    /// heaviest — all-0xFF blocks under the clamped-maximum `r` — and on
    /// random keys and messages, at every length around the 64-byte and
    /// 128-byte groups and both bulk thresholds and at several whole groups.
    #[test]
    fn every_tier_agrees_with_the_26_bit_reference() {
        // Under Miri every seventh length (and both thresholds) is enough.
        let step = if cfg!(miri) { 7 } else { 1 };
        let mut lens: Vec<usize> = (0..=400).step_by(step).collect();
        lens.extend([128, 256, 511, 512, 513, 1023, 1024, 1040, 4096 + 17]);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..6 {
            let mut key = [0xffu8; 32]; // clamps to the largest r
            if round >= 2 {
                for b in key.iter_mut() {
                    *b = xorshift(&mut state) as u8;
                }
            }
            for &len in &lens {
                let msg: Vec<u8> = match round {
                    0 | 2 => vec![0xff; len],
                    _ => (0..len).map(|_| xorshift(&mut state) as u8).collect(),
                };
                let expect = mac26(&key, &msg);
                for tier in tiers() {
                    assert_eq!(
                        mac_on(tier, &key, &msg),
                        expect,
                        "{tier:?} round {round} len {len}"
                    );
                }
            }
        }
    }

    /// Edge cases: empty message, and messages around the 2^130−5 wrap.
    #[test]
    fn reduction_edge_cases() {
        // With a clamped r of all-ones and an all-0xff message, the
        // accumulator exercises the final conditional subtraction.
        let mut key = [0xffu8; 32];
        let tag1 = Poly1305::mac(&key, &[0xff; 64]);
        key[0] ^= 1;
        let tag2 = Poly1305::mac(&key, &[0xff; 64]);
        assert_ne!(tag1, tag2);
        let empty = Poly1305::mac(&key, b"");
        // Empty message: tag = s (the pad) exactly.
        assert_eq!(&empty[..], &key[16..32]);
    }
}
