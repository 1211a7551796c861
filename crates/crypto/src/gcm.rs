//! AES-128-GCM authenticated encryption (NIST SP 800-38D).

use crate::aead::{Aead, CipherSuite};
use crate::aes::Aes128;
use crate::ctr::{gctr_xor, inc32};
use crate::ghash::GHash;
use crate::nonce::{Nonce, NONCE_LEN};
use crate::Key;

/// Authentication tag length in bytes (full 128-bit tags).
pub const TAG_LEN: usize = 16;

/// Maximum plaintext length GCM permits with a 96-bit IV:
/// (2^32 − 2) blocks of 16 bytes (NIST SP 800-38D §5.2.1.1). Beyond this the
/// 32-bit counter would wrap and reuse keystream. `usize::MAX` where that
/// does not fit a `usize`.
pub const MAX_PLAINTEXT_LEN: usize = clamp_to_usize(((1u64 << 32) - 2) * 16);

/// `n` as a `usize`, saturating on targets whose `usize` is narrower: a
/// length limit no slice can reach there is no limit.
pub(crate) const fn clamp_to_usize(n: u64) -> usize {
    if n > usize::MAX as u64 {
        usize::MAX
    } else {
        n as usize
    }
}

/// Decryption failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// Frame shorter than the minimum (nonce + tag).
    Truncated,
    /// Authentication tag mismatch: the ciphertext or AAD was modified.
    TagMismatch,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Truncated => f.write_str("ciphertext frame truncated"),
            OpenError::TagMismatch => f.write_str("authentication tag mismatch"),
        }
    }
}

impl std::error::Error for OpenError {}

/// Constant-time tag comparison: every byte is read whatever the outcome.
/// The one tag check of every suite.
pub(crate) fn tags_equal(expect: &[u8; TAG_LEN], tag: &[u8]) -> bool {
    let mut diff = (tag.len() != TAG_LEN) as u8;
    for (a, b) in expect.iter().zip(tag.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Which bulk kernel an [`AesGcm`] runs, fixed at key set-up from what the
/// CPU reports. Every tier computes the same function (NIST SP 800-38D);
/// they differ in how many blocks share one pass and one GHASH reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Portable two-sweep layout: CTR, then GHASH.
    Soft,
    /// AES-NI + PCLMULQDQ, fused, 128-byte strides (`crate::fused`).
    AesNi,
    /// AVX-512 + VAES + VPCLMULQDQ, fused, 256-byte strides (`crate::wide`).
    Wide,
}

impl Tier {
    /// The SIMD tiers, widest first.
    const SIMD: [Tier; 2] = [Tier::Wide, Tier::AesNi];

    /// Whether this process may run the tier: the CPU has its instructions
    /// and `EAG_CRYPTO_FORCE_SOFT` (honoured by both backend probes) is off.
    fn supported(self) -> bool {
        let aesni = crate::aes::detect_backend() == crate::aes::Backend::AesNi
            && crate::ghash::detect_backend() == crate::ghash::MulBackend::Pclmul;
        match self {
            Tier::Soft => true,
            Tier::AesNi => aesni,
            #[cfg(target_arch = "x86_64")]
            Tier::Wide => aesni && crate::wide::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Wide => false,
        }
    }
}

/// An AES-128-GCM AEAD instance, used through [`Aead`].
///
/// The in-place seal and open transform the buffer without allocating.
/// Nonces are 96-bit and must be unique per key (the library draws them at
/// random, as the paper does). The kernels also run AES-192/256-GCM (the
/// NIST vectors check them); the public constructors take the 128-bit
/// session [`Key`].
///
/// The bulk of every message runs through the widest fused single-pass
/// CTR+GHASH kernel the CPU has — 256-byte strides with AVX-512 + VAES +
/// VPCLMULQDQ (`crate::wide`), else 128-byte strides with AES-NI +
/// PCLMULQDQ (`crate::fused`) — and the tail, or everything on other CPUs,
/// through the portable two-sweep layout. [`Aead::tier`] names the choice.
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes128,
    /// Per-key GHASH prototype keyed by the hash subkey H = E_K(0^128):
    /// key setup (byte table / H-powers) happens once here; every message
    /// stamps a fresh accumulator off it without allocating.
    ghash_proto: GHash,
    tier: Tier,
    /// H¹⁶…H¹ in the wide kernel's register layout ([`Tier::Wide`] only;
    /// zeroed otherwise).
    wide_powers: [u128; 16],
}

/// AES-GCM-128: the scheme the paper uses (BoringSSL AES-GCM-128).
pub type AesGcm128 = AesGcm;

impl AesGcm {
    /// Creates an AES-128-GCM instance from a 128-bit [`Key`] on the
    /// widest tier this CPU runs.
    pub fn new(key: &Key) -> Self {
        let widest = Tier::SIMD.into_iter().find(|t| t.supported());
        Self::at_tier(key.as_bytes(), widest.unwrap_or(Tier::Soft))
    }

    /// Creates an AES-128-GCM instance pinned to the portable backends
    /// (table AES, table GHASH, no fused kernel) — the reference the
    /// dispatch-equivalence tests compare against.
    pub fn new_soft(key: &Key) -> Self {
        Self::at_tier(key.as_bytes(), Tier::Soft)
    }

    /// Creates an instance from 16, 24 or 32 key bytes (AES-128/192/256)
    /// pinned to `tier`. Panics if the tier is not [`Tier::supported`]: the
    /// kernels' safety rests on that check.
    fn at_tier(key: &[u8], tier: Tier) -> Self {
        assert!(tier.supported(), "{tier:?} kernel not runnable here");
        let aes = match tier {
            Tier::Soft => crate::aes::Aes::new_soft(key),
            _ => crate::aes::Aes::new(key),
        };
        let mut h = [0u8; 16];
        aes.encrypt_block(&mut h);
        let ghash_proto = match tier {
            Tier::Soft => GHash::new_soft_table(&h),
            _ => GHash::new(&h),
        };
        let mut wide_powers = [0; 16];
        if tier == Tier::Wide {
            wide_powers = ghash_proto.h_powers();
            wide_powers.reverse();
        }
        AesGcm {
            aes,
            ghash_proto,
            tier,
            wide_powers,
        }
    }

    /// Computes the pre-counter block J0 for a 96-bit IV: `IV || 0^31 || 1`.
    fn j0(nonce: &Nonce) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..NONCE_LEN].copy_from_slice(nonce.as_bytes());
        j0[15] = 1;
        j0
    }

    /// Returns `icb` advanced by `blocks` GCM `inc32` steps.
    fn ctr_add(icb: &[u8; 16], blocks: u32) -> [u8; 16] {
        let mut out = *icb;
        let ctr = u32::from_be_bytes([icb[12], icb[13], icb[14], icb[15]]).wrapping_add(blocks);
        out[12..].copy_from_slice(&ctr.to_be_bytes());
        out
    }

    /// The body seal and open share: absorbs `aad`, XORs `data` with the
    /// keystream from `inc32(j0)` while hashing the ciphertext side of it
    /// (the input when `DEC`, the output otherwise) — whole strides through
    /// the tier's fused kernel, the tail through the two-sweep block paths —
    /// and returns the tag.
    fn crypt<const DEC: bool>(&self, j0: &[u8; 16], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let mut icb = *j0;
        inc32(&mut icb);
        let mut g = self.ghash_proto.fresh();
        g.update_padded(aad);

        let mut bulk = 0;
        #[cfg(target_arch = "x86_64")]
        {
            let stride = match self.tier {
                Tier::Soft => usize::MAX, // no bulk kernel
                Tier::AesNi => crate::fused::STRIDE,
                Tier::Wide => crate::wide::STRIDE,
            };
            if data.len() >= stride {
                bulk = data.len() - data.len() % stride;
                let (keys, acc, head) = (self.aes.round_keys(), g.acc_raw(), &mut data[..bulk]);
                // SAFETY: `at_tier` admits a SIMD tier only when `supported`
                // saw the CPU report every feature its kernel enables: aes +
                // pclmulqdq + sse2 + ssse3 for `fused`, and
                // `wide::available` on top for `wide`.
                g.set_acc_raw(unsafe {
                    match self.tier {
                        Tier::Wide => crate::wide::crypt_blocks::<DEC>(
                            keys,
                            &self.wide_powers,
                            &icb,
                            acc,
                            head,
                        ),
                        _ => crate::fused::crypt_blocks::<DEC>(keys, g.powers(), &icb, acc, head),
                    }
                });
            }
        }
        let tail = &mut data[bulk..];
        if !tail.is_empty() {
            // GHASH runs over the ciphertext: absorb before decrypting,
            // after encrypting.
            if DEC {
                g.update_padded(tail);
            }
            gctr_xor(&self.aes, &Self::ctr_add(&icb, (bulk / 16) as u32), tail);
            if !DEC {
                g.update_padded(tail);
            }
        }
        g.update_lengths(aad.len() as u64, data.len() as u64);
        self.finish_tag(j0, &g)
    }

    /// T = MSB_128( GHASH_H(A, C) ^ E_K(J0) ) for a finalized GHASH state.
    fn finish_tag(&self, j0: &[u8; 16], g: &GHash) -> [u8; TAG_LEN] {
        let s = g.finalize();
        let mut ekj0 = *j0;
        self.aes.encrypt_block(&mut ekj0);
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ ekj0[i];
        }
        tag
    }
}

impl Aead for AesGcm {
    fn suite(&self) -> CipherSuite {
        CipherSuite::AesGcm128
    }

    /// `"soft"`, `"aesni+pclmul/128B"` or `"vaes+vpclmul/256B"`.
    fn tier(&self) -> &'static str {
        match self.tier {
            Tier::Soft => "soft",
            Tier::AesNi => "aesni+pclmul/128B",
            Tier::Wide => "vaes+vpclmul/256B",
        }
    }

    /// Panics if `data` exceeds [`MAX_PLAINTEXT_LEN`].
    fn seal_in_place_detached(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        assert!(
            data.len() <= MAX_PLAINTEXT_LEN,
            "GCM plaintext exceeds the SP 800-38D length limit"
        );
        self.crypt::<false>(&Self::j0(nonce), aad, data)
    }

    /// The single-pass layout decrypts before the tag check completes, so
    /// on mismatch the buffer is zeroed.
    fn open_in_place_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), OpenError> {
        if tag.len() != TAG_LEN || data.len() > MAX_PLAINTEXT_LEN {
            return Err(OpenError::Truncated);
        }
        let expect = self.crypt::<true>(&Self::j0(nonce), aad, data);
        if !tags_equal(&expect, tag) {
            data.fill(0);
            return Err(OpenError::TagMismatch);
        }
        Ok(())
    }

    /// GCM's tag is a function of the AAD and the *ciphertext*, so a hop
    /// that forwards sealed frames verbatim (the paper's ring /
    /// recursive-doubling chains) authenticates a frame it does not
    /// consume with one GHASH sweep and two block encryptions — the
    /// detection primitive behind the runtime's per-hop tamper recovery:
    /// the hop that received a corrupted frame NACKs its immediate sender.
    fn verify_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), OpenError> {
        if tag.len() != TAG_LEN || ciphertext.len() > MAX_PLAINTEXT_LEN {
            return Err(OpenError::Truncated);
        }
        let j0 = Self::j0(nonce);
        let mut g = self.ghash_proto.fresh();
        g.update_padded(aad);
        g.update_padded(ciphertext);
        g.update_lengths(aad.len() as u64, ciphertext.len() as u64);
        if !tags_equal(&self.finish_tag(&j0, &g), tag) {
            return Err(OpenError::TagMismatch);
        }
        Ok(())
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

    fn key_of(s: &str) -> Key {
        let mut k = [0u8; 16];
        k.copy_from_slice(&hex(s));
        Key::from_bytes(k)
    }

    fn nonce_of(s: &str) -> Nonce {
        let mut n = [0u8; 12];
        n.copy_from_slice(&hex(s));
        Nonce::from_bytes(n)
    }

    /// Every tier this process may run, the portable reference first.
    fn tiers() -> Vec<Tier> {
        let mut all = vec![Tier::Soft, Tier::AesNi, Tier::Wide];
        all.retain(|t| t.supported());
        all
    }

    /// One instance of `key` per runnable tier, soft first.
    fn each_tier(key: &[u8]) -> Vec<AesGcm> {
        tiers()
            .into_iter()
            .map(|t| AesGcm::at_tier(key, t))
            .collect()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 251 + 7) as u8).collect()
    }

    /// GCM spec test case 1: empty plaintext, empty AAD.
    #[test]
    fn gcm_test_case_1() {
        for gcm in each_tier(&hex("00000000000000000000000000000000")) {
            let nonce = nonce_of("000000000000000000000000");
            let sealed = gcm.seal(&nonce, b"", b"");
            assert_eq!(sealed, hex("58e2fccefa7e3061367f1d57a4e7455a"));
            assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), b"");
        }
    }

    /// GCM spec test case 2: one zero block.
    #[test]
    fn gcm_test_case_2() {
        for gcm in each_tier(&hex("00000000000000000000000000000000")) {
            let nonce = nonce_of("000000000000000000000000");
            let pt = hex("00000000000000000000000000000000");
            let sealed = gcm.seal(&nonce, b"", &pt);
            assert_eq!(
                sealed,
                hex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
            );
            assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), pt);
        }
    }

    /// GCM spec test case 3: 4-block plaintext, no AAD.
    #[test]
    fn gcm_test_case_3() {
        for gcm in each_tier(&hex("feffe9928665731c6d6a8f9467308308")) {
            let nonce = nonce_of("cafebabefacedbaddecaf888");
            let pt = hex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            );
            let sealed = gcm.seal(&nonce, b"", &pt);
            let expect_ct = hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            );
            let expect_tag = hex("4d5c2af327cd64a62cf35abd2ba6fab4");
            assert_eq!(&sealed[..pt.len()], &expect_ct[..]);
            assert_eq!(&sealed[pt.len()..], &expect_tag[..]);
            assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), pt);
        }
    }

    /// GCM spec test case 4: partial final block plus AAD.
    #[test]
    fn gcm_test_case_4() {
        for gcm in each_tier(&hex("feffe9928665731c6d6a8f9467308308")) {
            let nonce = nonce_of("cafebabefacedbaddecaf888");
            let pt = hex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            );
            let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
            let sealed = gcm.seal(&nonce, &aad, &pt);
            let expect_ct = hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            );
            let expect_tag = hex("5bc94fbc3221a5db94fae95ae7121a47");
            assert_eq!(&sealed[..pt.len()], &expect_ct[..]);
            assert_eq!(&sealed[pt.len()..], &expect_tag[..]);
            assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), pt);
        }
    }

    /// GCM spec test case 13: AES-256, empty plaintext.
    #[test]
    fn gcm_test_case_13() {
        for gcm in each_tier(&[0u8; 32]) {
            let nonce = nonce_of("000000000000000000000000");
            let sealed = gcm.seal(&nonce, b"", b"");
            assert_eq!(sealed, hex("530f8afbc74536b9a963b4f1c4cb738b"));
        }
    }

    /// GCM spec test case 14: AES-256, one zero block.
    #[test]
    fn gcm_test_case_14() {
        for gcm in each_tier(&[0u8; 32]) {
            let nonce = nonce_of("000000000000000000000000");
            let sealed = gcm.seal(&nonce, b"", &[0u8; 16]);
            assert_eq!(
                sealed,
                hex("cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919")
            );
            assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), vec![0u8; 16]);
        }
    }

    /// Dispatch picks the widest runnable tier, `new_soft` none, and the
    /// forced-soft override (CI's `soft-crypto` job) reaches no SIMD tier.
    #[test]
    fn dispatch_selects_widest_tier_and_honours_forced_soft() {
        let key = key_of("feffe9928665731c6d6a8f9467308308");
        assert_eq!(AesGcm::new(&key).tier, *tiers().last().unwrap());
        assert_eq!(AesGcm::new_soft(&key).tier, Tier::Soft);
        assert_eq!(AesGcm::new_soft(&key).tier(), "soft");
        if crate::dispatch::force_soft() {
            assert_eq!(tiers(), [Tier::Soft]);
            assert_eq!(AesGcm::new(&key).tier(), "soft");
        }
    }

    /// Every tier the CPU has computes the same GCM: identical ciphertext
    /// and tag, and every tier opens the frame — across each stride and
    /// tail class of both kernels, with and without AAD.
    #[test]
    fn every_tier_computes_the_same_gcm() {
        let gcms = each_tier(&hex("feffe9928665731c6d6a8f9467308308"));
        let nonce = nonce_of("cafebabefacedbaddecaf888");
        let mut lens = vec![0usize, 1, 15, 16, 127, 128, 255, 256, 257, 511, 512];
        if !cfg!(miri) {
            lens.extend([4095, 4096 + 17, 262_144]);
        }
        for aad in [&b""[..], b"twenty bytes of aad.."] {
            for &len in &lens {
                let pt = pattern(len);
                let mut reference = pt.clone();
                let ref_tag = gcms[0].seal_in_place_detached(&nonce, aad, &mut reference);
                for gcm in &gcms {
                    let mut ct = pt.clone();
                    let tag = gcm.seal_in_place_detached(&nonce, aad, &mut ct);
                    assert!(ct == reference, "{} ciphertext, len {len}", gcm.tier());
                    assert_eq!(tag, ref_tag, "{} tag, len {len}", gcm.tier());
                    assert!(gcm.verify_detached(&nonce, aad, &ct, &tag).is_ok());
                    gcm.open_in_place_detached(&nonce, aad, &mut ct, &ref_tag)
                        .unwrap_or_else(|e| panic!("{} open, len {len}: {e}", gcm.tier()));
                    assert!(ct == pt, "{} plaintext, len {len}", gcm.tier());
                }
            }
        }
    }

    /// A single flipped bit in the first byte, the last byte of the widest
    /// kernel's region, or the tail yields `TagMismatch` and a zeroed
    /// buffer on every tier.
    #[test]
    fn every_tier_rejects_a_flipped_bit_and_zeroes_the_buffer() {
        let nonce = nonce_of("cafebabefacedbaddecaf888");
        let len = 2 * 256 + 37;
        for gcm in each_tier(&hex("feffe9928665731c6d6a8f9467308308")) {
            let mut sealed = pattern(len);
            let tag = gcm.seal_in_place_detached(&nonce, b"aad", &mut sealed);
            for flip in [0, 2 * 256 - 1, len - 1] {
                let mut buf = sealed.clone();
                buf[flip] ^= 0x10;
                assert_eq!(
                    gcm.open_in_place_detached(&nonce, b"aad", &mut buf, &tag),
                    Err(OpenError::TagMismatch),
                    "{} flip at {flip}",
                    gcm.tier()
                );
                assert!(buf.iter().all(|&b| b == 0), "{} flip at {flip}", gcm.tier());
            }
        }
    }

    /// One direction of `gcm`'s own bulk kernel over `data`, from `icb`/`acc`.
    #[cfg(target_arch = "x86_64")]
    fn kernel<const DEC: bool>(gcm: &AesGcm, icb: &[u8; 16], acc: u128, data: &mut [u8]) -> u128 {
        let (keys, powers) = (gcm.aes.round_keys(), gcm.ghash_proto.powers());
        // SAFETY: `at_tier` accepted the SIMD tier, so the CPU has every
        // feature its kernel enables.
        unsafe {
            match gcm.tier {
                Tier::Wide => {
                    crate::wide::crypt_blocks::<DEC>(keys, &gcm.wide_powers, icb, acc, data)
                }
                _ => crate::fused::crypt_blocks::<DEC>(keys, powers, icb, acc, data),
            }
        }
    }

    /// Each SIMD kernel against the two-sweep composition it fuses (soft CTR
    /// keystream, then GHASH over the ciphertext), at the kernel's own
    /// interface: one stride (pipeline fill and drain only) and several,
    /// resuming an accumulator that already absorbed AAD, both directions.
    /// The counters start where `inc32` wraps inside the bulk region —
    /// between strides and in mid-register — because the kernels step them
    /// with scalar and vector adds that could carry into the nonce.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_match_two_sweep_and_wrap_the_counter_word_only() {
        let key = hex("feffe9928665731c6d6a8f9467308308");
        let soft = crate::aes::Aes::new_soft(&key);
        for tier in Tier::SIMD.into_iter().filter(|t| t.supported()) {
            let gcm = AesGcm::at_tier(&key, tier);
            for (start, len) in [(0xFFFF_FFF0u32, 768), (0xFFFF_FFF9, 768), (7, 256)] {
                let mut icb = [0xFFu8; 16];
                icb[12..].copy_from_slice(&start.to_be_bytes());
                let pt = pattern(len);
                let mut expect = pt.clone();
                soft.xor_ctr_keystream(&icb, &mut expect);
                let mut g = gcm.ghash_proto.fresh();
                g.update_padded(b"associated data, 20b");
                let acc = g.acc_raw();
                g.update_padded(&expect);

                let mut buf = pt.clone();
                let sealed = kernel::<false>(&gcm, &icb, acc, &mut buf);
                assert!(buf == expect, "{tier:?} keystream from {start:#x}");
                assert_eq!(sealed, g.acc_raw(), "{tier:?} ghash from {start:#x}");
                let opened = kernel::<true>(&gcm, &icb, acc, &mut buf);
                assert!(buf == pt, "{tier:?} open from {start:#x}");
                assert_eq!(opened, sealed, "{tier:?} open hashes the ciphertext");
            }
        }
    }

    /// Prints seal/open throughput of every runnable tier (the per-tier
    /// table of README/EXPERIMENTS; no public switch pins a tier):
    /// `cargo test --release -p eag-crypto --lib tier_throughput -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement, not a check"]
    fn tier_throughput() {
        use std::time::Instant;
        let nonce = nonce_of("cafebabefacedbaddecaf888");
        for gcm in each_tier(&hex("feffe9928665731c6d6a8f9467308308")) {
            for len in [256usize, 1024, 16 * 1024, 256 * 1024] {
                let mut buf = pattern(len);
                let iters = (8 << 20) / len;
                let mut tag = [0u8; TAG_LEN];
                // Best of five batches: this is a shared, noisy machine.
                let (mut seal, mut open) = (f64::MAX, f64::MAX);
                for _ in 0..5 {
                    let t = Instant::now();
                    for _ in 0..iters {
                        tag = gcm.seal_in_place_detached(&nonce, b"aad", &mut buf);
                    }
                    seal = seal.min(t.elapsed().as_secs_f64());
                    // Each open restores the plaintext its seal consumed, so
                    // only the first of a batch verifies; the rest fail and
                    // are zeroed — the same kernel work, tag compare included.
                    let t = Instant::now();
                    for _ in 0..iters {
                        let _ = gcm.open_in_place_detached(&nonce, b"aad", &mut buf, &tag);
                    }
                    open = open.min(t.elapsed().as_secs_f64());
                }
                let gbps = |secs: f64| (iters * len) as f64 / secs / 1e9;
                println!(
                    "{:<18} {len:>7} B  seal {:6.2} GB/s  open {:6.2} GB/s",
                    gcm.tier(),
                    gbps(seal),
                    gbps(open)
                );
            }
        }
    }

    /// AES-192- and AES-256-GCM roundtrip with AAD across sizes.
    #[test]
    fn gcm_larger_keys_roundtrip() {
        for key_len in [24usize, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 11 + 5) as u8).collect();
            let nonce = nonce_of("cafebabefacedbaddecaf888");
            for gcm in each_tier(&key) {
                for len in [0usize, 1, 16, 61, 255] {
                    let pt: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
                    let sealed = gcm.seal(&nonce, b"hdr", &pt);
                    assert_eq!(gcm.open(&nonce, b"hdr", &sealed).unwrap(), pt);
                    assert!(gcm.open(&nonce, b"other", &sealed).is_err());
                }
            }
        }
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let gcm = AesGcm128::new(&key_of("feffe9928665731c6d6a8f9467308308"));
        let nonce = nonce_of("cafebabefacedbaddecaf888");
        let mut sealed = gcm.seal(&nonce, b"aad", b"attack at dawn");
        for i in 0..sealed.len() {
            sealed[i] ^= 0x01;
            assert_eq!(
                gcm.open(&nonce, b"aad", &sealed),
                Err(OpenError::TagMismatch),
                "bit flip at byte {i} must be detected"
            );
            sealed[i] ^= 0x01;
        }
        assert!(gcm.open(&nonce, b"aad", &sealed).is_ok());
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let gcm = AesGcm128::new(&key_of("feffe9928665731c6d6a8f9467308308"));
        let sealed = gcm.seal(&nonce_of("cafebabefacedbaddecaf888"), b"", b"x");
        assert!(gcm
            .open(&nonce_of("cafebabefacedbaddecaf889"), b"", &sealed)
            .is_err());
    }

    #[test]
    fn wrong_key_is_rejected() {
        let a = AesGcm128::new(&key_of("feffe9928665731c6d6a8f9467308308"));
        let b = AesGcm128::new(&key_of("feffe9928665731c6d6a8f9467308309"));
        let nonce = nonce_of("cafebabefacedbaddecaf888");
        let sealed = a.seal(&nonce, b"", b"x");
        assert!(b.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn truncated_sealed_is_rejected() {
        let gcm = AesGcm128::new(&key_of("feffe9928665731c6d6a8f9467308308"));
        assert_eq!(
            gcm.open(&nonce_of("cafebabefacedbaddecaf888"), b"", &[0u8; 15]),
            Err(OpenError::Truncated)
        );
    }
}
