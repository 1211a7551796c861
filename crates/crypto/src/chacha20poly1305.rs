//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! The no-AES-NI cipher suite: a ChaCha20 keystream (multi-block on SSE2 /
//! AVX2 / AVX-512, else scalar — see [`crate::chacha`]) with a Poly1305 tag
//! (four blocks per step over r⁴…r¹, eight on AVX-512 IFMA — see
//! [`crate::poly1305`]) over `AAD ‖ ciphertext` under a per-nonce one-time
//! key drawn from keystream block 0. Which pair of kernels runs is one
//! private tier fixed at key set-up; [`Aead::tier`] names it.
//! Because the tag authenticates the *ciphertext*, forwarding hops can
//! verify frames without decrypting, and a failed open never produces
//! plaintext — the tag check completes before the keystream is ever
//! applied, on every tier.
//!
//! Framing (12-byte nonce, 16-byte tag) is identical to AES-GCM, so the wire
//! overhead of every suite in this crate is the same [`crate::WIRE_OVERHEAD`].

use crate::aead::{Aead, CipherSuite};
use crate::chacha::{ChaCha20, ChaChaBackend};
use crate::gcm::{clamp_to_usize, tags_equal, OpenError, TAG_LEN};
use crate::nonce::Nonce;
use crate::poly1305::{Poly1305, PolyBackend};
use crate::Key;

/// Maximum plaintext length: the 32-bit block counter starts at 1 for data,
/// leaving 2^32 − 2 blocks of 64 bytes (≈ 256 GiB), or `usize::MAX` where
/// that does not fit a `usize`.
pub const MAX_PLAINTEXT_LEN_CHACHA: usize = clamp_to_usize(((1u64 << 32) - 2) * 64);

/// Which pair of kernels a [`ChaCha20Poly1305`] runs, fixed at key set-up
/// from what the CPU reports. Every tier computes the same function
/// (RFC 8439); they differ in how many blocks share one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Portable: scalar ChaCha20, `u128`-product Poly1305.
    Soft,
    /// SSE2 ChaCha20, 4 blocks per stride.
    Sse2,
    /// AVX2 ChaCha20, 8 blocks per stride.
    Avx2,
    /// AVX-512 ChaCha20, 16 blocks per stride.
    Avx512,
    /// AVX-512 ChaCha20 and AVX-512 IFMA Poly1305, 8 blocks per step.
    Avx512Ifma,
}

impl Tier {
    /// Every tier, the portable reference first, then slowest to fastest.
    const ALL: [Tier; 5] = [
        Tier::Soft,
        Tier::Sse2,
        Tier::Avx2,
        Tier::Avx512,
        Tier::Avx512Ifma,
    ];

    /// The ChaCha20 and Poly1305 kernels the tier pairs.
    fn kernels(self) -> (ChaChaBackend, PolyBackend) {
        match self {
            Tier::Soft => (ChaChaBackend::Soft, PolyBackend::Portable),
            Tier::Sse2 => (ChaChaBackend::Sse2, PolyBackend::Portable),
            Tier::Avx2 => (ChaChaBackend::Avx2, PolyBackend::Portable),
            Tier::Avx512 => (ChaChaBackend::Avx512, PolyBackend::Portable),
            Tier::Avx512Ifma => (ChaChaBackend::Avx512, PolyBackend::Ifma),
        }
    }

    /// Whether this process may run the tier: the CPU has both kernels'
    /// instructions and `EAG_CRYPTO_FORCE_SOFT` (honoured by both probes) is
    /// off.
    fn supported(self) -> bool {
        let (stream, mac) = self.kernels();
        stream.supported() && mac.supported()
    }
}

/// A ChaCha20-Poly1305 AEAD instance.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    core: ChaCha20,
    tier: Tier,
}

impl ChaCha20Poly1305 {
    /// Creates an instance from the collective's 128-bit [`Key`].
    ///
    /// ChaCha20 needs 256 key bits; the 128-bit world key is expanded with
    /// ChaCha20 itself as a PRF: the key doubled (`k ‖ k`) keys a block-0
    /// keystream call at the zero nonce, and the first 32 output bytes
    /// become the session key. Deterministic across backends. The instance
    /// runs on the fastest kernels this CPU has.
    pub fn new(key: &Key) -> Self {
        let fastest = Tier::ALL.into_iter().rev().find(|t| t.supported());
        Self::at_tier(&Self::expand_key(key), fastest.unwrap_or(Tier::Soft))
    }

    /// Like [`ChaCha20Poly1305::new`] but pinned to the portable kernels
    /// (for cross-checks and forced-soft dispatch).
    pub fn new_soft(key: &Key) -> Self {
        Self::at_tier(&Self::expand_key(key), Tier::Soft)
    }

    /// Creates an instance from a full 256-bit key (RFC 8439 layout) pinned
    /// to `tier`. Panics if the tier is not [`Tier::supported`]: the
    /// kernels' safety rests on that check.
    fn at_tier(key: &[u8; 32], tier: Tier) -> Self {
        assert!(tier.supported(), "{tier:?} kernels not runnable here");
        ChaCha20Poly1305 {
            core: ChaCha20::at_tier(key, tier.kernels().0),
            tier,
        }
    }

    /// The ChaCha20 backend this instance dispatches to.
    pub fn backend(&self) -> ChaChaBackend {
        self.core.backend()
    }

    fn expand_key(key: &Key) -> [u8; 32] {
        let mut seed = [0u8; 32];
        seed[..16].copy_from_slice(key.as_bytes());
        seed[16..].copy_from_slice(key.as_bytes());
        let mut out = [0u8; 32];
        ChaCha20::new(&seed).xor(&[0u8; 12], 0, &mut out);
        out
    }

    /// The per-nonce Poly1305 one-time key (RFC 8439 §2.6): the first 32
    /// bytes of keystream block 0.
    fn poly_key(&self, nonce: &Nonce) -> [u8; 32] {
        // A whole block: a partial one would go through a stack copy.
        let mut block = [0u8; 64];
        self.core.xor(nonce.as_bytes(), 0, &mut block);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block[..32]);
        otk
    }

    /// The §2.8 MAC input: `aad ‖ pad16 ‖ ct ‖ pad16 ‖ le64(|aad|) ‖ le64(|ct|)`.
    fn tag_of(&self, otk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let zeros = [0u8; 16];
        let mut p = Poly1305::at_tier(otk, self.tier.kernels().1);
        p.update(aad);
        p.update(&zeros[..(16 - aad.len() % 16) % 16]);
        p.update(ciphertext);
        p.update(&zeros[..(16 - ciphertext.len() % 16) % 16]);
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lens[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        p.update(&lens);
        p.finalize()
    }
}

impl Aead for ChaCha20Poly1305 {
    fn suite(&self) -> CipherSuite {
        CipherSuite::ChaCha20Poly1305
    }

    /// The ChaCha20 tier and its blocks per stride, then the Poly1305 radix
    /// and blocks per step.
    fn tier(&self) -> &'static str {
        match self.tier {
            Tier::Soft => "soft/1blk+poly44x4",
            Tier::Sse2 => "sse2/4blk+poly44x4",
            Tier::Avx2 => "avx2/8blk+poly44x4",
            Tier::Avx512 => "avx512/16blk+poly44x4",
            Tier::Avx512Ifma => "avx512/16blk+ifma44x8",
        }
    }

    /// Panics if `data` exceeds [`MAX_PLAINTEXT_LEN_CHACHA`].
    fn seal_in_place_detached(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        assert!(
            data.len() <= MAX_PLAINTEXT_LEN_CHACHA,
            "ChaCha20 plaintext exceeds the 32-bit-counter length limit"
        );
        let otk = self.poly_key(nonce);
        self.core.xor(nonce.as_bytes(), 1, data);
        self.tag_of(&otk, aad, data)
    }

    /// The tag covers the ciphertext, so verification happens **before**
    /// decryption; on mismatch the buffer is returned untouched (still
    /// ciphertext — no plaintext is ever produced).
    fn open_in_place_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), OpenError> {
        self.verify_detached(nonce, aad, data, tag)?;
        self.core.xor(nonce.as_bytes(), 1, data);
        Ok(())
    }

    /// One Poly1305 sweep plus one keystream block, no decryption.
    fn verify_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), OpenError> {
        if tag.len() != TAG_LEN || ciphertext.len() > MAX_PLAINTEXT_LEN_CHACHA {
            return Err(OpenError::Truncated);
        }
        let otk = self.poly_key(nonce);
        if !tags_equal(&self.tag_of(&otk, aad, ciphertext), tag) {
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

    fn rfc_key() -> [u8; 32] {
        let mut key = [0u8; 32];
        key.copy_from_slice(&hex(
            "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f",
        ));
        key
    }

    /// One instance of `key` per runnable tier, the portable one first.
    fn each_tier(key: &[u8; 32]) -> Vec<ChaCha20Poly1305> {
        let tiers = Tier::ALL.into_iter().filter(|t| t.supported());
        tiers.map(|t| ChaCha20Poly1305::at_tier(key, t)).collect()
    }

    fn rfc_nonce() -> Nonce {
        let mut n = [0u8; 12];
        n.copy_from_slice(&hex("070000004041424344454647"));
        Nonce::from_bytes(n)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 251 + 7) as u8).collect()
    }

    /// The length limits are the RFC's counter budgets, computed without
    /// overflowing a narrower `usize` (where they saturate instead).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn length_limits_are_the_counter_budgets() {
        assert_eq!(MAX_PLAINTEXT_LEN_CHACHA, 274_877_906_816);
        assert_eq!(crate::gcm::MAX_PLAINTEXT_LEN, 68_719_476_704);
        assert_eq!(clamp_to_usize(u64::MAX), usize::MAX);
    }

    /// RFC 8439 §2.6.2: the one-time Poly1305 key derivation vector.
    #[test]
    fn poly_key_gen_known_answer() {
        let mut n = [0u8; 12];
        n.copy_from_slice(&hex("000000000001020304050607"));
        for cipher in each_tier(&rfc_key()) {
            let otk = cipher.poly_key(&Nonce::from_bytes(n));
            assert_eq!(
                &otk[..],
                &hex("8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646")[..],
                "{}",
                cipher.tier()
            );
        }
    }

    /// RFC 8439 §2.8.2: the full AEAD vector, on every tier.
    #[test]
    fn aead_known_answer() {
        let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let expect_ct = hex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        let expect_tag = hex("1ae10b594f09e26a7e902ecbd0600691");
        for cipher in each_tier(&rfc_key()) {
            let sealed = cipher.seal(&rfc_nonce(), &aad, pt);
            assert_eq!(&sealed[..pt.len()], &expect_ct[..], "{}", cipher.tier());
            assert_eq!(&sealed[pt.len()..], &expect_tag[..], "{}", cipher.tier());
            let back = cipher.open(&rfc_nonce(), &aad, &sealed).unwrap();
            assert_eq!(&back[..], &pt[..]);
        }
    }

    /// Dispatch picks the widest runnable tier, the `_soft` constructors the
    /// reference, and the forced-soft override reaches no SIMD tier.
    #[test]
    fn dispatch_selects_widest_tier_and_honours_forced_soft() {
        let key = Key::from_bytes([0x42u8; 16]);
        let tiers = each_tier(&rfc_key());
        let fastest = tiers.last().unwrap().tier;
        assert_eq!(ChaCha20Poly1305::new(&key).tier, fastest);
        assert_eq!(
            ChaCha20Poly1305::new_soft(&key).tier(),
            "soft/1blk+poly44x4"
        );
        assert_eq!(tiers[0].tier, Tier::Soft);
        assert_eq!(tiers[0].backend(), ChaChaBackend::Soft);
        if crate::dispatch::force_soft() {
            assert_eq!(tiers.len(), 1);
            assert_eq!(ChaCha20Poly1305::new(&key).tier(), "soft/1blk+poly44x4");
        }
    }

    /// Every tier the CPU has computes the same AEAD: identical ciphertext
    /// and tag, and every tier verifies and opens the frame — across each
    /// stride and tail class of every kernel width, with and without AAD.
    #[test]
    fn every_tier_computes_the_same_aead() {
        let ciphers = each_tier(&rfc_key());
        let nonce = rfc_nonce();
        let mut lens = vec![
            0usize, 1, 16, 63, 64, 65, 127, 128, 255, 256, 257, 1023, 1024,
        ];
        if !cfg!(miri) {
            lens.extend([1025, 4 * 1024 + 17, 16 * 1024 + 28, 70_001]);
        }
        for aad in [&b""[..], b"twenty bytes of aad.."] {
            for &len in &lens {
                let pt = pattern(len);
                let mut reference = pt.clone();
                let ref_tag = ciphers[0].seal_in_place_detached(&nonce, aad, &mut reference);
                for cipher in &ciphers {
                    let tier = cipher.tier();
                    let mut ct = pt.clone();
                    let tag = cipher.seal_in_place_detached(&nonce, aad, &mut ct);
                    assert!(ct == reference, "{tier} ciphertext, len {len}");
                    assert_eq!(tag, ref_tag, "{tier} tag, len {len}");
                    assert!(cipher.verify_detached(&nonce, aad, &ct, &tag).is_ok());
                    assert!(cipher.verify_detached(&nonce, b"bad", &ct, &tag).is_err());
                    cipher
                        .open_in_place_detached(&nonce, aad, &mut ct, &ref_tag)
                        .unwrap_or_else(|e| panic!("{tier} open, len {len}: {e}"));
                    assert!(ct == pt, "{tier} plaintext, len {len}");
                }
            }
        }
    }

    #[test]
    fn tamper_and_wrong_aad_rejected() {
        let cipher = each_tier(&rfc_key()).pop().unwrap();
        let nonce = rfc_nonce();
        let mut sealed = cipher.seal(&nonce, b"aad", b"attack at dawn");
        assert!(cipher.open(&nonce, b"other", &sealed).is_err());
        for i in 0..sealed.len() {
            sealed[i] ^= 0x10;
            assert_eq!(
                cipher.open(&nonce, b"aad", &sealed),
                Err(OpenError::TagMismatch),
                "flip at {i}"
            );
            sealed[i] ^= 0x10;
        }
        assert!(cipher.open(&nonce, b"aad", &sealed).is_ok());
    }

    /// The 128-bit world key expands identically on every construction.
    #[test]
    fn world_key_roundtrips_across_constructors() {
        let key = Key::from_bytes([0x42u8; 16]);
        let cipher = ChaCha20Poly1305::new(&key);
        let soft = ChaCha20Poly1305::new_soft(&key);
        let nonce = Nonce::from_bytes([9u8; 12]);
        let pt = pattern(500);
        let sealed = cipher.seal(&nonce, b"hdr", &pt);
        assert_eq!(sealed, soft.seal(&nonce, b"hdr", &pt));
        assert_eq!(soft.open(&nonce, b"hdr", &sealed).unwrap(), pt);
    }

    /// Verification completes before any keystream is applied: on every
    /// tier a frame tampered in its first byte, at the end of the widest
    /// stride, in the tail, or in the tag fails to open and the buffer still
    /// holds the tampered ciphertext, bit for bit.
    #[test]
    fn every_tier_leaves_a_tampered_frame_untouched() {
        let nonce = rfc_nonce();
        let len = 2 * 1024 + 37;
        for cipher in each_tier(&rfc_key()) {
            let mut sealed = pattern(len);
            let tag = cipher.seal_in_place_detached(&nonce, b"aad", &mut sealed);
            for flip in [Some(0), Some(1023), Some(len - 1), None] {
                let (mut buf, mut bad_tag) = (sealed.clone(), tag);
                match flip {
                    Some(i) => buf[i] ^= 0x10,
                    None => bad_tag[0] ^= 1,
                }
                let tampered = buf.clone();
                assert_eq!(
                    cipher.open_in_place_detached(&nonce, b"aad", &mut buf, &bad_tag),
                    Err(OpenError::TagMismatch),
                    "{} flip at {flip:?}",
                    cipher.tier()
                );
                assert!(buf == tampered, "{} flip at {flip:?}", cipher.tier());
            }
        }
    }

    /// Prints seal/open throughput of every runnable tier (the per-tier
    /// table of README/EXPERIMENTS; no public switch pins a tier):
    /// `cargo test --release -p eag-crypto --lib chacha20poly1305::tests::tier_throughput -- --ignored --nocapture`.
    #[test]
    #[ignore = "measurement, not a check"]
    fn tier_throughput() {
        use std::time::Instant;
        let nonce = rfc_nonce();
        for cipher in each_tier(&rfc_key()) {
            for len in [256usize, 1024, 16 * 1024, 256 * 1024] {
                let mut buf = pattern(len);
                let iters = (8 << 20) / len;
                // Best of five batches: this is a shared, noisy machine.
                let (mut seal, mut open) = (f64::MAX, f64::MAX);
                for _ in 0..5 {
                    let t = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(
                            cipher.seal_in_place_detached(&nonce, b"aad", &mut buf),
                        );
                    }
                    seal = seal.min(t.elapsed().as_secs_f64());
                    // Verify-then-decrypt: every open must carry the tag of
                    // the bytes it is handed, so seal untimed in between.
                    let mut spent = 0.0;
                    for _ in 0..iters {
                        let tag = cipher.seal_in_place_detached(&nonce, b"aad", &mut buf);
                        let t = Instant::now();
                        cipher
                            .open_in_place_detached(&nonce, b"aad", &mut buf, &tag)
                            .unwrap();
                        spent += t.elapsed().as_secs_f64();
                    }
                    open = open.min(spent);
                }
                let gbps = |secs: f64| (iters * len) as f64 / secs / 1e9;
                println!(
                    "{:<22} {len:>7} B  seal {:6.2} GB/s  open {:6.2} GB/s",
                    cipher.tier(),
                    gbps(seal),
                    gbps(open)
                );
            }
        }
    }
}
