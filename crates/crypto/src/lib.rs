//! # eag-crypto — pluggable AEAD suites for encrypted collectives
//!
//! From-scratch authenticated encryption for the paper *Efficient Algorithms
//! for Encrypted All-gather Operation* (IPDPS 2021). The paper's scheme is
//! AES-128-GCM with a random 96-bit nonce (following Naser et al., CLUSTER
//! 2019); this crate implements that plus two alternative cipher suites
//! behind one [`Aead`] trait, selected at runtime via [`CipherSuite`]:
//!
//! - **AES-128-GCM** ([`gcm`]) — the default; fused single-pass
//!   CTR+GHASH kernel, 512-bit on VAES + VPCLMULQDQ hardware, 128-bit on
//!   AES-NI + PCLMULQDQ ([`Aead::tier`] names the one in use).
//! - **AES-128-GCM-SIV** ([`gcm_siv`]) — nonce-misuse-resistant (RFC 8452);
//!   POLYVAL rides the same PCLMUL kernel bit-reflected.
//! - **ChaCha20-Poly1305** ([`chacha20poly1305`]) — for hosts without
//!   AES-NI (RFC 8439); 16 / 8 / 4 ChaCha20 blocks per stride on AVX-512 /
//!   AVX2 / SSE2 and 8 or 4 Poly1305 blocks per step
//!   ([`Aead::tier`] names the pair in use), or scalar.
//!
//! Every suite frames messages identically — `nonce(12) ‖ ct ‖ tag(16)`,
//! exactly **28 bytes** ([`WIRE_OVERHEAD`]) over the plaintext — so suite
//! choice is session configuration, not wire format. The framing helpers
//! — [`seal_segments_into`] (and its one-segment case
//! [`seal_message_into`]) to seal, [`open_frame_in_place`] to open,
//! [`verify_message`] to check a forwarded frame — are generic over
//! `A: Aead + ?Sized` and work with `&dyn Aead`.
//!
//! ## Layout
//! - [`aead`] — the [`Aead`] trait (which each suite implements directly)
//!   and [`CipherSuite`] selection.
//! - [`aes`] — the AES block cipher (portable soft / constant-time soft /
//!   runtime-detected AES-NI).
//! - [`ghash`] — GHASH over GF(2^128) (bitwise / table-driven / PCLMULQDQ).
//! - [`polyval`] — POLYVAL, GHASH's bit-reflected twin (RFC 8452 App. A).
//! - [`ctr`] — the big-endian CTR keystream used by GCM.
//! - [`gcm`], [`gcm_siv`], [`chacha20poly1305`] — the three AEADs.
//! - [`chacha`], [`poly1305`] — the ChaCha20-Poly1305 primitives.
//! - [`kdf`] — per-session AEAD keys derived from a service master key
//!   (multi-tenant session layer, with rotation epochs).
//! - [`nonce`] — random and deterministic nonce sources.
//! - [`dispatch`] — the shared soft-force override for CPU dispatch.
//! - [`probe`] — wall-clock throughput probes per suite.
//!
//! ## Example
//! ```
//! use eag_crypto::{Aead, AesGcm128, CipherSuite, Key, Nonce, NonceSource};
//!
//! let key = Key::from_bytes([0u8; 16]);
//! let cipher = AesGcm128::new(&key);
//! let nonce = Nonce::from_bytes([1u8; 12]);
//! let ct = cipher.seal(&nonce, b"header", b"secret payload");
//! let pt = cipher.open(&nonce, b"header", &ct).expect("authentic");
//! assert_eq!(pt, b"secret payload");
//!
//! // Suite-generic: the wire framing under a misuse-resistant AEAD.
//! let aead = CipherSuite::AesGcmSiv128.aead_for_key(&key);
//! let mut wire = Vec::new();
//! let mut nonces = NonceSource::seeded(7);
//! eag_crypto::seal_message_into(&*aead, &mut nonces, b"hdr", b"payload", &mut wire);
//! let range = eag_crypto::open_frame_in_place(&*aead, b"hdr", &mut wire).unwrap();
//! assert_eq!(&wire[range], b"payload");
//! ```

#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod aead;
pub mod aes;
pub mod chacha;
pub mod chacha20poly1305;
pub mod ctr;
pub mod dispatch;
mod fused;
pub mod gcm;
pub mod gcm_siv;
pub mod ghash;
pub mod kdf;
pub mod nonce;
pub mod poly1305;
pub mod polyval;
pub mod probe;
mod wide;

pub use aead::{Aead, CipherSuite};
pub use aes::{Aes, Aes128, KeySize};
pub use chacha20poly1305::ChaCha20Poly1305;
pub use gcm::{AesGcm, AesGcm128, OpenError, MAX_PLAINTEXT_LEN, TAG_LEN};
pub use gcm_siv::AesGcmSiv;
pub use kdf::SessionKeychain;
pub use nonce::{Nonce, NonceSource, NONCE_LEN};

/// Total per-message wire overhead of the encrypted framing:
/// 12-byte nonce + 16-byte authentication tag. This is the "+28 bytes"
/// constant the paper mentions in Section IV.
pub const WIRE_OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// A 128-bit AES key.
#[derive(Clone)]
pub struct Key([u8; 16]);

impl Key {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Key(bytes)
    }

    /// Generates a uniformly random key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut k = [0u8; 16];
        rng.fill_bytes(&mut k);
        Key(k)
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Key(<redacted>)")
    }
}

/// Seals `plaintext` into `out` (cleared first) in the paper's wire format
/// `nonce(12) || ciphertext(len) || tag(16)`, reusing `out`'s allocation
/// when it is large enough: the one-segment case of [`seal_segments_into`].
///
/// The nonce is drawn from `source`; the same `aad` must be presented to
/// [`open_frame_in_place`]. A per-rank scratch buffer makes every seal
/// allocation-free after the first message of each size class.
pub fn seal_message_into<A: Aead + ?Sized>(
    cipher: &A,
    source: &mut NonceSource,
    aad: &[u8],
    plaintext: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    out.reserve(plaintext.len() + WIRE_OVERHEAD);
    seal_segments_into(cipher, source, aad, std::iter::once(plaintext), out);
}

/// Seals a plaintext presented as a sequence of byte segments (cleared into
/// `out` first): the segments are gathered directly into the wire frame in
/// order, then encrypted in place. This is the zero-staging path for
/// rope-backed payloads — the only plaintext copy is the gather into the
/// frame that becomes the wire message itself.
pub fn seal_segments_into<'a, A: Aead + ?Sized>(
    cipher: &A,
    source: &mut NonceSource,
    aad: &[u8],
    segments: impl IntoIterator<Item = &'a [u8]>,
    out: &mut Vec<u8>,
) {
    let nonce = source.next_nonce();
    out.clear();
    out.extend_from_slice(nonce.as_bytes());
    for seg in segments {
        out.extend_from_slice(seg);
    }
    let tag = cipher.seal_in_place_detached(&nonce, aad, &mut out[NONCE_LEN..]);
    out.extend_from_slice(&tag);
}

/// A wire frame's nonce and the end of its ciphertext (where the tag
/// starts), or [`OpenError::Truncated`] if it cannot hold both.
fn split_frame(wire: &[u8]) -> Result<(Nonce, usize), OpenError> {
    if wire.len() < WIRE_OVERHEAD {
        return Err(OpenError::Truncated);
    }
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&wire[..NONCE_LEN]);
    Ok((Nonce::from_bytes(nonce), wire.len() - TAG_LEN))
}

/// Opens a wire frame in place without restitching the buffer: on success
/// the plaintext sits at the returned range of `wire` (the nonce prefix and
/// tag suffix are left untouched around it) and no bytes move — freeze the
/// buffer and slice the range. On failure the error is returned and the
/// payload bytes follow the suite's failed-open contract
/// ([`Aead::open_in_place_detached`]).
pub fn open_frame_in_place<A: Aead + ?Sized>(
    cipher: &A,
    aad: &[u8],
    wire: &mut [u8],
) -> Result<std::ops::Range<usize>, OpenError> {
    let (nonce, ct_end) = split_frame(wire)?;
    let (frame, tag) = wire.split_at_mut(ct_end);
    cipher.open_in_place_detached(&nonce, aad, &mut frame[NONCE_LEN..], tag)?;
    Ok(NONCE_LEN..ct_end)
}

/// Verifies a wire frame without decrypting it: checks the tag of
/// `nonce(12) || ciphertext || tag(16)` against the AAD and ciphertext.
///
/// Forwarding hops use this for in-flight integrity: GCM authenticates the
/// ciphertext, so no plaintext is produced (or zeroized) on the hot path.
pub fn verify_message<A: Aead + ?Sized>(
    cipher: &A,
    aad: &[u8],
    wire: &[u8],
) -> Result<(), OpenError> {
    let (nonce, ct_end) = split_frame(wire)?;
    cipher.verify_detached(&nonce, aad, &wire[NONCE_LEN..ct_end], &wire[ct_end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every suite's AEAD under one key: the framing is suite-invariant,
    /// so each framing test runs under all of them.
    fn each_suite(key: u8) -> impl Iterator<Item = (CipherSuite, Box<dyn Aead>)> {
        let key = Key::from_bytes([key; 16]);
        CipherSuite::ALL
            .into_iter()
            .map(move |suite| (suite, suite.aead_for_key(&key)))
    }

    /// Seals `pt` into a fresh wire frame.
    pub(crate) fn framed(
        cipher: &dyn Aead,
        source: &mut NonceSource,
        aad: &[u8],
        pt: &[u8],
    ) -> Vec<u8> {
        let mut wire = Vec::new();
        seal_message_into(cipher, source, aad, pt, &mut wire);
        wire
    }

    /// Opens a copy of `wire` and returns its plaintext.
    fn unframed(cipher: &dyn Aead, aad: &[u8], wire: &[u8]) -> Result<Vec<u8>, OpenError> {
        let mut buf = wire.to_vec();
        let range = open_frame_in_place(cipher, aad, &mut buf)?;
        Ok(buf[range].to_vec())
    }

    #[test]
    fn verify_message_matches_open_verdict() {
        for (suite, cipher) in each_suite(7) {
            let mut source = NonceSource::seeded(9);
            for len in [0usize, 1, 16, 129, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
                let mut wire = framed(&*cipher, &mut source, b"aad", &pt);
                assert!(verify_message(&*cipher, b"aad", &wire).is_ok(), "{suite}");
                assert!(verify_message(&*cipher, b"bad", &wire).is_err(), "{suite}");
                for i in 0..wire.len() {
                    wire[i] ^= 0x40;
                    assert!(
                        verify_message(&*cipher, b"aad", &wire).is_err(),
                        "{suite}: flip at byte {i} of len {len} undetected"
                    );
                    wire[i] ^= 0x40;
                }
                // Verification must not consume the frame: open still succeeds.
                assert_eq!(unframed(&*cipher, b"aad", &wire).unwrap(), pt, "{suite}");
            }
            for len in 0..WIRE_OVERHEAD {
                assert!(
                    matches!(
                        verify_message(&*cipher, b"", &vec![0u8; len]),
                        Err(OpenError::Truncated)
                    ),
                    "{suite}: {len}-byte frame"
                );
            }
        }
    }

    #[test]
    fn wire_overhead_is_28_bytes() {
        assert_eq!(WIRE_OVERHEAD, 28);
    }

    #[test]
    fn seal_open_roundtrip() {
        for (suite, cipher) in each_suite(7) {
            let mut source = NonceSource::seeded(42);
            for len in [0usize, 1, 15, 16, 17, 255, 4096] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                let wire = framed(&*cipher, &mut source, b"ctx", &pt);
                assert_eq!(wire.len(), pt.len() + WIRE_OVERHEAD, "{suite}");
                let back = unframed(&*cipher, b"ctx", &wire).unwrap();
                assert_eq!(back, pt, "{suite} len {len}");
            }
        }
    }

    #[test]
    fn open_rejects_wrong_aad() {
        for (suite, cipher) in each_suite(7) {
            let mut source = NonceSource::seeded(42);
            let wire = framed(&*cipher, &mut source, b"aad-a", b"hello");
            assert_eq!(
                unframed(&*cipher, b"aad-b", &wire),
                Err(OpenError::TagMismatch),
                "{suite}"
            );
        }
    }

    /// Every frame too short to hold a nonce and a tag is `Truncated`,
    /// under every suite, and the buffer is left as it was.
    #[test]
    fn open_rejects_truncated_frame() {
        for (suite, cipher) in each_suite(7) {
            for len in 0..WIRE_OVERHEAD {
                let mut short: Vec<u8> = (0..len as u8).collect();
                assert_eq!(
                    open_frame_in_place(&*cipher, b"", &mut short),
                    Err(OpenError::Truncated),
                    "{suite}: {len}-byte frame"
                );
                assert!(short.iter().copied().eq(0..len as u8), "{suite}");
            }
        }
    }

    #[test]
    fn seal_segments_matches_contiguous_seal() {
        for (suite, cipher) in each_suite(3) {
            let pt: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
            for split in [0usize, 1, 128, 299, 300] {
                let whole = framed(&*cipher, &mut NonceSource::seeded(5), b"aad", &pt);
                let mut gathered = Vec::new();
                seal_segments_into(
                    &*cipher,
                    &mut NonceSource::seeded(5),
                    b"aad",
                    [&pt[..split], &pt[split..]],
                    &mut gathered,
                );
                assert_eq!(whole, gathered, "{suite}: split at {split}");
            }
        }
    }

    /// The plaintext range sits inside the unmoved frame; a tampered
    /// ciphertext or tag fails with each suite's failed-open contract on
    /// the payload: zeroed where the suite decrypts before verifying (GCM,
    /// GCM-SIV), the tampered ciphertext untouched where it verifies first
    /// (ChaCha20-Poly1305).
    #[test]
    fn open_frame_in_place_returns_plaintext_range() {
        for (suite, cipher) in each_suite(4) {
            let mut source = NonceSource::seeded(8);
            for len in [0usize, 1, 64, 333] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
                let mut wire = framed(&*cipher, &mut source, b"hdr", &pt);
                let before = wire.len();
                let range = open_frame_in_place(&*cipher, b"hdr", &mut wire).unwrap();
                assert_eq!(wire.len(), before, "{suite}: frame length must not change");
                assert_eq!(range, NONCE_LEN..before - TAG_LEN, "{suite}");
                assert_eq!(&wire[range], &pt[..], "{suite}");
            }
            let sealed = framed(&*cipher, &mut source, b"hdr", b"payload");
            let ct_end = sealed.len() - TAG_LEN;
            for flip in [NONCE_LEN, ct_end - 1, ct_end, sealed.len() - 1] {
                let mut tampered = sealed.clone();
                tampered[flip] ^= 1;
                let mut buf = tampered.clone();
                assert_eq!(
                    open_frame_in_place(&*cipher, b"hdr", &mut buf),
                    Err(OpenError::TagMismatch),
                    "{suite}: flip at {flip}"
                );
                let payload = match suite {
                    CipherSuite::ChaCha20Poly1305 => tampered[NONCE_LEN..ct_end].to_vec(),
                    CipherSuite::AesGcm128 | CipherSuite::AesGcmSiv128 => vec![0; b"payload".len()],
                };
                assert_eq!(buf[NONCE_LEN..ct_end], payload, "{suite}: flip at {flip}");
                assert_eq!(buf[..NONCE_LEN], tampered[..NONCE_LEN], "{suite}: nonce");
                assert_eq!(buf[ct_end..], tampered[ct_end..], "{suite}: tag");
            }
        }
    }

    #[test]
    fn key_debug_redacts() {
        let key = Key::from_bytes([9u8; 16]);
        assert_eq!(format!("{key:?}"), "Key(<redacted>)");
    }
}
