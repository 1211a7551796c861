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
//!   AES-NI + PCLMULQDQ ([`AesGcm::tier`] names the one in use).
//! - **AES-128-GCM-SIV** ([`gcm_siv`]) — nonce-misuse-resistant (RFC 8452);
//!   POLYVAL rides the same PCLMUL kernel bit-reflected.
//! - **ChaCha20-Poly1305** ([`chacha20poly1305`]) — for hosts without
//!   AES-NI (RFC 8439); 16 / 8 / 4 ChaCha20 blocks per stride on AVX-512 /
//!   AVX2 / SSE2 and 8 or 4 Poly1305 blocks per step
//!   ([`ChaCha20Poly1305::tier`] names the pair in use), or scalar.
//!
//! Every suite frames messages identically — `nonce(12) ‖ ct ‖ tag(16)`,
//! exactly **28 bytes** ([`WIRE_OVERHEAD`]) over the plaintext — so suite
//! choice is session configuration, not wire format. The framing helpers
//! ([`seal_message`], [`seal_segments_into`], [`open_frame_in_place`], …)
//! are generic over `A: Aead + ?Sized` and work with `&dyn Aead`.
//!
//! ## Layout
//! - [`aead`] — the [`Aead`] trait and [`CipherSuite`] selection.
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
//! use eag_crypto::{AesGcm128, CipherSuite, Key, Nonce};
//!
//! let key = Key::from_bytes([0u8; 16]);
//! let cipher = AesGcm128::new(&key);
//! let nonce = Nonce::from_bytes([1u8; 12]);
//! let ct = cipher.seal(&nonce, b"header", b"secret payload");
//! let pt = cipher.open(&nonce, b"header", &ct).expect("authentic");
//! assert_eq!(pt, b"secret payload");
//!
//! // Suite-generic: the same framing under a misuse-resistant AEAD.
//! let aead = CipherSuite::AesGcmSiv128.aead_for_key(&key);
//! let mut nonces = eag_crypto::NonceSource::seeded(7);
//! let wire = eag_crypto::seal_message(&*aead, &mut nonces, b"hdr", b"payload");
//! assert_eq!(eag_crypto::open_message(&*aead, b"hdr", &wire).unwrap(), b"payload");
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

/// Seals `plaintext` into the paper's wire format:
/// `nonce(12) || ciphertext(len) || tag(16)`.
///
/// The nonce is drawn from `source`; the same `aad` must be presented to
/// [`open_message`].
pub fn seal_message<A: Aead + ?Sized>(
    cipher: &A,
    source: &mut NonceSource,
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    seal_message_into(cipher, source, aad, plaintext, &mut out);
    out
}

/// Seals `plaintext` into `out` (cleared first) in the wire format of
/// [`seal_message`], reusing `out`'s allocation when it is large enough.
///
/// This is the steady-state path for the runtime: a per-rank scratch buffer
/// makes every seal allocation-free after the first message of each size
/// class.
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

/// Opens a message produced by [`seal_message`]; returns the plaintext or an
/// error if the frame is malformed or fails authentication.
pub fn open_message<A: Aead + ?Sized>(
    cipher: &A,
    aad: &[u8],
    wire: &[u8],
) -> Result<Vec<u8>, OpenError> {
    let mut buf = wire.to_vec();
    open_message_in_place(cipher, aad, &mut buf)?;
    Ok(buf)
}

/// Opens a wire frame in place: on success `wire` holds just the plaintext
/// (the nonce and tag framing are stripped); on failure `wire`'s payload
/// bytes are zeroed and the error is returned.
///
/// The allocation-free counterpart of [`open_message`] — the decrypt happens
/// inside the frame's own buffer.
pub fn open_message_in_place<A: Aead + ?Sized>(
    cipher: &A,
    aad: &[u8],
    wire: &mut Vec<u8>,
) -> Result<(), OpenError> {
    let pt = open_frame_in_place(cipher, aad, wire)?;
    wire.truncate(pt.end);
    wire.drain(..pt.start);
    Ok(())
}

/// Decrypts a wire frame in place without restitching the buffer: on success
/// the plaintext sits at the returned range of `wire` (the nonce prefix and
/// tag suffix are left untouched around it) and no bytes move.
///
/// This is the zero-copy counterpart of [`open_message_in_place`] for callers
/// that can hold a view into the frame — freeze the buffer and slice the
/// range instead of paying the `drain` memmove.
pub fn open_frame_in_place<A: Aead + ?Sized>(
    cipher: &A,
    aad: &[u8],
    wire: &mut [u8],
) -> Result<std::ops::Range<usize>, OpenError> {
    if wire.len() < WIRE_OVERHEAD {
        return Err(OpenError::Truncated);
    }
    let mut nb = [0u8; NONCE_LEN];
    nb.copy_from_slice(&wire[..NONCE_LEN]);
    let nonce = Nonce::from_bytes(nb);
    let ct_end = wire.len() - TAG_LEN;
    let (frame, tag) = wire.split_at_mut(ct_end);
    cipher.open_in_place_detached(&nonce, aad, &mut frame[NONCE_LEN..], tag)?;
    Ok(NONCE_LEN..ct_end)
}

/// Verifies a wire frame produced by [`seal_message`] without decrypting
/// it: parses `nonce(12) || ciphertext || tag(16)` and checks the tag
/// against the AAD and ciphertext.
///
/// Forwarding hops use this for in-flight integrity: GCM authenticates the
/// ciphertext, so no plaintext is produced (or zeroized) on the hot path.
pub fn verify_message<A: Aead + ?Sized>(
    cipher: &A,
    aad: &[u8],
    wire: &[u8],
) -> Result<(), OpenError> {
    if wire.len() < WIRE_OVERHEAD {
        return Err(OpenError::Truncated);
    }
    let mut nb = [0u8; NONCE_LEN];
    nb.copy_from_slice(&wire[..NONCE_LEN]);
    let nonce = Nonce::from_bytes(nb);
    let ct_end = wire.len() - TAG_LEN;
    cipher.verify_detached(&nonce, aad, &wire[NONCE_LEN..ct_end], &wire[ct_end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_message_matches_open_verdict() {
        let key = Key::from_bytes([7u8; 16]);
        let cipher = AesGcm128::new(&key);
        let mut source = NonceSource::seeded(9);
        for len in [0usize, 1, 16, 129, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            let mut wire = seal_message(&cipher, &mut source, b"aad", &pt);
            assert!(verify_message(&cipher, b"aad", &wire).is_ok());
            assert!(verify_message(&cipher, b"bad", &wire).is_err());
            for i in 0..wire.len() {
                wire[i] ^= 0x40;
                assert!(
                    verify_message(&cipher, b"aad", &wire).is_err(),
                    "flip at byte {i} of len {len} undetected"
                );
                wire[i] ^= 0x40;
            }
            // Verification must not consume the frame: open still succeeds.
            assert_eq!(open_message(&cipher, b"aad", &wire).unwrap(), pt);
        }
        assert!(matches!(
            verify_message(&cipher, b"", &[0u8; 27]),
            Err(OpenError::Truncated)
        ));
    }

    #[test]
    fn wire_overhead_is_28_bytes() {
        assert_eq!(WIRE_OVERHEAD, 28);
    }

    #[test]
    fn seal_open_roundtrip() {
        let key = Key::from_bytes([7u8; 16]);
        let cipher = AesGcm128::new(&key);
        let mut source = NonceSource::seeded(42);
        for len in [0usize, 1, 15, 16, 17, 255, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let wire = seal_message(&cipher, &mut source, b"ctx", &pt);
            assert_eq!(wire.len(), pt.len() + WIRE_OVERHEAD);
            let back = open_message(&cipher, b"ctx", &wire).unwrap();
            assert_eq!(back, pt);
        }
    }

    #[test]
    fn open_rejects_wrong_aad() {
        let key = Key::from_bytes([7u8; 16]);
        let cipher = AesGcm128::new(&key);
        let mut source = NonceSource::seeded(42);
        let wire = seal_message(&cipher, &mut source, b"aad-a", b"hello");
        assert!(open_message(&cipher, b"aad-b", &wire).is_err());
    }

    #[test]
    fn open_rejects_truncated_frame() {
        let key = Key::from_bytes([7u8; 16]);
        let cipher = AesGcm128::new(&key);
        assert!(matches!(
            open_message(&cipher, b"", &[0u8; 27]),
            Err(OpenError::Truncated)
        ));
    }

    #[test]
    fn seal_segments_matches_contiguous_seal() {
        let key = Key::from_bytes([3u8; 16]);
        let cipher = AesGcm128::new(&key);
        let pt: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 128, 299, 300] {
            let whole = seal_message(&cipher, &mut NonceSource::seeded(5), b"aad", &pt);
            let mut gathered = Vec::new();
            seal_segments_into(
                &cipher,
                &mut NonceSource::seeded(5),
                b"aad",
                [&pt[..split], &pt[split..]],
                &mut gathered,
            );
            assert_eq!(whole, gathered, "split at {split}");
        }
    }

    #[test]
    fn open_frame_in_place_returns_plaintext_range() {
        let key = Key::from_bytes([4u8; 16]);
        let cipher = AesGcm128::new(&key);
        let mut source = NonceSource::seeded(8);
        for len in [0usize, 1, 64, 333] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut wire = seal_message(&cipher, &mut source, b"hdr", &pt);
            let before = wire.len();
            let range = open_frame_in_place(&cipher, b"hdr", &mut wire).unwrap();
            assert_eq!(wire.len(), before, "frame length must not change");
            assert_eq!(range, NONCE_LEN..before - TAG_LEN);
            assert_eq!(&wire[range], &pt[..]);
        }
        let mut short = vec![0u8; WIRE_OVERHEAD - 1];
        assert!(matches!(
            open_frame_in_place(&cipher, b"", &mut short),
            Err(OpenError::Truncated)
        ));
        let mut tampered = seal_message(&cipher, &mut source, b"hdr", b"payload");
        tampered[NONCE_LEN] ^= 1;
        assert!(open_frame_in_place(&cipher, b"hdr", &mut tampered).is_err());
    }

    #[test]
    fn key_debug_redacts() {
        let key = Key::from_bytes([9u8; 16]);
        assert_eq!(format!("{key:?}"), "Key(<redacted>)");
    }
}
