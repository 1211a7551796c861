//! The AEAD seam: one trait over every cipher suite, plus runtime selection.
//!
//! Everything above this crate (the runtime's encrypted transport, the
//! framing helpers in [`crate`], the bench probes) speaks [`Aead`] — the
//! detached in-place seal/open/verify surface. Each suite implements the
//! trait directly, in its own module; the `Vec`-returning [`Aead::seal`] /
//! [`Aead::open`] are written once, here. The three implementations are:
//!
//! | suite | cipher | misuse posture | fast path |
//! |---|---|---|---|
//! | [`CipherSuite::AesGcm128`] | AES-128-GCM | nonce reuse is catastrophic | fused VAES+VPCLMUL (512-bit), else AES-NI+PCLMUL |
//! | [`CipherSuite::AesGcmSiv128`] | AES-128-GCM-SIV | misuse-resistant | AES-NI + PCLMUL POLYVAL |
//! | [`CipherSuite::ChaCha20Poly1305`] | ChaCha20-Poly1305 | nonce reuse leaks XOR | multi-block ChaCha20 (AVX-512 / AVX2 / SSE2) + multi-block Poly1305 (IFMA, else `u128`); no AES-NI needed |
//!
//! All suites share 12-byte nonces and 16-byte tags, so the wire framing
//! (and [`crate::WIRE_OVERHEAD`]) is suite-invariant: a frame's suite is
//! session configuration, not wire format. Backend dispatch happens inside
//! each implementation (see [`crate::dispatch`] for the forced-soft
//! override; [`Aead::tier`] names the outcome); selecting a *suite* is this
//! module's job, via [`CipherSuite::aead_for_key`].

use crate::chacha20poly1305::ChaCha20Poly1305;
use crate::gcm::{AesGcm, OpenError, TAG_LEN};
use crate::gcm_siv::AesGcmSiv;
use crate::nonce::Nonce;
use crate::Key;

/// The detached AEAD surface every cipher suite implements.
///
/// Object-safe: the runtime holds a `&dyn Aead` per world and the framing
/// helpers ([`crate::seal_segments_into`], [`crate::open_frame_in_place`],
/// …) are generic over `A: Aead + ?Sized`, so static and dynamic callers
/// share one code path.
pub trait Aead: Send + Sync {
    /// The suite this instance implements.
    fn suite(&self) -> CipherSuite;

    /// The kernels this instance dispatched to, for logs and reports:
    /// `"soft…"` on the portable backends, else the SIMD tier's name.
    fn tier(&self) -> &'static str;

    /// Encrypts `data` in place and returns the 16-byte authentication tag.
    /// Panics if `data` exceeds the suite's length limit (its counter would
    /// wrap and reuse keystream).
    fn seal_in_place_detached(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN];

    /// Verifies `tag` and decrypts `data` (ciphertext) in place. On failure
    /// no unauthenticated plaintext escapes: suites that must decrypt before
    /// verifying (GCM, GCM-SIV) zero the buffer; ChaCha20-Poly1305 verifies
    /// first and leaves the ciphertext untouched.
    fn open_in_place_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), OpenError>;

    /// Verifies the tag of `ciphertext` without exposing plaintext — the
    /// per-hop forwarding check. GCM and ChaCha20-Poly1305 authenticate the
    /// ciphertext directly (no decryption at all); the default
    /// implementation for plaintext-authenticating suites (GCM-SIV)
    /// decrypts a scratch copy and discards it.
    fn verify_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<(), OpenError> {
        let mut scratch = ciphertext.to_vec();
        self.open_in_place_detached(nonce, aad, &mut scratch, tag)
    }

    /// Encrypts and authenticates: returns `ciphertext || tag`.
    fn seal(&self, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts `ciphertext || tag`; returns the plaintext.
    fn open(&self, nonce: &Nonce, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, OpenError> {
        if sealed.len() < TAG_LEN {
            return Err(OpenError::Truncated);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut pt = ct.to_vec();
        self.open_in_place_detached(nonce, aad, &mut pt, tag)?;
        Ok(pt)
    }
}

/// The cipher suites a session can run under.
///
/// Serialized by [`CipherSuite::name`] everywhere (bench reports, CLI flags,
/// trace labels) — the numeric [`CipherSuite::id`] exists only for the
/// metrics stamp, which is a `u64` struct of counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// AES-128-GCM — the paper's scheme and the default.
    AesGcm128,
    /// AES-128-GCM-SIV — nonce-misuse-resistant sessions.
    AesGcmSiv128,
    /// ChaCha20-Poly1305 — hosts without AES-NI.
    ChaCha20Poly1305,
}

impl CipherSuite {
    /// Every suite, in `id` order.
    pub const ALL: [CipherSuite; 3] = [
        CipherSuite::AesGcm128,
        CipherSuite::AesGcmSiv128,
        CipherSuite::ChaCha20Poly1305,
    ];

    /// The canonical (CLI / report) name.
    pub fn name(self) -> &'static str {
        match self {
            CipherSuite::AesGcm128 => "aes-gcm",
            CipherSuite::AesGcmSiv128 => "aes-gcm-siv",
            CipherSuite::ChaCha20Poly1305 => "chacha20-poly1305",
        }
    }

    /// Parses a suite name (canonical names plus common short aliases).
    pub fn by_name(name: &str) -> Option<CipherSuite> {
        match name {
            "aes-gcm" | "gcm" | "aes-gcm-128" => Some(CipherSuite::AesGcm128),
            "aes-gcm-siv" | "gcm-siv" | "siv" => Some(CipherSuite::AesGcmSiv128),
            "chacha20-poly1305" | "chacha" | "chacha20" => Some(CipherSuite::ChaCha20Poly1305),
            _ => None,
        }
    }

    /// A small non-zero numeric id for stamping into metrics counters
    /// (0 is reserved for "unset").
    pub fn id(self) -> u64 {
        match self {
            CipherSuite::AesGcm128 => 1,
            CipherSuite::AesGcmSiv128 => 2,
            CipherSuite::ChaCha20Poly1305 => 3,
        }
    }

    /// The suite with the given [`CipherSuite::id`], if any.
    pub fn from_id(id: u64) -> Option<CipherSuite> {
        CipherSuite::ALL.iter().copied().find(|s| s.id() == id)
    }

    /// Constructs the suite's AEAD over a 128-bit session key.
    ///
    /// AES suites use the key directly; ChaCha20-Poly1305 expands it to 256
    /// bits (see [`ChaCha20Poly1305::new`]). Backend dispatch (SIMD vs.
    /// soft) happens inside the constructor per [`crate::dispatch`].
    pub fn aead_for_key(self, key: &Key) -> Box<dyn Aead> {
        match self {
            CipherSuite::AesGcm128 => Box::new(AesGcm::new(key)),
            CipherSuite::AesGcmSiv128 => Box::new(AesGcmSiv::new(key)),
            CipherSuite::ChaCha20Poly1305 => Box::new(ChaCha20Poly1305::new(key)),
        }
    }

    /// Like [`CipherSuite::aead_for_key`] but pinned to the portable
    /// backends (the dispatch-equivalence tests compare the two).
    pub fn aead_for_key_soft(self, key: &Key) -> Box<dyn Aead> {
        match self {
            CipherSuite::AesGcm128 => Box::new(AesGcm::new_soft(key)),
            CipherSuite::AesGcmSiv128 => Box::new(AesGcmSiv::new_soft(key)),
            CipherSuite::ChaCha20Poly1305 => Box::new(ChaCha20Poly1305::new_soft(key)),
        }
    }
}

impl std::fmt::Display for CipherSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonce::NonceSource;
    use crate::tests::framed;

    #[test]
    fn names_round_trip() {
        for suite in CipherSuite::ALL {
            assert_eq!(CipherSuite::by_name(suite.name()), Some(suite));
            assert_eq!(CipherSuite::from_id(suite.id()), Some(suite));
            assert_eq!(format!("{suite}"), suite.name());
        }
        assert_eq!(CipherSuite::by_name("des"), None);
        assert_eq!(CipherSuite::from_id(0), None);
    }

    #[test]
    fn every_suite_roundtrips_through_the_trait() {
        let key = Key::from_bytes([0xA1u8; 16]);
        for suite in CipherSuite::ALL {
            let aead = suite.aead_for_key(&key);
            assert_eq!(aead.suite(), suite);
            let mut src = NonceSource::seeded(17);
            for len in [0usize, 1, 16, 127, 128, 129, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 3 % 251) as u8).collect();
                let mut wire = framed(&*aead, &mut src, b"aad", &pt);
                assert_eq!(wire.len(), pt.len() + crate::WIRE_OVERHEAD, "{suite}");
                assert!(
                    crate::verify_message(&*aead, b"aad", &wire).is_ok(),
                    "{suite}"
                );
                assert!(
                    crate::verify_message(&*aead, b"bad", &wire).is_err(),
                    "{suite}"
                );
                let range = crate::open_frame_in_place(&*aead, b"aad", &mut wire).unwrap();
                assert_eq!(wire[range], pt[..], "{suite} len {len}");
            }
        }
    }

    #[test]
    fn suites_are_mutually_unintelligible() {
        // A frame sealed under one suite must not open under another, even
        // with the same key and nonce stream seed.
        let key = Key::from_bytes([0x33u8; 16]);
        for a in CipherSuite::ALL {
            for b in CipherSuite::ALL {
                if a == b {
                    continue;
                }
                let sealer = a.aead_for_key(&key);
                let opener = b.aead_for_key(&key);
                let mut wire = framed(&*sealer, &mut NonceSource::seeded(4), b"", b"payload");
                assert!(
                    crate::open_frame_in_place(&*opener, b"", &mut wire).is_err(),
                    "{a} frame opened under {b}"
                );
            }
        }
    }

    /// `tier()` through the seam is the suite's own dispatch, and the
    /// pinned-soft construction reports a soft tier on every suite.
    #[test]
    fn tier_is_the_suites_own_dispatch() {
        let key = Key::from_bytes([0x2Cu8; 16]);
        for suite in CipherSuite::ALL {
            let own = match suite {
                CipherSuite::AesGcm128 => AesGcm::new(&key).tier(),
                CipherSuite::AesGcmSiv128 => AesGcmSiv::new(&key).tier(),
                CipherSuite::ChaCha20Poly1305 => ChaCha20Poly1305::new(&key).tier(),
            };
            assert_eq!(suite.aead_for_key(&key).tier(), own, "{suite}");
            let soft = suite.aead_for_key_soft(&key).tier();
            assert!(soft.starts_with("soft"), "{suite} soft tier {soft}");
        }
        let siv = AesGcmSiv::new(&key);
        assert_eq!(siv.is_soft(), siv.tier() == "soft");
    }
}
