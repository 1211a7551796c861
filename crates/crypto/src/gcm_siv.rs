//! AES-GCM-SIV authenticated encryption (RFC 8452).
//!
//! The nonce-misuse-resistant cipher suite. GCM fails catastrophically on a
//! repeated nonce (keystream reuse *and* authentication-key recovery);
//! GCM-SIV's synthetic IV construction caps the damage at revealing whether
//! two messages were identical. The price is two passes over the plaintext
//! (hash then encrypt — the tag must be derived from the plaintext before
//! the counter stream can start) plus a per-nonce AES key schedule, so seal
//! throughput trades against the misuse guarantee. Sessions whose nonces
//! come from entropy-starved or replayed environments should prefer it.
//!
//! Construction (for the AES-128 variant used here):
//! 1. derive per-nonce keys: `auth ‖ enc` from AES-ECB of `le32(i) ‖ nonce`
//!    for i = 0..3 (first 8 bytes of each block);
//! 2. `S = POLYVAL(auth, aad_padded ‖ pt_padded ‖ le64-length-block)`,
//!    XOR the nonce into `S[0..12]`, clear the top bit of `S[15]`;
//! 3. `tag = AES_enc(S)`; the CTR stream starts at `tag` with the top bit of
//!    byte 15 **set**, counting little-endian in bytes 0..4.
//!
//! POLYVAL rides the existing PCLMUL/soft GHASH kernels bit-reflected
//! (see [`crate::polyval`]); AES dispatches per [`crate::aes`].

use crate::aead::{Aead, CipherSuite};
use crate::aes::{Aes, Backend};
use crate::gcm::{tags_equal, OpenError, TAG_LEN};
use crate::nonce::{Nonce, NONCE_LEN};
use crate::polyval::Polyval;
use crate::Key;

/// Maximum plaintext (and AAD) length RFC 8452 permits: 2^36 bytes.
pub const MAX_PLAINTEXT_LEN_SIV: usize = 1 << 36;

/// An AES-128-GCM-SIV AEAD instance holding the key-generating key.
#[derive(Clone)]
pub struct AesGcmSiv {
    /// The key-generating key; per-message keys derive from it and the nonce.
    kgk: Aes,
    /// Pin POLYVAL (not just AES) to the portable path when forced soft.
    soft: bool,
}

impl AesGcmSiv {
    /// Creates an AES-128-GCM-SIV instance from a 128-bit [`Key`],
    /// selecting the fastest available AES and POLYVAL backends.
    pub fn new(key: &Key) -> Self {
        let kgk = Aes::new(key.as_bytes());
        let soft = kgk.backend() != Backend::AesNi;
        AesGcmSiv { kgk, soft }
    }

    /// Creates an instance pinned to the portable backends (for cross-checks
    /// and forced-soft dispatch).
    pub fn new_soft(key: &Key) -> Self {
        AesGcmSiv {
            kgk: Aes::new_soft(key.as_bytes()),
            soft: true,
        }
    }

    /// Whether this instance runs on the portable (non-SIMD) backends.
    pub fn is_soft(&self) -> bool {
        self.soft
    }

    /// An AES instance over a derived key, on the same backend as the
    /// key-generating key (so forced-soft stays soft).
    fn msg_aes(&self, key: &[u8; 16]) -> Aes {
        match self.kgk.backend() {
            Backend::Soft => Aes::new_soft(key),
            Backend::SoftConstantTime => Aes::new_constant_time(key),
            Backend::AesNi => Aes::new(key),
        }
    }

    /// RFC 8452 §4 key derivation: message-authentication and
    /// message-encryption keys from AES-ECB over `le32(i) ‖ nonce`.
    fn derive_keys(&self, nonce: &Nonce) -> ([u8; 16], [u8; 16]) {
        let mut blocks = [0u8; 64];
        for i in 0..4u32 {
            let base = 16 * i as usize;
            blocks[base..base + 4].copy_from_slice(&i.to_le_bytes());
            blocks[base + 4..base + 16].copy_from_slice(nonce.as_bytes());
        }
        self.kgk.encrypt_blocks4(&mut blocks);
        let mut auth = [0u8; 16];
        auth[..8].copy_from_slice(&blocks[0..8]);
        auth[8..].copy_from_slice(&blocks[16..24]);
        let mut enc = [0u8; 16];
        enc[..8].copy_from_slice(&blocks[32..40]);
        enc[8..].copy_from_slice(&blocks[48..56]);
        (auth, enc)
    }

    /// The synthetic IV: POLYVAL over padded AAD, padded plaintext, and the
    /// little-endian bit-length block, nonce-XORed and top-bit-cleared.
    fn synthetic_iv(&self, auth_key: &[u8; 16], nonce: &Nonce, aad: &[u8], pt: &[u8]) -> [u8; 16] {
        let mut pv = if self.soft {
            Polyval::new_soft(auth_key)
        } else {
            Polyval::new(auth_key)
        };
        pv.update_padded(aad);
        pv.update_padded(pt);
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&((aad.len() as u64) * 8).to_le_bytes());
        lens[8..].copy_from_slice(&((pt.len() as u64) * 8).to_le_bytes());
        pv.update_block(&lens);
        let mut s = pv.finalize();
        for (si, ni) in s[..NONCE_LEN].iter_mut().zip(nonce.as_bytes()) {
            *si ^= ni;
        }
        s[15] &= 0x7f;
        s
    }
}

impl Aead for AesGcmSiv {
    fn suite(&self) -> CipherSuite {
        CipherSuite::AesGcmSiv128
    }

    /// `"soft"` or `"aesni+pclmul"`.
    fn tier(&self) -> &'static str {
        if self.soft {
            "soft"
        } else {
            "aesni+pclmul"
        }
    }

    /// Panics if `data` exceeds [`MAX_PLAINTEXT_LEN_SIV`].
    fn seal_in_place_detached(&self, nonce: &Nonce, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        assert!(
            data.len() <= MAX_PLAINTEXT_LEN_SIV,
            "GCM-SIV plaintext exceeds the RFC 8452 length limit"
        );
        let (auth_key, enc_key) = self.derive_keys(nonce);
        let enc = self.msg_aes(&enc_key);
        let mut tag = self.synthetic_iv(&auth_key, nonce, aad, data);
        enc.encrypt_block(&mut tag);
        let mut ctr = tag;
        ctr[15] |= 0x80;
        le_ctr_xor(&enc, &ctr, data);
        tag
    }

    /// SIV tags are functions of the *plaintext*, so decryption must happen
    /// before the tag can be recomputed; on mismatch the buffer is zeroed.
    fn open_in_place_detached(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), OpenError> {
        if tag.len() != TAG_LEN || data.len() > MAX_PLAINTEXT_LEN_SIV {
            return Err(OpenError::Truncated);
        }
        let (auth_key, enc_key) = self.derive_keys(nonce);
        let enc = self.msg_aes(&enc_key);
        let mut ctr = [0u8; 16];
        ctr.copy_from_slice(tag);
        ctr[15] |= 0x80;
        le_ctr_xor(&enc, &ctr, data);

        let mut expect = self.synthetic_iv(&auth_key, nonce, aad, data);
        enc.encrypt_block(&mut expect);
        if !tags_equal(&expect, tag) {
            data.fill(0);
            return Err(OpenError::TagMismatch);
        }
        Ok(())
    }
    // verify_detached: the default (decrypt-and-discard) — SIV tags cover
    // the plaintext, so there is no ciphertext-only check.
}

/// XORs `data` with an AES-CTR keystream in GCM-SIV's counter layout:
/// a **little-endian** 32-bit counter in bytes 0..4 of the block (wrapping
/// mod 2^32), the rest of the block fixed. Four blocks are generated per
/// AES call so the AES-NI path stays pipelined.
fn le_ctr_xor(aes: &Aes, block: &[u8; 16], data: &mut [u8]) {
    let mut ctr = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    for chunk in data.chunks_mut(64) {
        let mut ks = [0u8; 64];
        for i in 0..4 {
            let base = 16 * i;
            ks[base..base + 16].copy_from_slice(block);
            ks[base..base + 4].copy_from_slice(&ctr.wrapping_add(i as u32).to_le_bytes());
        }
        aes.encrypt_blocks4(&mut ks);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        ctr = ctr.wrapping_add(chunk.len().div_ceil(16) as u32);
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

    fn rfc_key() -> Key {
        let mut k = [0u8; 16];
        k.copy_from_slice(&hex("01000000000000000000000000000000"));
        Key::from_bytes(k)
    }

    fn rfc_nonce() -> Nonce {
        let mut n = [0u8; 12];
        n.copy_from_slice(&hex("030000000000000000000000"));
        Nonce::from_bytes(n)
    }

    /// RFC 8452 Appendix C.1, first vectors (AES-128, empty AAD), checked on
    /// both the detected and the forced-soft backends.
    #[test]
    fn rfc8452_known_answers() {
        struct Kat {
            pt: &'static str,
            ct_and_tag: &'static str,
        }
        let kats = [
            Kat {
                pt: "",
                ct_and_tag: "dc20e2d83f25705bb49e439eca56de25",
            },
            Kat {
                pt: "0100000000000000",
                ct_and_tag: "b5d839330ac7b786578782fff6013b815b287c22493a364c",
            },
            Kat {
                pt: "010000000000000000000000",
                ct_and_tag: "7323ea61d05932260047d942a4978db357391a0bc4fdec8b0d106639",
            },
            Kat {
                pt: "01000000000000000000000000000000",
                ct_and_tag: "743f7c8077ab25f8624e2e948579cf77303aaf90f6fe21199c6068577437a0c4",
            },
        ];
        for cipher in [AesGcmSiv::new(&rfc_key()), AesGcmSiv::new_soft(&rfc_key())] {
            for (i, kat) in kats.iter().enumerate() {
                let pt = hex(kat.pt);
                let sealed = cipher.seal(&rfc_nonce(), b"", &pt);
                assert_eq!(sealed, hex(kat.ct_and_tag), "kat {i}");
                assert_eq!(cipher.open(&rfc_nonce(), b"", &sealed).unwrap(), pt);
            }
        }
    }

    #[test]
    fn roundtrip_across_sizes_and_backends() {
        let key = Key::from_bytes([0x5Cu8; 16]);
        let fast = AesGcmSiv::new(&key);
        let soft = AesGcmSiv::new_soft(&key);
        let nonce = Nonce::from_bytes([3u8; 12]);
        for len in [0usize, 1, 15, 16, 17, 64, 65, 129, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 29 % 251) as u8).collect();
            let sealed = fast.seal(&nonce, b"hdr", &pt);
            assert_eq!(sealed, soft.seal(&nonce, b"hdr", &pt), "len = {len}");
            assert_eq!(fast.open(&nonce, b"hdr", &sealed).unwrap(), pt);
            assert_eq!(soft.open(&nonce, b"hdr", &sealed).unwrap(), pt);
            assert!(fast.open(&nonce, b"bad", &sealed).is_err());
        }
    }

    #[test]
    fn tampered_frames_rejected_and_zeroized() {
        let cipher = AesGcmSiv::new(&Key::from_bytes([0x11u8; 16]));
        let nonce = Nonce::from_bytes([8u8; 12]);
        let mut sealed = cipher.seal(&nonce, b"aad", b"attack at dawn");
        for i in 0..sealed.len() {
            sealed[i] ^= 0x20;
            assert_eq!(
                cipher.open(&nonce, b"aad", &sealed),
                Err(OpenError::TagMismatch),
                "flip at byte {i}"
            );
            sealed[i] ^= 0x20;
        }
        // In-place open zeroizes on mismatch.
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut buf = ct.to_vec();
        let mut bad_tag = [0u8; TAG_LEN];
        bad_tag.copy_from_slice(tag);
        bad_tag[5] ^= 0x80;
        assert!(cipher
            .open_in_place_detached(&nonce, b"aad", &mut buf, &bad_tag)
            .is_err());
        assert!(buf.iter().all(|&b| b == 0));
    }

    /// Nonce misuse: same (key, nonce, aad, plaintext) → same frame
    /// (deterministic), but any plaintext difference re-randomizes the whole
    /// ciphertext (the SIV property — no keystream-prefix reuse).
    #[test]
    fn nonce_reuse_is_deterministic_not_catastrophic() {
        let cipher = AesGcmSiv::new(&Key::from_bytes([0x77u8; 16]));
        let nonce = Nonce::from_bytes([1u8; 12]);
        let a = cipher.seal(&nonce, b"", b"identical message");
        let b = cipher.seal(&nonce, b"", b"identical message");
        assert_eq!(a, b);
        let c = cipher.seal(&nonce, b"", b"identical messagf");
        // Under GCM, two same-nonce seals share a keystream prefix, so the
        // XOR of the ciphertexts would equal the XOR of the plaintexts for
        // the common prefix. Under SIV the tags differ, the counters differ,
        // and the shared-prefix relation must not hold.
        let shared_prefix = a
            .iter()
            .zip(c.iter())
            .take(16)
            .filter(|(x, y)| x == y)
            .count();
        assert!(
            shared_prefix < 16,
            "ciphertexts must diverge from the first block"
        );
    }
}
