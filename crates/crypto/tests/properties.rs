//! Property-based tests for the AEAD and its field arithmetic.

use eag_crypto::ghash::{gf128_mul_soft, GHash};
use eag_crypto::{
    open_message, open_message_in_place, seal_message, seal_message_into, AesGcm128, CipherSuite,
    Key, Nonce, NonceSource, NONCE_LEN, TAG_LEN, WIRE_OVERHEAD,
};
use proptest::prelude::*;

fn arb_suite() -> impl Strategy<Value = CipherSuite> {
    (0usize..CipherSuite::ALL.len()).prop_map(|i| CipherSuite::ALL[i])
}

fn arb_key() -> impl Strategy<Value = Key> {
    any::<[u8; 16]>().prop_map(Key::from_bytes)
}

fn arb_nonce() -> impl Strategy<Value = Nonce> {
    any::<[u8; 12]>().prop_map(Nonce::from_bytes)
}

/// The dispatched (possibly SIMD) and the pinned-soft construction of
/// `suite` must seal to bit-identical frames and open each other's.
fn assert_dispatch_matches_soft(
    suite: CipherSuite,
    key: &Key,
    nonce: &Nonce,
    aad: &[u8],
    pt: &[u8],
) {
    let fast = suite.aead_for_key(key);
    let soft = suite.aead_for_key_soft(key);

    let mut fast_buf = pt.to_vec();
    let fast_tag = fast.seal_in_place_detached(nonce, aad, &mut fast_buf);
    let mut soft_buf = pt.to_vec();
    let soft_tag = soft.seal_in_place_detached(nonce, aad, &mut soft_buf);
    assert!(fast_buf == soft_buf, "{suite} ciphertext, len {}", pt.len());
    assert_eq!(fast_tag, soft_tag, "{suite} tag, len {}", pt.len());

    // Cross-open: soft opens the dispatched frame and vice versa.
    let mut cross = fast_buf;
    soft.open_in_place_detached(nonce, aad, &mut cross, &fast_tag)
        .unwrap();
    assert!(cross == pt, "{suite} soft open, len {}", pt.len());
    let mut cross = soft_buf;
    fast.open_in_place_detached(nonce, aad, &mut cross, &soft_tag)
        .unwrap();
    assert!(cross == pt, "{suite} dispatched open, len {}", pt.len());
}

/// The bulk regime the random sizes do not reach: a frame of many strides
/// with a ragged tail, and the paper's large-message size.
#[test]
fn dispatch_and_soft_agree_on_large_frames() {
    let key = Key::from_bytes([0x6B; 16]);
    let nonce = Nonce::from_bytes([0x1D; 12]);
    for suite in CipherSuite::ALL {
        for len in [4096 + 17, 256 * 1024] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 29 + i / 253) as u8).collect();
            assert_dispatch_matches_soft(suite, &key, &nonce, b"large-frame aad", &pt);
        }
    }
}

proptest! {
    /// seal → open is the identity for any key, nonce, AAD, and plaintext.
    #[test]
    fn seal_open_roundtrip(
        key in arb_key(),
        nonce in arb_nonce(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = AesGcm128::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &pt);
        prop_assert_eq!(sealed.len(), pt.len() + 16);
        let opened = gcm.open(&nonce, &aad, &sealed).unwrap();
        prop_assert_eq!(opened, pt);
    }

    /// Flipping any single bit anywhere in the sealed frame is detected.
    #[test]
    fn any_single_bitflip_is_rejected(
        key in arb_key(),
        nonce in arb_nonce(),
        pt in proptest::collection::vec(any::<u8>(), 1..128),
        byte_sel in any::<usize>(),
        bit in 0u8..8,
    ) {
        let gcm = AesGcm128::new(&key);
        let mut sealed = gcm.seal(&nonce, b"aad", &pt);
        let idx = byte_sel % sealed.len();
        sealed[idx] ^= 1 << bit;
        prop_assert!(gcm.open(&nonce, b"aad", &sealed).is_err());
    }

    /// The framed message format roundtrips and carries exactly +28 bytes.
    #[test]
    fn framed_message_roundtrip(
        key in arb_key(),
        seed in any::<u64>(),
        pt in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let gcm = AesGcm128::new(&key);
        let mut src = NonceSource::seeded(seed);
        let wire = seal_message(&gcm, &mut src, b"", &pt);
        prop_assert_eq!(wire.len(), pt.len() + 28);
        prop_assert_eq!(open_message(&gcm, b"", &wire).unwrap(), pt);
    }

    /// Two different plaintexts never seal to the same frame (under one
    /// nonce), and ciphertext differs from plaintext.
    #[test]
    fn sealing_is_injective(
        key in arb_key(),
        nonce in arb_nonce(),
        a in proptest::collection::vec(any::<u8>(), 1..64),
        b in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let gcm = AesGcm128::new(&key);
        let sa = gcm.seal(&nonce, b"", &a);
        let sb = gcm.seal(&nonce, b"", &b);
        if a == b {
            prop_assert_eq!(sa, sb);
        } else {
            prop_assert_ne!(sa, sb);
        }
    }

    /// GF(2^128): commutativity, and the hardware path agrees with soft.
    #[test]
    fn gf128_mul_commutes(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(gf128_mul_soft(a, b), gf128_mul_soft(b, a));
    }

    /// GF(2^128) distributes over XOR (addition in the field).
    #[test]
    fn gf128_mul_distributes(a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
        prop_assert_eq!(
            gf128_mul_soft(a ^ b, c),
            gf128_mul_soft(a, c) ^ gf128_mul_soft(b, c)
        );
    }

    /// GF(2^128) is associative.
    #[test]
    fn gf128_mul_associates(a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
        prop_assert_eq!(
            gf128_mul_soft(gf128_mul_soft(a, b), c),
            gf128_mul_soft(a, gf128_mul_soft(b, c))
        );
    }

    /// The GHASH bulk path equals the reference for arbitrary data.
    #[test]
    fn ghash_fast_equals_soft(
        h in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut fast = GHash::new(&h);
        let mut soft = GHash::new_soft(&h);
        fast.update_padded(&data);
        soft.update_padded(&data);
        prop_assert_eq!(fast.finalize(), soft.finalize());
    }

    /// In-place seal equals the allocating seal bit for bit, and in-place
    /// open inverts it — across the 128-byte fused-stride boundary.
    #[test]
    fn in_place_seal_open_matches_allocating(
        key in arb_key(),
        nonce in arb_nonce(),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        pt in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let gcm = AesGcm128::new(&key);
        let reference = gcm.seal(&nonce, &aad, &pt);

        let mut buf = pt.clone();
        let tag = gcm.seal_in_place_detached(&nonce, &aad, &mut buf);
        prop_assert_eq!(&buf[..], &reference[..pt.len()]);
        prop_assert_eq!(&tag[..], &reference[pt.len()..]);

        gcm.open_in_place_detached(&nonce, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(buf, pt);
    }

    /// A tampered in-place frame is rejected *and* the buffer is zeroed, so
    /// unauthenticated plaintext never escapes the failed open.
    #[test]
    fn in_place_open_zeroizes_on_tamper(
        key in arb_key(),
        nonce in arb_nonce(),
        pt in proptest::collection::vec(any::<u8>(), 1..300),
        byte_sel in any::<usize>(),
        bit in 0u8..8,
    ) {
        let gcm = AesGcm128::new(&key);
        let mut buf = pt.clone();
        let mut tag = gcm.seal_in_place_detached(&nonce, b"aad", &mut buf);
        // Flip one bit somewhere in ciphertext || tag.
        let idx = byte_sel % (buf.len() + TAG_LEN);
        if idx < buf.len() {
            buf[idx] ^= 1 << bit;
        } else {
            tag[idx - buf.len()] ^= 1 << bit;
        }
        prop_assert!(gcm.open_in_place_detached(&nonce, b"aad", &mut buf, &tag).is_err());
        prop_assert!(buf.iter().all(|&b| b == 0), "failed open must zeroize");
    }

    /// The scratch-reusing wire framing equals [`seal_message`]'s output and
    /// opens in place back to the plaintext, whatever the buffer held before.
    #[test]
    fn framed_in_place_roundtrip_reuses_scratch(
        key in arb_key(),
        seed in any::<u64>(),
        pt in proptest::collection::vec(any::<u8>(), 0..400),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let gcm = AesGcm128::new(&key);

        let mut src_a = NonceSource::seeded(seed);
        let reference = seal_message(&gcm, &mut src_a, b"hdr", &pt);

        let mut src_b = NonceSource::seeded(seed);
        let mut wire = junk; // scratch with arbitrary prior contents
        seal_message_into(&gcm, &mut src_b, b"hdr", &pt, &mut wire);
        prop_assert_eq!(&wire, &reference);
        prop_assert_eq!(wire.len(), pt.len() + WIRE_OVERHEAD);
        prop_assert_eq!(&wire[..NONCE_LEN], &reference[..NONCE_LEN]);

        open_message_in_place(&gcm, b"hdr", &mut wire).unwrap();
        prop_assert_eq!(wire, pt);
    }

    /// Every backend behind the [`Aead`] trait roundtrips any key, nonce,
    /// AAD, and plaintext — the cross-backend analogue of
    /// [`seal_open_roundtrip`].
    ///
    /// [`Aead`]: eag_crypto::Aead
    #[test]
    fn every_backend_roundtrips(
        suite in arb_suite(),
        key in arb_key(),
        nonce in arb_nonce(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aead = suite.aead_for_key(&key);
        let mut buf = pt.clone();
        let tag = aead.seal_in_place_detached(&nonce, &aad, &mut buf);
        if !pt.is_empty() {
            prop_assert_ne!(&buf, &pt);
        }
        aead.open_in_place_detached(&nonce, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(buf, pt);
    }

    /// Flipping any single bit of any backend's ciphertext or tag is
    /// rejected, and the failed open never exposes plaintext: per the trait
    /// contract the buffer afterwards is either all zeros (suites that must
    /// decrypt before verifying) or the untouched tampered ciphertext
    /// (ChaCha20-Poly1305, which verifies first).
    #[test]
    fn every_backend_rejects_any_bitflip(
        suite in arb_suite(),
        key in arb_key(),
        nonce in arb_nonce(),
        pt in proptest::collection::vec(any::<u8>(), 1..256),
        byte_sel in any::<usize>(),
        bit in 0u8..8,
    ) {
        let aead = suite.aead_for_key(&key);
        let mut buf = pt.clone();
        let mut tag = aead.seal_in_place_detached(&nonce, b"aad", &mut buf);
        let tampered = buf.clone();
        let idx = byte_sel % (buf.len() + TAG_LEN);
        if idx < buf.len() {
            buf[idx] ^= 1 << bit;
        } else {
            tag[idx - buf.len()] ^= 1 << bit;
        }
        let tampered = if idx < buf.len() { buf.clone() } else { tampered };
        prop_assert!(
            aead.open_in_place_detached(&nonce, b"aad", &mut buf, &tag).is_err(),
            "{} accepted a tampered frame", suite
        );
        let zeroized = buf.iter().all(|&b| b == 0);
        let untouched = buf == tampered;
        prop_assert!(zeroized || untouched, "failed open leaked state");
    }

    /// The dispatched (possibly SIMD) construction and the forced-soft
    /// construction of every suite produce bit-identical frames and agree on
    /// what opens. On hardware without the relevant CPU features both sides
    /// are soft and the test is trivially true; on hardware with them it
    /// pins the accelerated path to the portable reference.
    #[test]
    fn dispatch_and_soft_produce_identical_frames(
        suite in arb_suite(),
        key in arb_key(),
        nonce in arb_nonce(),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        // Four 1 KiB strides of the widest kernel (16-block ChaCha20; the
        // widest AES-GCM stride is 256 bytes) plus every tail class of each
        // ladder (none, whole narrower strides, whole blocks, partial).
        pt in proptest::collection::vec(any::<u8>(), 0..4400),
    ) {
        assert_dispatch_matches_soft(suite, &key, &nonce, &aad, &pt);
    }

    /// One suite's frame never opens under another suite with the same key
    /// and nonce: the suites are mutually unintelligible, so a
    /// misconfigured world cannot silently accept foreign ciphertext.
    #[test]
    fn suites_never_cross_open(
        key in arb_key(),
        nonce in arb_nonce(),
        pt in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        for sealer in CipherSuite::ALL {
            let seal_aead = sealer.aead_for_key(&key);
            let mut ct = pt.clone();
            let tag = seal_aead.seal_in_place_detached(&nonce, b"", &mut ct);
            for opener in CipherSuite::ALL {
                if opener == sealer {
                    continue;
                }
                let open_aead = opener.aead_for_key(&key);
                let mut buf = ct.clone();
                prop_assert!(
                    open_aead.open_in_place_detached(&nonce, b"", &mut buf, &tag).is_err(),
                    "{} opened a {} frame", opener, sealer
                );
            }
        }
    }
}
