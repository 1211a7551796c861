//! Security contract of the encrypted algorithms under the paper's threat
//! model: a passive network adversary sees all inter-node traffic (and an
//! active one may tamper with it). Intra-node traffic is trusted.

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, FrameKind, Mapping, Topology};
use eag_runtime::{pattern_block, run, DataMode, WorldSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x5EC;

fn tapped_spec(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
    let mut s = WorldSpec::new(
        Topology::new(p, nodes, mapping),
        profile::free(),
        DataMode::Real { seed: SEED },
    );
    s.capture_wire = true;
    s
}

/// No encrypted algorithm ever sends a frame classified as plaintext over
/// an inter-node link.
#[test]
fn no_plaintext_frames_on_the_wire() {
    for &algo in Algorithm::encrypted_all() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (12, 4), (9, 3)] {
                let report = run(&tapped_spec(p, nodes, mapping), move |ctx| {
                    Collective::Allgather(algo).run(ctx, 96).verify(SEED);
                });
                assert!(
                    !report.wiretap.saw_plaintext_frame(),
                    "{algo} p={p} N={nodes} {mapping}: plaintext frame captured"
                );
            }
        }
    }
}

/// Stronger: no input block ever appears as a byte substring of any
/// captured frame — GCM ciphertexts are indistinguishable from random, so
/// a match would mean plaintext leaked.
#[test]
fn no_input_block_leaks_into_captured_bytes() {
    let (p, nodes, m) = (12usize, 3usize, 128usize);
    for &algo in Algorithm::encrypted_all() {
        let report = run(&tapped_spec(p, nodes, Mapping::Block), move |ctx| {
            Collective::Allgather(algo).run(ctx, m).verify(SEED);
        });
        for rank in 0..p {
            let block = pattern_block(SEED, rank, m);
            assert!(
                !report.wiretap.contains(&block),
                "{algo}: rank {rank}'s block found in wire capture"
            );
            // Even a 32-byte prefix must not appear.
            assert!(
                !report.wiretap.contains(&block[..32]),
                "{algo}: rank {rank}'s block prefix found in wire capture"
            );
        }
    }
}

/// Sanity check of the methodology: an *unencrypted* algorithm run through
/// the same tap DOES leak its blocks — so the negative results above are
/// meaningful.
#[test]
fn wiretap_catches_unencrypted_traffic() {
    let (p, nodes, m) = (8usize, 4usize, 128usize);
    let report = run(&tapped_spec(p, nodes, Mapping::Block), move |ctx| {
        Collective::Allgather(Algorithm::Ring)
            .run(ctx, m)
            .verify(SEED);
    });
    assert!(report.wiretap.saw_plaintext_frame());
    let block0 = pattern_block(SEED, 0, m);
    assert!(report.wiretap.contains(&block0));
}

/// Every inter-node frame of every encrypted algorithm carries the GCM
/// framing: wire length = payload + k·28 for k ≥ 1 sealed items.
#[test]
fn captured_frames_are_cipher_frames() {
    for &algo in Algorithm::encrypted_all() {
        let report = run(&tapped_spec(8, 4, Mapping::Block), move |ctx| {
            Collective::Allgather(algo).run(ctx, 64).verify(SEED);
        });
        for f in report.wiretap.frames() {
            assert_eq!(f.kind, FrameKind::Cipher, "{algo}: frame {f:?}");
            assert!(
                f.len >= 64 + 28,
                "{algo}: frame shorter than one sealed block"
            );
        }
    }
}

/// Ciphertexts are fresh: the same plaintext block crossing different links
/// never produces the same bytes (random nonces). We check that no two
/// captured frames are byte-identical.
#[test]
fn no_two_captured_frames_are_identical() {
    // O-Ring re-encrypts the same plaintext at every node exit — the
    // clearest place where nonce reuse would show as duplicate frames.
    let report = run(&tapped_spec(9, 3, Mapping::Block), |ctx| {
        Collective::Allgather(Algorithm::ORing)
            .run(ctx, 64)
            .verify(SEED);
    });
    let frames = report.wiretap.frames();
    for (i, a) in frames.iter().enumerate() {
        for b in frames.iter().skip(i + 1) {
            assert_ne!(a.bytes, b.bytes, "identical ciphertext frames captured");
        }
    }
}

/// Active adversary: flipping any byte of a sealed message makes the
/// receiver's GCM authentication fail, which aborts the collective.
#[test]
fn tampered_ciphertext_aborts_the_collective() {
    use eag_crypto::{AesGcm128, Key, NonceSource};
    // Direct check at the seal/open layer with the runtime's framing.
    let key = Key::from_bytes([3u8; 16]);
    let gcm = AesGcm128::new(&key);
    let mut nonces = NonceSource::seeded(1);
    let mut wire = eag_crypto::seal_message(&gcm, &mut nonces, b"", b"the block");
    wire[14] ^= 0x40;
    assert!(eag_crypto::open_message(&gcm, b"", &wire).is_err());

    // And end to end: a world where one rank forwards a corrupted sealed
    // item must panic (GCM tag mismatch), not deliver wrong data.
    let spec = tapped_spec(4, 4, Mapping::Block);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run(&spec, |ctx| {
            use eag_runtime::{Item, Parcel};
            let rank = ctx.rank();
            if rank == 0 {
                let mut sealed = ctx.encrypt(ctx.my_block(64));
                if let eag_runtime::Data::Real(bytes) = &mut sealed.data {
                    bytes.xor_byte(20, 0x01); // corrupt the ciphertext body
                }
                ctx.send(1, 9, Parcel::one(Item::Sealed(sealed)));
            } else if rank == 1 {
                let parcel = ctx.recv(0, 9);
                let _ = ctx.decrypt(parcel.items[0].clone().into_sealed());
            }
        })
    }));
    assert!(result.is_err(), "tampering went undetected");
}

/// Nonce discipline: forwarding the same ciphertext re-sends the same nonce
/// (harmless), but a nonce must never appear with two *different*
/// ciphertexts — that would be nonce reuse across encryptions, which breaks
/// GCM entirely.
#[test]
fn no_nonce_is_reused_for_distinct_ciphertexts() {
    use std::collections::HashMap;
    for &algo in Algorithm::encrypted_all() {
        let report = run(&tapped_spec(8, 2, Mapping::Block), move |ctx| {
            Collective::Allgather(algo).run(ctx, 32).verify(SEED);
        });
        // Each sealed item of a 32-byte block is nonce(12)|ct(32)|tag(16)
        // = 60 bytes; O-RD/HS frames can carry larger merged items, so key
        // the check on the nonce prefix of each frame and of each 60-byte
        // item boundary where frames are exact multiples.
        let mut seen: HashMap<[u8; 12], Vec<u8>> = HashMap::new();
        for f in report.wiretap.frames() {
            if f.bytes.len() % 60 != 0 {
                continue; // merged-ciphertext frame; covered by prefix below
            }
            let flat = f.bytes.to_vec();
            for item in flat.chunks_exact(60) {
                let mut n = [0u8; 12];
                n.copy_from_slice(&item[..12]);
                let body = item[12..].to_vec();
                if let Some(prev) = seen.insert(n, body.clone()) {
                    assert_eq!(
                        prev, body,
                        "{algo}: one nonce used for two different ciphertexts"
                    );
                }
            }
        }
    }
}

/// Cross-rank nonce uniqueness: in a p = 16 real-mode world every rank
/// draws from its own independent nonce source, and no nonce observed on
/// the wire may ever pair with two different ciphertexts — neither within
/// one rank's stream nor *across* ranks (a collision there would mean the
/// per-rank sources are correlated, e.g. seeded identically).
#[test]
fn nonces_are_unique_across_ranks() {
    use std::collections::HashMap;
    for &algo in Algorithm::encrypted_all() {
        let report = run(&tapped_spec(16, 4, Mapping::Block), move |ctx| {
            Collective::Allgather(algo).run(ctx, 48).verify(SEED);
        });
        // nonce of the frame's leading item → the first 16 ciphertext bytes
        // after it. A forwarded item re-sends both unchanged (possibly from
        // another rank, possibly with a different frame tail); two distinct
        // encryptions colliding on a nonce would disagree on the ciphertext.
        let mut seen: HashMap<[u8; 12], [u8; 16]> = HashMap::new();
        let mut frames = 0usize;
        for f in report.wiretap.frames() {
            assert!(f.bytes.len() >= 28, "{algo}: frame below GCM framing size");
            frames += 1;
            let flat = f.bytes.to_vec();
            let mut n = [0u8; 12];
            n.copy_from_slice(&flat[..12]);
            let mut ct = [0u8; 16];
            ct.copy_from_slice(&flat[12..28]);
            if let Some(prev) = seen.insert(n, ct) {
                assert_eq!(
                    prev, ct,
                    "{algo}: one nonce paired with two different ciphertexts"
                );
            }
        }
        assert!(frames > 0, "{algo}: wiretap captured nothing");
    }
}

/// Stronger issuance-level check: all ranks share one GCM key, so a nonce
/// must never repeat across *any* two encryptions anywhere in the world.
/// Sixteen single-process nodes seal 64 fresh messages each (every hop
/// inter-node, nothing forwarded), and all 1024 wire nonces must be
/// pairwise distinct.
#[test]
fn every_issued_nonce_is_unique_across_ranks() {
    use eag_runtime::{Item, Parcel};
    use std::collections::HashSet;
    let spec = tapped_spec(16, 16, Mapping::Block);
    let report = run(&spec, |ctx| {
        let p = ctx.p();
        let me = ctx.rank();
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        for round in 0..64u64 {
            let sealed = ctx.encrypt(ctx.my_block(32));
            ctx.send(next, 1000 + round, Parcel::one(Item::Sealed(sealed)));
            let _ = ctx.recv(prev, 1000 + round);
        }
    });
    let mut seen: HashSet<[u8; 12]> = HashSet::new();
    for f in report.wiretap.frames() {
        let mut n = [0u8; 12];
        n.copy_from_slice(&f.bytes.to_vec()[..12]);
        assert!(seen.insert(n), "a 96-bit nonce was issued twice");
    }
    assert_eq!(seen.len(), 16 * 64, "expected one fresh nonce per seal");
}

/// Relabeling attack: an adversary swaps the (unauthenticated-looking)
/// origins metadata of a captured ciphertext. Because the runtime binds
/// origins and block length into the GCM associated data, decryption must
/// fail — blocks can never be placed under the wrong rank.
#[test]
fn relabeled_ciphertext_is_rejected() {
    let spec = tapped_spec(4, 4, Mapping::Block);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run(&spec, |ctx| {
            use eag_runtime::{Item, Parcel};
            match ctx.rank() {
                0 => {
                    let mut sealed = ctx.encrypt(ctx.my_block(64));
                    // Claim the ciphertext carries rank 2's block.
                    sealed.origins = vec![2];
                    ctx.send(1, 9, Parcel::one(Item::Sealed(sealed)));
                }
                1 => {
                    let parcel = ctx.recv(0, 9);
                    let _ = ctx.decrypt(parcel.items[0].clone().into_sealed());
                }
                _ => {}
            }
        })
    }));
    assert!(result.is_err(), "origin relabeling went undetected");
}

/// Crash recovery must not weaken the nonce discipline: the survivors'
/// sealed agreement rounds and the shrunk-group re-run re-seal every
/// retransmitted block fresh, so across attempt + agreement + recovery no
/// wire nonce is ever paired with two different ciphertexts — and no
/// plaintext frame appears either (the adversary learns nothing extra from
/// watching a recovery).
#[test]
fn crash_recovery_reseals_with_fresh_nonces() {
    use eag_netsim::{Crash, FaultPlan};
    use eag_runtime::{run_crashable, RetryPolicy};
    use std::collections::HashMap;
    use std::time::Duration;
    for &algo in Algorithm::encrypted_all() {
        // Rank 0 (a node leader) performs peer-bound sends in every
        // algorithm, so the planned crash always fires.
        let mut spec = tapped_spec(8, 2, Mapping::Block);
        spec.faults = FaultPlan {
            crashes: vec![Crash::before(0, 0)],
            ..FaultPlan::default()
        };
        spec.retry = RetryPolicy {
            attempt_timeout: Duration::from_millis(20),
            max_attempts: 10,
            backoff: 1.5,
        };
        let report = run_crashable(&spec, move |ctx| {
            Collective::Allgather(algo).recover(ctx, 48)
        });
        assert_eq!(
            report.crashed,
            vec![0],
            "{algo}: planned crash did not fire"
        );
        for (_, out) in report.survivor_outputs() {
            assert_eq!(out.failed, vec![0], "{algo}: survivors disagreed");
            out.verify(SEED);
        }
        assert!(
            !report.wiretap.saw_plaintext_frame(),
            "{algo}: recovery leaked a plaintext frame"
        );
        // nonce of the frame's leading item → first 16 ciphertext bytes;
        // a nonce re-paired with different bytes means (key, nonce) reuse.
        let mut seen: HashMap<[u8; 12], [u8; 16]> = HashMap::new();
        let mut cipher_frames = 0usize;
        for f in report.wiretap.frames() {
            if f.kind != FrameKind::Cipher {
                continue; // phantom-free world: only cipher frames remain
            }
            assert!(f.bytes.len() >= 28, "{algo}: frame below GCM framing size");
            cipher_frames += 1;
            let flat = f.bytes.to_vec();
            let mut n = [0u8; 12];
            n.copy_from_slice(&flat[..12]);
            let mut ct = [0u8; 16];
            ct.copy_from_slice(&flat[12..28]);
            if let Some(prev) = seen.insert(n, ct) {
                assert_eq!(
                    prev, ct,
                    "{algo}: one nonce paired with two different ciphertexts \
                     across attempt and recovery"
                );
            }
        }
        assert!(cipher_frames > 0, "{algo}: wiretap captured nothing");
    }
}
