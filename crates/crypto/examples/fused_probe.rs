//! Quick timing probe for the fused vs two-sweep data paths.
//! `cargo run --release -p eag-crypto --example fused_probe`

use eag_crypto::ghash::GHash;
use eag_crypto::{Aes128, AesGcm128, Key, Nonce};
use std::hint::black_box;
use std::time::Instant;

fn gibs(bytes: usize, iters: u32, secs: f64) -> f64 {
    (bytes as f64 * iters as f64) / secs / (1u64 << 30) as f64
}

fn main() {
    let key = [7u8; 16];
    let aes = Aes128::new(&key);
    let mut h = [0u8; 16];
    aes.encrypt_block(&mut h);
    let proto = GHash::new(&h);
    let gcm = AesGcm128::new(&Key::from_bytes(key));
    let nonce = Nonce::from_bytes([1u8; 12]);
    let icb = [2u8; 16];
    println!("fused_seal runs the {} kernel", gcm.tier());

    for &size in &[65536usize, 1 << 20] {
        let data = vec![0xA5u8; size];
        let mut buf = data.clone();
        let iters = (1 << 28) / size as u32;

        // best-of-5 to shrug off scheduler noise
        let mut best = [f64::INFINITY; 5];
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..iters {
                buf.copy_from_slice(&data);
                aes.xor_ctr_keystream(&icb, &mut buf);
                black_box(&buf);
            }
            best[0] = best[0].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for _ in 0..iters {
                let mut g = proto.fresh();
                g.update_padded(&buf);
                black_box(g.finalize());
            }
            best[1] = best[1].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for _ in 0..iters {
                buf.copy_from_slice(&data);
                aes.xor_ctr_keystream(&icb, &mut buf);
                let mut g = proto.fresh();
                g.update_padded(&buf);
                black_box(g.finalize());
            }
            best[2] = best[2].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for _ in 0..iters {
                buf.copy_from_slice(&data);
                black_box(gcm.seal_in_place_detached(&nonce, b"", &mut buf));
            }
            best[3] = best[3].min(t.elapsed().as_secs_f64());

            // Seed-equivalent data path: allocating seal with a per-block
            // (unaggregated) GHASH sweep.
            let t = Instant::now();
            for _ in 0..iters {
                let mut ct = data.clone();
                aes.xor_ctr_keystream(&icb, &mut ct);
                let mut g = proto.fresh();
                for block in ct.chunks_exact(16) {
                    g.update_block(block.try_into().unwrap());
                }
                black_box(g.finalize());
                black_box(ct);
            }
            best[4] = best[4].min(t.elapsed().as_secs_f64());
        }
        println!(
            "{size:>8}B  ctr {:.2}  ghash {:.2}  two_sweep {:.2}  fused_seal {:.2}  seed_seal {:.2}  GiB/s",
            gibs(size, iters, best[0]),
            gibs(size, iters, best[1]),
            gibs(size, iters, best[2]),
            gibs(size, iters, best[3]),
            gibs(size, iters, best[4]),
        );
    }
}
