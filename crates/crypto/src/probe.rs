//! Wall-clock throughput probes for the AEAD hot paths.
//!
//! Measures what this machine actually sustains through
//! [`seal_message_into`] and [`open_frame_in_place`] — the exact
//! buffer-reusing calls the runtime's encrypted transport makes — so
//! benchmark reports can carry real crypto throughput next to the
//! virtual-time latencies. [`probe_throughput_suite`] probes any
//! [`CipherSuite`]; it is the one crypto timer the calibration and the
//! Figure 1 "this machine" column in `eag-bench` read.
//! Wall-clock numbers are machine- and load-dependent by nature; callers
//! must treat them as informational, not as regression-gate inputs.

use crate::{open_frame_in_place, seal_message_into, CipherSuite, Key, NonceSource, WIRE_OVERHEAD};
use std::time::Instant;

/// Throughput measured at one message size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Plaintext message size in bytes.
    pub msg_bytes: usize,
    /// Seal (encrypt + tag) throughput, MB/s (10^6 plaintext bytes per
    /// wall-clock second).
    pub seal_mb_per_s: f64,
    /// Open (verify + decrypt) throughput, MB/s.
    pub open_mb_per_s: f64,
}

/// Bytes of pre-sealed frames the open probe sweeps (between 4 and 64
/// frames): enough that consecutive opens do not hit one hot buffer.
const RING_BYTES: usize = 1 << 20;

/// Default sizes for a quick probe: 1 KiB, 16 KiB, 256 KiB, 1 MiB.
pub const DEFAULT_PROBE_SIZES: [usize; 4] = [1024, 16 * 1024, 256 * 1024, 1024 * 1024];

/// Measures seal/open throughput of one cipher suite at each size in
/// `sizes`.
///
/// `budget_secs` is the approximate timed wall-clock budget *per direction
/// per size* (a calibration pass sizes the seal iteration count to fit it,
/// at least 3 always run; opens sweep a ring of pre-sealed frames, at least
/// once, until it is spent). A budget of 0.05 s over
/// [`DEFAULT_PROBE_SIZES`] finishes in well under a second on anything
/// modern.
pub fn probe_throughput_suite(
    suite: CipherSuite,
    sizes: &[usize],
    budget_secs: f64,
) -> Vec<ThroughputPoint> {
    let cipher = suite.aead_for_key(&Key::from_bytes([0x5Au8; 16]));
    let cipher = &*cipher;
    let mut nonces = NonceSource::seeded(0xBE7C);
    sizes
        .iter()
        .map(|&msg_bytes| {
            let plaintext = vec![0xC3u8; msg_bytes];
            let mut wire = Vec::new();
            let seal_secs = time_op(budget_secs, || {
                seal_message_into(cipher, &mut nonces, b"", &plaintext, &mut wire);
                std::hint::black_box(wire.len());
            });
            // Opening consumes a frame, so opens are timed over a ring of
            // pre-sealed frames and the ring is re-sealed, untimed, between
            // sweeps: nothing but `open_frame_in_place` is on the clock (a
            // copy-and-subtract baseline drowns in noise once open runs near
            // memcpy speed).
            let frame_len = msg_bytes + WIRE_OVERHEAD;
            let mut ring = vec![Vec::new(); (RING_BYTES / frame_len).clamp(4, 64)];
            let (mut open_total, mut opens) = (0.0, 0usize);
            while opens == 0 || open_total < budget_secs {
                for frame in &mut ring {
                    seal_message_into(cipher, &mut nonces, b"", &plaintext, frame);
                }
                let sweep = Instant::now();
                for frame in &mut ring {
                    let opened = open_frame_in_place(cipher, b"", frame);
                    std::hint::black_box(opened.expect("frame is authentic"));
                }
                open_total += sweep.elapsed().as_secs_f64();
                opens += ring.len();
            }
            let open_secs = open_total / opens as f64;
            ThroughputPoint {
                msg_bytes,
                seal_mb_per_s: mb_per_s(msg_bytes, seal_secs),
                open_mb_per_s: mb_per_s(msg_bytes, open_secs),
            }
        })
        .collect()
}

fn mb_per_s(bytes: usize, secs_per_op: f64) -> f64 {
    bytes as f64 / secs_per_op.max(1e-12) / 1e6
}

/// Times `op`, returning seconds per call: one calibration call sizes the
/// iteration count to roughly `budget_secs`, then the batch is averaged.
fn time_op(budget_secs: f64, mut op: impl FnMut()) -> f64 {
    let probe = Instant::now();
    op();
    let one = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_secs / one).ceil() as usize).clamp(3, 100_000);
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_positive_finite_throughput() {
        let points = probe_throughput_suite(CipherSuite::AesGcm128, &[1024, 8192], 0.005);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                p.seal_mb_per_s.is_finite() && p.seal_mb_per_s > 0.0,
                "{p:?}"
            );
            assert!(
                p.open_mb_per_s.is_finite() && p.open_mb_per_s > 0.0,
                "{p:?}"
            );
        }
    }
}
