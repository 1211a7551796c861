//! Local calibration: measure *this machine's* crypto and memory speeds and
//! fit the Hockney cost constants, producing a [`ClusterProfile`] whose
//! encryption/decryption/copy terms are real rather than borrowed from the
//! paper's clusters. (Network terms cannot be measured on one machine; they
//! are inherited from a base profile.)
//!
//! This is exactly the measurement behind the paper's Figure 1, turned into
//! a reusable tool: `eag calibrate` prints the fitted constants and the
//! sweep can run on them. Calibration is per cipher suite —
//! [`calibrate_local_suite`] fits each backend's own αe/βe so the simulator
//! can answer "which algorithm wins *under this AEAD on this machine*",
//! not just under the paper's AES-GCM numbers.

use eag_crypto::probe::probe_throughput_suite;
use eag_crypto::CipherSuite;
use eag_netsim::{profile, ClusterProfile};
use std::time::Instant;

/// One measured (size, seconds-per-op) sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Message size in bytes.
    pub bytes: usize,
    /// Mean seconds per operation at that size.
    pub secs_per_op: f64,
}

/// Least-squares fit of `t(m) = alpha + m/bandwidth` over samples.
/// Returns `(alpha_us, bandwidth_bytes_per_us)`.
pub fn fit_hockney(samples: &[Sample]) -> (f64, f64) {
    assert!(samples.len() >= 2, "need at least two sizes to fit");
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|s| s.bytes as f64).sum();
    let sy: f64 = samples.iter().map(|s| s.secs_per_op * 1e6).sum();
    let sxx: f64 = samples.iter().map(|s| (s.bytes as f64).powi(2)).sum();
    let sxy: f64 = samples
        .iter()
        .map(|s| s.bytes as f64 * s.secs_per_op * 1e6)
        .sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > f64::EPSILON, "degenerate sample set");
    let beta = (n * sxy - sx * sy) / denom; // µs per byte
    let alpha = (sy - beta * sx) / n;
    let bandwidth = if beta > 0.0 {
        1.0 / beta
    } else {
        f64::INFINITY
    };
    (alpha.max(0.0), bandwidth)
}

fn time_op(mut op: impl FnMut(), per_op_budget: f64) -> f64 {
    // Warm up, then time enough iterations for ~`per_op_budget` seconds.
    for _ in 0..3 {
        op();
    }
    let probe = Instant::now();
    op();
    let one = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((per_op_budget / one).ceil() as usize).clamp(5, 20_000);
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Measures one suite's seal and open cost across `sizes` on this machine,
/// through the crypto probe: the exact buffer-reusing calls the encrypted
/// transport makes, with opens timed on pre-sealed frames.
fn measure_crypto_suite(suite: CipherSuite, sizes: &[usize]) -> (Vec<Sample>, Vec<Sample>) {
    let points = probe_throughput_suite(suite, sizes, 0.02);
    let sample = |bytes: usize, mb_per_s: f64| Sample {
        bytes,
        secs_per_op: bytes as f64 / (mb_per_s * 1e6),
    };
    points
        .iter()
        .map(|t| {
            (
                sample(t.msg_bytes, t.seal_mb_per_s),
                sample(t.msg_bytes, t.open_mb_per_s),
            )
        })
        .unzip()
}

/// Measures plain memcpy cost across `sizes` on this machine.
pub fn measure_memcpy(sizes: &[usize]) -> Vec<Sample> {
    sizes
        .iter()
        .map(|&bytes| {
            let src = vec![0xE1u8; bytes.max(1)];
            let mut dst = vec![0u8; bytes.max(1)];
            let secs = time_op(
                || {
                    dst.copy_from_slice(std::hint::black_box(&src));
                    std::hint::black_box(&dst);
                },
                0.01,
            );
            Sample {
                bytes,
                secs_per_op: secs,
            }
        })
        .collect()
}

/// The default size grid for calibration.
pub fn calibration_sizes() -> Vec<usize> {
    vec![
        256,
        1024,
        4 * 1024,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        1024 * 1024,
    ]
}

/// A calibrated profile: network terms from `base`, crypto and copy terms
/// measured on this machine. Returns the profile plus the raw samples for
/// reporting.
pub struct Calibration {
    /// The resulting profile (named `<base>-local` for the default AES-GCM
    /// suite, `<base>-local-<suite>` otherwise).
    pub profile: ClusterProfile,
    /// The cipher suite the crypto terms were measured under.
    pub suite: CipherSuite,
    /// Seal measurements.
    pub seal: Vec<Sample>,
    /// Open measurements.
    pub open: Vec<Sample>,
    /// Memcpy measurements.
    pub memcpy: Vec<Sample>,
}

/// Runs the full calibration against a named base profile with the crypto
/// terms measured under `suite`. The fitted profile keeps the historical
/// `<base>-local` name for AES-GCM and is named `<base>-local-<suite>` for
/// the other suites, so per-suite profiles can coexist in one report.
pub fn calibrate_local_suite(base: &str, suite: CipherSuite) -> Option<Calibration> {
    let mut prof = profile::by_name(base)?;
    let sizes = calibration_sizes();
    let (seal, open) = measure_crypto_suite(suite, &sizes);
    let memcpy = measure_memcpy(&sizes);

    let (enc_alpha, enc_bw) = fit_hockney(&seal);
    let (dec_alpha, dec_bw) = fit_hockney(&open);
    let (copy_alpha, copy_bw) = fit_hockney(&memcpy);

    prof.name = match suite {
        CipherSuite::AesGcm128 => format!("{base}-local"),
        other => format!("{base}-local-{other}"),
    };
    prof.model.crypto.enc_alpha_us = enc_alpha;
    prof.model.crypto.enc_bandwidth = enc_bw;
    prof.model.crypto.dec_alpha_us = dec_alpha;
    prof.model.crypto.dec_bandwidth = dec_bw;
    prof.model.copy_alpha_us = copy_alpha;
    prof.model.copy_bandwidth = copy_bw;

    Some(Calibration {
        profile: prof,
        suite,
        seal,
        open,
        memcpy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_affine_data() {
        // t(m) = 2 µs + m / 5000 B/µs.
        let samples: Vec<Sample> = [1000usize, 2000, 8000, 64000]
            .iter()
            .map(|&bytes| Sample {
                bytes,
                secs_per_op: (2.0 + bytes as f64 / 5000.0) * 1e-6,
            })
            .collect();
        let (alpha, bw) = fit_hockney(&samples);
        assert!((alpha - 2.0).abs() < 1e-6, "alpha {alpha}");
        assert!((bw - 5000.0).abs() < 1e-3, "bw {bw}");
    }

    #[test]
    fn fit_clamps_negative_alpha_to_zero() {
        let samples = vec![
            Sample {
                bytes: 1000,
                secs_per_op: 1e-7,
            },
            Sample {
                bytes: 100_000,
                secs_per_op: 2e-5,
            },
        ];
        let (alpha, bw) = fit_hockney(&samples);
        assert!(alpha >= 0.0);
        assert!(bw > 0.0);
    }

    #[test]
    fn seal_measurement_is_sane() {
        let (seal, open) = measure_crypto_suite(CipherSuite::AesGcm128, &[1024, 64 * 1024]);
        assert_eq!(seal.len(), 2);
        assert_eq!(open.len(), 2);
        for s in seal.iter().chain(&open) {
            assert!(s.secs_per_op > 0.0 && s.secs_per_op.is_finite());
        }
        // Larger messages take longer.
        assert!(seal[1].secs_per_op > seal[0].secs_per_op);
    }

    #[test]
    fn calibrate_produces_usable_profile() {
        let cal = calibrate_local_suite("noleland", CipherSuite::AesGcm128).expect("base exists");
        assert_eq!(cal.profile.name, "noleland-local");
        assert_eq!(cal.suite, CipherSuite::AesGcm128);
        let m = &cal.profile.model;
        assert!(m.crypto.enc_bandwidth > 0.0 && m.crypto.enc_bandwidth.is_finite());
        assert!(m.copy_bandwidth > 0.0);
        // Network terms inherited from the base.
        assert_eq!(m.inter.bandwidth, profile::noleland().model.inter.bandwidth);
    }

    #[test]
    fn per_suite_calibrations_get_distinct_profile_names() {
        // Tiny grids keep this test fast; the fit only needs two sizes.
        for suite in CipherSuite::ALL {
            let (seal, open) = measure_crypto_suite(suite, &[256, 4096]);
            assert_eq!(seal.len(), 2);
            assert!(seal.iter().all(|s| s.secs_per_op > 0.0), "{suite}");
            assert!(open.iter().all(|s| s.secs_per_op > 0.0), "{suite}");
        }
        let cal =
            calibrate_local_suite("noleland", CipherSuite::ChaCha20Poly1305).expect("base exists");
        assert_eq!(cal.profile.name, "noleland-local-chacha20-poly1305");
        assert_eq!(cal.suite, CipherSuite::ChaCha20Poly1305);
    }

    #[test]
    fn unknown_base_yields_none() {
        assert!(calibrate_local_suite("atlantis", CipherSuite::AesGcm128).is_none());
    }
}
