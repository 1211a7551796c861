//! Virtual-time simulation properties: the cost model behaves like the
//! paper's analysis says it should.

use eag_bench::{simulate, SimConfig, Stats};
use eag_core::{Algorithm, Collective};
use eag_netsim::{Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

fn unit_latency(algo: Algorithm, p: usize, nodes: usize, m: usize) -> f64 {
    let cfg = SimConfig::deterministic(p, nodes, Mapping::Block, "unit");
    simulate(&cfg, Collective::Allgather(algo), m).0
}

/// In the unit Hockney model (uniform links, free crypto-wise? no — unit
/// crypto), the plain Ring matches the textbook closed form
/// (p−1)(α + β·m) = (p−1)(1 + m).
#[test]
fn ring_matches_hockney_closed_form() {
    for (p, m) in [(8usize, 10usize), (16, 1), (4, 100)] {
        let got = unit_latency(Algorithm::Ring, p, 2, m);
        let want = ((p - 1) * (1 + m)) as f64;
        assert!(
            (got - want).abs() < 1e-6,
            "p={p} m={m}: got {got}, want {want}"
        );
    }
}

/// RD matches lg(p)·α + (p−1)·m·β in the unit model.
#[test]
fn rd_matches_hockney_closed_form() {
    for (p, m) in [(8usize, 10usize), (16, 4)] {
        let got = unit_latency(Algorithm::Rd, p, 2, m);
        let want = (p.trailing_zeros() as usize + (p - 1) * m) as f64;
        assert!(
            (got - want).abs() < 1e-6,
            "p={p} m={m}: got {got}, want {want}"
        );
    }
}

/// Naive's unit-model latency matches rc·α + sc·β + te + td with
/// rc = lg p, sc = (p−1)(m+28) (wire bytes), te = 1+m, td = (p−1)(1+m).
#[test]
fn naive_matches_model_sum() {
    let (p, m) = (8usize, 50usize);
    let got = unit_latency(Algorithm::Naive, p, 2, m);
    let lg = p.trailing_zeros() as usize;
    let want = (lg + (p - 1) * (m + 28) + (1 + m) + (p - 1) * (1 + m)) as f64;
    assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
}

/// Latency is monotone in message size for every algorithm.
#[test]
fn latency_monotone_in_size() {
    let cfg = SimConfig::deterministic(16, 4, Mapping::Block, "noleland");
    for &algo in Algorithm::all() {
        let mut prev = 0.0;
        for m in [1usize, 256, 4 * 1024, 64 * 1024] {
            let latency = simulate(&cfg, Collective::Allgather(algo), m).0;
            assert!(
                latency >= prev,
                "{algo}: latency not monotone at m={m} ({latency} < {prev})"
            );
            prev = latency;
        }
    }
}

/// The paper's headline: for large messages, every bound-meeting algorithm
/// (C-Ring, C-RD, HS2) beats Naive by a wide margin on Noleland.
#[test]
fn concurrent_family_beats_naive_at_large_sizes() {
    let cfg = SimConfig::contended(32, 4, Mapping::Block, "noleland");
    let m = 512 * 1024;
    let naive = simulate(&cfg, Collective::Allgather(Algorithm::Naive), m).0;
    for algo in [Algorithm::CRing, Algorithm::CRd] {
        let t = simulate(&cfg, Collective::Allgather(algo), m).0;
        assert!(
            t < 0.9 * naive,
            "{algo}: {t:.0} µs not below Naive {naive:.0} µs"
        );
    }
    // HS2 additionally avoids the intra-node channel entirely (shared
    // memory), so its win is much larger.
    let hs2 = simulate(&cfg, Collective::Allgather(Algorithm::Hs2), m).0;
    assert!(
        hs2 < 0.5 * naive,
        "HS2: {hs2:.0} µs not well below Naive {naive:.0} µs"
    );
}

/// For small messages the round-efficient algorithms (O-RD2, HS1) beat the
/// round-heavy ones (O-Ring, C-Ring) — the paper's small-message story.
#[test]
fn round_efficient_algorithms_win_small_messages() {
    let cfg = SimConfig::contended(64, 8, Mapping::Block, "noleland");
    let m = 4;
    let o_ring = simulate(&cfg, Collective::Allgather(Algorithm::ORing), m).0;
    let c_ring = simulate(&cfg, Collective::Allgather(Algorithm::CRing), m).0;
    for algo in [Algorithm::ORd2, Algorithm::Hs1] {
        let t = simulate(&cfg, Collective::Allgather(algo), m).0;
        assert!(t < o_ring, "{algo} {t:.2} vs O-Ring {o_ring:.2}");
        assert!(t < c_ring, "{algo} {t:.2} vs C-Ring {c_ring:.2}");
    }
}

/// O-RD vs O-RD2: the paper expects O-RD2 better for small messages and
/// O-RD better for large ones (the merge-recrypt trade-off).
#[test]
fn o_rd2_crossover() {
    let cfg = SimConfig::deterministic(64, 8, Mapping::Block, "noleland");
    let small = 4;
    assert!(
        simulate(&cfg, Collective::Allgather(Algorithm::ORd2), small).0
            <= simulate(&cfg, Collective::Allgather(Algorithm::ORd), small).0
    );
    let large = 512 * 1024;
    assert!(
        simulate(&cfg, Collective::Allgather(Algorithm::ORd), large).0
            < simulate(&cfg, Collective::Allgather(Algorithm::ORd2), large).0
    );
}

/// HS1 vs HS2: HS1 better for small messages (fewer decryption rounds),
/// HS2 better for large (less data encrypted).
#[test]
fn hs1_hs2_crossover() {
    let cfg = SimConfig::deterministic(64, 8, Mapping::Block, "noleland");
    assert!(
        simulate(&cfg, Collective::Allgather(Algorithm::Hs1), 1).0
            <= simulate(&cfg, Collective::Allgather(Algorithm::Hs2), 1).0
    );
    let large = 1024 * 1024;
    assert!(
        simulate(&cfg, Collective::Allgather(Algorithm::Hs2), large).0
            < simulate(&cfg, Collective::Allgather(Algorithm::Hs1), large).0
    );
}

/// Without NIC contention the simulation is fully deterministic: repeated
/// runs of one cell agree bit for bit.
#[test]
fn no_contention_is_deterministic() {
    let cfg = SimConfig::deterministic(32, 4, Mapping::Cyclic, "bridges2");
    for algo in [Algorithm::Naive, Algorithm::CRd, Algorithm::Hs1] {
        let first = simulate(&cfg, Collective::Allgather(algo), 4096).0;
        for _ in 0..4 {
            assert_eq!(
                simulate(&cfg, Collective::Allgather(algo), 4096).0,
                first,
                "{algo}"
            );
        }
    }
}

/// With contention, repeated runs stay within a tight band (the paper's
/// measured standard deviations are within 10% of the mean).
#[test]
fn contention_noise_is_bounded() {
    let cfg = SimConfig::contended(32, 4, Mapping::Block, "noleland");
    for algo in [Algorithm::Mvapich, Algorithm::CRing, Algorithm::Hs2] {
        let samples: Vec<f64> = (0..5)
            .map(|_| simulate(&cfg, Collective::Allgather(algo), 64 * 1024).0)
            .collect();
        let s = Stats::of(&samples);
        assert!(
            s.std_dev <= 0.10 * s.mean,
            "{algo}: std {} vs mean {}",
            s.std_dev,
            s.mean
        );
    }
}

/// A Bridges-2-shaped run at reduced scale completes and ranks HS2 first
/// for large messages, as in the paper's Table VI.
#[test]
fn bridges2_reduced_scale_ranking() {
    let cfg = SimConfig::contended(128, 16, Mapping::Block, "bridges2");
    let m = 64 * 1024;
    let hs2 = simulate(&cfg, Collective::Allgather(Algorithm::Hs2), m).0;
    let naive = simulate(&cfg, Collective::Allgather(Algorithm::Naive), m).0;
    let mpi = simulate(&cfg, Collective::Allgather(Algorithm::Mvapich), m).0;
    assert!(
        hs2 < mpi,
        "HS2 {hs2:.0} should beat unencrypted MPI {mpi:.0}"
    );
    assert!(naive > mpi, "Naive {naive:.0} should trail MPI {mpi:.0}");
}

/// The analytic recommender ([`eag_core::recommend`]) picks an algorithm
/// whose *simulated* latency is close to the simulated best — the model is
/// good enough to drive online selection.
#[test]
fn recommender_tracks_the_simulated_best() {
    let cfg = SimConfig::deterministic(64, 8, Mapping::Block, "noleland");
    let model = cfg.cluster_profile().model;
    for m in [4usize, 1024, 64 * 1024, 1024 * 1024] {
        let pick = eag_core::recommend(64, 8, m, &model);
        let picked = simulate(&cfg, Collective::Allgather(pick), m).0;
        let best = Algorithm::encrypted_all()
            .iter()
            .filter(|&&a| a != Algorithm::Naive)
            .map(|&a| simulate(&cfg, Collective::Allgather(a), m).0)
            .fold(f64::INFINITY, f64::min);
        assert!(
            picked <= 2.5 * best,
            "m={m}: picked {pick} at {picked:.1} µs vs best {best:.1} µs"
        );
    }
}

/// Decryption overlaps with communication in the ring-based encrypted
/// algorithms: forwarding a ciphertext is never delayed by opening it for
/// local output, so per-hop latency is α + βm, not α + βm + t_dec
/// (the paper's communication/computation overlap).
#[test]
fn ring_forwarding_overlaps_decryption() {
    use eag_netsim::{ClusterProfile, CostModel, CryptoCost, LinkCost};
    // Latency-dominated network (α = 100 µs) with expensive decryption
    // (50 µs per op): the decrypts must hide under the arrival waits.
    let profile = ClusterProfile {
        name: "overlap-test".into(),
        model: CostModel {
            intra: LinkCost {
                alpha_us: 100.0,
                bandwidth: 1e12,
            },
            inter: LinkCost {
                alpha_us: 100.0,
                bandwidth: 1e12,
            },
            nic_bandwidth: f64::INFINITY,
            copy_alpha_us: 0.0,
            copy_bandwidth: f64::INFINITY,
            strided_copy_factor: 1.0,
            barrier_us: 0.0,
            crypto: CryptoCost {
                enc_alpha_us: 0.0,
                enc_bandwidth: f64::INFINITY,
                dec_alpha_us: 50.0,
                dec_bandwidth: f64::INFINITY,
            },
        },
    };
    let spec = WorldSpec::new(
        Topology::new(8, 8, Mapping::Block), // ℓ = 1: the C-Ring sub shape
        profile,
        DataMode::Phantom,
    );
    let report = run(&spec, |ctx| {
        Collective::Allgather(Algorithm::ORing)
            .run(ctx, 16)
            .verify(0);
    });
    // 7 hops × 100 µs, with all but the last ~2 decrypts hidden in the
    // waits. Without overlap this would be ≥ 7 × 150 = 1050 µs.
    assert!(
        report.latency_us < 900.0,
        "decryption not overlapped: {:.1} µs",
        report.latency_us
    );
}
