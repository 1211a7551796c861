//! Validates the paper's Table I: no encrypted algorithm beats the lower
//! bounds on any of the six metrics (with the paper's own caveat that HS1
//! and HS2 undercut rc/sc because shared-memory transfers are not counted
//! as communication — Section IV-B notes exactly this).

use eag_core::{Algorithm, Collective, Operation};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, Metrics, WorldSpec};

fn measure(algo: Algorithm, p: usize, nodes: usize, m: usize) -> Metrics {
    let spec = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::unit(),
        DataMode::Phantom,
    );
    let report = run(&spec, move |ctx| {
        Collective::Allgather(algo).run(ctx, m).verify(0);
    });
    report.max_metrics()
}

fn uses_shared_memory(algo: Algorithm) -> bool {
    matches!(algo, Algorithm::Hs1 | Algorithm::Hs2)
}

#[test]
fn no_encrypted_algorithm_beats_the_bounds() {
    for &(p, nodes) in &[(16usize, 4usize), (32, 4), (64, 8), (16, 8), (64, 16)] {
        let m = 64;
        let lb = Operation::Allgather.lower_bounds(p, nodes, m).unwrap();
        for &algo in Algorithm::encrypted_all() {
            let mx = measure(algo, p, nodes, m);
            if !uses_shared_memory(algo) {
                assert!(
                    mx.comm_rounds >= lb.rc,
                    "{algo} p={p} N={nodes}: rc {} < bound {}",
                    mx.comm_rounds,
                    lb.rc
                );
                assert!(
                    mx.sc_payload() >= lb.sc,
                    "{algo} p={p} N={nodes}: sc {} < bound {}",
                    mx.sc_payload(),
                    lb.sc
                );
            }
            assert!(mx.enc_rounds >= lb.re, "{algo}: re below bound");
            assert!(mx.enc_bytes >= lb.se, "{algo}: se below bound");
            assert!(
                mx.dec_rounds >= lb.rd,
                "{algo} p={p} N={nodes}: rd {} < bound {}",
                mx.dec_rounds,
                lb.rd
            );
            assert!(
                mx.dec_bytes >= lb.sd,
                "{algo} p={p} N={nodes}: sd {} < bound {}",
                mx.dec_bytes,
                lb.sd
            );
        }
    }
}

/// The bounds are *tight* where the paper claims tightness:
/// - sd: C-Ring, C-RD and HS2 achieve exactly (N−1)m;
/// - se: Naive, C-Ring, C-RD and HS2 achieve exactly m;
/// - re: most algorithms achieve exactly 1;
/// - rc: Naive, O-RD, O-RD2 and C-RD achieve exactly lg p.
#[test]
fn bounds_are_tight_where_claimed() {
    let (p, nodes, m) = (64usize, 8usize, 32usize);
    let lb = Operation::Allgather.lower_bounds(p, nodes, m).unwrap();
    for algo in [Algorithm::CRing, Algorithm::CRd, Algorithm::Hs2] {
        assert_eq!(measure(algo, p, nodes, m).dec_bytes, lb.sd, "{algo} sd");
    }
    for algo in [
        Algorithm::Naive,
        Algorithm::CRing,
        Algorithm::CRd,
        Algorithm::Hs2,
    ] {
        assert_eq!(measure(algo, p, nodes, m).enc_bytes, lb.se, "{algo} se");
    }
    for algo in [
        Algorithm::Naive,
        Algorithm::ORd,
        Algorithm::CRing,
        Algorithm::CRd,
        Algorithm::Hs1,
        Algorithm::Hs2,
    ] {
        assert_eq!(measure(algo, p, nodes, m).enc_rounds, lb.re, "{algo} re");
    }
    for algo in [
        Algorithm::Naive,
        Algorithm::ORd,
        Algorithm::ORd2,
        Algorithm::CRd,
    ] {
        assert_eq!(measure(algo, p, nodes, m).comm_rounds, lb.rc, "{algo} rc");
    }
}

/// The rd bound's tightness claims from Section IV-A:
/// O-RD2 achieves rd = lg N (tight when ℓ is constant), and HS1 achieves
/// rd = ⌈N/ℓ⌉ (rd can be 1 when ℓ ≥ N).
#[test]
fn rd_bound_tightness_claims() {
    // ℓ = 1: O-RD2 gives rd = lg N.
    let mx = measure(Algorithm::ORd2, 16, 16, 8);
    assert_eq!(mx.dec_rounds, 4);

    // ℓ ≥ N: HS1 decrypts once per process.
    let mx = measure(Algorithm::Hs1, 64, 4, 8);
    assert_eq!(mx.dec_rounds, 1);
    assert_eq!(Operation::Allgather.lower_bounds(64, 4, 8).unwrap().rd, 1);
}

/// Unencrypted algorithms still respect the communication bounds
/// (they are classic results, not new to this paper).
#[test]
fn unencrypted_algorithms_respect_comm_bounds() {
    let (p, nodes, m) = (16usize, 4usize, 16usize);
    let lb = Operation::Allgather.lower_bounds(p, nodes, m).unwrap();
    for algo in [
        Algorithm::Ring,
        Algorithm::RingRanked,
        Algorithm::Rd,
        Algorithm::Bruck,
        Algorithm::Mvapich,
    ] {
        let mx = measure(algo, p, nodes, m);
        assert!(mx.comm_rounds >= lb.rc, "{algo}");
        assert!(mx.sc_payload() >= lb.sc, "{algo}");
    }
}

/// A world with no defined ℓ is a typed error for every operation — never
/// a panic.
#[test]
fn undefined_shapes_are_typed_errors() {
    use eag_core::BoundsError;
    for op in Operation::all() {
        assert_eq!(op.lower_bounds(8, 0, 64), Err(BoundsError::EmptyWorld));
        assert_eq!(op.lower_bounds(0, 2, 64), Err(BoundsError::EmptyWorld));
        assert_eq!(
            op.lower_bounds(10, 4, 64),
            Err(BoundsError::IndivisibleShape { p: 10, nodes: 4 })
        );
    }
}
