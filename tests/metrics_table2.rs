//! Validates the paper's Table II: for every encrypted algorithm, the
//! runtime-measured critical-path metrics (rc, sc, re, se, rd, sd) must
//! equal the closed-form predictions, for powers of two under block-order
//! mapping — the table's stated assumptions.

use eag_bench::tables::table2_rows;
use eag_core::{Algorithm, Collective, Operation};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

#[test]
fn table2_holds_at_16_over_4() {
    for row in table2_rows(16, 4, 32) {
        assert_eq!(row.predicted, row.measured, "{}", row.algo);
    }
}

#[test]
fn table2_holds_at_64_over_8() {
    for row in table2_rows(64, 8, 17) {
        assert_eq!(row.predicted, row.measured, "{}", row.algo);
    }
}

#[test]
fn table2_holds_at_64_over_16() {
    // N > ℓ: exercises HS1's multi-ciphertext-per-process decryption split.
    for row in table2_rows(64, 16, 8) {
        assert_eq!(row.predicted, row.measured, "{}", row.algo);
    }
}

#[test]
fn table2_holds_at_128_over_8() {
    // The paper's Noleland configuration.
    for row in table2_rows(128, 8, 8) {
        assert_eq!(row.predicted, row.measured, "{}", row.algo);
    }
}

#[test]
fn table2_holds_above_the_mvapich_switch() {
    // 16 KiB ≥ MVAPICH_SWITCH_BYTES: Naive's ordinary all-gather is Ring,
    // so its row must predict rc = p − 1, not lg p.
    let m = 2 * eag_core::MVAPICH_SWITCH_BYTES;
    let rows = table2_rows(16, 4, m);
    for row in &rows {
        assert_eq!(row.predicted, row.measured, "{}", row.algo);
    }
    let naive = rows.iter().find(|r| r.algo == Algorithm::Naive).unwrap();
    assert_eq!(naive.predicted.rc, 15);
}

#[test]
fn table2_holds_with_two_nodes() {
    // N = 2: the smallest encrypted configuration.
    for row in table2_rows(8, 2, 40) {
        assert_eq!(row.predicted, row.measured, "{}", row.algo);
    }
}

/// The headline of the paper: for C-Ring, C-RD, and HS2, the measured
/// decrypted volume per process is exactly (N−1)·m — the Table I lower
/// bound — while Naive decrypts (p−1)·m.
#[test]
fn sd_lower_bound_is_met_by_concurrent_and_hs2() {
    let (p, nodes, m) = (32usize, 4usize, 100usize);
    let lb = Operation::Allgather.lower_bounds(p, nodes, m).unwrap();
    for algo in [Algorithm::CRing, Algorithm::CRd, Algorithm::Hs2] {
        let spec = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::unit(),
            DataMode::Phantom,
        );
        let report = run(&spec, move |ctx| {
            Collective::Allgather(algo).run(ctx, m).verify(0);
        });
        assert_eq!(report.max_metrics().dec_bytes, lb.sd, "{algo}");
    }
}

/// Unencrypted baselines never touch the cipher.
#[test]
fn unencrypted_algorithms_do_no_crypto() {
    for &algo in Algorithm::unencrypted_all() {
        let spec = WorldSpec::new(
            Topology::new(16, 4, Mapping::Block),
            profile::unit(),
            DataMode::Real { seed: 1 },
        );
        let report = run(&spec, move |ctx| {
            Collective::Allgather(algo).run(ctx, 64).verify(1);
        });
        let sum = eag_runtime::Metrics::component_sum(&report.metrics);
        assert_eq!(sum.enc_rounds, 0, "{algo}");
        assert_eq!(sum.dec_rounds, 0, "{algo}");
    }
}

/// Aggregate conservation: total bytes sent equals total bytes received.
#[test]
fn bytes_sent_equals_bytes_received_globally() {
    for &algo in Algorithm::all() {
        let spec = WorldSpec::new(
            Topology::new(12, 3, Mapping::Block),
            profile::unit(),
            DataMode::Real { seed: 2 },
        );
        let report = run(&spec, move |ctx| {
            Collective::Allgather(algo).run(ctx, 33).verify(2);
        });
        let sum = eag_runtime::Metrics::component_sum(&report.metrics);
        assert_eq!(sum.bytes_sent, sum.bytes_recv, "{algo}");
        assert_eq!(sum.payload_sent, sum.payload_recv, "{algo}");
    }
}

/// The wire carries exactly 28 extra bytes per sealed item: total wire bytes
/// minus total payload bytes is a multiple of 28.
#[test]
fn framing_overhead_is_a_multiple_of_28() {
    for &algo in Algorithm::encrypted_all() {
        let spec = WorldSpec::new(
            Topology::new(16, 4, Mapping::Block),
            profile::unit(),
            DataMode::Real { seed: 3 },
        );
        let report = run(&spec, move |ctx| {
            Collective::Allgather(algo).run(ctx, 50).verify(3);
        });
        let sum = eag_runtime::Metrics::component_sum(&report.metrics);
        let overhead = sum.bytes_sent - sum.payload_sent;
        assert_eq!(overhead % 28, 0, "{algo}: framing overhead {overhead}");
    }
}
