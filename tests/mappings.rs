//! Process-mapping sensitivity: the paper's Tables III vs IV story.
//!
//! Block vs cyclic mapping changes which hops cross nodes. Algorithms react
//! very differently: natural-order Ring and RD degrade badly under cyclic
//! mapping, the rank-ordered Ring and C-Ring are oblivious, and HS1/HS2 pay
//! a rank-order rearrangement penalty.

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, Metrics, WorldSpec};

const SEED: u64 = 7;

fn traffic(algo: Algorithm, p: usize, nodes: usize, mapping: Mapping, m: usize) -> Metrics {
    let spec = WorldSpec::new(
        Topology::new(p, nodes, mapping),
        profile::free(),
        DataMode::Real { seed: SEED },
    );
    let report = run(&spec, move |ctx| {
        Collective::Allgather(algo).run(ctx, m).verify(SEED);
    });
    Metrics::component_sum(&report.metrics)
}

fn latency(algo: Algorithm, mapping: Mapping, m: usize) -> f64 {
    // NIC contention on: the cyclic-mapping penalty of the ring-based
    // baseline is precisely that every hop competes for the NIC. Average a
    // few runs to smooth the contention-ordering noise.
    let spec = WorldSpec::new(
        Topology::new(32, 4, mapping),
        profile::noleland(),
        DataMode::Phantom,
    );
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            run(&spec, move |ctx| {
                Collective::Allgather(algo).run(ctx, m).verify(SEED);
            })
            .latency_us
        })
        .collect();
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Natural-order Ring sends (almost) everything inter-node under cyclic
/// mapping, but only 1/ℓ of it under block mapping.
#[test]
fn natural_ring_is_mapping_sensitive() {
    let block = traffic(Algorithm::Ring, 16, 4, Mapping::Block, 64).inter_bytes_sent;
    let cyclic = traffic(Algorithm::Ring, 16, 4, Mapping::Cyclic, 64).inter_bytes_sent;
    assert!(
        cyclic >= 3 * block,
        "cyclic {cyclic} should dwarf block {block}"
    );
}

/// The rank-ordered Ring moves the same inter-node volume regardless of
/// mapping (Kandalla et al.'s point).
#[test]
fn ranked_ring_is_mapping_oblivious() {
    let block = traffic(Algorithm::RingRanked, 16, 4, Mapping::Block, 64).inter_bytes_sent;
    let cyclic = traffic(Algorithm::RingRanked, 16, 4, Mapping::Cyclic, 64).inter_bytes_sent;
    assert_eq!(block, cyclic);
}

/// C-Ring's groups contain one process per node under both mappings, so its
/// traffic mix is identical (the paper: "C-Ring is oblivious to process
/// mapping").
#[test]
fn c_ring_is_mapping_oblivious() {
    for (p, nodes) in [(16, 4), (24, 3)] {
        let block = traffic(Algorithm::CRing, p, nodes, Mapping::Block, 64);
        let cyclic = traffic(Algorithm::CRing, p, nodes, Mapping::Cyclic, 64);
        assert_eq!(block.inter_bytes_sent, cyclic.inter_bytes_sent);
        assert_eq!(block.enc_rounds, cyclic.enc_rounds);
        assert_eq!(block.dec_rounds, cyclic.dec_rounds);
    }
}

/// O-RD is mapping-sensitive: under cyclic mapping the early (inter-node)
/// rounds are small and the large late rounds run over the slower intra
/// links, so the crypto mix changes and large-message latency rises — the
/// paper's "the RD algorithm is sensitive to process mapping".
#[test]
fn o_rd_is_mapping_sensitive() {
    // Crypto distribution changes: cyclic decrypt-to-forward happens in the
    // intra rounds, and encrypted volume differs from block order.
    let block = traffic(Algorithm::ORd, 16, 4, Mapping::Block, 64);
    let cyclic = traffic(Algorithm::ORd, 16, 4, Mapping::Cyclic, 64);
    assert_ne!(
        (block.enc_bytes, block.dec_bytes),
        (cyclic.enc_bytes, cyclic.dec_bytes),
        "O-RD crypto mix should depend on the mapping"
    );
}

/// MVAPICH-style baseline latency degrades under cyclic mapping for large
/// messages (paper: 15.9 ms → 43.3 ms at 256 KB), while C-Ring's latency is
/// unchanged up to NIC-contention noise.
#[test]
fn baseline_latency_degrades_under_cyclic() {
    let m = 256 * 1024;
    let block = latency(Algorithm::Mvapich, Mapping::Block, m);
    let cyclic = latency(Algorithm::Mvapich, Mapping::Cyclic, m);
    assert!(
        cyclic > 1.25 * block,
        "cyclic {cyclic:.0} µs should be well above block {block:.0} µs"
    );

    let cb = latency(Algorithm::CRing, Mapping::Block, m);
    let cc = latency(Algorithm::CRing, Mapping::Cyclic, m);
    assert!((cb - cc).abs() / cb < 0.05, "C-Ring: {cb:.0} vs {cc:.0}");
}

/// HS1/HS2 pay the strided rearrangement copy under cyclic mapping
/// (the paper: "an extra copy is needed for maintaining the correct order").
#[test]
fn hs_pays_rearrangement_penalty_under_cyclic() {
    let m = 64 * 1024;
    for algo in [Algorithm::Hs1, Algorithm::Hs2] {
        let block = latency(algo, Mapping::Block, m);
        let cyclic = latency(algo, Mapping::Cyclic, m);
        assert!(
            cyclic > block,
            "{algo}: cyclic {cyclic:.0} should exceed block {block:.0}"
        );
    }
}

/// Under block mapping with ℓ ≥ 2, O-Ring concentrates crypto on the node
/// boundary processes; under ℓ = 1 every process is a boundary.
#[test]
fn o_ring_boundary_concentration() {
    let spec = WorldSpec::new(
        Topology::new(8, 4, Mapping::Block),
        profile::free(),
        DataMode::Real { seed: SEED },
    );
    let report = run(&spec, |ctx| {
        Collective::Allgather(Algorithm::ORing)
            .run(ctx, 32)
            .verify(SEED);
    });
    // Ranks 1,3,5,7 are exit processes (succ on another node) → they encrypt;
    // ranks 0,2,4,6 are entry processes → they decrypt.
    for rank in 0..8 {
        let m = &report.metrics[rank];
        if rank % 2 == 1 {
            assert_eq!(m.enc_rounds, 7, "exit rank {rank}");
        } else {
            assert_eq!(m.dec_rounds, 7, "entry rank {rank}");
        }
    }
}
