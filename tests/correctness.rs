//! End-to-end correctness: every algorithm, both mappings, power-of-two and
//! general (p, N), tiny to multi-KB blocks, real bytes with real AES-GCM.
//!
//! The postcondition of MPI_Allgather: after the call, every process holds
//! every process's block, bit-exact, in rank order.

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

const SEED: u64 = 0xE46;

fn spec(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
    WorldSpec::new(
        Topology::new(p, nodes, mapping),
        profile::free(),
        DataMode::Real { seed: SEED },
    )
}

fn check(algo: Algorithm, p: usize, nodes: usize, mapping: Mapping, m: usize) {
    let report = run(&spec(p, nodes, mapping), move |ctx| {
        let out = Collective::Allgather(algo).run(ctx, m);
        out.verify(SEED);
    });
    assert_eq!(report.outputs.len(), p);
}

/// Every algorithm on the canonical power-of-two world.
#[test]
fn all_algorithms_pow2_block() {
    for &algo in Algorithm::all() {
        check(algo, 16, 4, Mapping::Block, 64);
    }
}

#[test]
fn all_algorithms_pow2_cyclic() {
    for &algo in Algorithm::all() {
        check(algo, 16, 4, Mapping::Cyclic, 64);
    }
}

/// Non-power-of-two process counts (the paper's Table V regime).
#[test]
fn all_algorithms_general_p() {
    for &algo in Algorithm::all() {
        for (p, nodes) in [(12, 3), (21, 7), (10, 5)] {
            for mapping in [Mapping::Block, Mapping::Cyclic] {
                check(algo, p, nodes, mapping, 48);
            }
        }
    }
}

/// The exact shape of the paper's Table V experiment, scaled down:
/// p and N odd, ℓ = 13 ≫ N.
#[test]
fn paper_table5_shape_small() {
    for &algo in Algorithm::all() {
        check(algo, 39, 3, Mapping::Block, 32);
    }
}

/// One process per node (ℓ = 1): Concurrent groups collapse to a single
/// member locally, HS nodes have only leaders.
#[test]
fn one_process_per_node() {
    for &algo in Algorithm::all() {
        check(algo, 8, 8, Mapping::Block, 32);
        check(algo, 6, 6, Mapping::Block, 32);
    }
}

/// A single node: nothing needs encryption, everything is intra-node.
#[test]
fn single_node_world() {
    for &algo in Algorithm::all() {
        check(algo, 8, 1, Mapping::Block, 32);
    }
}

/// Two processes total — the smallest world with communication.
#[test]
fn two_processes_two_nodes() {
    for &algo in Algorithm::all() {
        check(algo, 2, 2, Mapping::Block, 32);
    }
}

/// Odd block sizes straddling the AES block and GCM framing boundaries.
#[test]
fn odd_block_sizes() {
    for m in [1usize, 15, 16, 17, 28, 29, 255, 1000] {
        for algo in [
            Algorithm::Naive,
            Algorithm::ORd,
            Algorithm::CRing,
            Algorithm::Hs1,
            Algorithm::Hs2,
        ] {
            check(algo, 8, 4, Mapping::Block, m);
        }
    }
}

/// Zero-byte blocks: a degenerate but legal all-gather.
#[test]
fn zero_byte_blocks() {
    for &algo in Algorithm::all() {
        check(algo, 8, 2, Mapping::Block, 0);
    }
}

/// Larger blocks exercise the multi-block AES-CTR fast path end to end.
#[test]
fn multi_kilobyte_blocks() {
    for algo in [
        Algorithm::Naive,
        Algorithm::ORing,
        Algorithm::ORd2,
        Algorithm::CRd,
        Algorithm::Hs2,
    ] {
        check(algo, 8, 4, Mapping::Block, 8 * 1024);
    }
}

/// Phantom mode must preserve the postcondition via origin tracking.
#[test]
fn phantom_mode_tracks_origins() {
    for &algo in Algorithm::all() {
        let mut s = spec(16, 4, Mapping::Block);
        s.mode = DataMode::Phantom;
        let report = run(&s, move |ctx| {
            let out = Collective::Allgather(algo).run(ctx, 1024);
            out.verify(SEED); // length + completeness check in phantom mode
        });
        assert_eq!(report.outputs.len(), 16);
    }
}

/// Different seeds produce different data but identical traffic shape:
/// every metric but the rope copy probe's `memcpy_bytes` and `buf_allocs`,
/// which move with thread timing (an open copies a frame only when a peer
/// still holds it), not with the data.
#[test]
fn traffic_shape_is_data_independent() {
    let run_with = |seed: u64| {
        let s = WorldSpec::new(
            Topology::new(8, 4, Mapping::Block),
            profile::free(),
            DataMode::Real { seed },
        );
        let report = run(&s, move |ctx| {
            Collective::Allgather(Algorithm::CRing)
                .run(ctx, 128)
                .verify(seed);
        });
        eag_runtime::Metrics {
            memcpy_bytes: 0,
            buf_allocs: 0,
            ..eag_runtime::Metrics::component_sum(&report.metrics)
        }
    };
    assert_eq!(run_with(1), run_with(999));
}

/// Back-to-back collectives in one world must not interfere — including the
/// shared-memory algorithms, whose slot keys are scoped by collective epoch
/// (regression test: HS2 in a timestep loop used to double-deposit slots).
#[test]
fn repeated_collectives_in_one_world() {
    let report = run(&spec(8, 4, Mapping::Block), |ctx| {
        let a = Collective::Allgather(Algorithm::Ring).run(ctx, 32);
        a.verify(SEED);
        let b = Collective::Allgather(Algorithm::Rd).run(ctx, 64);
        b.verify(SEED);
        for _ in 0..3 {
            Collective::Allgather(Algorithm::Hs2)
                .run(ctx, 48)
                .verify(SEED);
            Collective::Allgather(Algorithm::Hs1)
                .run(ctx, 16)
                .verify(SEED);
            Collective::Allgather(Algorithm::CRing)
                .run(ctx, 24)
                .verify(SEED);
        }
    });
    assert_eq!(report.outputs.len(), 8);
}

/// Exhaustive small-world sweep: every algorithm on every divisible (p, N)
/// with p ≤ 12, both mappings, two block sizes — over a thousand worlds.
#[test]
fn exhaustive_small_worlds() {
    let mut worlds = 0usize;
    for nodes in 1..=6usize {
        for ell in 1..=3usize {
            let p = nodes * ell;
            if !(2..=12).contains(&p) {
                continue;
            }
            for mapping in [Mapping::Block, Mapping::Cyclic] {
                for m in [0usize, 17] {
                    for &algo in Algorithm::all() {
                        check(algo, p, nodes, mapping, m);
                        worlds += 1;
                    }
                }
            }
        }
    }
    assert!(worlds > 1000, "swept only {worlds} worlds");
}
