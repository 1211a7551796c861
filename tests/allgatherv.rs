//! MPI_Allgatherv (variable block sizes) — correctness and security of the
//! extension across the algorithms that support it.

use eag_core::{Algorithm, Collective, GatherOutput, Group};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{pattern_block, run, DataMode, Metrics, ProcCtx, WorldSpec};

const SEED: u64 = 0xA11;

fn spec(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
    let mut s = WorldSpec::new(
        Topology::new(p, nodes, mapping),
        profile::free(),
        DataMode::Real { seed: SEED },
    );
    s.capture_wire = true;
    s
}

/// World all-gather-v with explicit per-rank lengths — the general form.
fn run_v(ctx: &mut ProcCtx, algo: Algorithm, lens: &[usize]) -> GatherOutput {
    Collective::Allgatherv(algo).run_with(ctx, Group::world(lens.len()).members(), lens)
}

fn varying_lens(p: usize) -> Vec<usize> {
    // A mix of sizes including empty contributions.
    (0..p).map(|r| (r * 37) % 96).collect()
}

fn v_algorithms() -> Vec<Algorithm> {
    Algorithm::all()
        .iter()
        .copied()
        .filter(Algorithm::supports_varying)
        .collect()
}

#[test]
fn supports_varying_matches_the_documented_set() {
    use Algorithm::*;
    let got = v_algorithms();
    assert_eq!(
        got,
        vec![Ring, RingRanked, Bruck, Naive, ORing, CRing, Hs2, OBruck]
    );
}

#[test]
fn varying_correct_all_supporting_algorithms() {
    for algo in v_algorithms() {
        for (p, nodes) in [(8usize, 4usize), (12, 3), (9, 3)] {
            for mapping in [Mapping::Block, Mapping::Cyclic] {
                let lens = varying_lens(p);
                let lens2 = lens.clone();
                let report = run(&spec(p, nodes, mapping), move |ctx| {
                    run_v(ctx, algo, &lens2).verify(SEED);
                });
                if algo.is_encrypted() {
                    assert!(
                        !report.wiretap.saw_plaintext_frame(),
                        "{algo} leaked plaintext (p={p}, N={nodes}, {mapping})"
                    );
                }
            }
        }
    }
}

#[test]
fn varying_handles_all_zero_and_single_huge_rank() {
    for algo in v_algorithms() {
        let mut lens = vec![0usize; 8];
        lens[3] = 4096; // one rank carries everything
        let lens2 = lens.clone();
        let report = run(&spec(8, 4, Mapping::Block), move |ctx| {
            run_v(ctx, algo, &lens2).verify(SEED);
        });
        assert_eq!(report.outputs.len(), 8);
    }
}

#[test]
fn varying_content_is_bit_exact() {
    let lens = vec![5usize, 64, 0, 17, 100, 1, 33, 8];
    let lens2 = lens.clone();
    let report = run(&spec(8, 2, Mapping::Block), move |ctx| {
        let out = run_v(ctx, Algorithm::CRing, &lens2);
        out.into_blocks()
            .into_iter()
            .map(|c| c.data.to_vec())
            .collect::<Vec<_>>()
    });
    for blocks in &report.outputs {
        for (rank, block) in blocks.iter().enumerate() {
            assert_eq!(block, &pattern_block(SEED, rank, lens[rank]));
        }
    }
}

#[test]
fn varying_no_block_leaks_on_the_wire() {
    let lens = vec![48usize, 96, 32, 80, 48, 96, 32, 80];
    for algo in v_algorithms().into_iter().filter(Algorithm::is_encrypted) {
        let lens2 = lens.clone();
        let report = run(&spec(8, 4, Mapping::Block), move |ctx| {
            run_v(ctx, algo, &lens2).verify(SEED);
        });
        for (rank, &len) in lens.iter().enumerate() {
            if len >= 16 {
                let block = pattern_block(SEED, rank, len);
                assert!(
                    !report.wiretap.contains(&block),
                    "{algo}: rank {rank}'s variable block leaked"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "does not support variable block lengths")]
fn unsupported_algorithm_panics_cleanly() {
    let lens = vec![8usize; 4];
    run(&spec(4, 2, Mapping::Block), move |ctx| {
        let _ = run_v(ctx, Algorithm::ORd, &lens);
    });
}

/// What one rank observed: its gathered bytes, the six Section IV-A
/// metrics, and its wire bytes.
type Observed = (Vec<Option<Vec<u8>>>, [u64; 6], u64);

fn observe(ctx: &ProcCtx, out: &GatherOutput) -> Observed {
    let blocks = (0..out.p())
        .map(|r| out.get(r).map(|b| b.data.to_vec()))
        .collect();
    let m: Metrics = ctx.metrics();
    let six = [
        m.comm_rounds,
        m.sc_payload(),
        m.enc_rounds,
        m.enc_bytes,
        m.dec_rounds,
        m.dec_bytes,
    ];
    (blocks, six, m.bytes_sent)
}

#[test]
fn fixed_length_is_the_uniform_case_and_the_world_is_a_group() {
    // One kernel, so the specialisations must be indistinguishable from the
    // general form: per rank, byte-identical outputs and identical metric
    // six-tuples + wire bytes.
    let m = 64usize;
    for (p, nodes) in [(8usize, 2usize), (12, 3), (16, 4)] {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let s = spec(p, nodes, mapping);
            for &algo in Algorithm::all() {
                let c = Collective::Allgather(algo);
                if !(algo.supports_varying() || algo.supports_groups()) {
                    continue;
                }
                let fixed = run(&s, move |ctx| {
                    let out = c.run(ctx, m);
                    out.verify(SEED);
                    observe(ctx, &out)
                })
                .outputs;
                if algo.supports_varying() {
                    // Explicit uniform lens through the general form.
                    let general = run(&s, move |ctx| {
                        let out = c.run_with(ctx, Group::world(p).members(), &vec![m; p]);
                        observe(ctx, &out)
                    })
                    .outputs;
                    assert_eq!(general, fixed, "{algo} run_with p={p} N={nodes} {mapping}");
                }
                if algo.supports_groups() {
                    // The world, passed as a group.
                    let group = run(&s, move |ctx| {
                        let out = c.run_group(ctx, Group::world(p).members(), m);
                        observe(ctx, &out)
                    })
                    .outputs;
                    assert_eq!(group, fixed, "{algo} run_group p={p} N={nodes} {mapping}");
                }
            }
        }
    }
}
