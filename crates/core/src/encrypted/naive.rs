//! The Naive encrypted all-gather (Naser et al. \[18\], the paper's baseline).
//!
//! Each process encrypts its own block, the processes run an *ordinary*
//! all-gather on the ciphertexts (the modeled MVAPICH default), and every
//! process decrypts all `p−1` received ciphertexts — including those from
//! its own node, which is exactly the waste the paper's algorithms remove:
//! `rd = p−1`, `sd = (p−1)m ≈ (N−1)ℓm`. No opportunistic rule: the
//! ciphertexts ride a plain walk over `Vec<Item>`, sealed on every edge.

use crate::output::GatherOutput;
use crate::tags;
use crate::unencrypted::mvapich_walk;
use eag_netsim::Rank;
use eag_runtime::{Chunk, Fallible, Item, ProcCtx};

/// Runs the Naive algorithm among `members`: seal `my_chunk`, all-gather
/// the ciphertexts over the modeled MVAPICH default's walk (selected on the
/// largest member block), open everything that is not already in `out`.
pub(crate) fn naive_over(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_chunk: Chunk,
    out: &mut GatherOutput,
) -> Fallible {
    out.place(my_chunk.clone());
    let sealed = Item::Sealed(ctx.encrypt(my_chunk));
    let items = mvapich_walk(members, out).run(ctx, members, vec![sealed], tags::PHASE_MAIN)?;

    // Decrypt every received ciphertext (own block is already in place).
    for item in items {
        let s = item.into_sealed();
        if s.origins.iter().all(|&o| out.has(o)) {
            continue;
        }
        out.place(ctx.decrypt(s)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, Collective};
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: 21 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn naive_correct_small_and_large() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (6, 3), (9, 3)] {
                for m in [16usize, 16 * 1024] {
                    let report = run(&world(p, nodes, mapping), move |ctx| {
                        Collective::Allgather(Algorithm::Naive)
                            .run(ctx, m)
                            .verify(21);
                    });
                    assert!(!report.wiretap.saw_plaintext_frame());
                }
            }
        }
    }

    #[test]
    fn naive_metrics_match_table_2() {
        // re = 1, se = m, rd = p−1, sd = (p−1)m, rc = lg p (RD, small).
        let (p, m) = (8usize, 64usize);
        let report = run(&world(p, 2, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Naive)
                .run(ctx, m)
                .verify(21);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, 3);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, (p - 1) as u64);
        assert_eq!(max.dec_bytes, ((p - 1) * m) as u64);
        // Wire bytes include the 28-byte GCM framing on every hop.
        assert_eq!(max.bytes_sent, ((p - 1) * (m + 28)) as u64);
    }

    #[test]
    fn naive_decrypts_intra_node_ciphertexts_too() {
        // The defining waste of Naive: even blocks from the same node are
        // decrypted. Total decryptions = p(p−1).
        let report = run(&world(8, 2, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Naive)
                .run(ctx, 16)
                .verify(21);
        });
        let sum = eag_runtime::Metrics::component_sum(&report.metrics);
        assert_eq!(sum.dec_rounds, (8 * 7) as u64);
    }
}
