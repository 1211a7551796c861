//! The Hierarchical Shared-memory algorithms HS1 and HS2
//! (paper Section IV-B).
//!
//! Both use per-node shared-memory buffers instead of intra-node messaging:
//!
//! - **HS1**: (1) every process deposits its block into the node's shared
//!   plaintext buffer; (2) the leader encrypts the node's ℓm bytes as *one*
//!   ciphertext and all-gathers ciphertexts among leaders (RD); (3) all ℓ
//!   processes jointly decrypt the N−1 foreign ciphertexts
//!   (⌈(N−1)/ℓ⌉ each); (4) everyone copies the result to its user buffer.
//!   Metrics: `rc = lg N`, `re = 1`, `se = ℓm`, `rd = ⌈N/ℓ⌉`,
//!   `sd = max{N, ℓ}·m`.
//! - **HS2**: every process encrypts its *own* m bytes (se = m); leaders
//!   all-gather the per-process ciphertexts; joint decryption handles
//!   (N−1)ℓ ciphertexts, N−1 per process (`rd = N−1`, `sd = (N−1)m`).
//!
//! This is the one shared-memory skeleton: deposit + barrier, the leader
//! walk, the joint open split over ℓ, and the copy-out. The leader phase is
//! the shared RD walk over node group 0 (the leaders) on plain items: the
//! ciphertexts were sealed in shared memory before it, and it forwards
//! them untouched.
//!
//! With a non-block mapping, step 4 needs `p` small copies instead of one
//! large one to rearrange blocks into rank order — the penalty the paper
//! observes for HS1/HS2 under cyclic mapping.
//!
//! `HsVariant::Plain` is the shared (unencrypted) counterpart of both, used
//! as a baseline in the paper's Figures 5 and 6.

use crate::collective::{node_group, Walk};
use crate::output::GatherOutput;
use crate::tags;
use eag_netsim::Mapping;
use eag_runtime::{Chunk, Fallible, Item, ProcCtx};

/// Which HS scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HsVariant {
    /// Leader encrypts the whole node block once.
    Hs1,
    /// Every process encrypts its own block.
    Hs2,
    /// No encryption (the unencrypted counterpart; HS1 ≡ HS2 then).
    Plain,
}

/// Runs HS1/HS2/Plain over the whole world, contributing `my_chunk` and
/// filling `out`, whose per-rank lengths drive the run. Only
/// [`HsVariant::Hs2`] supports varying lengths (HS1 and the unencrypted
/// counterpart merge the node's blocks into a single equal-stride buffer
/// before encryption).
pub(crate) fn hs_over(
    ctx: &mut ProcCtx,
    my_chunk: Chunk,
    out: &mut GatherOutput,
    variant: HsVariant,
) -> Fallible {
    let topo = ctx.topology().clone();
    let my_node = topo.node_of(ctx.rank());
    let ell = topo.procs_per_node();
    let li = topo.local_index(ctx.rank());
    // HS2 moves every rank's ciphertext, HS1 and Plain one node buffer.
    let per_node = if variant == HsVariant::Hs2 { ell } else { 1 };
    let foreign_items = (topo.nodes() - 1) * per_node;

    out.place(my_chunk.clone());

    // Step 1: deposit into the node's shared buffers. Consumer counts come
    // from the algorithm's structure: a gather slot is read by the ℓ−1
    // siblings in step 4, plus (HS1/Plain only) once by the leader in
    // step 2.
    if variant == HsVariant::Hs2 {
        // Ciphertext for the network, plus plaintext so siblings can
        // read intra-node blocks without decryption.
        let sealed = ctx.encrypt(my_chunk.clone());
        ctx.shared_deposit(
            ctx.slot(tags::SLOT_GATHER, li),
            Item::Plain(my_chunk),
            ell - 1,
        );
        ctx.shared_deposit_free(ctx.slot(tags::SLOT_CIPHER_IN, li), Item::Sealed(sealed), 1);
    } else {
        ctx.shared_deposit(ctx.slot(tags::SLOT_GATHER, li), Item::Plain(my_chunk), ell);
    }
    ctx.node_barrier()?;

    // Step 2: leaders all-gather.
    if li == 0 {
        let contribution: Vec<Item> = if variant == HsVariant::Hs2 {
            (0..ell)
                .map(|k| ctx.shared_fetch_free(ctx.slot(tags::SLOT_CIPHER_IN, k)))
                .collect::<Fallible<_>>()?
        } else {
            // One node buffer; only HS1 seals it.
            let blocks: Vec<Chunk> = (0..ell)
                .map(|k| {
                    Ok(ctx
                        .shared_fetch_free(ctx.slot(tags::SLOT_GATHER, k))?
                        .into_plain())
                })
                .collect::<Fallible<_>>()?;
            let node_chunk = Chunk::concat_owned(blocks);
            vec![match variant {
                HsVariant::Hs1 => Item::Sealed(ctx.encrypt(node_chunk)),
                _ => Item::Plain(node_chunk),
            }]
        };
        let leaders = node_group(&topo, 0);
        let gathered = Walk::Rd.run(ctx, &leaders, contribution, tags::PHASE_MAIN)?;
        // Deposit foreign items into the shared ciphertext (or plaintext)
        // buffer, indexed consecutively for the joint-decryption split.
        let mut idx = 0usize;
        for item in gathered {
            let origin_node = topo.node_of(item.origins()[0]);
            if origin_node == my_node {
                continue;
            }
            // Exactly one rank (local index idx mod ℓ) decrypts each
            // foreign item in step 3.
            ctx.shared_deposit_free(ctx.slot(tags::SLOT_CIPHER_FOREIGN, idx), item, 1);
            idx += 1;
        }
        assert_eq!(
            idx, foreign_items,
            "leader gathered an unexpected item count"
        );
    }
    ctx.node_barrier()?;

    // Step 3: joint decryption into the shared plaintext buffer.
    for j in (0..foreign_items).skip(li).step_by(ell) {
        // Each joint-decryption slice is a compute burst; give waiting
        // ranks a turn between slices on a contended world.
        ctx.yield_now();
        let item = ctx.shared_fetch_free(ctx.slot(tags::SLOT_CIPHER_FOREIGN, j))?;
        let plain = match item {
            Item::Sealed(s) => ctx.decrypt(s)?,
            Item::Plain(c) => c,
        };
        // Every process copies every decrypted block out in step 4.
        ctx.shared_deposit_free(ctx.slot(tags::SLOT_PLAIN_OUT, j), Item::Plain(plain), ell);
    }
    ctx.node_barrier()?;

    // Step 4: copy everything to the user buffer.
    for k in 0..ell {
        if k == li {
            continue; // own block already placed
        }
        let item = ctx.shared_fetch_free(ctx.slot(tags::SLOT_GATHER, k))?;
        out.place(item.into_plain());
    }
    for j in 0..foreign_items {
        let item = ctx.shared_fetch_free(ctx.slot(tags::SLOT_PLAIN_OUT, j))?;
        out.place(item.into_plain());
    }
    // The rank-order rearrangement cost: one bulk copy under block mapping,
    // p per-block copies otherwise (the paper's cyclic-mapping penalty).
    match topo.mapping() {
        Mapping::Block => ctx.charge_copy((0..out.p()).map(|r| out.len_of(r)).sum()),
        Mapping::Cyclic => {
            for r in 0..out.p() {
                ctx.charge_strided_copy(out.len_of(r));
            }
        }
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
            DataMode::Real { seed: 13 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn hs1_correct_many_shapes() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (8, 4), (12, 3), (6, 6), (9, 3)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::Hs1)
                        .run(ctx, 16)
                        .verify(13);
                });
                assert!(
                    !report.wiretap.saw_plaintext_frame(),
                    "HS1 leaked plaintext: p={p} N={nodes} {mapping}"
                );
            }
        }
    }

    #[test]
    fn hs2_correct_many_shapes() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (8, 4), (12, 3), (10, 5)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::Hs2)
                        .run(ctx, 16)
                        .verify(13);
                });
                assert!(!report.wiretap.saw_plaintext_frame());
            }
        }
    }

    #[test]
    fn hs_plain_correct() {
        for (p, nodes) in [(8, 2), (12, 4)] {
            let report = run(&world(p, nodes, Mapping::Block), |ctx| {
                Collective::Allgather(Algorithm::HsPlain)
                    .run(ctx, 16)
                    .verify(13);
            });
            assert_eq!(report.outputs.len(), p);
        }
    }

    #[test]
    fn hs1_metrics_match_table_2() {
        // p = 16, N = 4, ℓ = 4, block: rc = lg N = 2, re = 1, se = ℓm,
        // rd = ⌈(N−1)/ℓ⌉ = 1, sd = ℓm (= max{N,ℓ}m with N = ℓ).
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        let report = run(&world(p, nodes, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Hs1).run(ctx, m).verify(13);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, 2);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, (4 * m) as u64);
        assert_eq!(max.dec_rounds, 1);
        assert_eq!(max.dec_bytes, (4 * m) as u64);
    }

    #[test]
    fn hs2_metrics_match_table_2() {
        // p = 16, N = 4, ℓ = 4, block: re = 1, se = m, rd = N−1 = 3,
        // sd = (N−1)m.
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        let report = run(&world(p, nodes, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Hs2).run(ctx, m).verify(13);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, 2);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, (nodes - 1) as u64);
        assert_eq!(max.dec_bytes, ((nodes - 1) * m) as u64);
    }

    #[test]
    fn shared_slot_map_empty_after_collective() {
        // Consumer-counted deposits must leave the node's shared segment
        // empty once the collective completes — the map used to grow by one
        // generation of slots per collective and never shrink.
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for algo in [Algorithm::Hs1, Algorithm::Hs2, Algorithm::HsPlain] {
                for (p, nodes) in [(16, 4), (12, 3), (6, 6)] {
                    let report = run(&world(p, nodes, mapping), move |ctx| {
                        Collective::Allgather(algo).run(ctx, 16).verify(13);
                        // All ranks are past their last fetch here, so the
                        // observation below is race-free.
                        ctx.node_barrier().unwrap();
                        ctx.shared_slots_len()
                    });
                    assert!(
                        report.outputs.iter().all(|&live| live == 0),
                        "{algo} p={p} N={nodes} {mapping} left live slots: {:?}",
                        report.outputs
                    );
                }
            }
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_accumulate_slots() {
        let report = run(&world(8, 2, Mapping::Block), |ctx| {
            for _ in 0..3 {
                Collective::Allgather(Algorithm::Hs2)
                    .run(ctx, 16)
                    .verify(13);
            }
            ctx.node_barrier().unwrap();
            ctx.shared_slots_len()
        });
        assert!(report.outputs.iter().all(|&live| live == 0));
    }

    #[test]
    fn hs1_decryption_is_shared_across_the_node() {
        // N = 8 nodes, ℓ = 2: each process decrypts ⌈7/2⌉ = 4 at most,
        // and the two siblings split the 7 foreign ciphertexts.
        let report = run(&world(16, 8, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Hs1).run(ctx, 8).verify(13);
        });
        let max = report.max_metrics();
        assert_eq!(max.dec_rounds, 4);
        let sum = eag_runtime::Metrics::component_sum(&report.metrics);
        // 7 foreign ciphertexts per node × 8 nodes.
        assert_eq!(sum.dec_rounds, 56);
    }
}
