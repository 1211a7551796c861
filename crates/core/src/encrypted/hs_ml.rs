//! HS-ML — a multi-leader hierarchical shared-memory all-gather.
//!
//! **Extension beyond the paper.** HS2 funnels all inter-node traffic of a
//! node through one leader (one stream per NIC); the Concurrent algorithms
//! use all ℓ processes as streams but pay intra-node message passing for the
//! local phase. HS-ML interpolates: `k` leaders per node each carry `ℓ/k` of
//! the node's ciphertexts through an independent inter-node all-gather
//! (k concurrent streams per node), while the local phase stays in shared
//! memory like HS. `k = 1` degenerates to HS2; `k = ℓ` gives C-Ring-like
//! stream concurrency without the intra-node channel cost.
//!
//! The multi-leader idea follows Kandalla et al.'s multi-leader all-gather
//! designs for multi-core clusters (the paper's reference \[13\]), applied to
//! the encrypted setting. Each leader group runs the shared ring or RD walk
//! over the pre-sealed items, as HS does.

use crate::collective::{rd_allgather_items, ring_allgather_items};
use crate::output::GatherOutput;
use crate::tags;
use eag_netsim::Rank;
use eag_runtime::{Item, ProcCtx};

/// Inter-node exchange pattern for the leader groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlPattern {
    /// Ring among each leader group (mapping-oblivious).
    Ring,
    /// Recursive doubling among each leader group.
    Rd,
}

/// Runs HS-ML with `k` leaders per node. Panics unless `k` divides ℓ
/// (`k = ℓ` and `k = 1` always work).
pub fn hs_ml(ctx: &mut ProcCtx, m: usize, k: usize, pattern: MlPattern) -> GatherOutput {
    let topo = ctx.topology().clone();
    let p = topo.p();
    let nodes = topo.nodes();
    let my_node = topo.node_of(ctx.rank());
    let ell = topo.procs_per_node();
    assert!(
        k >= 1 && k <= ell && ell.is_multiple_of(k),
        "k must divide ℓ"
    );
    let li = topo.local_index(ctx.rank());
    let blocks_per_leader = ell / k;
    // Local indices 0..k are leaders; leader g carries the node's blocks
    // with local index in [g·ℓ/k, (g+1)·ℓ/k).
    let is_leader = li < k;

    let mut out = GatherOutput::new(vec![m; p], &(0..p).collect::<Vec<Rank>>());
    let my_chunk = ctx.my_block(m);
    out.place(my_chunk.clone());

    // Step 1: everyone seals its own block into the shared ciphertext
    // buffer (HS2's per-process encryption, se = m) and shares the
    // plaintext for intra-node reads.
    let sealed = ctx.encrypt(my_chunk.clone());
    // Consumers: the plaintext is read by the ℓ−1 siblings in step 4; the
    // ciphertext once, by the leader whose group covers this local index.
    ctx.shared_deposit(
        ctx.slot(tags::SLOT_GATHER, li),
        Item::Plain(my_chunk),
        ell - 1,
    );
    ctx.shared_deposit_free(ctx.slot(tags::SLOT_CIPHER_IN, li), Item::Sealed(sealed), 1);
    ctx.node_barrier();

    // Step 2: k concurrent inter-node all-gathers, one per leader group.
    if is_leader {
        let group = li;
        let members: Vec<Rank> = (0..nodes)
            .map(|node| topo.peer_on_node(topo.leader_of(node), group))
            .collect();
        let contribution: Vec<Item> = (blocks_per_leader * group..blocks_per_leader * (group + 1))
            .map(|slot_idx| ctx.shared_fetch_free(ctx.slot(tags::SLOT_CIPHER_IN, slot_idx)))
            .collect();
        let gathered = match pattern {
            MlPattern::Ring => ring_allgather_items(ctx, &members, contribution, tags::PHASE_SUB),
            MlPattern::Rd => rd_allgather_items(ctx, &members, contribution, tags::PHASE_SUB),
        };
        // Deposit foreign ciphertexts for the joint decryption; index them
        // by (origin-disjoint) leader-group-relative positions so the k
        // leaders never collide.
        let mut idx = 0usize;
        for item in gathered {
            let origin_node = topo.node_of(item.origins()[0]);
            if origin_node == my_node {
                continue;
            }
            ctx.shared_deposit_free(
                ctx.slot(
                    tags::SLOT_CIPHER_FOREIGN,
                    group * (nodes - 1) * blocks_per_leader + idx,
                ),
                item,
                1, // exactly one rank decrypts each foreign item in step 3
            );
            idx += 1;
        }
        assert_eq!(idx, (nodes - 1) * blocks_per_leader);
    }
    ctx.node_barrier();

    // Step 3: joint decryption, split across all ℓ processes.
    let foreign_items = (nodes - 1) * ell;
    for j in (0..foreign_items).skip(li).step_by(ell) {
        let item = ctx.shared_fetch_free(ctx.slot(tags::SLOT_CIPHER_FOREIGN, j));
        let plain = match item {
            Item::Sealed(s) => ctx.decrypt(s),
            Item::Plain(c) => c,
        };
        // Every process copies every decrypted block out in step 4.
        ctx.shared_deposit_free(ctx.slot(tags::SLOT_PLAIN_OUT, j), Item::Plain(plain), ell);
    }
    ctx.node_barrier();

    // Step 4: copy everything to the user buffer.
    for slot_idx in 0..ell {
        if slot_idx == li {
            continue;
        }
        let item = ctx.shared_fetch_free(ctx.slot(tags::SLOT_GATHER, slot_idx));
        out.place(item.into_plain());
    }
    for j in 0..foreign_items {
        let item = ctx.shared_fetch_free(ctx.slot(tags::SLOT_PLAIN_OUT, j));
        out.place(item.into_plain());
    }
    match topo.mapping() {
        eag_netsim::Mapping::Block => ctx.charge_copy(p * m),
        eag_netsim::Mapping::Cyclic => {
            for _ in 0..p {
                ctx.charge_strided_copy(m);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: 53 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn hs_ml_correct_across_k() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for k in [1usize, 2, 4] {
                for pattern in [MlPattern::Ring, MlPattern::Rd] {
                    let report = run(&world(16, 4, mapping), move |ctx| {
                        hs_ml(ctx, 32, k, pattern).verify(53);
                    });
                    assert!(
                        !report.wiretap.saw_plaintext_frame(),
                        "k={k} {pattern:?} {mapping} leaked"
                    );
                }
            }
        }
    }

    #[test]
    fn hs_ml_k1_matches_hs2_crypto_metrics() {
        let report_ml = run(&world(16, 4, Mapping::Block), |ctx| {
            hs_ml(ctx, 64, 1, MlPattern::Rd).verify(53);
        });
        let report_hs2 = run(&world(16, 4, Mapping::Block), |ctx| {
            crate::Collective::Allgather(crate::Algorithm::Hs2)
                .run(ctx, 64)
                .verify(53);
        });
        let ml = report_ml.max_metrics();
        let hs2 = report_hs2.max_metrics();
        assert_eq!(ml.enc_rounds, hs2.enc_rounds);
        assert_eq!(ml.enc_bytes, hs2.enc_bytes);
        assert_eq!(ml.dec_rounds, hs2.dec_rounds);
        assert_eq!(ml.dec_bytes, hs2.dec_bytes);
    }

    #[test]
    fn hs_ml_spreads_inter_node_streams() {
        // With k = 4 leaders, four ranks per node send inter-node traffic;
        // with k = 1, only one does.
        let senders = |k: usize| {
            let report = run(&world(16, 4, Mapping::Block), move |ctx| {
                hs_ml(ctx, 64, k, MlPattern::Ring).verify(53);
            });
            report
                .metrics
                .iter()
                .filter(|m| m.inter_bytes_sent > 0)
                .count()
        };
        assert_eq!(senders(1), 4); // 1 leader × 4 nodes
        assert_eq!(senders(4), 16); // 4 leaders × 4 nodes
    }

    #[test]
    fn hs_ml_crypto_volume_meets_the_lower_bounds() {
        let (p, nodes, m) = (16usize, 4usize, 48usize);
        let lb = crate::Operation::Allgather
            .lower_bounds(p, nodes, m)
            .unwrap();
        for k in [1usize, 2, 4] {
            let report = run(&world(p, nodes, Mapping::Block), move |ctx| {
                hs_ml(ctx, m, k, MlPattern::Ring).verify(53);
            });
            let mx = report.max_metrics();
            // HS-ML keeps HS2's optimal encryption and decryption volumes
            // regardless of k.
            assert_eq!(mx.enc_bytes, lb.se, "k={k}");
            assert_eq!(mx.dec_bytes, lb.sd, "k={k}");
        }
    }

    #[test]
    fn shared_slot_map_empty_after_collective() {
        for k in [1usize, 2, 4] {
            let report = run(&world(16, 4, Mapping::Block), move |ctx| {
                hs_ml(ctx, 32, k, MlPattern::Rd).verify(53);
                ctx.node_barrier(); // race-free observation point
                ctx.shared_slots_len()
            });
            assert!(
                report.outputs.iter().all(|&live| live == 0),
                "k={k} left live slots: {:?}",
                report.outputs
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must divide")]
    fn hs_ml_rejects_bad_k() {
        run(&world(16, 4, Mapping::Block), |ctx| {
            let _ = hs_ml(ctx, 16, 3, MlPattern::Ring);
        });
    }
}
