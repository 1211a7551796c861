//! The Concurrent algorithms C-Ring and C-RD (paper Section IV-B).
//!
//! The p processes are partitioned into ℓ groups with exactly one process
//! per node per group. Each group runs an encrypted sub-all-gather of its
//! members' m-byte blocks (every hop is inter-node, so each process encrypts
//! its own block exactly once and forwards received ciphertexts untouched:
//! `re = 1`, `se = m`, `rd = N−1`, `sd = (N−1)m` — the theoretical lower
//! bound for sd). A node-local ordinary all-gather then spreads the ℓ
//! per-group results across the node. The sub-gather is O-Ring or O-RD
//! over the group, the local phase the same walk over plain items.
//!
//! The groups are the node groups of [`crate::collective::node_group`],
//! the same lists HS and the Hierarchical baseline run their leader walk
//! over (group 0). Unlike HS there is no collect step, and the result is
//! spread with a message walk instead of shared memory.
//!
//! The same code with `encrypted = false` gives the *unencrypted
//! counterparts* the paper uses in Figures 5 and 6.

use crate::collective::{node_group, Walk};
use crate::encrypted::o_walk_over;
use crate::output::GatherOutput;
use crate::tags;
use eag_runtime::{Chunk, Fallible, Item, ProcCtx};

/// Runs the Concurrent algorithm over the whole world with `walk` as both
/// the sub-gather and the local phase (Ring: C-Ring, RD: C-RD),
/// contributing `my_chunk` and filling `out`; `encrypted = false` gives
/// the unencrypted counterpart. Block lengths come from `out`: when they
/// are uniform the local phase moves each group's result as one merged
/// chunk, otherwise as per-origin items (merging needs an equal stride).
pub(crate) fn concurrent(
    ctx: &mut ProcCtx,
    my_chunk: Chunk,
    out: &mut GatherOutput,
    walk: Walk,
    encrypted: bool,
) -> Fallible {
    let topo = ctx.topology().clone();
    // Group members: the process with this rank's local index on every
    // node, ordered by node. This ordering is mapping-oblivious (the
    // paper's C-Ring property).
    let members = node_group(&topo, topo.local_index(ctx.rank()));

    // Phase 1: concurrent sub-all-gathers (one per group).
    if encrypted {
        o_walk_over(ctx, walk, &members, my_chunk, out, tags::PHASE_SUB)?;
    } else {
        let items = vec![Item::Plain(my_chunk)];
        out.place_items(walk.run(ctx, &members, items, tags::PHASE_SUB)?);
    }

    // Phase 2: node-local ordinary all-gather of each group's result.
    let local = topo.ranks_on_node(topo.node_of(ctx.rank()));
    if local.len() > 1 {
        let blocks: Vec<Chunk> = members
            .iter()
            .map(|&r| out.get(r).expect("sub-gather incomplete").clone())
            .collect();
        let items = if out.block_len().is_some() {
            vec![Item::Plain(Chunk::concat_owned(blocks))]
        } else {
            blocks.into_iter().map(Item::Plain).collect()
        };
        out.place_items(walk.run(ctx, &local, items, tags::PHASE_LOCAL)?);
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
            DataMode::Real { seed: 9 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn c_ring_correct_and_silent_on_the_wire() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (8, 4), (12, 3), (9, 3)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::CRing)
                        .run(ctx, 16)
                        .verify(9);
                });
                assert!(!report.wiretap.saw_plaintext_frame());
            }
        }
    }

    #[test]
    fn c_rd_correct_and_silent_on_the_wire() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (8, 4), (12, 3), (6, 3), (12, 4)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::CRd).run(ctx, 16).verify(9);
                });
                assert!(!report.wiretap.saw_plaintext_frame());
            }
        }
    }

    #[test]
    fn plain_counterparts_correct() {
        for (p, nodes) in [(8, 4), (12, 3)] {
            let report = run(&world(p, nodes, Mapping::Block), |ctx| {
                Collective::Allgather(Algorithm::CRingPlain)
                    .run(ctx, 16)
                    .verify(9);
                Collective::Allgather(Algorithm::CRdPlain)
                    .run(ctx, 16)
                    .verify(9);
            });
            assert_eq!(report.outputs.len(), p);
        }
    }

    #[test]
    fn c_ring_metrics_match_table_2() {
        // p = 16, N = 4, ℓ = 4, block: rc = N+ℓ−2, re = 1, se = m,
        // rd = N−1, sd = (N−1)m (the sd lower bound).
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        let report = run(&world(p, nodes, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::CRing)
                .run(ctx, m)
                .verify(9);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, (nodes + p / nodes - 2) as u64);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, (nodes - 1) as u64);
        assert_eq!(max.dec_bytes, ((nodes - 1) * m) as u64);
    }

    #[test]
    fn c_rd_metrics_match_table_2() {
        // p = 16, N = 4, ℓ = 4, block: rc = lg p, re = 1, se = m,
        // rd = N−1, sd = (N−1)m.
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        let report = run(&world(p, nodes, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::CRd).run(ctx, m).verify(9);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, 4); // lg 16
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, (nodes - 1) as u64);
        assert_eq!(max.dec_bytes, ((nodes - 1) * m) as u64);
    }

    #[test]
    fn c_ring_is_mapping_oblivious_in_traffic() {
        // Inter-node bytes sent must be identical for block and cyclic.
        let traffic = |mapping| {
            let report = run(&world(8, 4, mapping), |ctx| {
                Collective::Allgather(Algorithm::CRing)
                    .run(ctx, 64)
                    .verify(9);
            });
            eag_runtime::Metrics::component_sum(&report.metrics).inter_bytes_sent
        };
        assert_eq!(traffic(Mapping::Block), traffic(Mapping::Cyclic));
    }
}
