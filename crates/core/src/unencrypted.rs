//! Unencrypted all-gather baselines (paper Section III).
//!
//! These are the classic algorithms found in MPICH/MVAPICH. Ring, the
//! rank-ordered Ring of Kandalla et al., Recursive Doubling (general p) and
//! Bruck are the generic item movers of [`crate::collective`] applied to
//! plaintext blocks — the all-gather kernel calls them directly. This
//! module holds the baselines with a shape of their own: the Hierarchical
//! (leader-based) algorithm, Neighbor Exchange, and the modeled MVAPICH
//! default (RD/Bruck for small messages, Ring for large), which Naive
//! reuses on ciphertexts. The unencrypted counterparts of the paper's
//! C-Ring / C-RD / HS algorithms live with their encrypted versions in
//! [`crate::encrypted`].

use crate::collective::{
    bcast_items_from_root, bruck_allgather_items, gather_items_to_root, rd_allgather_items,
    ring_allgather_items,
};
use crate::output::GatherOutput;
use crate::tags;
use eag_netsim::Rank;
use eag_runtime::{Chunk, Item, Parcel, ProcCtx};

/// Block size at which the modeled MVAPICH default switches from
/// recursive doubling (Bruck for non-power-of-two member counts) to Ring.
/// The paper observes RD below ~8 KB and Ring above on both of its
/// systems, so this is a constant of the model, not a per-cluster knob.
pub const MVAPICH_SWITCH_BYTES: usize = 8 * 1024;

/// The modeled MVAPICH default all-gather of one `item` per member, block
/// lengths as recorded in `out`: below [`MVAPICH_SWITCH_BYTES`] (keyed on
/// the largest block any member contributes) RD when the member count is a
/// power of two and Bruck otherwise; Ring at or above it. The one owner of
/// that selection — the `MVAPICH` baseline moves plaintext through it,
/// Naive ciphertext.
pub fn mvapich_allgather_items(
    ctx: &mut ProcCtx,
    members: &[Rank],
    item: Item,
    out: &GatherOutput,
    tag_base: u64,
) -> Vec<Item> {
    let max_len = members.iter().map(|&r| out.len_of(r)).max().unwrap_or(0);
    if max_len >= MVAPICH_SWITCH_BYTES {
        ring_allgather_items(ctx, members, vec![item], tag_base)
    } else if members.len().is_power_of_two() {
        rd_allgather_items(ctx, members, vec![item], tag_base)
    } else {
        bruck_allgather_items(ctx, members, item, tag_base)
    }
}

/// The Hierarchical algorithm (Träff \[28\]): intra-node gather to a leader,
/// inter-node all-gather among leaders (RD), intra-node broadcast.
pub fn hierarchical(ctx: &mut ProcCtx, my_chunk: Chunk, out: &mut GatherOutput) {
    let topo = ctx.topology().clone();
    let local = topo.ranks_on_node(topo.node_of(ctx.rank()));
    let leaders: Vec<Rank> = (0..topo.nodes()).map(|n| topo.leader_of(n)).collect();

    // Step 1: gather node blocks to the leader.
    let gathered =
        gather_items_to_root(ctx, &local, vec![Item::Plain(my_chunk)], tags::PHASE_GATHER);

    // Step 2: leaders all-gather everything.
    let leader_items =
        gathered.map(|items| rd_allgather_items(ctx, &leaders, items, tags::PHASE_MAIN));

    // Step 3: broadcast the full result within each node.
    let all = bcast_items_from_root(ctx, &local, leader_items, tags::PHASE_BCAST);
    out.place_items(all);
}

/// Neighbor Exchange all-gather (Chen & Yuan): `p/2` rounds for even `p`,
/// alternating exchanges with the left/right ring neighbours, moving two
/// blocks per round after the first. Only defined for even `p`; the
/// all-gather kernel runs Ring instead when `p` is odd.
pub fn neighbor_exchange(ctx: &mut ProcCtx, my_chunk: Chunk, out: &mut GatherOutput) {
    let p = ctx.p();
    assert!(p.is_multiple_of(2), "Neighbor Exchange needs an even p");
    let me = ctx.rank();
    out.place(my_chunk.clone());

    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    let even = me % 2 == 0;

    // Round 1: pair exchange (even with right, odd with left).
    let partner = if even { right } else { left };
    let first = ctx
        .sendrecv(
            partner,
            partner,
            tags::PHASE_MAIN,
            Parcel::one(Item::Plain(my_chunk.clone())),
        )
        .items
        .remove(0)
        .into_plain();
    out.place(first.clone());

    // Rounds 2..p/2: alternate sides, forwarding the pair acquired last.
    let mut last_pair: Vec<Item> = vec![Item::Plain(my_chunk), Item::Plain(first)];
    for round in 1..p / 2 {
        // Even ranks alternate left, right, left, …; odd ranks mirror.
        let partner = if even == (round % 2 == 1) {
            left
        } else {
            right
        };
        let tag = tags::PHASE_MAIN + round as u64;
        let received = ctx
            .sendrecv(
                partner,
                partner,
                tag,
                Parcel {
                    items: last_pair.clone(),
                },
            )
            .items;
        for item in &received {
            out.place(item.clone().into_plain());
        }
        last_pair = received;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, Collective};
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    fn spec(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: 42 },
        )
    }

    fn check(algo: Algorithm, p: usize, nodes: usize) {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let report = run(&spec(p, nodes, mapping), move |ctx| {
                let out = Collective::Allgather(algo).run(ctx, 32);
                out.verify(42);
                out.is_complete()
            });
            assert!(report.outputs.iter().all(|&ok| ok));
        }
    }

    #[test]
    fn ring_correct() {
        check(Algorithm::Ring, 8, 2);
        check(Algorithm::Ring, 6, 3);
    }

    #[test]
    fn ring_ranked_correct() {
        check(Algorithm::RingRanked, 8, 2);
        check(Algorithm::RingRanked, 12, 3);
    }

    #[test]
    fn rd_correct_pow2_and_general() {
        check(Algorithm::Rd, 8, 2);
        check(Algorithm::Rd, 6, 2);
        check(Algorithm::Rd, 12, 4);
    }

    #[test]
    fn bruck_correct() {
        check(Algorithm::Bruck, 8, 2);
        check(Algorithm::Bruck, 10, 5);
    }

    #[test]
    fn hierarchical_correct() {
        check(Algorithm::Hierarchical, 8, 2);
        check(Algorithm::Hierarchical, 12, 3);
    }

    #[test]
    fn neighbor_exchange_correct() {
        check(Algorithm::NeighborExchange, 8, 2);
        check(Algorithm::NeighborExchange, 6, 3);
        check(Algorithm::NeighborExchange, 12, 4);
        // Odd p falls back to Ring.
        check(Algorithm::NeighborExchange, 9, 3);
    }

    #[test]
    fn neighbor_exchange_round_count_is_half_p() {
        let report = run(&spec(8, 2, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::NeighborExchange)
                .run(ctx, 16)
                .verify(42);
        });
        for m in &report.metrics {
            assert_eq!(m.comm_rounds, 4); // p/2
                                          // sc = m + 2m(p/2 - 1) = (p-1)m.
            assert_eq!(m.bytes_sent, 7 * 16);
        }
    }

    #[test]
    fn mvapich_switches_by_size() {
        // Functional check both below and above the default 8 KB switch.
        for (p, nodes) in [(8, 2), (6, 3)] {
            for m in [32usize, 16 * 1024] {
                let report = run(&spec(p, nodes, Mapping::Block), move |ctx| {
                    let out = Collective::Allgather(Algorithm::Mvapich).run(ctx, m);
                    out.verify(42);
                    true
                });
                assert!(report.outputs.iter().all(|&ok| ok));
            }
        }
    }

    #[test]
    fn ring_round_count_is_p_minus_1() {
        let report = run(&spec(6, 2, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Ring)
                .run(ctx, 16)
                .is_complete()
        });
        for m in &report.metrics {
            assert_eq!(m.comm_rounds, 5);
        }
    }

    #[test]
    fn rd_bytes_match_theory_pow2() {
        // sc = (p-1)·m for recursive doubling.
        let report = run(&spec(8, 2, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::Rd)
                .run(ctx, 64)
                .is_complete()
        });
        for m in &report.metrics {
            assert_eq!(m.bytes_sent, 7 * 64);
            assert_eq!(m.bytes_recv, 7 * 64);
            assert_eq!(m.comm_rounds, 3);
        }
    }
}
