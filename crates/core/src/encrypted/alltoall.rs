//! Encrypted all-to-all (complete personalized exchange): every member
//! holds one distinct block *per destination* and must deliver each block
//! to its addressee.
//!
//! Neither walk has a plain twin; both take the opportunistic rule from
//! [`Held`], every rank relaying what it does not consume. Two variants:
//!
//! - [`alltoall_pairwise`]: `q−1` sendrecv rounds, round `k` exchanging
//!   with ranks at member-index distance `±k`. Every block travels exactly
//!   one edge, so the opportunistic rule degenerates to: seal iff that one
//!   edge is inter-node. Closed form (block mapping, p, N powers of two,
//!   N ≥ 2, ℓ = p/N): `rc = p−1, sc = (p−1)m, re = p−ℓ, se = (p−ℓ)m,
//!   rd = p−ℓ, sd = (p−ℓ)m`.
//! - [`alltoall_bruck`]: `⌈lg q⌉` store-and-forward rounds. Block
//!   `(si → di)` with offset `o = (di − si) mod q` moves at round `k` iff
//!   bit `k` of `o` is set, always by `+2^k` member-index positions. The
//!   criterion is static — both endpoints of every edge derive the exact
//!   block set crossing it from `(q, k)` alone, and order it by
//!   `(si, di)`, so the wire carries *only payload items*, no manifest.
//!   A block is sealed at its first inter-node hop and **forwarded as-is**
//!   by every intermediary (the relays never re-encrypt foreign
//!   ciphertext); only the final destination opens it. No closed form is
//!   registered: log-round forwarding makes the per-rank maxima
//!   shape-dependent, as with the opportunistic Bruck all-gather.

use std::collections::BTreeMap;

use crate::collective::{ceil_log2, my_index};
use crate::encrypted::Held;
use crate::output::GatherOutput;
use eag_netsim::Rank;
use eag_runtime::{Fallible, Item, Parcel, ProcCtx};

/// Pairwise-exchange encrypted all-to-all over `members`, uniform block
/// length `m`. Each rank's output holds the `q` blocks addressed to it,
/// slot-indexed by source rank; verify with
/// [`GatherOutput::verify_pairwise`].
pub(crate) fn alltoall_pairwise(
    ctx: &mut ProcCtx,
    members: &[Rank],
    m: usize,
    tag_base: u64,
) -> Fallible<GatherOutput> {
    let q = members.len();
    let i = my_index(ctx, members);
    let me = ctx.rank();
    let mut out = GatherOutput::new(vec![m; ctx.p()], members);
    out.place(ctx.my_block_for(me, m));
    for k in 1..q {
        ctx.yield_now();
        let dst = members[(i + k) % q];
        let src = members[(i + q - k) % q];
        let link = ctx.topology().link(me, dst);
        let item = Held::from(ctx.my_block_for(dst, m)).relay(ctx, link);
        let mut parcel = ctx.sendrecv(dst, src, tag_base + k as u64, Parcel::one(item))?;
        out.place(Held::from(parcel.items.remove(0)).into_plain(ctx)?);
    }
    Ok(out)
}

/// The member-index pairs `(si, di)` whose blocks arrive at index `i` in
/// round `k`, in `(si, di)` order — the mirror image of the sender's
/// static moving-set criterion.
fn bruck_expected(q: usize, i: usize, k: u32) -> Vec<(usize, usize)> {
    let stride = 1usize << k;
    let s = (i + q - stride % q) % q;
    let mut pairs = Vec::new();
    for si in 0..q {
        let low = (s + q - si) % q;
        if low >= stride {
            continue;
        }
        let mut o = low + stride;
        while o < q {
            pairs.push((si, (si + o) % q));
            o += stride << 1;
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Bruck-style encrypted all-to-all over `members`, uniform block length
/// `m`: `⌈lg q⌉` rounds, ciphertext forwarded as-is through
/// intermediaries.
pub(crate) fn alltoall_bruck(
    ctx: &mut ProcCtx,
    members: &[Rank],
    m: usize,
    tag_base: u64,
) -> Fallible<GatherOutput> {
    let q = members.len();
    let i = my_index(ctx, members);
    let me = ctx.rank();

    // Blocks currently positioned at this rank, keyed (si, di) by
    // member index. Initially: everything this rank originates.
    let mut held: BTreeMap<(usize, usize), Held> = (0..q)
        .map(|di| ((i, di), Held::from(ctx.my_block_for(members[di], m))))
        .collect();

    for k in 0..ceil_log2(q) {
        ctx.yield_now();
        let stride = 1usize << k;
        let dst = members[(i + stride % q) % q];
        let src = members[(i + q - stride % q) % q];

        // Static criterion: block (si, di) moves at round k iff bit k of
        // its offset (di − si) mod q is set.
        let moving: Vec<(usize, usize)> = held
            .keys()
            .copied()
            .filter(|&(si, di)| ((di + q - si) % q) & stride != 0)
            .collect();
        let expected = bruck_expected(q, i, k);

        if !moving.is_empty() {
            let link = ctx.topology().link(me, dst);
            let items: Vec<Item> = moving
                .iter()
                .map(|key| {
                    held.remove(key)
                        .expect("moving block is held")
                        .relay(ctx, link)
                })
                .collect();
            ctx.send(dst, tag_base + u64::from(k), Parcel { items });
        }
        if !expected.is_empty() {
            let parcel = ctx.try_recv(src, tag_base + u64::from(k))?;
            assert_eq!(parcel.items.len(), expected.len(), "bruck manifest drift");
            for (key, item) in expected.into_iter().zip(parcel.items) {
                held.insert(key, Held::from(item));
            }
        }
    }

    let mut out = GatherOutput::new(vec![m; ctx.p()], members);
    for ((si, di), h) in held {
        debug_assert_eq!(di, i, "undelivered block after final round");
        let c = h.into_plain(ctx)?;
        debug_assert_eq!(c.origins, vec![members[si]]);
        out.place(c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    const SEED: u64 = 0xA2A5;

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: SEED },
        );
        s.capture_wire = true;
        s
    }

    type Kernel = fn(&mut ProcCtx, &[Rank], usize, u64) -> Fallible<GatherOutput>;

    #[test]
    fn alltoall_correct_and_sealed() {
        for f in [alltoall_pairwise as Kernel, alltoall_bruck] {
            for mapping in [Mapping::Block, Mapping::Cyclic] {
                for (p, nodes) in [(8, 2), (9, 3), (6, 6), (5, 1)] {
                    for m in [1usize, 24, 100] {
                        let report = run(&world(p, nodes, mapping), move |ctx| {
                            let members: Vec<Rank> = (0..p).collect();
                            let out = f(ctx, &members, m, 400).unwrap();
                            out.verify_pairwise(SEED, ctx.rank());
                            assert!((0..p).all(|r| out.get(r).is_some()));
                        });
                        if nodes > 1 {
                            assert!(
                                !report.wiretap.saw_plaintext_frame(),
                                "p={p} N={nodes} m={m}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_metrics_match_closed_form() {
        // p = 16, N = 4, ℓ = 4: rc = p−1, sc = (p−1)m, re = p−ℓ,
        // se = (p−ℓ)m, rd = p−ℓ, sd = (p−ℓ)m.
        let (p, m) = (16usize, 32usize);
        let report = run(&world(p, 4, Mapping::Block), move |ctx| {
            let members: Vec<Rank> = (0..p).collect();
            alltoall_pairwise(ctx, &members, m, 400)
                .unwrap()
                .verify_pairwise(SEED, ctx.rank());
        });
        let max = eag_runtime::Metrics::component_max(&report.metrics);
        assert_eq!(max.comm_rounds, (p - 1) as u64);
        assert_eq!(max.payload_sent.max(max.payload_recv), ((p - 1) * m) as u64);
        assert_eq!(max.enc_rounds, (p - 4) as u64);
        assert_eq!(max.enc_bytes, ((p - 4) * m) as u64);
        assert_eq!(max.dec_rounds, (p - 4) as u64);
        assert_eq!(max.dec_bytes, ((p - 4) * m) as u64);
    }

    #[test]
    fn single_node_alltoall_needs_no_crypto() {
        for f in [alltoall_pairwise as Kernel, alltoall_bruck] {
            let report = run(&world(6, 1, Mapping::Block), move |ctx| {
                let members: Vec<Rank> = (0..6).collect();
                f(ctx, &members, 16, 400)
                    .unwrap()
                    .verify_pairwise(SEED, ctx.rank());
            });
            let total: u64 = report
                .metrics
                .iter()
                .map(|m| m.enc_rounds + m.dec_rounds)
                .sum();
            assert_eq!(total, 0);
        }
    }

    #[test]
    fn alltoall_over_a_scattered_group() {
        let members: Vec<Rank> = vec![1, 2, 4, 7, 10];
        for f in [alltoall_pairwise as Kernel, alltoall_bruck] {
            let members2 = members.clone();
            let report = run(&world(12, 3, Mapping::Block), move |ctx| {
                if members2.contains(&ctx.rank()) {
                    let out = f(ctx, &members2, 16, 400).unwrap();
                    out.verify_pairwise(SEED, ctx.rank());
                    for &r in &members2 {
                        assert!(out.get(r).is_some());
                    }
                }
            });
            assert!(!report.wiretap.saw_plaintext_frame());
        }
    }
}
