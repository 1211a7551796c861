//! Encrypted rooted collectives: gather and scatter, linear and
//! binomial-tree, uniform and irregular (variable per-rank block lengths,
//! after Träff's linear-time irregular gather/scatter construction).
//!
//! The opportunistic rule is applied per edge and per block: a plaintext
//! block is sealed exactly when it first crosses a node boundary
//! (exit-process role), an already-sealed block is *forwarded as-is* by
//! every intermediary, and it is opened only by the rank that consumes it
//! (the gather root, or the scatter destination).
//!
//! The irregular case needs the receive-count vector at every rank before
//! any tree edge can be sized; [`exchange_lengths`] is the sealed
//! length-exchange prologue shared with `allgatherv` (8-byte metadata
//! blocks, Bruck pattern, `⌈lg q⌉` rounds — Träff's linear-time bound is
//! preserved because the prologue moves O(q) metadata, not payload).
//!
//! Closed forms (block mapping, p and N powers of two, N ≥ 2, ℓ = p/N):
//!
//! - **gather/linear**: `rc = p−1, sc = (p−1)m, re = 1, se = m,
//!   rd = p−ℓ, sd = (p−ℓ)m` (the root opens every remote block).
//! - **gather/binomial**: `rc = lg p, sc = (p−1)m, re = ℓ, se = ℓm,
//!   rd = p−ℓ, sd = (p−ℓ)m` (each leader seals its node's ℓ blocks,
//!   sealed subtrees transit leaders unchanged).
//! - **scatter/linear** and **scatter/binomial**: `rc = 1, sc = (p−1)m,
//!   re = p−ℓ, se = (p−ℓ)m, rd = 1, sd = m` (the root seals each
//!   remote-bound block once; every remote rank opens only its own).

use crate::collective::bruck_allgather_items;
use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Data, Item, Parcel, ProcCtx};

/// Sealed length-exchange prologue for the irregular collectives: every
/// member contributes its own block length and learns everyone's, indexed
/// by *global* rank. Metadata is sealed per transmission like the recovery
/// agreement bitmaps (real bytes even in phantom worlds — lengths are
/// protocol state, not payload).
pub fn exchange_lengths(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_len: usize,
    tag_base: u64,
) -> Vec<usize> {
    let me = ctx.rank();
    let chunk = Chunk::single(
        me,
        Data::Real((my_len as u64).to_le_bytes().to_vec().into()),
    );
    let sealed = Item::Sealed(ctx.encrypt(chunk));
    let items = bruck_allgather_items(ctx, members, sealed, tag_base);
    let mut lens = vec![0usize; ctx.p()];
    for item in items {
        let c = ctx.decrypt(item.into_sealed());
        let bytes = c.data.to_vec();
        let mut le = [0u8; 8];
        le.copy_from_slice(&bytes);
        lens[c.origins[0]] = u64::from_le_bytes(le) as usize;
    }
    lens
}

/// Seals `item` if it is plaintext about to cross a node boundary;
/// otherwise returns it unchanged (plaintext intra-node, sealed forwarded
/// as-is anywhere).
fn seal_for(ctx: &mut ProcCtx, item: Item, link: LinkClass) -> Item {
    match (item, link) {
        (Item::Plain(c), LinkClass::Inter) => Item::Sealed(ctx.encrypt(c)),
        (item, _) => item,
    }
}

fn open(ctx: &mut ProcCtx, item: Item) -> Chunk {
    match item {
        Item::Plain(c) => c,
        Item::Sealed(s) => ctx.decrypt(s),
    }
}

fn my_index(ctx: &ProcCtx, members: &[Rank]) -> usize {
    members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank not in member list")
}

/// Linear encrypted gather to `members[0]`: every other member sends its
/// block straight to the root, sealed iff the edge is inter-node. The root
/// returns a complete output over the member slots; non-roots return an
/// empty-expectation output (gather delivers data only at the root).
pub fn gather_linear(
    ctx: &mut ProcCtx,
    members: &[Rank],
    lens: &[usize],
    tag_base: u64,
) -> GatherOutput {
    let root = members[0];
    let me = ctx.rank();
    let topo = ctx.topology().clone();
    if me != root {
        let j = my_index(ctx, members);
        let item = Item::Plain(ctx.my_block(lens[me]));
        let item = seal_for(ctx, item, topo.link(me, root));
        ctx.send(root, tag_base + j as u64, Parcel::one(item));
        return GatherOutput::new(lens.to_vec(), &[]);
    }
    let mut out = GatherOutput::new(lens.to_vec(), members);
    out.place(ctx.my_block(lens[me]));
    for (j, &src) in members.iter().enumerate().skip(1) {
        ctx.yield_now();
        let item = ctx.recv(src, tag_base + j as u64).items.remove(0);
        let c = open(ctx, item);
        out.place(c);
    }
    out
}

/// Binomial-tree encrypted gather to `members[0]`: subtrees accumulate
/// toward the root in `⌈lg q⌉` rounds. A leader sends its node's plaintext
/// blocks sealed (one seal per block — blocks stay individually addressed
/// so intermediaries can forward foreign ciphertexts as-is) and relays
/// sealed subtrees untouched.
pub fn gather_binomial(
    ctx: &mut ProcCtx,
    members: &[Rank],
    lens: &[usize],
    tag_base: u64,
) -> GatherOutput {
    let q = members.len();
    let k = my_index(ctx, members);
    let me = ctx.rank();
    let topo = ctx.topology().clone();
    let mut holdings: Vec<Item> = vec![Item::Plain(ctx.my_block(lens[me]))];

    let mut mask = 1usize;
    while mask < q {
        if k & mask != 0 {
            let parent = members[k - mask];
            let link = topo.link(me, parent);
            let items: Vec<Item> = holdings
                .into_iter()
                .map(|i| seal_for(ctx, i, link))
                .collect();
            ctx.send(parent, tag_base + mask as u64, Parcel { items });
            return GatherOutput::new(lens.to_vec(), &[]);
        }
        if k + mask < q {
            ctx.yield_now();
            let child = members[k + mask];
            holdings.extend(ctx.recv(child, tag_base + mask as u64).items);
        }
        mask <<= 1;
    }

    // Only the root reaches here.
    let mut out = GatherOutput::new(lens.to_vec(), members);
    for item in holdings {
        let c = open(ctx, item);
        out.place(c);
    }
    out
}

/// Linear encrypted scatter from `members[0]`: the root synthesizes each
/// member's block from its send buffer ([`ProcCtx::block_for`]) and sends
/// it directly, sealed iff the edge is inter-node. Every rank's output
/// holds exactly its own slot.
pub fn scatter_linear(
    ctx: &mut ProcCtx,
    members: &[Rank],
    lens: &[usize],
    tag_base: u64,
) -> GatherOutput {
    let root = members[0];
    let me = ctx.rank();
    let topo = ctx.topology().clone();
    let mut out = GatherOutput::new(lens.to_vec(), &[me]);
    if me == root {
        for (j, &dst) in members.iter().enumerate().skip(1) {
            ctx.yield_now();
            let item = Item::Plain(ctx.block_for(dst, lens[dst]));
            let item = seal_for(ctx, item, topo.link(me, dst));
            ctx.send(dst, tag_base + j as u64, Parcel::one(item));
        }
        out.place(ctx.my_block(lens[me]));
    } else {
        let j = my_index(ctx, members);
        let item = ctx.recv(root, tag_base + j as u64).items.remove(0);
        out.place(open(ctx, item));
    }
    out
}

/// Binomial-tree encrypted scatter from `members[0]`: the root sends each
/// child the bundle for that child's subtree (blocks in member-index order,
/// so sub-bundles split positionally without any wire manifest). Blocks
/// bound for another node are sealed at their first inter-node edge —
/// individually, so intermediaries forward them as-is and each destination
/// opens only its own.
pub fn scatter_binomial(
    ctx: &mut ProcCtx,
    members: &[Rank],
    lens: &[usize],
    tag_base: u64,
) -> GatherOutput {
    let q = members.len();
    let k = my_index(ctx, members);
    let me = ctx.rank();
    let topo = ctx.topology().clone();
    let mut out = GatherOutput::new(lens.to_vec(), &[me]);

    // holdings[i] is the block for member k + i.
    let mut holdings: Vec<Item>;
    let mut mask = 1usize;
    if k == 0 {
        holdings = members
            .iter()
            .map(|&r| Item::Plain(ctx.block_for(r, lens[r])))
            .collect();
        while mask < q {
            mask <<= 1;
        }
    } else {
        holdings = Vec::new();
        while mask < q {
            if k & mask != 0 {
                let parent = members[k - mask];
                holdings = ctx.recv(parent, tag_base + mask as u64).items;
                break;
            }
            mask <<= 1;
        }
    }

    mask >>= 1;
    while mask > 0 {
        if k + mask < q && k & mask == 0 && holdings.len() > mask {
            ctx.yield_now();
            let dst = members[k + mask];
            let link = topo.link(me, dst);
            let items: Vec<Item> = holdings
                .split_off(mask)
                .into_iter()
                .map(|i| seal_for(ctx, i, link))
                .collect();
            ctx.send(dst, tag_base + mask as u64, Parcel { items });
        }
        mask >>= 1;
    }

    debug_assert_eq!(holdings.len(), 1, "subtree not fully scattered");
    out.place(open(ctx, holdings.remove(0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    const SEED: u64 = 0x5CA7;

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: SEED },
        );
        s.capture_wire = true;
        s
    }

    fn uniform(p: usize, m: usize) -> Vec<usize> {
        vec![m; p]
    }

    type Kernel = fn(&mut ProcCtx, &[Rank], &[usize], u64) -> GatherOutput;

    #[test]
    fn gather_correct_and_sealed() {
        for f in [gather_linear as Kernel, gather_binomial] {
            for mapping in [Mapping::Block, Mapping::Cyclic] {
                for (p, nodes) in [(8, 2), (9, 3), (6, 6)] {
                    let members: Vec<Rank> = (0..p).collect();
                    let lens = uniform(p, 24);
                    let report = run(&world(p, nodes, mapping), move |ctx| {
                        let out = f(ctx, &members, &lens, 400);
                        out.verify(SEED);
                        if ctx.rank() == 0 {
                            assert!((0..p).all(|r| out.get(r).is_some()));
                        }
                    });
                    assert!(!report.wiretap.saw_plaintext_frame(), "p={p} N={nodes}");
                }
            }
        }
    }

    #[test]
    fn scatter_correct_and_sealed() {
        for f in [scatter_linear as Kernel, scatter_binomial] {
            for mapping in [Mapping::Block, Mapping::Cyclic] {
                for (p, nodes) in [(8, 2), (9, 3), (6, 6)] {
                    let members: Vec<Rank> = (0..p).collect();
                    let lens = uniform(p, 24);
                    let report = run(&world(p, nodes, mapping), move |ctx| {
                        let me = ctx.rank();
                        let out = f(ctx, &members, &lens, 400);
                        out.verify(SEED);
                        assert!(out.get(me).is_some());
                    });
                    assert!(!report.wiretap.saw_plaintext_frame(), "p={p} N={nodes}");
                }
            }
        }
    }

    #[test]
    fn irregular_lengths_gather_and_scatter() {
        // Träff's irregular case: per-rank lengths from the sealed
        // length-exchange prologue, then variable-block trees.
        let p = 9;
        for f in [
            gather_linear as Kernel,
            gather_binomial,
            scatter_linear,
            scatter_binomial,
        ] {
            let report = run(&world(p, 3, Mapping::Block), move |ctx| {
                let me = ctx.rank();
                let members: Vec<Rank> = (0..p).collect();
                let my_len = 8 + 16 * me;
                let lens = exchange_lengths(ctx, &members, my_len, 900);
                assert_eq!(lens, (0..p).map(|r| 8 + 16 * r).collect::<Vec<_>>());
                let out = f(ctx, &members, &lens, 400);
                out.verify(SEED);
            });
            assert!(!report.wiretap.saw_plaintext_frame());
        }
    }

    #[test]
    fn gather_linear_metrics_match_closed_form() {
        // p = 16, N = 4, ℓ = 4: rc = p−1, sc = (p−1)m, re = 1, se = m,
        // rd = p−ℓ, sd = (p−ℓ)m.
        let (p, m) = (16usize, 32usize);
        let report = run(&world(p, 4, Mapping::Block), move |ctx| {
            let members: Vec<Rank> = (0..p).collect();
            gather_linear(ctx, &members, &vec![m; p], 400).verify(SEED);
        });
        let max = eag_runtime::Metrics::component_max(&report.metrics);
        assert_eq!(max.comm_rounds, (p - 1) as u64);
        assert_eq!(max.payload_sent.max(max.payload_recv), ((p - 1) * m) as u64);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, (p - 4) as u64);
        assert_eq!(max.dec_bytes, ((p - 4) * m) as u64);
    }

    #[test]
    fn gather_binomial_metrics_match_closed_form() {
        // p = 16, N = 4, ℓ = 4: rc = lg p, sc = (p−1)m, re = ℓ, se = ℓm,
        // rd = p−ℓ, sd = (p−ℓ)m.
        let (p, m) = (16usize, 32usize);
        let report = run(&world(p, 4, Mapping::Block), move |ctx| {
            let members: Vec<Rank> = (0..p).collect();
            gather_binomial(ctx, &members, &vec![m; p], 400).verify(SEED);
        });
        let max = eag_runtime::Metrics::component_max(&report.metrics);
        assert_eq!(max.comm_rounds, 4);
        assert_eq!(max.payload_sent.max(max.payload_recv), ((p - 1) * m) as u64);
        assert_eq!(max.enc_rounds, 4);
        assert_eq!(max.enc_bytes, (4 * m) as u64);
        assert_eq!(max.dec_rounds, (p - 4) as u64);
        assert_eq!(max.dec_bytes, ((p - 4) * m) as u64);
    }

    #[test]
    fn scatter_metrics_match_closed_form() {
        // Both variants: rc = 1, sc = (p−1)m, re = p−ℓ, se = (p−ℓ)m,
        // rd = 1, sd = m.
        let (p, m) = (16usize, 32usize);
        for f in [scatter_linear as Kernel, scatter_binomial] {
            let report = run(&world(p, 4, Mapping::Block), move |ctx| {
                let members: Vec<Rank> = (0..p).collect();
                f(ctx, &members, &vec![m; p], 400).verify(SEED);
            });
            let max = eag_runtime::Metrics::component_max(&report.metrics);
            assert_eq!(max.comm_rounds, 1);
            assert_eq!(max.payload_sent.max(max.payload_recv), ((p - 1) * m) as u64);
            assert_eq!(max.enc_rounds, (p - 4) as u64);
            assert_eq!(max.enc_bytes, ((p - 4) * m) as u64);
            assert_eq!(max.dec_rounds, 1);
            assert_eq!(max.dec_bytes, m as u64);
        }
    }

    #[test]
    fn rooted_over_a_scattered_group() {
        let members: Vec<Rank> = vec![1, 2, 4, 7, 10];
        for f in [
            gather_linear as Kernel,
            gather_binomial,
            scatter_linear,
            scatter_binomial,
        ] {
            let members2 = members.clone();
            let report = run(&world(12, 3, Mapping::Block), move |ctx| {
                if members2.contains(&ctx.rank()) {
                    let out = f(ctx, &members2, &[16; 12], 400);
                    out.verify(SEED);
                }
            });
            assert!(!report.wiretap.saw_plaintext_frame());
        }
    }
}
