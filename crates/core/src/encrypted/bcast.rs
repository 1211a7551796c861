//! Encrypted broadcast: sealed binomial-tree and pipelined-chain variants.
//!
//! Both follow the opportunistic rule of the all-gather algorithms:
//! plaintext travels intra-node, ciphertext inter-node, and a ciphertext
//! received from upstream is *forwarded as-is* across further inter-node
//! hops (one seal per node exit, not per edge). The root seals its block at
//! most once — the same ciphertext frame fans out to every inter-node
//! child, exactly like a ring forward re-transmits an unchanged frame.
//!
//! Closed forms (block mapping, p and N powers of two, N ≥ 2, ℓ = p/N):
//!
//! - **binomial**: `rc = 1, sc = lg(p)·m, re = 1, se = m, rd = 1, sd = m` —
//!   only node leaders receive sealed frames (the edge into rank k is
//!   inter-node iff `lowbit(k) >= ℓ`), and each decrypts once.
//! - **pipelined** with S segments: `rc = S, sc = m, re = S, se = m,
//!   rd = S, sd = m` — each node-boundary sender seals each segment, each
//!   node leader opens each segment; total bytes stay m per rank.

use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Data, Item, Parcel, ProcCtx, Sealed};

/// Segment count for the pipelined chain: a deterministic function of the
/// block size so every rank (and the closed-form prediction) agrees without
/// communication. Four segments saturate the pipeline on the profiles we
/// model; blocks smaller than four bytes get one segment per byte.
pub fn bcast_segments(m: usize) -> usize {
    m.clamp(1, 4)
}

fn seg_lens(m: usize, segments: usize) -> Vec<usize> {
    let base = m / segments;
    let rem = m % segments;
    (0..segments).map(|i| base + usize::from(i < rem)).collect()
}

fn slice_data(data: &Data, segs: &[usize]) -> Vec<Data> {
    match data {
        Data::Real(_) => {
            let bytes = data.to_vec();
            let mut off = 0;
            segs.iter()
                .map(|&s| {
                    let d = Data::Real(bytes[off..off + s].to_vec().into());
                    off += s;
                    d
                })
                .collect()
        }
        Data::Phantom(_) => segs.iter().map(|&s| Data::Phantom(s)).collect(),
    }
}

fn concat_data(parts: Vec<Data>, total: usize) -> Data {
    if parts.iter().any(|d| matches!(d, Data::Phantom(_))) {
        debug_assert_eq!(parts.iter().map(Data::len).sum::<usize>(), total);
        return Data::Phantom(total);
    }
    let mut bytes = Vec::with_capacity(total);
    for part in parts {
        bytes.extend_from_slice(&part.to_vec());
    }
    debug_assert_eq!(bytes.len(), total);
    Data::Real(bytes.into())
}

/// A lazily materialized representation of the broadcast block: at most one
/// seal and one open per rank, whichever edges demand them.
struct Holding {
    plain: Option<Chunk>,
    sealed: Option<Sealed>,
}

impl Holding {
    fn plain(&mut self, ctx: &mut ProcCtx) -> Chunk {
        if self.plain.is_none() {
            let s = self.sealed.clone().expect("holding neither form");
            self.plain = Some(ctx.decrypt(s));
        }
        self.plain.clone().unwrap()
    }

    fn sealed(&mut self, ctx: &mut ProcCtx) -> Sealed {
        if self.sealed.is_none() {
            let c = self.plain.clone().expect("holding neither form");
            self.sealed = Some(ctx.encrypt(c));
        }
        self.sealed.clone().unwrap()
    }
}

/// Sealed binomial-tree broadcast of `members[0]`'s `m`-byte block to every
/// member. Every rank's output holds exactly the root's slot.
pub fn bcast_binomial(
    ctx: &mut ProcCtx,
    members: &[Rank],
    m: usize,
    tag_base: u64,
) -> GatherOutput {
    let q = members.len();
    let k = members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank not in member list");
    let root = members[0];
    let topo = ctx.topology().clone();
    let mut out = GatherOutput::new(vec![m; ctx.p()], &[root]);

    let mut holding = Holding {
        plain: (k == 0).then(|| ctx.block_for(root, m)),
        sealed: None,
    };

    // MPICH binomial tree over member indices, root = index 0: receive from
    // the parent (k minus its lowest set bit) …
    let mut mask = 1usize;
    if k != 0 {
        while mask < q {
            if k & mask != 0 {
                let src = members[k - mask];
                match ctx.recv(src, tag_base + mask as u64).items.remove(0) {
                    Item::Plain(c) => holding.plain = Some(c),
                    Item::Sealed(s) => holding.sealed = Some(s),
                }
                break;
            }
            mask <<= 1;
        }
    } else {
        while mask < q {
            mask <<= 1;
        }
    }

    // … then serve the subtree, largest child first. Inter-node children
    // get the (cached) ciphertext — forward-as-is when it arrived sealed,
    // one fresh seal otherwise; intra-node children get the plaintext.
    mask >>= 1;
    while mask > 0 {
        if k + mask < q && k & mask == 0 {
            ctx.yield_now();
            let dst = members[k + mask];
            let item = match topo.link(ctx.rank(), dst) {
                LinkClass::Inter => Item::Sealed(holding.sealed(ctx)),
                _ => Item::Plain(holding.plain(ctx)),
            };
            ctx.send(dst, tag_base + mask as u64, Parcel::one(item));
        }
        mask >>= 1;
    }

    out.place(holding.plain(ctx));
    out
}

/// Sealed pipelined-chain broadcast: the root splits its block into
/// [`bcast_segments`]`(m)` segments and streams them down the member chain
/// in list order. Each hop applies the opportunistic per-edge rule segment
/// by segment; a rank whose outbound edge is inter-node forwards an arrived
/// ciphertext as-is and opens its own copy under the wait for the next
/// segment.
pub fn bcast_pipelined(
    ctx: &mut ProcCtx,
    members: &[Rank],
    m: usize,
    tag_base: u64,
) -> GatherOutput {
    let q = members.len();
    let k = members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank not in member list");
    let root = members[0];
    let topo = ctx.topology().clone();
    let mut out = GatherOutput::new(vec![m; ctx.p()], &[root]);
    let segs = seg_lens(m, bcast_segments(m));

    let succ = (k + 1 < q).then(|| members[k + 1]);
    let out_inter = succ.map(|s| topo.link(ctx.rank(), s) == LinkClass::Inter);

    if k == 0 {
        let full = ctx.block_for(root, m);
        for (i, data) in slice_data(&full.data, &segs).into_iter().enumerate() {
            ctx.yield_now();
            if let (Some(succ), Some(inter)) = (succ, out_inter) {
                let chunk = Chunk::single(root, data);
                let item = if inter {
                    Item::Sealed(ctx.encrypt(chunk))
                } else {
                    Item::Plain(chunk)
                };
                ctx.send(succ, tag_base + i as u64, Parcel::one(item));
            }
        }
        out.place(full);
        return out;
    }

    let pred = members[k - 1];
    let mut collected: Vec<Data> = Vec::with_capacity(segs.len());
    for i in 0..segs.len() {
        ctx.yield_now();
        let tag = tag_base + i as u64;
        match ctx.recv(pred, tag).items.remove(0) {
            Item::Plain(c) => {
                if let Some(succ) = succ {
                    let item = if out_inter == Some(true) {
                        Item::Sealed(ctx.encrypt(c.clone()))
                    } else {
                        Item::Plain(c.clone())
                    };
                    ctx.send(succ, tag, Parcel::one(item));
                }
                collected.push(c.data);
            }
            Item::Sealed(s) => {
                if let Some(succ) = succ {
                    if out_inter == Some(true) {
                        // Forward as-is first; open our copy under the wait
                        // for the next segment.
                        ctx.send(succ, tag, Parcel::one(Item::Sealed(s.clone())));
                        collected.push(ctx.decrypt(s).data);
                        continue;
                    }
                    let c = ctx.decrypt(s);
                    ctx.send(succ, tag, Parcel::one(Item::Plain(c.clone())));
                    collected.push(c.data);
                    continue;
                }
                collected.push(ctx.decrypt(s).data);
            }
        }
    }
    out.place(Chunk {
        origins: vec![root],
        block_len: m,
        data: concat_data(collected, m),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    const SEED: u64 = 0xB0CA;

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: SEED },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn binomial_correct_block_and_cyclic() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (9, 3), (6, 6), (5, 1)] {
                let members: Vec<Rank> = (0..p).collect();
                let report = run(&world(p, nodes, mapping), move |ctx| {
                    let out = bcast_binomial(ctx, &members, 24, 300);
                    out.verify(SEED);
                });
                if nodes > 1 {
                    assert!(
                        !report.wiretap.saw_plaintext_frame(),
                        "{mapping:?} p={p} N={nodes}: plaintext crossed nodes"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_correct_block_and_cyclic() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (9, 3), (6, 6), (5, 1)] {
                for m in [1usize, 3, 24, 1000] {
                    let members: Vec<Rank> = (0..p).collect();
                    let report = run(&world(p, nodes, mapping), move |ctx| {
                        let out = bcast_pipelined(ctx, &members, m, 300);
                        out.verify(SEED);
                    });
                    if nodes > 1 {
                        assert!(!report.wiretap.saw_plaintext_frame(), "m={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_metrics_match_closed_form() {
        // p = 16, N = 4, ℓ = 4, block order: rc = 1, sc = lg(p)·m,
        // re = 1 (root seals once, reused for every inter child),
        // se = m, rd = 1 (leaders), sd = m.
        let (p, m) = (16usize, 32usize);
        let report = run(&world(p, 4, Mapping::Block), move |ctx| {
            let members: Vec<Rank> = (0..p).collect();
            bcast_binomial(ctx, &members, m, 300).verify(SEED);
        });
        let max = eag_runtime::Metrics::component_max(&report.metrics);
        assert_eq!(max.comm_rounds, 1);
        assert_eq!(max.payload_sent.max(max.payload_recv), (4 * m) as u64);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, 1);
        assert_eq!(max.dec_bytes, m as u64);
    }

    #[test]
    fn pipelined_metrics_match_closed_form() {
        // p = 16, N = 4, block order, S = 4 segments: rc = S, sc = m,
        // re = S (node-boundary senders), se = m, rd = S (leaders), sd = m.
        let (p, m) = (16usize, 64usize);
        let s = bcast_segments(m) as u64;
        let report = run(&world(p, 4, Mapping::Block), move |ctx| {
            let members: Vec<Rank> = (0..p).collect();
            bcast_pipelined(ctx, &members, m, 300).verify(SEED);
        });
        let max = eag_runtime::Metrics::component_max(&report.metrics);
        assert_eq!(max.comm_rounds, s);
        assert_eq!(max.payload_sent.max(max.payload_recv), m as u64);
        assert_eq!(max.enc_rounds, s);
        assert_eq!(max.enc_bytes, m as u64);
        assert_eq!(max.dec_rounds, s);
        assert_eq!(max.dec_bytes, m as u64);
    }

    #[test]
    fn single_node_broadcast_needs_no_crypto() {
        for f in [
            bcast_binomial as fn(&mut ProcCtx, &[Rank], usize, u64) -> GatherOutput,
            bcast_pipelined,
        ] {
            let report = run(&world(6, 1, Mapping::Block), move |ctx| {
                let members: Vec<Rank> = (0..6).collect();
                f(ctx, &members, 40, 300).verify(SEED);
            });
            let sum = eag_runtime::Metrics::component_sum(&report.metrics);
            assert_eq!(sum.enc_rounds, 0);
            assert_eq!(sum.dec_rounds, 0);
        }
    }

    #[test]
    fn broadcast_over_a_scattered_group() {
        // Survivor-shaped member list straddling nodes, root = members[0].
        let members: Vec<Rank> = vec![1, 2, 4, 7, 10];
        for f in [
            bcast_binomial as fn(&mut ProcCtx, &[Rank], usize, u64) -> GatherOutput,
            bcast_pipelined,
        ] {
            let members2 = members.clone();
            let report = run(&world(12, 3, Mapping::Block), move |ctx| {
                if members2.contains(&ctx.rank()) {
                    let out = f(ctx, &members2, 48, 300);
                    out.verify(SEED);
                    assert!(out.get(1).is_some());
                }
            });
            assert!(!report.wiretap.saw_plaintext_frame());
        }
    }
}
