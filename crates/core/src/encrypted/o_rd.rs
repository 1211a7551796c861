//! The Opportunistic Recursive Doubling algorithms O-RD and O-RD2, and the
//! encrypted RD sub-gather used by C-RD.
//!
//! Both follow the ordinary RD exchange pattern (general member counts via
//! fold/unfold) and differ in how they represent data on inter-node hops:
//!
//! - **O-RD** seals its *known-plaintext* holdings once (caching the
//!   ciphertext while the plaintext set is unchanged) and forwards received
//!   ciphertexts as-is; all held ciphertexts are decrypted at the end.
//!   With block mapping this gives `re = 1`, `se = ℓm`, `rd = N−1`,
//!   `sd = (p−ℓ)m` (the paper's Table II lists `rd = p−ℓ`; its Section IV-B
//!   text derives `rd = N−1` for the same algorithm — we follow the text,
//!   which matches the merged-ciphertext implementation that yields
//!   `re = 1`).
//! - **O-RD2** merges everything into a single fresh ciphertext each
//!   inter-node round (decrypt received, re-encrypt union), trading
//!   encryption volume for fewer decryption rounds: `re = rd = lg N`,
//!   `se = sd = (p−ℓ)m`.

use crate::collective::floor_pow2;
use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Item, Parcel, ProcCtx, Sealed};

/// Which opportunistic RD variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrdVariant {
    /// Cache one ciphertext of the plaintext holdings; forward foreign
    /// ciphertexts untouched; decrypt everything at the end.
    ForwardSealed,
    /// Merge-and-re-encrypt each inter-node round (the paper's O-RD2).
    MergeRecrypt,
}

/// Crypto-aware holdings of one process during an opportunistic RD.
struct OrdState {
    plain: Vec<Chunk>,
    sealed: Vec<Sealed>,
    cache: Option<Sealed>,
    variant: OrdVariant,
}

impl OrdState {
    fn new(my_chunk: Chunk, variant: OrdVariant) -> Self {
        OrdState {
            plain: vec![my_chunk],
            sealed: Vec::new(),
            cache: None,
            variant,
        }
    }

    /// Decrypts every held ciphertext into the plaintext set (skipping
    /// ciphertexts whose origins are already known in plaintext).
    fn absorb_sealed(&mut self, ctx: &mut ProcCtx) {
        if self.sealed.is_empty() {
            return;
        }
        let known: std::collections::HashSet<Rank> = self
            .plain
            .iter()
            .flat_map(|c| c.origins.iter().copied())
            .collect();
        for s in std::mem::take(&mut self.sealed) {
            if s.origins.iter().all(|o| known.contains(o)) {
                continue;
            }
            let c = ctx.decrypt(s);
            self.plain.push(c);
        }
        self.cache = None;
    }

    /// The items to send to a partner over `link`.
    fn items_for(&mut self, ctx: &mut ProcCtx, link: LinkClass) -> Vec<Item> {
        match link {
            LinkClass::Intra | LinkClass::SelfLoop => {
                // Intra-node sends carry plaintext only; held ciphertexts
                // must be opened first (the opportunistic rule).
                self.absorb_sealed(ctx);
                vec![Item::Plain(Chunk::concat(&self.plain))]
            }
            LinkClass::Inter => match self.variant {
                OrdVariant::MergeRecrypt => {
                    self.absorb_sealed(ctx);
                    let merged = Chunk::concat(&self.plain);
                    vec![Item::Sealed(ctx.encrypt(merged))]
                }
                OrdVariant::ForwardSealed => {
                    if self.cache.is_none() {
                        let merged = Chunk::concat(&self.plain);
                        self.cache = Some(ctx.encrypt(merged));
                    }
                    let mut items = vec![Item::Sealed(self.cache.clone().unwrap())];
                    items.extend(self.sealed.iter().cloned().map(Item::Sealed));
                    items
                }
            },
        }
    }

    /// Absorbs a received parcel.
    fn absorb(&mut self, items: Vec<Item>) {
        for item in items {
            match item {
                Item::Plain(c) => {
                    self.plain.push(c);
                    self.cache = None;
                }
                Item::Sealed(s) => self.sealed.push(s),
            }
        }
    }

    /// Decrypts the remaining ciphertexts and places everything.
    fn finish(mut self, ctx: &mut ProcCtx, out: &mut GatherOutput) {
        self.absorb_sealed(ctx);
        for c in self.plain {
            out.place(c);
        }
    }
}

/// Runs an opportunistic RD all-gather of `my_chunk` over `members`; places
/// every member's plaintext into `out`.
pub fn o_rd_over(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_chunk: Chunk,
    out: &mut GatherOutput,
    variant: OrdVariant,
    tag_base: u64,
) {
    let q = members.len();
    let mut state = OrdState::new(my_chunk, variant);
    if q == 1 {
        state.finish(ctx, out);
        return;
    }
    let k = members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank not in member list");
    let pow = floor_pow2(q);
    let r = q - pow;
    let me = ctx.rank();

    // Fold: odd members of the first 2r hand their data to the left even
    // neighbour, then wait for the complete result.
    if k < 2 * r {
        if k % 2 == 1 {
            let partner = members[k - 1];
            let link = ctx.topology().link(me, partner);
            let items = state.items_for(ctx, link);
            ctx.send(partner, tag_base, Parcel { items });
            let received = ctx.recv(partner, tag_base + 1 + 64).items;
            state.absorb(received);
            state.finish(ctx, out);
            return;
        } else {
            let received = ctx.recv(members[k + 1], tag_base).items;
            state.absorb(received);
        }
    }

    let active_index = if k < 2 * r { k / 2 } else { k - r };
    let active_member = |idx: usize| -> Rank {
        if idx < r {
            members[2 * idx]
        } else {
            members[idx + r]
        }
    };

    for b in 0..pow.trailing_zeros() {
        // Round boundary: a natural scheduling point on a contended world.
        ctx.yield_now();
        let peer = active_member(active_index ^ (1usize << b));
        let tag = tag_base + 1 + b as u64;
        let link = ctx.topology().link(me, peer);
        let items = state.items_for(ctx, link);
        ctx.send(peer, tag, Parcel { items });
        let received = ctx.recv(peer, tag).items;
        state.absorb(received);
    }

    // Unfold: hand the folded neighbour the complete result.
    if k < 2 * r && k % 2 == 0 {
        let partner = members[k + 1];
        let link = ctx.topology().link(me, partner);
        let items = state.items_for(ctx, link);
        ctx.send(partner, tag_base + 1 + 64, Parcel { items });
    }
    state.finish(ctx, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Collective};
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: 6 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn o_rd_correct_many_shapes() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (8, 4), (6, 3), (9, 3), (12, 4)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::ORd).run(ctx, 16).verify(6);
                });
                assert!(
                    !report.wiretap.saw_plaintext_frame(),
                    "plaintext leaked: p={p} nodes={nodes} {mapping}"
                );
            }
        }
    }

    #[test]
    fn o_rd2_correct_many_shapes() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (8, 4), (6, 3), (10, 5), (12, 4)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::ORd2)
                        .run(ctx, 16)
                        .verify(6);
                });
                assert!(!report.wiretap.saw_plaintext_frame());
            }
        }
    }

    #[test]
    fn o_rd_metrics_block_pow2() {
        // p = 16, N = 4, ℓ = 4, block: re = 1, se = ℓm, rd = N−1,
        // sd = (N−1)·ℓm = (p−ℓ)m, rc = lg p.
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        let report = run(&world(p, nodes, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::ORd).run(ctx, m).verify(6);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, 4);
        assert_eq!(max.enc_rounds, 1);
        assert_eq!(max.enc_bytes, (4 * m) as u64);
        assert_eq!(max.dec_rounds, 3);
        assert_eq!(max.dec_bytes, (12 * m) as u64);
    }

    #[test]
    fn o_rd2_metrics_block_pow2() {
        // p = 16, N = 4, ℓ = 4, block: re = rd = lg N, se = sd = (p−ℓ)m.
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        let report = run(&world(p, nodes, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::ORd2).run(ctx, m).verify(6);
        });
        let max = report.max_metrics();
        assert_eq!(max.enc_rounds, 2);
        assert_eq!(max.enc_bytes, (12 * m) as u64);
        assert_eq!(max.dec_rounds, 2);
        assert_eq!(max.dec_bytes, (12 * m) as u64);
    }

    #[test]
    fn sub_rd_over_one_rank_per_node_encrypts_once() {
        // C-RD's sub-gather: one member per node, all hops inter-node.
        let report = run(&world(8, 8, Mapping::Block), |ctx| {
            let members: Vec<Rank> = (0..8).collect();
            let mut out = GatherOutput::new(vec![8; 8], &members);
            let mine = ctx.my_block(8);
            o_rd_over(
                ctx,
                &members,
                mine,
                &mut out,
                OrdVariant::ForwardSealed,
                900,
            );
            out.verify(6);
        });
        for met in &report.metrics {
            assert_eq!(met.enc_rounds, 1);
            assert_eq!(met.enc_bytes, 8);
            assert_eq!(met.dec_rounds, 7);
            assert_eq!(met.dec_bytes, 56);
            assert_eq!(met.comm_rounds, 3);
        }
    }
}
