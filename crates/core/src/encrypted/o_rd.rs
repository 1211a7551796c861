//! The Opportunistic Recursive Doubling algorithms O-RD and O-RD2, and the
//! encrypted RD sub-gather used by C-RD.
//!
//! Both are the shared RD walk (general member counts via fold/unfold) over
//! merged-ciphertext holdings, and differ in how they represent data on
//! inter-node hops:
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

use crate::collective::{Holdings, Walk};
use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Fallible, Item, ProcCtx, Sealed};
use std::ops::Range;

/// Which opportunistic RD variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrdVariant {
    /// Cache one ciphertext of the plaintext holdings; forward foreign
    /// ciphertexts untouched; decrypt everything at the end.
    ForwardSealed,
    /// Merge-and-re-encrypt each inter-node round (the paper's O-RD2).
    MergeRecrypt,
}

/// Crypto-aware holdings of one process during an opportunistic RD. Not a
/// per-block rule: the plaintext set is sent as *one* merged chunk, sealed
/// as one ciphertext whose contents change from round to round, so there is
/// no single block to hold in two forms.
struct OrdState {
    plain: Vec<Chunk>,
    sealed: Vec<Sealed>,
    cache: Option<Sealed>,
    variant: OrdVariant,
}

impl OrdState {
    /// Decrypts every held ciphertext into the plaintext set (skipping
    /// ciphertexts whose origins are already known in plaintext).
    fn absorb_sealed(&mut self, ctx: &mut ProcCtx) -> Fallible {
        if self.sealed.is_empty() {
            return Ok(());
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
            self.plain.push(ctx.decrypt(s)?);
        }
        self.cache = None;
        Ok(())
    }
}

/// RD always sends the whole state, so the range is the whole state too.
impl Holdings for OrdState {
    fn len(&self) -> usize {
        self.plain.len() + self.sealed.len()
    }

    fn items_for(
        &mut self,
        ctx: &mut ProcCtx,
        _: Range<usize>,
        link: LinkClass,
    ) -> Fallible<Vec<Item>> {
        Ok(match link {
            LinkClass::Intra | LinkClass::SelfLoop => {
                // Intra-node sends carry plaintext only; held ciphertexts
                // must be opened first (the opportunistic rule).
                self.absorb_sealed(ctx)?;
                vec![Item::Plain(Chunk::concat(&self.plain))]
            }
            LinkClass::Inter => match self.variant {
                OrdVariant::MergeRecrypt => {
                    self.absorb_sealed(ctx)?;
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
        })
    }

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
}

/// Runs an opportunistic RD all-gather of `my_chunk` over `members` — the
/// shared RD walk over [`OrdState`] holdings; places every member's
/// plaintext into `out`.
pub(crate) fn o_rd_over(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_chunk: Chunk,
    out: &mut GatherOutput,
    variant: OrdVariant,
    tag_base: u64,
) -> Fallible {
    let state = OrdState {
        plain: vec![my_chunk],
        sealed: Vec::new(),
        cache: None,
        variant,
    };
    let mut state = Walk::Rd.run(ctx, members, state, tag_base)?;
    // Decrypt the remaining ciphertexts and place everything.
    state.absorb_sealed(ctx)?;
    for c in state.plain {
        out.place(c);
    }
    Ok(())
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
            )
            .unwrap();
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
