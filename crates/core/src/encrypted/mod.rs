//! Encrypted collective kernels: the all-gather algorithms of paper
//! Section IV, plus the operation-generic extensions (broadcast,
//! gather/scatter, all-to-all).
//!
//! The paper's algorithms differ only in who seals, who forwards and who
//! opens, so a kernel here is a walk plus a rule. The walks (ring,
//! recursive doubling, Bruck, binomial broadcast, linear gather) are the
//! shared ones of [`crate::collective`]; the kernels whose walk has no
//! plain twin (pipelined broadcast, binomial gather and scatter, linear
//! scatter, both all-to-alls) keep their own. The rule is `Held`, one
//! block as a rank holds it — the only rule that is not per block is
//! O-RD/O-RD2's merged ciphertext (`o_rd::OrdState`).

pub(crate) mod alltoall;
pub(crate) mod bcast;
pub(crate) mod concurrent;
pub(crate) mod hs;
pub(crate) mod naive;
pub(crate) mod o_bruck;
pub(crate) mod o_rd;
pub(crate) mod o_ring;
pub(crate) mod rooted;

pub(crate) use alltoall::{alltoall_bruck, alltoall_pairwise};
pub(crate) use bcast::{bcast_binomial, bcast_pipelined, bcast_segments};
pub(crate) use concurrent::concurrent;
pub(crate) use hs::{hs_over, HsVariant};
pub(crate) use naive::naive_over;
pub(crate) use o_rd::{o_rd_over, OrdVariant};
pub(crate) use rooted::{
    exchange_lengths, gather_binomial, gather_linear, scatter_binomial, scatter_linear,
};

use crate::collective::{Holdings, Walk};
use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Fallible, Item, ProcCtx, Sealed};
use std::ops::Range;

/// One block as a rank holds it — plaintext, ciphertext, or both — and the
/// paper's opportunistic rule for moving it: plaintext within a node,
/// ciphertext between nodes. A block is sealed at most once, when it
/// leaves its node; a ciphertext already held is forwarded unchanged (the
/// byte-identical frame, same nonce); it is opened at most once, when the
/// block enters a node or reaches the rank that consumes it.
#[derive(Debug)]
pub(crate) struct Held {
    plain: Option<Chunk>,
    sealed: Option<Sealed>,
}

impl From<Chunk> for Held {
    fn from(chunk: Chunk) -> Held {
        Held {
            plain: Some(chunk),
            sealed: None,
        }
    }
}

impl From<Item> for Held {
    fn from(item: Item) -> Held {
        match item {
            Item::Plain(c) => Held::from(c),
            Item::Sealed(s) => Held {
                plain: None,
                sealed: Some(s),
            },
        }
    }
}

impl Held {
    /// The block's form across a `link` edge, for a holder that consumes
    /// the block too: the ciphertext between nodes (sealed here if it has
    /// none yet), the plaintext within one (opened here if it has none).
    /// Whatever is made is kept for later edges.
    pub(crate) fn item_for(&mut self, ctx: &mut ProcCtx, link: LinkClass) -> Fallible<Item> {
        if link != LinkClass::Inter {
            return Ok(Item::Plain(self.open(ctx)?));
        }
        if self.sealed.is_none() {
            let plain = self.plain.clone().expect("held block has neither form");
            self.sealed = Some(ctx.encrypt(plain));
        }
        Ok(Item::Sealed(self.sealed.clone().expect("sealed above")))
    }

    /// The plaintext, opened at most once; the ciphertext stays held.
    pub(crate) fn open(&mut self, ctx: &mut ProcCtx) -> Fallible<Chunk> {
        if self.plain.is_none() {
            let sealed = self.sealed.clone().expect("held block has neither form");
            self.plain = Some(ctx.decrypt(sealed)?);
        }
        Ok(self.plain.clone().expect("opened above"))
    }

    /// The block moves no further: it is opened if it is still sealed, and
    /// the ciphertext is let go.
    pub(crate) fn settle(&mut self, ctx: &mut ProcCtx) -> Fallible {
        if let Some(sealed) = self.sealed.take() {
            if self.plain.is_none() {
                self.plain = Some(ctx.decrypt(sealed)?);
            }
        }
        Ok(())
    }

    /// The plaintext, for the rank that consumes the block.
    pub(crate) fn into_plain(mut self, ctx: &mut ProcCtx) -> Fallible<Chunk> {
        self.settle(ctx)?;
        Ok(self.plain.expect("settled block holds its plaintext"))
    }

    /// The block's form across a `link` edge, for a holder that does not
    /// consume it: plaintext is sealed when it leaves its node, and a
    /// ciphertext goes on unchanged whatever the edge.
    pub(crate) fn relay(self, ctx: &mut ProcCtx, link: LinkClass) -> Item {
        match (self.plain, self.sealed) {
            (_, Some(sealed)) => Item::Sealed(sealed),
            (Some(plain), None) if link == LinkClass::Inter => Item::Sealed(ctx.encrypt(plain)),
            (Some(plain), None) => Item::Plain(plain),
            (None, None) => unreachable!("held block has neither form"),
        }
    }
}

/// Per-block opportunistic holdings: every block follows [`Held`]'s rule.
impl Holdings for Vec<Held> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn items_for(
        &mut self,
        ctx: &mut ProcCtx,
        range: Range<usize>,
        link: LinkClass,
    ) -> Fallible<Vec<Item>> {
        self[range]
            .iter_mut()
            .map(|h| h.item_for(ctx, link))
            .collect()
    }

    fn absorb(&mut self, items: Vec<Item>) {
        self.extend(items.into_iter().map(Held::from));
    }

    fn settle(&mut self, ctx: &mut ProcCtx, range: Range<usize>) -> Fallible {
        self[range].iter_mut().try_for_each(|h| h.settle(ctx))
    }
}

/// Opens every held block and places it in `out`.
pub(crate) fn place_held(ctx: &mut ProcCtx, held: Vec<Held>, out: &mut GatherOutput) -> Fallible {
    for h in held {
        out.place(h.into_plain(ctx)?);
    }
    Ok(())
}

/// The opportunistic all-gather of `my_chunk` over `walk` among `members`
/// (visited in list order), every member's plaintext placed in `out`:
/// O-Ring, O-RD and O-Bruck, and the sub-gathers of C-Ring and C-RD. Ring
/// and Bruck hold blocks under the per-block rule; RD holds O-RD's merged
/// ciphertext.
pub(crate) fn o_walk_over(
    ctx: &mut ProcCtx,
    walk: Walk,
    members: &[Rank],
    my_chunk: Chunk,
    out: &mut GatherOutput,
    tag_base: u64,
) -> Fallible {
    if walk == Walk::Rd {
        return o_rd_over(
            ctx,
            members,
            my_chunk,
            out,
            OrdVariant::ForwardSealed,
            tag_base,
        );
    }
    let held = walk.run(ctx, members, vec![Held::from(my_chunk)], tag_base)?;
    place_held(ctx, held, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, Metrics, WorldSpec};

    /// A two-node world; only rank 0 acts, on blocks it never sends.
    fn world() -> WorldSpec {
        WorldSpec::new(
            Topology::new(4, 2, Mapping::Block),
            profile::free(),
            DataMode::Real { seed: 0x4E1D },
        )
    }

    const LINKS: [LinkClass; 3] = [LinkClass::SelfLoop, LinkClass::Intra, LinkClass::Inter];

    /// Runs `body` on rank 0 with its own 32-byte block, held plain or
    /// sealed (sealing it first costs one booked encryption, which the
    /// returned metrics exclude).
    fn on_rank0<T: Send>(
        sealed: bool,
        body: impl Fn(&mut ProcCtx, Held) -> Fallible<T> + Sync,
    ) -> (T, Metrics) {
        let report = run(&world(), |ctx| {
            (ctx.rank() == 0).then(|| {
                let block = ctx.my_block(32);
                let item = if sealed {
                    let s = Item::Sealed(ctx.encrypt(block));
                    ctx.reset_accounting();
                    s
                } else {
                    Item::Plain(block)
                };
                body(ctx, Held::from(item)).unwrap()
            })
        });
        let out = report.outputs.into_iter().next().unwrap().unwrap();
        (out, report.metrics[0])
    }

    fn is_sealed(item: &Item) -> bool {
        matches!(item, Item::Sealed(_))
    }

    #[test]
    fn item_for_seals_and_opens_at_most_once() {
        for sealed in [false, true] {
            for link in LINKS {
                let (items, met) = on_rank0(sealed, move |ctx, mut h| {
                    (0..3)
                        .map(|_| h.item_for(ctx, link))
                        .collect::<Fallible<Vec<_>>>()
                });
                let inter = link == LinkClass::Inter;
                for item in &items {
                    assert_eq!(is_sealed(item), inter, "sealed={sealed} {link:?}");
                    assert_eq!(item, &items[0], "repeats must be byte-identical");
                }
                // One seal when plaintext first leaves the node, one open
                // when a ciphertext first stays in it; never more.
                assert_eq!(met.enc_rounds, u64::from(!sealed && inter));
                assert_eq!(met.dec_rounds, u64::from(sealed && !inter));
            }
        }
    }

    #[test]
    fn a_block_crossing_every_link_class_is_sealed_and_opened_once() {
        for sealed in [false, true] {
            let ((first, second), met) = on_rank0(sealed, |ctx, mut h| {
                let first = h.item_for(ctx, LinkClass::Inter)?;
                for link in LINKS {
                    h.item_for(ctx, link)?;
                    h.open(ctx)?;
                }
                Ok((first, h.item_for(ctx, LinkClass::Inter)?))
            });
            // Every inter-node edge gets the same frame, nonce included.
            assert_eq!(first, second);
            assert_eq!(met.enc_rounds, u64::from(!sealed));
            assert_eq!(met.dec_rounds, u64::from(sealed));
        }
    }

    #[test]
    fn settle_opens_once_and_drops_the_ciphertext() {
        for sealed in [false, true] {
            let ((item, plain), met) = on_rank0(sealed, |ctx, mut h| {
                h.settle(ctx)?;
                h.settle(ctx)?;
                let plain = h.open(ctx)?;
                Ok((h.item_for(ctx, LinkClass::Intra)?, plain))
            });
            assert_eq!(item, Item::Plain(plain));
            assert_eq!(met.enc_rounds, 0);
            assert_eq!(met.dec_rounds, u64::from(sealed));
        }
        // A settled block that must leave the node again is sealed afresh.
        let (_, met) = on_rank0(true, |ctx, mut h| {
            h.settle(ctx)?;
            h.item_for(ctx, LinkClass::Inter)
        });
        assert_eq!((met.enc_rounds, met.dec_rounds), (1, 1));
    }

    #[test]
    fn relay_seals_plaintext_leaving_the_node_and_passes_ciphertext_on() {
        for sealed in [false, true] {
            for link in LINKS {
                let (item, met) = on_rank0(sealed, move |ctx, h| Ok(h.relay(ctx, link)));
                let inter = link == LinkClass::Inter;
                assert_eq!(
                    is_sealed(&item),
                    sealed || inter,
                    "sealed={sealed} {link:?}"
                );
                assert_eq!(met.enc_rounds, u64::from(!sealed && inter));
                // A relay never opens: only the consumer does.
                assert_eq!(met.dec_rounds, 0);
            }
        }
    }

    #[test]
    fn into_plain_opens_only_what_is_still_sealed() {
        let origin: Rank = 0;
        for sealed in [false, true] {
            let (plain, met) = on_rank0(sealed, |ctx, h| h.into_plain(ctx));
            assert_eq!(plain.origins, vec![origin]);
            assert_eq!(met.dec_rounds, u64::from(sealed));
            assert_eq!(met.dec_bytes, if sealed { 32 } else { 0 });
        }
        // Opened once for an intra edge, then consumed: no second open.
        let (_, met) = on_rank0(true, |ctx, mut h| {
            h.item_for(ctx, LinkClass::Intra)?;
            h.into_plain(ctx)
        });
        assert_eq!(met.dec_rounds, 1);
    }
}
