//! O-Bruck — an Opportunistic Bruck all-gather.
//!
//! **Extension beyond the paper.** The paper applies its opportunistic rule
//! (encrypt inter-node hops, plaintext intra-node hops, forward ciphertexts
//! untouched) to Ring and Recursive Doubling. Bruck's dissemination pattern
//! completes in `⌈lg p⌉` rounds for *any* p — unlike RD, no fold/unfold
//! steps — which makes an opportunistic Bruck the natural candidate for
//! small messages on non-power-of-two process counts (where the modeled
//! MVAPICH baseline also uses Bruck). Ciphertexts are cached per block, so
//! a block crossing several node boundaries is sealed only once by whoever
//! first exports it.

use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Data, Item, Parcel, ProcCtx, Sealed};

/// Placeholder swapped in while a representation is moved out of a
/// `&mut Slot` (immediately overwritten by the `Slot::Both` promotion).
fn taken_chunk() -> Chunk {
    Chunk {
        origins: Vec::new(),
        block_len: 0,
        data: Data::Phantom(0),
    }
}

/// Sealed counterpart of [`taken_chunk`].
fn taken_sealed() -> Sealed {
    Sealed {
        origins: Vec::new(),
        block_len: 0,
        plain_len: 0,
        data: Data::Phantom(0),
    }
}

/// One Bruck slot: a single member's block, in whichever representations we
/// currently hold.
enum Slot {
    /// Plaintext only.
    Plain(Chunk),
    /// Ciphertext only (received over the network, not yet opened).
    Sealed(Sealed),
    /// Both (opened for output / sealed version cached for forwarding).
    Both(Chunk, Sealed),
}

impl Slot {
    /// The item to send over `link`, sealing or opening as required and
    /// updating the cached representations.
    fn item_for(&mut self, ctx: &mut ProcCtx, link: LinkClass) -> Item {
        match link {
            LinkClass::Inter => {
                if let Slot::Plain(c) = self {
                    // One clone only: encrypt consumes a copy (recycling its
                    // buffer as scratch), the original moves into the cache.
                    let plain = std::mem::replace(c, taken_chunk());
                    let sealed = ctx.encrypt(plain.clone());
                    *self = Slot::Both(plain, sealed);
                }
                match self {
                    Slot::Sealed(s) | Slot::Both(_, s) => Item::Sealed(s.clone()),
                    Slot::Plain(_) => unreachable!("sealed above"),
                }
            }
            LinkClass::Intra | LinkClass::SelfLoop => {
                if let Slot::Sealed(s) = self {
                    let sealed = std::mem::replace(s, taken_sealed());
                    let c = ctx.decrypt(sealed.clone());
                    *self = Slot::Both(c, sealed);
                }
                match self {
                    Slot::Plain(c) | Slot::Both(c, _) => Item::Plain(c.clone()),
                    Slot::Sealed(_) => unreachable!("opened above"),
                }
            }
        }
    }

    fn from_item(item: Item) -> Slot {
        match item {
            Item::Plain(c) => Slot::Plain(c),
            Item::Sealed(s) => Slot::Sealed(s),
        }
    }

    /// The plaintext, opening the ciphertext if necessary.
    fn into_plain(self, ctx: &mut ProcCtx) -> Chunk {
        match self {
            Slot::Plain(c) | Slot::Both(c, _) => c,
            Slot::Sealed(s) => ctx.decrypt(s),
        }
    }
}

/// Opportunistic Bruck all-gather over `members`; places every member's
/// plaintext into `out`.
pub fn o_bruck_over(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_chunk: Chunk,
    out: &mut GatherOutput,
    tag_base: u64,
) {
    let q = members.len();
    let k = members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank not in member list");
    let me = ctx.rank();

    let mut slots: Vec<Slot> = vec![Slot::Plain(my_chunk)];
    let mut step = 1usize;
    let mut round = 0u64;
    while step < q {
        // Round boundary: a natural scheduling point on a contended world.
        ctx.yield_now();
        let cnt = step.min(q - step);
        let dst = members[(k + q - step) % q];
        let src = members[(k + step) % q];
        let link = ctx.topology().link(me, dst);
        let items: Vec<Item> = slots[..cnt]
            .iter_mut()
            .map(|slot| slot.item_for(ctx, link))
            .collect();
        ctx.send(dst, tag_base + round, Parcel { items });
        let received = ctx.recv(src, tag_base + round).items;
        debug_assert_eq!(received.len(), cnt);
        slots.extend(received.into_iter().map(Slot::from_item));
        step *= 2;
        round += 1;
    }
    debug_assert_eq!(slots.len(), q);
    for slot in slots {
        out.place(slot.into_plain(ctx));
    }
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
            DataMode::Real { seed: 31 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn o_bruck_correct_many_shapes() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (9, 3), (10, 5), (12, 4), (7, 7), (6, 3)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    Collective::Allgather(Algorithm::OBruck)
                        .run(ctx, 24)
                        .verify(31);
                });
                assert!(
                    !report.wiretap.saw_plaintext_frame(),
                    "O-Bruck leaked plaintext: p={p} N={nodes} {mapping}"
                );
            }
        }
    }

    #[test]
    fn o_bruck_round_count_is_ceil_lg_p() {
        for (p, nodes, want) in [(8usize, 4usize, 3u64), (9, 3, 4), (12, 4, 4)] {
            let report = run(&world(p, nodes, Mapping::Block), |ctx| {
                Collective::Allgather(Algorithm::OBruck)
                    .run(ctx, 16)
                    .verify(31);
            });
            for m in &report.metrics {
                assert_eq!(m.comm_rounds, want, "p={p}");
            }
        }
    }

    #[test]
    fn o_bruck_caches_ciphertexts_per_block() {
        // ℓ = 1 world: every hop is inter-node. Each rank seals its own
        // block once; everything else is forwarded sealed.
        let report = run(&world(8, 8, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::OBruck)
                .run(ctx, 16)
                .verify(31);
        });
        for m in &report.metrics {
            assert_eq!(m.enc_rounds, 1);
            assert_eq!(m.enc_bytes, 16);
            // Every foreign block arrives sealed and is opened exactly once.
            assert_eq!(m.dec_rounds, 7);
        }
    }
}
