//! The item walks — the communication patterns every all-gather,
//! broadcast and gather kernel moves its blocks with.
//!
//! Each walk (ring, recursive doubling with fold/unfold for any member
//! count, Bruck, binomial broadcast, linear gather) exists once, generic
//! over what a rank holds (the `Holdings` bound). A walk decides who sends
//! which held items to whom and when; the holdings decide how each item
//! crosses an edge. A plain mover holds `Vec<Item>` and forwards every item
//! as it is, sealed or not — the unencrypted baselines, and Naive and the
//! HS leader phase on pre-sealed items. The encrypted kernels in
//! [`crate::encrypted`] hold blocks under the opportunistic rule
//! (`Vec<Held>`, or O-RD's merged-ciphertext `OrdState`), so a kernel is a
//! walk plus a rule.
//!
//! The three all-gather walks are reached only through `Walk`, the one
//! ring / RD / Bruck selector. The hierarchical kernels (HS, C-Ring/C-RD,
//! Hierarchical) run their inter-node walk over a `node_group`: the g-th
//! rank of every node.

use eag_netsim::{LinkClass, Rank, Topology};
use eag_runtime::{Fallible, Item, Parcel, ProcCtx};
use std::ops::Range;

/// Largest power of two `<= q`.
pub(crate) fn floor_pow2(q: usize) -> usize {
    assert!(q >= 1);
    1usize << (usize::BITS - 1 - q.leading_zeros())
}

/// `ceil(log2(q))` for `q >= 1`.
pub(crate) fn ceil_log2(q: usize) -> u32 {
    assert!(q >= 1);
    q.next_power_of_two().trailing_zeros()
}

/// Index of the calling rank within `members`; panics if absent.
pub(crate) fn my_index(ctx: &ProcCtx, members: &[Rank]) -> usize {
    members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank is not in the member list")
}

/// What a rank holds while a walk moves items: the walk addresses the
/// held items by position and asks for them in the form an edge needs.
pub(crate) trait Holdings {
    /// Number of held items.
    fn len(&self) -> usize;

    /// The items at `range`, in the form they take across a `link` edge.
    fn items_for(
        &mut self,
        ctx: &mut ProcCtx,
        range: Range<usize>,
        link: LinkClass,
    ) -> Fallible<Vec<Item>>;

    /// Takes in received items, appended after the held ones.
    fn absorb(&mut self, items: Vec<Item>);

    /// Everything, for a fold partner that sends the complete result back.
    /// A plain mover keeps nothing meanwhile: the result contains it all.
    fn hand_off(&mut self, ctx: &mut ProcCtx, link: LinkClass) -> Fallible<Vec<Item>> {
        let n = self.len();
        self.items_for(ctx, 0..n, link)
    }

    /// The walk sends the items at `range` no further (they were just
    /// forwarded for the last time, or arrived where they stay).
    fn settle(&mut self, _ctx: &mut ProcCtx, _range: Range<usize>) -> Fallible {
        Ok(())
    }
}

/// The plain mover: items travel as they are, plaintext or sealed.
impl Holdings for Vec<Item> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn items_for(
        &mut self,
        _: &mut ProcCtx,
        range: Range<usize>,
        _: LinkClass,
    ) -> Fallible<Vec<Item>> {
        Ok(self[range].to_vec())
    }

    fn absorb(&mut self, items: Vec<Item>) {
        self.extend(items);
    }

    fn hand_off(&mut self, _: &mut ProcCtx, _: LinkClass) -> Fallible<Vec<Item>> {
        Ok(std::mem::take(self))
    }
}

/// An all-gather walk: who sends which held items to whom, round by round.
/// The one choice between ring, recursive doubling and Bruck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// `q − 1` rounds to the successor, forwarding the last arrival.
    Ring,
    /// Recursive doubling, folding a non-power-of-two member count.
    Rd,
    /// Bruck dissemination, `⌈lg q⌉` rounds for any member count.
    Bruck,
}

impl Walk {
    /// Runs the walk over `members` (every member passes the identical
    /// list) from tag `tag_base` on; returns every member's items.
    pub(crate) fn run<H: Holdings>(
        self,
        ctx: &mut ProcCtx,
        members: &[Rank],
        held: H,
        tag_base: u64,
    ) -> Fallible<H> {
        match self {
            Walk::Ring => ring_allgather_items(ctx, members, held, tag_base),
            Walk::Rd => rd_allgather_items(ctx, members, held, tag_base),
            Walk::Bruck => bruck_allgather_items(ctx, members, held, tag_base),
        }
    }
}

/// Node group `g`: the `g`-th rank of every node, in node order. Group 0
/// is the node leaders; groups `0..ℓ` partition the world.
pub(crate) fn node_group(topo: &Topology, g: usize) -> Vec<Rank> {
    (0..topo.nodes())
        .map(|node| topo.peer_on_node(topo.leader_of(node), g))
        .collect()
}

/// Ring all-gather: member `k` sends to `k+1` and receives from `k-1`,
/// `q-1` times, forwarding what it received the previous step; returns
/// every member's items (own included). Forwarded items settle right after
/// their send, received ones on arrival unless they leave again across a
/// node boundary — O-Ring opens a forwarded ciphertext after the forward,
/// under the wait for the next arrival.
fn ring_allgather_items<H: Holdings>(
    ctx: &mut ProcCtx,
    members: &[Rank],
    mut held: H,
    tag_base: u64,
) -> Fallible<H> {
    let q = members.len();
    let k = my_index(ctx, members);
    let succ = members[(k + 1) % q];
    let pred = members[(k + q - 1) % q];
    // The successor never changes, so neither does the outbound link class.
    let link = ctx.topology().link(ctx.rank(), succ);
    let mut cur = 0..held.len();
    for step in 0..q.saturating_sub(1) {
        // Round boundary: a natural scheduling point on a contended world.
        ctx.yield_now();
        let tag = tag_base + step as u64;
        let items = held.items_for(ctx, cur.clone(), link)?;
        ctx.send(succ, tag, Parcel { items });
        held.settle(ctx, cur)?;
        let start = held.len();
        held.absorb(ctx.try_recv(pred, tag)?.items);
        cur = start..held.len();
        if link != LinkClass::Inter || step + 2 == q {
            held.settle(ctx, cur.clone())?;
        }
    }
    Ok(held)
}

/// Recursive-doubling all-gather over an arbitrary member count.
///
/// For `q` a power of two this is the textbook algorithm (`lg q` exchange
/// rounds, doubling data each round). Otherwise the surplus `r = q - 2^k`
/// members fold their data into a power-of-two active set first and receive
/// the full result afterwards, for at most `lg q + 2` rounds (the paper's
/// "extra steps ... still bounded by 2·lg(p)").
fn rd_allgather_items<H: Holdings>(
    ctx: &mut ProcCtx,
    members: &[Rank],
    mut held: H,
    tag_base: u64,
) -> Fallible<H> {
    let q = members.len();
    if q == 1 {
        return Ok(held);
    }
    let k = my_index(ctx, members);
    let me = ctx.rank();
    let pow = floor_pow2(q);
    let r = q - pow;
    let unfold_tag = tag_base + 1 + 64;

    // Fold: odd members of the first 2r send everything to their left
    // neighbour and go dormant until the unfold brings the complete result.
    if k < 2 * r {
        if k % 2 == 1 {
            let partner = members[k - 1];
            let link = ctx.topology().link(me, partner);
            let items = held.hand_off(ctx, link)?;
            ctx.send(partner, tag_base, Parcel { items });
            held.absorb(ctx.try_recv(partner, unfold_tag)?.items);
            return Ok(held);
        }
        held.absorb(ctx.try_recv(members[k + 1], tag_base)?.items);
    }

    // Active set: even members of the first 2r, then everyone from 2r on.
    let active_index = if k < 2 * r { k / 2 } else { k - r };
    let active_member = |idx: usize| -> Rank {
        if idx < r {
            members[2 * idx]
        } else {
            members[idx + r]
        }
    };

    for b in 0..pow.trailing_zeros() {
        ctx.yield_now();
        let peer = active_member(active_index ^ (1usize << b));
        let tag = tag_base + 1 + b as u64;
        let link = ctx.topology().link(me, peer);
        let items = held.items_for(ctx, 0..held.len(), link)?;
        held.absorb(ctx.sendrecv(peer, peer, tag, Parcel { items })?.items);
    }

    // Unfold: give the folded member the complete result.
    if k < 2 * r {
        let partner = members[k + 1];
        let link = ctx.topology().link(me, partner);
        let items = held.items_for(ctx, 0..held.len(), link)?;
        ctx.send(partner, unfold_tag, Parcel { items });
    }
    Ok(held)
}

/// Bruck all-gather (`⌈lg q⌉` rounds for any `q`) of one item per member.
/// Item `j` of the returned holdings is the item of member `(k + j) mod q`
/// (callers place by origin, so order does not matter).
fn bruck_allgather_items<H: Holdings>(
    ctx: &mut ProcCtx,
    members: &[Rank],
    mut held: H,
    tag_base: u64,
) -> Fallible<H> {
    let q = members.len();
    let k = my_index(ctx, members);
    let me = ctx.rank();
    let mut round = 0u64;
    let mut step = 1usize;
    while step < q {
        ctx.yield_now();
        let cnt = step.min(q - step);
        let dst = members[(k + q - step) % q];
        let src = members[(k + step) % q];
        let tag = tag_base + round;
        let link = ctx.topology().link(me, dst);
        let items = held.items_for(ctx, 0..cnt, link)?;
        ctx.send(dst, tag, Parcel { items });
        let received = ctx.try_recv(src, tag)?.items;
        debug_assert_eq!(received.len(), cnt);
        held.absorb(received);
        step *= 2;
        round += 1;
    }
    debug_assert_eq!(held.len(), q);
    Ok(held)
}

/// Point-to-point gather to `members[0]`: every other member sends its items
/// to the root; the root returns everyone's items, others return `None`.
/// Arrivals settle at the root as they come.
pub(crate) fn gather_items_to_root<H: Holdings>(
    ctx: &mut ProcCtx,
    members: &[Rank],
    mut held: H,
    tag_base: u64,
) -> Fallible<Option<H>> {
    let root = members[0];
    let me = ctx.rank();
    if me == root {
        for (j, &m) in members.iter().enumerate().skip(1) {
            ctx.yield_now();
            let start = held.len();
            held.absorb(ctx.try_recv(m, tag_base + j as u64)?.items);
            held.settle(ctx, start..held.len())?;
        }
        Ok(Some(held))
    } else {
        let j = my_index(ctx, members);
        let link = ctx.topology().link(me, root);
        let items = held.items_for(ctx, 0..held.len(), link)?;
        ctx.send(root, tag_base + j as u64, Parcel { items });
        Ok(None)
    }
}

/// Binomial-tree broadcast from `members[0]`: the root's holdings reach
/// every member in at most `⌈lg q⌉` rounds. Non-roots pass empty holdings.
pub(crate) fn bcast_items_from_root<H: Holdings>(
    ctx: &mut ProcCtx,
    members: &[Rank],
    mut held: H,
    tag_base: u64,
) -> Fallible<H> {
    let q = members.len();
    let k = my_index(ctx, members);
    let me = ctx.rank();

    // MPICH-style binomial tree, root = index 0: receive from the parent
    // (k minus its lowest set bit) …
    let mut mask = 1usize;
    while mask < q {
        if k & mask != 0 {
            held.absorb(
                ctx.try_recv(members[k - mask], tag_base + mask as u64)?
                    .items,
            );
            break;
        }
        mask <<= 1;
    }
    // … then serve the subtree, largest child first.
    mask >>= 1;
    while mask > 0 {
        if k + mask < q && k & mask == 0 {
            ctx.yield_now();
            let dst = members[k + mask];
            let link = ctx.topology().link(me, dst);
            let items = held.items_for(ctx, 0..held.len(), link)?;
            ctx.send(dst, tag_base + mask as u64, Parcel { items });
        }
        mask >>= 1;
    }
    Ok(held)
}

#[cfg(test)]
#[path = "collective_tests.rs"]
mod tests;
