//! The algorithm registry — every all-gather variant the paper evaluates,
//! dispatchable by name — and the one kernel that runs them.
//!
//! The paper's algorithms are a *family* that differs only in who seals,
//! who forwards and who opens (Section IV), so there is a single dispatch,
//! `allgather_over`, parameterised by `(members, lens)`: the world is the
//! member list `0..p`, a fixed-length all-gather is the uniform-`lens`
//! case of the varying one (as Träff treats regular collectives). It is
//! reached only through [`crate::Collective::run_with`], which checks the
//! capability predicates below once.

use crate::collective::{bruck_allgather_items, rd_allgather_items, ring_allgather_items};
use crate::encrypted::{
    concurrent, hs_over, naive_over, o_bruck_over, o_rd_over, o_ring_over, HsVariant, OrdVariant,
    SubPattern,
};
use crate::output::GatherOutput;
use crate::tags::PHASE_MAIN;
use crate::unencrypted::{hierarchical, mvapich_allgather_items, neighbor_exchange};
use eag_netsim::Rank;
use eag_runtime::{Item, ProcCtx};

/// Every all-gather algorithm in this library.
///
/// The unencrypted entries are the Section III baselines plus the
/// unencrypted counterparts of the paper's new algorithms (used in
/// Figures 5 and 6); the encrypted entries are the Section IV algorithms
/// of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    // --- unencrypted ---
    /// Classic ring in natural rank order.
    Ring,
    /// Rank-ordered ring (mapping-oblivious).
    RingRanked,
    /// Recursive doubling (general p).
    Rd,
    /// Bruck (⌈lg p⌉ rounds for any p).
    Bruck,
    /// Leader-based hierarchical (gather + RD + broadcast).
    Hierarchical,
    /// Neighbor Exchange (even p; falls back to Ring otherwise).
    NeighborExchange,
    /// Modeled MVAPICH default: RD/Bruck small, Ring large.
    Mvapich,
    /// Unencrypted counterpart of C-Ring.
    CRingPlain,
    /// Unencrypted counterpart of C-RD.
    CRdPlain,
    /// Unencrypted counterpart of HS1/HS2 (identical when unencrypted).
    HsPlain,
    // --- encrypted ---
    /// Encrypt → ordinary all-gather → decrypt everything (the baseline).
    Naive,
    /// Opportunistic Ring.
    ORing,
    /// Opportunistic RD (cached ciphertext, forward-as-is).
    ORd,
    /// Opportunistic RD, merge-and-re-encrypt variant.
    ORd2,
    /// Concurrent ring sub-gathers + local ring.
    CRing,
    /// Concurrent RD sub-gathers + local RD.
    CRd,
    /// Hierarchical shared-memory, leader encryption.
    Hs1,
    /// Hierarchical shared-memory, per-process encryption.
    Hs2,
    /// Opportunistic Bruck (extension beyond the paper: ⌈lg p⌉ rounds for
    /// any p with the opportunistic encryption rule).
    OBruck,
}

impl Algorithm {
    /// All algorithms.
    pub fn all() -> &'static [Algorithm] {
        use Algorithm::*;
        &[
            Ring,
            RingRanked,
            Rd,
            Bruck,
            NeighborExchange,
            Hierarchical,
            Mvapich,
            CRingPlain,
            CRdPlain,
            HsPlain,
            Naive,
            ORing,
            ORd,
            ORd2,
            CRing,
            CRd,
            Hs1,
            Hs2,
            OBruck,
        ]
    }

    /// The eight encrypted algorithms of Table II.
    pub fn encrypted_all() -> &'static [Algorithm] {
        use Algorithm::*;
        &[Naive, ORing, ORd, ORd2, CRing, CRd, Hs1, Hs2, OBruck]
    }

    /// The unencrypted baselines and counterparts.
    pub fn unencrypted_all() -> &'static [Algorithm] {
        use Algorithm::*;
        &[
            Ring,
            RingRanked,
            Rd,
            Bruck,
            NeighborExchange,
            Hierarchical,
            Mvapich,
            CRingPlain,
            CRdPlain,
            HsPlain,
        ]
    }

    /// True for algorithms that encrypt inter-node traffic.
    pub fn is_encrypted(&self) -> bool {
        use Algorithm::*;
        matches!(
            self,
            Naive | ORing | ORd | ORd2 | CRing | CRd | Hs1 | Hs2 | OBruck
        )
    }

    /// The paper's name for this algorithm.
    pub fn name(&self) -> &'static str {
        use Algorithm::*;
        match self {
            Ring => "Ring",
            RingRanked => "Ring(ranked)",
            Rd => "RD",
            Bruck => "Bruck",
            NeighborExchange => "NbrExchange",
            Hierarchical => "Hierarchical",
            Mvapich => "MVAPICH",
            CRingPlain => "C-Ring(plain)",
            CRdPlain => "C-RD(plain)",
            HsPlain => "HS(plain)",
            Naive => "Naive",
            ORing => "O-Ring",
            ORd => "O-RD",
            ORd2 => "O-RD2",
            CRing => "C-Ring",
            CRd => "C-RD",
            Hs1 => "HS1",
            Hs2 => "HS2",
            OBruck => "O-Bruck",
        }
    }

    /// Looks an algorithm up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Algorithm> {
        let lower = name.to_ascii_lowercase();
        Algorithm::all()
            .iter()
            .copied()
            .find(|a| a.name().to_ascii_lowercase() == lower)
    }

    /// True when this algorithm requires `p` to be a multiple of the node
    /// count with at least one process per node (all of them do via the
    /// topology), and any additional structural constraint holds. All
    /// algorithms here support any p, N ≥ 1 with ℓ = p/N integral.
    pub fn supports(&self, p: usize, nodes: usize) -> bool {
        p >= 1 && nodes >= 1 && p.is_multiple_of(nodes)
    }

    /// True when this algorithm can run over an arbitrary rank subset.
    /// The shared-memory algorithms (HS1/HS2 and counterparts) assume whole
    /// nodes participate; the Concurrent family assumes the full ℓ-group
    /// structure; the remaining algorithms only need the member list.
    pub fn supports_groups(&self) -> bool {
        use Algorithm::*;
        matches!(
            self,
            Ring | RingRanked | Rd | Bruck | Naive | ORing | ORd | ORd2 | OBruck
        )
    }

    /// True when this algorithm supports variable per-rank block lengths
    /// (all-gather-v): the algorithms that move blocks as indivisible
    /// single-origin items. The merged-ciphertext algorithms (O-RD, O-RD2,
    /// HS1) rely on equal-stride node buffers and do not.
    pub fn supports_varying(&self) -> bool {
        use Algorithm::*;
        matches!(
            self,
            Ring | RingRanked | Bruck | Naive | ORing | OBruck | CRing | Hs2
        )
    }

    /// The algorithm a degraded re-run uses over the survivor group: the
    /// algorithm itself when it runs over arbitrary rank subsets, otherwise
    /// O-Ring. The shared-memory (HS) and Concurrent families assume whole
    /// nodes / complete ℓ-groups — structure a crash has just destroyed —
    /// so they fail over to the mapping-oblivious opportunistic ring.
    pub fn recovery_algorithm(&self) -> Algorithm {
        if self.supports_groups() {
            *self
        } else {
            Algorithm::ORing
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The all-gather kernel: runs `algo` among `members` (every member calls
/// with the identical list), member `r` contributing `out.len_of(r)` bytes,
/// and fills `out`. World-only algorithms ignore `members` — the seam has
/// already vetted that it is the whole world.
pub(crate) fn allgather_over(
    ctx: &mut ProcCtx,
    algo: Algorithm,
    members: &[Rank],
    out: &mut GatherOutput,
) {
    let mine = ctx.my_block(out.len_of(ctx.rank()));
    use Algorithm::*;
    match algo {
        // Neighbor Exchange is defined for even process counts only.
        NeighborExchange if members.len().is_multiple_of(2) => neighbor_exchange(ctx, mine, out),
        Ring | NeighborExchange => {
            let items = ring_allgather_items(ctx, members, vec![Item::Plain(mine)], PHASE_MAIN);
            out.place_items(items);
        }
        RingRanked => {
            // Same-node members consecutive (Kandalla et al.): the ring
            // stays mapping-oblivious.
            let ordered = ctx.topology().ring_order(members);
            let items = ring_allgather_items(ctx, &ordered, vec![Item::Plain(mine)], PHASE_MAIN);
            out.place_items(items);
        }
        Rd => {
            let items = rd_allgather_items(ctx, members, vec![Item::Plain(mine)], PHASE_MAIN);
            out.place_items(items);
        }
        Bruck => {
            let items = bruck_allgather_items(ctx, members, Item::Plain(mine), PHASE_MAIN);
            out.place_items(items);
        }
        Hierarchical => hierarchical(ctx, mine, out),
        Mvapich => {
            let items = mvapich_allgather_items(ctx, members, Item::Plain(mine), out, PHASE_MAIN);
            out.place_items(items);
        }
        CRingPlain => concurrent(ctx, mine, out, SubPattern::Ring, false),
        CRdPlain => concurrent(ctx, mine, out, SubPattern::Rd, false),
        HsPlain => hs_over(ctx, mine, out, HsVariant::Plain),
        Naive => naive_over(ctx, members, mine, out),
        ORing => o_ring_over(ctx, members, mine, out, PHASE_MAIN),
        ORd => o_rd_over(
            ctx,
            members,
            mine,
            out,
            OrdVariant::ForwardSealed,
            PHASE_MAIN,
        ),
        ORd2 => o_rd_over(
            ctx,
            members,
            mine,
            out,
            OrdVariant::MergeRecrypt,
            PHASE_MAIN,
        ),
        CRing => concurrent(ctx, mine, out, SubPattern::Ring, true),
        CRd => concurrent(ctx, mine, out, SubPattern::Rd, true),
        Hs1 => hs_over(ctx, mine, out, HsVariant::Hs1),
        Hs2 => hs_over(ctx, mine, out, HsVariant::Hs2),
        OBruck => o_bruck_over(ctx, members, mine, out, PHASE_MAIN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_partitions() {
        assert_eq!(Algorithm::all().len(), 19);
        assert_eq!(Algorithm::encrypted_all().len(), 9);
        assert_eq!(Algorithm::unencrypted_all().len(), 10);
        for a in Algorithm::encrypted_all() {
            assert!(a.is_encrypted());
        }
        for a in Algorithm::unencrypted_all() {
            assert!(!a.is_encrypted());
        }
    }

    #[test]
    fn names_roundtrip() {
        for &a in Algorithm::all() {
            assert_eq!(Algorithm::by_name(a.name()), Some(a));
        }
        assert_eq!(Algorithm::by_name("hs2"), Some(Algorithm::Hs2));
        assert_eq!(Algorithm::by_name("nope"), None);
    }

    #[test]
    fn supports_divisible_only() {
        assert!(Algorithm::Hs1.supports(128, 8));
        assert!(Algorithm::CRing.supports(91, 7));
        assert!(!Algorithm::CRing.supports(10, 4));
    }

    #[test]
    fn recovery_algorithm_keeps_group_capable_algorithms() {
        use Algorithm::*;
        for &a in Algorithm::all() {
            let r = a.recovery_algorithm();
            assert!(
                r.supports_groups(),
                "{a}: recovery algorithm {r} cannot run over a shrunk group"
            );
            if a.supports_groups() {
                assert_eq!(r, a, "group-capable algorithms recover as themselves");
            } else {
                assert_eq!(r, ORing);
            }
            // An encrypted algorithm must never recover unencrypted.
            if a.is_encrypted() {
                assert!(r.is_encrypted(), "{a} would downgrade to plaintext");
            }
        }
    }
}
