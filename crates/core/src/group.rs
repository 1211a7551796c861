//! Sub-communicators: an ordered rank subset ([`Group`]) a collective can
//! run over via [`crate::Collective::run_group`], not just
//! `MPI_COMM_WORLD`.
//!
//! **Extension beyond the paper**, which evaluates world-sized collectives
//! only — but real applications routinely all-gather over row/column
//! communicators of a process grid, and crash recovery re-runs over the
//! survivor group. Group runs go through the same kernels as world runs
//! (the world is the group `0..p`); the opportunistic encryption rule keys
//! off the *physical* node placement of the group members, so a group that
//! happens to be node-local pays no encryption at all.

use eag_netsim::Rank;

/// An ordered set of participating ranks — a sub-communicator by value.
///
/// Ranks keep their *global* identities (so physical node placement, and
/// with it the opportunistic encryption rule, is preserved); a member's
/// contiguous "new rank" is its position in the sorted member list. This
/// makes [`Group::shrink`] deterministic: every survivor that agrees on the
/// same failed set derives the identical shrunk group, renumbering, and
/// node mapping without any further communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<Rank>,
}

impl Group {
    /// The full world of `p` ranks.
    pub fn world(p: usize) -> Self {
        Group {
            members: (0..p).collect(),
        }
    }

    /// A group of the given ranks (sorted and deduplicated).
    pub fn new(members: &[Rank]) -> Self {
        let mut members = members.to_vec();
        members.sort_unstable();
        members.dedup();
        Group { members }
    }

    /// The member ranks, ascending.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True if `rank` is a member.
    pub fn contains(&self, rank: Rank) -> bool {
        self.members.binary_search(&rank).is_ok()
    }

    /// The contiguous position (the "new rank") of a global rank within
    /// this group, if it is a member.
    pub fn position_of(&self, rank: Rank) -> Option<usize> {
        self.members.binary_search(&rank).ok()
    }

    /// The group with `failed` removed. Order (and hence the renumbering)
    /// is preserved for the survivors — deterministic at every caller that
    /// holds the same failed set.
    pub fn shrink(&self, failed: &[Rank]) -> Group {
        Group {
            members: self
                .members
                .iter()
                .copied()
                .filter(|r| !failed.contains(r))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Collective};
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};
    use proptest::prelude::*;

    const SEED: u64 = 0x6A0;

    fn world(p: usize, nodes: usize) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::free(),
            DataMode::Real { seed: SEED },
        );
        s.capture_wire = true;
        s
    }

    fn group_algorithms() -> Vec<Algorithm> {
        Algorithm::all()
            .iter()
            .copied()
            .filter(Algorithm::supports_groups)
            .collect()
    }

    #[test]
    fn shrink_renumbers_deterministically() {
        let g = Group::world(8);
        assert_eq!(g.len(), 8);
        assert!(g.contains(7));
        let s = g.shrink(&[2, 5]);
        assert_eq!(s.members(), &[0, 1, 3, 4, 6, 7]);
        assert_eq!(s.position_of(3), Some(2));
        assert_eq!(s.position_of(5), None);
        assert!(!s.contains(5));
        // Shrinking is order-insensitive in the failed set and idempotent.
        assert_eq!(g.shrink(&[5, 2]), s);
        assert_eq!(s.shrink(&[2, 5]), s);
        // Unsorted, duplicated input normalizes.
        assert_eq!(Group::new(&[4, 1, 4, 0]).members(), &[0, 1, 4]);
        assert!(Group::new(&[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Shrinking composes: removing the union of two failed sets in one
        /// step reaches the same group — members, order, and renumbering —
        /// as removing them sequentially, in either order. This is the
        /// property the multi-crash recovery engine leans on: epoch-`e`
        /// failures are applied by *global* rank on top of epoch-`e-1`'s
        /// shrunk group, and every survivor that agrees on the same sets
        /// must derive the identical final communicator without talking.
        #[test]
        fn shrink_composes_over_arbitrary_failed_sets(
            base in proptest::collection::vec(0usize..64, 1..32),
            a in proptest::collection::vec(0usize..64, 0..16),
            b in proptest::collection::vec(0usize..64, 0..16),
        ) {
            let g = Group::new(&base);
            let mut a: Vec<Rank> = a;
            a.sort_unstable();
            a.dedup();

            // Disjoint failed sets — the common cascading-crash shape.
            let mut b_disjoint: Vec<Rank> =
                b.iter().copied().filter(|r| !a.contains(r)).collect();
            b_disjoint.sort_unstable();
            b_disjoint.dedup();
            let mut union: Vec<Rank> = a.clone();
            union.extend(&b_disjoint);
            let combined = g.shrink(&union);
            prop_assert_eq!(&g.shrink(&a).shrink(&b_disjoint), &combined);
            prop_assert_eq!(&g.shrink(&b_disjoint).shrink(&a), &combined);

            // Overlapping sets compose too (re-suspecting an already-agreed
            // -dead rank is idempotent), and survivor renumbering matches.
            let b_any: Vec<Rank> = b;
            let mut overlap_union = a.clone();
            overlap_union.extend(&b_any);
            let seq = g.shrink(&a).shrink(&b_any);
            prop_assert_eq!(&seq, &g.shrink(&overlap_union));
            for (pos, &r) in seq.members().iter().enumerate() {
                prop_assert_eq!(seq.position_of(r), Some(pos));
                prop_assert!(g.contains(r));
                prop_assert!(!overlap_union.contains(&r));
            }
        }
    }

    #[test]
    fn group_allgather_over_scattered_members() {
        // Members straddle three nodes, with gaps and unordered ranks.
        let members: Vec<Rank> = vec![10, 1, 4, 7, 2];
        for algo in group_algorithms() {
            let members2 = members.clone();
            let report = run(&world(12, 3), move |ctx| {
                if members2.contains(&ctx.rank()) {
                    let out = Collective::Allgather(algo).run_group(ctx, &members2, 48);
                    out.verify_members(SEED, &members2);
                }
            });
            if algo.is_encrypted() {
                assert!(
                    !report.wiretap.saw_plaintext_frame(),
                    "{algo}: leaked plaintext in group collective"
                );
            }
        }
    }

    #[test]
    fn node_local_group_needs_no_encryption() {
        // A group entirely on node 0: the opportunistic algorithms must not
        // encrypt anything.
        let members: Vec<Rank> = vec![0, 1, 2, 3];
        for algo in [Algorithm::ORing, Algorithm::ORd, Algorithm::OBruck] {
            let members2 = members.clone();
            let report = run(&world(12, 3), move |ctx| {
                if members2.contains(&ctx.rank()) {
                    Collective::Allgather(algo)
                        .run_group(ctx, &members2, 32)
                        .verify_members(SEED, &members2);
                }
            });
            let sum = eag_runtime::Metrics::component_sum(&report.metrics);
            assert_eq!(sum.enc_rounds, 0, "{algo} encrypted intra-node data");
            assert_eq!(sum.dec_rounds, 0, "{algo}");
        }
    }

    #[test]
    fn row_and_column_groups_of_a_grid() {
        // A 4x3 process grid on 3 nodes: every rank joins one row group and
        // one column group, sequentially.
        let (rows, cols) = (4usize, 3usize);
        let p = rows * cols;
        let report = run(&world(p, 3), move |ctx| {
            let me = ctx.rank();
            let my_row: Vec<Rank> = (0..cols).map(|c| (me / cols) * cols + c).collect();
            let my_col: Vec<Rank> = (0..rows).map(|r| r * cols + me % cols).collect();
            Collective::Allgather(Algorithm::ORd)
                .run_group(ctx, &my_row, 16)
                .verify_members(SEED, &my_row);
            Collective::Allgather(Algorithm::OBruck)
                .run_group(ctx, &my_col, 16)
                .verify_members(SEED, &my_col);
        });
        assert!(!report.wiretap.saw_plaintext_frame());
    }

    #[test]
    #[should_panic(expected = "not in the group")]
    fn non_member_call_is_rejected() {
        run(&world(4, 2), |ctx| {
            let members = vec![0, 1];
            if ctx.rank() == 3 {
                let _ = Collective::Allgather(Algorithm::Ring).run_group(ctx, &members, 8);
            }
        });
    }

    #[test]
    #[should_panic(expected = "does not support sub-communicator")]
    fn unsupported_algorithm_is_rejected() {
        run(&world(4, 2), |ctx| {
            if ctx.rank() == 0 {
                let _ = Collective::Allgather(Algorithm::Hs1).run_group(ctx, &[0], 8);
            }
        });
    }
}
