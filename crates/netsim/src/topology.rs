//! Rank-to-node topology and the two process mappings the paper evaluates.
//!
//! With `p` processes on `N` nodes (ℓ = p/N per node):
//! - **block order** maps rank `i` to node `⌊i/ℓ⌋`;
//! - **cyclic order** maps rank `i` to node `i mod N`.
//!
//! The paper shows the default MPI algorithms are sensitive to this mapping
//! (Tables III vs IV), while C-Ring is oblivious to it.

use crate::model::LinkClass;
use serde::{Deserialize, Serialize};

/// A process rank (0-based, as in MPI_Comm_rank).
pub type Rank = usize;

/// Process-to-node mapping order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mapping {
    /// Rank `i` runs on node `⌊i/ℓ⌋`.
    Block,
    /// Rank `i` runs on node `i mod N`.
    Cyclic,
}

impl std::fmt::Display for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mapping::Block => f.write_str("block"),
            Mapping::Cyclic => f.write_str("cyclic"),
        }
    }
}

/// The cluster topology: `p` ranks over `nodes` nodes under a [`Mapping`].
///
/// `p` must be a multiple of `nodes` (the paper's standing assumption
/// ℓ = p/N; general `p` is handled by the algorithms, not the topology).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    p: usize,
    nodes: usize,
    mapping: Mapping,
}

impl Topology {
    /// Creates a topology. Panics if `p` is not a positive multiple of `nodes`.
    pub fn new(p: usize, nodes: usize, mapping: Mapping) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(p >= 1, "need at least one process");
        assert!(
            p.is_multiple_of(nodes),
            "p = {p} must be a multiple of the node count {nodes}"
        );
        Topology { p, nodes, mapping }
    }

    /// Total number of processes.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of nodes N.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Processes per node ℓ = p/N.
    pub fn procs_per_node(&self) -> usize {
        self.p / self.nodes
    }

    /// The mapping order in force.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> usize {
        debug_assert!(rank < self.p);
        match self.mapping {
            Mapping::Block => rank / self.procs_per_node(),
            Mapping::Cyclic => rank % self.nodes,
        }
    }

    /// Link class between two ranks.
    #[inline]
    pub fn link(&self, a: Rank, b: Rank) -> LinkClass {
        if a == b {
            LinkClass::SelfLoop
        } else if self.node_of(a) == self.node_of(b) {
            LinkClass::Intra
        } else {
            LinkClass::Inter
        }
    }

    /// All ranks on `node`, in increasing rank order.
    pub fn ranks_on_node(&self, node: usize) -> Vec<Rank> {
        (0..self.p).filter(|&r| self.node_of(r) == node).collect()
    }

    /// The leader of `node`: its lowest rank.
    pub fn leader_of(&self, node: usize) -> Rank {
        match self.mapping {
            Mapping::Block => node * self.procs_per_node(),
            Mapping::Cyclic => node,
        }
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: Rank) -> bool {
        self.leader_of(self.node_of(rank)) == rank
    }

    /// Index of `rank` among its node's ranks (0-based).
    pub fn local_index(&self, rank: Rank) -> usize {
        match self.mapping {
            Mapping::Block => rank % self.procs_per_node(),
            Mapping::Cyclic => rank / self.nodes,
        }
    }

    /// The `k`-th rank on the node of `rank`.
    pub fn peer_on_node(&self, rank: Rank, k: usize) -> Rank {
        debug_assert!(k < self.procs_per_node());
        let node = self.node_of(rank);
        match self.mapping {
            Mapping::Block => node * self.procs_per_node() + k,
            Mapping::Cyclic => node + k * self.nodes,
        }
    }

    /// `members` reordered so that a ring traversal visits each node's
    /// processes consecutively (the "rank-ordered" ring of Kandalla et al.
    /// \[13\] that keeps Ring performance mapping-oblivious): node 0's
    /// members first, then node 1's, ..., ascending within a node.
    pub fn ring_order(&self, members: &[Rank]) -> Vec<Rank> {
        let mut order = members.to_vec();
        order.sort_by_key(|&r| (self.node_of(r), r));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_matches_paper_definition() {
        let t = Topology::new(9, 3, Mapping::Block);
        // P0..P2 on node 0, P3..P5 on node 1, P6..P8 on node 2 (paper Fig. 3).
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(2), 0);
        assert_eq!(t.node_of(3), 1);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.node_of(8), 2);
        assert_eq!(t.procs_per_node(), 3);
    }

    #[test]
    fn cyclic_mapping_matches_paper_definition() {
        let t = Topology::new(8, 4, Mapping::Cyclic);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 1);
        assert_eq!(t.node_of(4), 0);
        assert_eq!(t.node_of(7), 3);
    }

    #[test]
    fn link_classes() {
        let t = Topology::new(8, 2, Mapping::Block);
        assert_eq!(t.link(0, 0), LinkClass::SelfLoop);
        assert_eq!(t.link(0, 3), LinkClass::Intra);
        assert_eq!(t.link(0, 4), LinkClass::Inter);
        assert_eq!(t.link(7, 4), LinkClass::Intra);
    }

    #[test]
    fn leaders_and_local_indices() {
        let b = Topology::new(8, 2, Mapping::Block);
        assert_eq!(b.leader_of(0), 0);
        assert_eq!(b.leader_of(1), 4);
        assert!(b.is_leader(4));
        assert!(!b.is_leader(5));
        assert_eq!(b.local_index(6), 2);
        assert_eq!(b.peer_on_node(6, 0), 4);

        let c = Topology::new(8, 2, Mapping::Cyclic);
        assert_eq!(c.leader_of(1), 1);
        assert_eq!(c.local_index(6), 3);
        assert_eq!(c.peer_on_node(6, 0), 0);
        assert_eq!(c.peer_on_node(6, 3), 6);
    }

    #[test]
    fn ranks_on_node_partition_all_ranks() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let t = Topology::new(12, 3, mapping);
            let mut seen = [false; 12];
            for node in 0..3 {
                let ranks = t.ranks_on_node(node);
                assert_eq!(ranks.len(), 4);
                for r in ranks {
                    assert_eq!(t.node_of(r), node);
                    assert!(!seen[r]);
                    seen[r] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn ring_order_groups_nodes_consecutively() {
        let t = Topology::new(12, 3, Mapping::Cyclic);
        let order = t.ring_order(&(0..12).collect::<Vec<_>>());
        // Exactly N-1 inter-node boundaries inside the path, +1 wrap-around.
        let mut inter = 0;
        for i in 0..order.len() {
            let a = order[i];
            let b = order[(i + 1) % order.len()];
            if t.link(a, b) == LinkClass::Inter {
                inter += 1;
            }
        }
        assert_eq!(inter, 3);
    }

    #[test]
    fn ring_order_keeps_exactly_the_members() {
        let t = Topology::new(16, 4, Mapping::Cyclic);
        // Ranks 1 and 5 share node 1; 2 and 14 share node 2.
        assert_eq!(t.ring_order(&[14, 5, 2, 1]), vec![1, 5, 2, 14]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_non_divisible_p() {
        let _ = Topology::new(10, 4, Mapping::Block);
    }
}
