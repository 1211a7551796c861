//! Property-based tests for the topology and the NIC interval allocator.

use eag_netsim::nic::NodeNic;
use eag_netsim::{LinkClass, Mapping, Topology};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        1usize..=8,
        1usize..=6,
        prop_oneof![Just(Mapping::Block), Just(Mapping::Cyclic)],
    )
        .prop_map(|(ell, nodes, mapping)| Topology::new(ell * nodes, nodes, mapping))
}

proptest! {
    /// ranks_on_node partitions 0..p; local_index/peer_on_node invert.
    #[test]
    fn topology_partition_and_inverses(topo in arb_topology()) {
        let p = topo.p();
        let mut seen = vec![false; p];
        for node in 0..topo.nodes() {
            for r in topo.ranks_on_node(node) {
                prop_assert!(!seen[r]);
                seen[r] = true;
                prop_assert_eq!(topo.node_of(r), node);
                prop_assert_eq!(topo.peer_on_node(r, topo.local_index(r)), r);
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Leaders are on their own node with local index 0.
    #[test]
    fn leaders_are_first_on_their_node(topo in arb_topology()) {
        for node in 0..topo.nodes() {
            let leader = topo.leader_of(node);
            prop_assert_eq!(topo.node_of(leader), node);
            prop_assert_eq!(topo.local_index(leader), 0);
            prop_assert!(topo.is_leader(leader));
        }
    }

    /// The ring order crosses node boundaries exactly N times (with wrap).
    #[test]
    fn ring_order_minimizes_crossings(topo in arb_topology()) {
        let order = topo.ring_order(&(0..topo.p()).collect::<Vec<_>>());
        let crossings = (0..order.len())
            .filter(|&i| {
                topo.link(order[i], order[(i + 1) % order.len()]) == LinkClass::Inter
            })
            .count();
        let expect = if topo.nodes() == 1 { 0 } else { topo.nodes() };
        prop_assert_eq!(crossings, expect);
    }

    /// Link classification is symmetric.
    #[test]
    fn links_are_symmetric(topo in arb_topology(), a in 0usize..48, b in 0usize..48) {
        let (a, b) = (a % topo.p(), b % topo.p());
        prop_assert_eq!(topo.link(a, b), topo.link(b, a));
    }

    /// NIC allocator: each reservation finishes no earlier than
    /// now + occupancy, and total occupancy is conserved (the last finish
    /// time is at least total_bytes / bandwidth past the earliest start).
    #[test]
    fn nic_reservations_conserve_occupancy(
        reservations in proptest::collection::vec((0.0f64..100.0, 1usize..1000), 1..40),
    ) {
        let bw = 10.0;
        let nic = NodeNic::new(bw);
        let mut last_finish: f64 = 0.0;
        let mut total_bytes = 0usize;
        let mut earliest: f64 = f64::INFINITY;
        for &(now, bytes) in &reservations {
            let finish = nic.reserve_for(0, now, bytes);
            prop_assert!(finish >= now + bytes as f64 / bw - 1e-9);
            last_finish = last_finish.max(finish);
            total_bytes += bytes;
            earliest = earliest.min(now);
        }
        // The NIC can't transmit faster than its aggregate bandwidth.
        prop_assert!(
            last_finish >= earliest + total_bytes as f64 / bw - 1e-6,
            "finish {last_finish} vs {earliest} + {total_bytes}/{bw}"
        );
    }

    /// The ledger's intervals stay disjoint, sorted, and positive-length
    /// under arbitrary reservation sequences.
    #[test]
    fn nic_intervals_stay_disjoint_and_sorted(
        reservations in proptest::collection::vec((0.0f64..50.0, 1usize..400), 1..60),
    ) {
        let nic = NodeNic::new(7.0);
        for &(now, bytes) in &reservations {
            nic.reserve_for(0, now, bytes);
        }
        let busy = nic.busy_intervals();
        for w in busy.windows(2) {
            prop_assert!(w[0].1 <= w[1].0 + 1e-12, "overlap: {w:?}");
        }
        for &(s, e) in &busy {
            prop_assert!(e > s, "empty interval ({s}, {e})");
        }
        // Total busy time equals total occupancy.
        let busy_total: f64 = busy.iter().map(|&(s, e)| e - s).sum();
        let occupancy: f64 = reservations.iter().map(|&(_, b)| b as f64 / 7.0).sum();
        prop_assert!((busy_total - occupancy).abs() < 1e-6);
    }

    /// Reservations made at the same virtual instant serialize exactly.
    #[test]
    fn simultaneous_reservations_serialize(
        sizes in proptest::collection::vec(1usize..500, 1..20),
    ) {
        let bw = 5.0;
        let nic = NodeNic::new(bw);
        let mut finishes: Vec<f64> = sizes.iter().map(|&s| nic.reserve_for(0, 0.0, s)).collect();
        finishes.sort_by(f64::total_cmp);
        let total: usize = sizes.iter().sum();
        prop_assert!((finishes.last().unwrap() - total as f64 / bw).abs() < 1e-9);
    }
}
