//! The Opportunistic Ring (O-Ring) algorithm, and the encrypted ring
//! sub-gather used by C-Ring: the shared ring walk over blocks held under
//! the opportunistic rule, run by [`super::o_walk_over`] with `Walk::Ring`.
//!
//! - **intra-node hop**: plaintext; a ciphertext arriving from another
//!   node is opened on arrival (the "entry process" role);
//! - **inter-node hop**: ciphertext. Plaintext is sealed (the "exit
//!   process" role); a ciphertext received from the previous hop is
//!   *forwarded as-is* and opened for this process's own output only after
//!   the forward, under the wait for the next arrival. Forward-as-is is
//!   what keeps `re = 1` in the Concurrent sub-gathers, where every hop is
//!   inter-node.

#[cfg(test)]
mod tests {
    use crate::collective::Walk;
    use crate::encrypted::o_walk_over;
    use crate::output::GatherOutput;
    use crate::{Algorithm, Collective};
    use eag_netsim::{profile, Mapping, Rank, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: 5 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn o_ring_correct_block_and_cyclic() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (9, 3), (6, 6)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    let out = Collective::Allgather(Algorithm::ORing).run(ctx, 24);
                    out.verify(5);
                });
                assert!(!report.wiretap.saw_plaintext_frame());
            }
        }
    }

    #[test]
    fn o_ring_metrics_match_table_2_block_order() {
        // p = 9, N = 3, block order: the paper's Figure 3 setting.
        // rc = p−1, re = rd = p−1 (exit/entry processes), se = sd = (p−1)m.
        let (p, m) = (9usize, 16usize);
        let report = run(&world(p, 3, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::ORing)
                .run(ctx, m)
                .verify(5);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, (p - 1) as u64);
        assert_eq!(max.enc_rounds, (p - 1) as u64);
        assert_eq!(max.enc_bytes, ((p - 1) * m) as u64);
        assert_eq!(max.dec_rounds, (p - 1) as u64);
        assert_eq!(max.dec_bytes, ((p - 1) * m) as u64);
        assert_eq!(max.bytes_sent, ((p - 1) * (m + 28)) as u64);
    }

    #[test]
    fn sub_ring_over_one_rank_per_node_encrypts_once() {
        // One member per node (the C-Ring sub-gather): every hop is
        // inter-node, ciphertexts are forwarded as-is, so re = 1 per rank.
        let report = run(&world(4, 4, Mapping::Block), |ctx| {
            let members: Vec<Rank> = (0..4).collect();
            let mut out = GatherOutput::new(vec![8; 4], &members);
            let mine = ctx.my_block(8);
            o_walk_over(ctx, Walk::Ring, &members, mine, &mut out, 500).unwrap();
            out.verify(5);
        });
        for m in &report.metrics {
            assert_eq!(m.enc_rounds, 1);
            assert_eq!(m.enc_bytes, 8);
            assert_eq!(m.dec_rounds, 3);
            assert_eq!(m.dec_bytes, 24);
        }
        assert!(!report.wiretap.saw_plaintext_frame());
    }
}
