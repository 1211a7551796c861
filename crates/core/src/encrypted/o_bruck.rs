//! O-Bruck — an Opportunistic Bruck all-gather: the shared Bruck walk over
//! blocks held under the opportunistic rule, run by
//! [`super::o_walk_over`] with `Walk::Bruck`.
//!
//! **Extension beyond the paper.** The paper applies its opportunistic rule
//! (encrypt inter-node hops, plaintext intra-node hops, forward ciphertexts
//! untouched) to Ring and Recursive Doubling. Bruck's dissemination pattern
//! completes in `⌈lg p⌉` rounds for *any* p — unlike RD, no fold/unfold
//! steps — which makes an opportunistic Bruck the natural candidate for
//! small messages on non-power-of-two process counts (where the modeled
//! MVAPICH baseline also uses Bruck). A block may leave a rank more than
//! once, so each held block keeps both forms: it is sealed only once, by
//! whoever first exports it, and ciphertexts still sealed after the last
//! round are opened at the end.

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
