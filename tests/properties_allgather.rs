//! Property-based end-to-end test: a randomly chosen algorithm on a randomly
//! shaped world must satisfy the all-gather postcondition with real bytes
//! and real AES-GCM, and encrypted algorithms must keep the wire clean.

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};
use proptest::prelude::*;

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0..Algorithm::all().len()).prop_map(|i| Algorithm::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_world_random_algorithm_is_correct(
        algo in arb_algorithm(),
        ell in 1usize..=4,
        nodes in 1usize..=5,
        mapping in prop_oneof![Just(Mapping::Block), Just(Mapping::Cyclic)],
        m in 0usize..100,
        seed in any::<u64>(),
    ) {
        let p = ell * nodes;
        let mut spec = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed },
        );
        spec.capture_wire = true;
        let report = run(&spec, move |ctx| {
            Collective::Allgather(algo).run(ctx, m).verify(seed);
        });
        if algo.is_encrypted() {
            prop_assert!(
                !report.wiretap.saw_plaintext_frame(),
                "{algo} leaked plaintext on p={p} N={nodes} {mapping} m={m}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// All-gather-v with random per-rank lengths (zeros included) is
    /// bit-exact and wire-clean for every supporting algorithm.
    #[test]
    fn random_lens_allgatherv_is_correct(
        algo_idx in 0usize..8,
        ell in 1usize..=3,
        nodes in 2usize..=4,
        lens_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let supporting: Vec<Algorithm> = Algorithm::all()
            .iter()
            .copied()
            .filter(Algorithm::supports_varying)
            .collect();
        let algo = supporting[algo_idx % supporting.len()];
        let p = ell * nodes;
        // Deterministic pseudo-random lengths from the seed.
        let lens: Vec<usize> = (0..p)
            .map(|r| ((lens_seed.wrapping_mul(r as u64 + 1) >> 17) % 128) as usize)
            .collect();
        let mut spec = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::free(),
            DataMode::Real { seed },
        );
        spec.capture_wire = true;
        let lens2 = lens.clone();
        let report = run(&spec, move |ctx| {
            Collective::Allgatherv(algo)
                .run_with(ctx, eag_core::Group::world(lens2.len()).members(), &lens2)
                .verify(seed);
        });
        if algo.is_encrypted() {
            prop_assert!(!report.wiretap.saw_plaintext_frame(), "{algo} lens={lens:?}");
        }
    }
}
