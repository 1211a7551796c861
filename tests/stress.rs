//! Long-running stress tests (excluded from the default run; invoke with
//! `cargo test -p eag-integration --test stress -- --ignored`).

use eag_core::{Algorithm, Collective, Group};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Hundreds of random collectives in sequence inside long-lived worlds:
/// epochs, tag spaces, and shared-memory slots must never collide.
#[test]
#[ignore = "soak test: ~minutes"]
fn soak_random_collective_sequences() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for world_idx in 0..8 {
        let nodes = [2usize, 3, 4][world_idx % 3];
        let ell = 1 + world_idx % 4;
        let p = nodes * ell;
        let seed = rng.random::<u64>();
        let plan: Vec<(usize, usize)> = (0..40)
            .map(|_| {
                (
                    rng.random_range(0..Algorithm::all().len()),
                    rng.random_range(0..512usize),
                )
            })
            .collect();
        let spec = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::free(),
            DataMode::Real { seed },
        );
        let plan2 = plan.clone();
        run(&spec, move |ctx| {
            for &(ai, m) in &plan2 {
                let algo = Algorithm::all()[ai];
                Collective::Allgather(algo).run(ctx, m).verify(seed);
            }
        });
    }
}

/// Alternating uniform and varying collectives in one world.
#[test]
#[ignore = "soak test: ~minutes"]
fn soak_mixed_allgather_and_allgatherv() {
    let (p, nodes, seed) = (12usize, 3usize, 77u64);
    let spec = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Cyclic),
        profile::free(),
        DataMode::Real { seed },
    );
    run(&spec, move |ctx| {
        for round in 0..60 {
            Collective::Allgather(Algorithm::Hs2)
                .run(ctx, 64 + round)
                .verify(seed);
            let lens: Vec<usize> = (0..p).map(|r| (r * 13 + round) % 200).collect();
            Collective::Allgatherv(Algorithm::CRing)
                .run_with(ctx, Group::world(lens.len()).members(), &lens)
                .verify(seed);
            Collective::Allgather(Algorithm::ORd2)
                .run(ctx, round % 97)
                .verify(seed);
        }
    });
}

/// A large phantom world exercising the p = 1024 path outside the benches.
#[test]
#[ignore = "soak test: spawns 1024 threads"]
fn soak_bridges2_scale_phantom() {
    let spec = WorldSpec::new(
        Topology::new(1024, 16, Mapping::Block),
        profile::bridges2(),
        DataMode::Phantom,
    );
    let report = run(&spec, |ctx| {
        Collective::Allgather(Algorithm::Hs2)
            .run(ctx, 64 * 1024)
            .verify(0);
    });
    assert!(report.latency_us > 0.0);
}
