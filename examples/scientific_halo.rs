//! A domain-scenario example: a spectral solver's transpose step.
//!
//! Many scientific codes (FFT-based Poisson solvers, spectral CFD) call
//! MPI_Allgather every timestep to share per-rank boundary spectra. This
//! example simulates such a loop on an 8-node cluster processing sensitive
//! data (e.g. clinical imaging volumes on a public cloud): each timestep
//! all-gathers one plane of coefficients, encrypted, and we compare the
//! total simulated runtime of the Naive approach against HS2.
//!
//! ```text
//! cargo run --release --example scientific_halo
//! ```

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

fn simulate_solver(algo: Algorithm, timesteps: usize, plane_bytes: usize) -> f64 {
    let spec = WorldSpec::new(
        Topology::new(64, 8, Mapping::Block),
        profile::noleland(),
        DataMode::Phantom,
    );
    let report = run(&spec, move |ctx| {
        for _ in 0..timesteps {
            let out = Collective::Allgather(algo).run(ctx, plane_bytes);
            assert!(out.is_complete());
        }
    });
    report.latency_us
}

fn main() {
    let timesteps = 50;
    let plane = 64 * 1024; // 64 KB of spectral coefficients per rank per step
    println!("spectral transpose loop: 64 ranks / 8 nodes, {timesteps} timesteps, 64KB planes\n");

    let unencrypted = simulate_solver(Algorithm::Mvapich, timesteps, plane);
    println!("{:<22} {:>12.1} us", "unencrypted MPI", unencrypted);
    for algo in [
        Algorithm::Naive,
        Algorithm::ORd,
        Algorithm::CRing,
        Algorithm::Hs2,
    ] {
        let t = simulate_solver(algo, timesteps, plane);
        println!(
            "{:<22} {:>12.1} us  ({:+.1}% vs unencrypted)",
            algo.name(),
            t,
            (t / unencrypted - 1.0) * 100.0
        );
    }
    println!("\nthe gap between Naive and HS2 is the paper's contribution, per timestep");
}
