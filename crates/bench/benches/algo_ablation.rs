//! Ablation study over the design choices DESIGN.md calls out. This is a
//! model-latency study (not wall time), so it uses a plain `main` and
//! prints comparison tables:
//!
//! 1. O-RD vs O-RD2 — per-source-block vs merged-recrypt ciphertexts.
//! 2. HS1 vs HS2 — leader-encrypts vs everyone-encrypts.
//! 3. C-Ring vs HS1 — concurrent streams vs single-leader traffic,
//!    with the NIC contention model on and off.
//! 4. Ring vs rank-ordered Ring under cyclic mapping.
//! 5. HS-ML multi-leader sweep: k leaders per node from 1 (= HS2-like) to
//!    ℓ (= C-Ring-like stream concurrency), showing where the NIC saturates.

use eag_bench::fmt::size_label;
use eag_bench::{simulate, SimConfig};
use eag_core::{Algorithm, Collective};
use eag_netsim::Mapping;

fn cfg(mapping: Mapping, contention: bool) -> SimConfig {
    if contention {
        SimConfig::contended(128, 8, mapping, "noleland")
    } else {
        SimConfig::deterministic(128, 8, mapping, "noleland")
    }
}

fn compare(title: &str, cfg: &SimConfig, a: Algorithm, b: Algorithm, sizes: &[usize]) {
    println!("\n== {title} ==");
    println!("{:>8} {:>12} {:>12}  winner", "size", a.name(), b.name());
    for &m in sizes {
        let ta = simulate(cfg, Collective::Allgather(a), m).0;
        let tb = simulate(cfg, Collective::Allgather(b), m).0;
        println!(
            "{:>8} {:>10.2}us {:>10.2}us  {}",
            size_label(m),
            ta,
            tb,
            if ta <= tb { a.name() } else { b.name() }
        );
    }
}

fn multi_leader_sweep() {
    use eag_core::encrypted::{hs_ml, MlPattern};
    use eag_netsim::FaultPlan;
    use eag_runtime::run;

    // Bridges-2 model: one core stream (12 GB/s) cannot saturate the
    // 25 GB/s NIC, so extra leaders should pay off up to ~k = 2.
    println!("\n== ablation 5: HS-ML multi-leader sweep (bridges2, p=128, N=8, 256KB) ==");
    println!("{:>4} {:>14}", "k", "latency");
    let m = 256 * 1024;
    let spec =
        SimConfig::contended(128, 8, Mapping::Block, "bridges2").world_spec(FaultPlan::default());
    for k in [1usize, 2, 4, 8, 16] {
        let latency = run(&spec, move |ctx| {
            let out = hs_ml(ctx, m, k, MlPattern::Ring);
            assert!(out.is_complete());
        })
        .latency_us;
        println!("{k:>4} {latency:>12.2}us");
    }
}

fn main() {
    let sizes = [
        1usize,
        64,
        1024,
        8 * 1024,
        64 * 1024,
        512 * 1024,
        2 * 1024 * 1024,
    ];
    let block = cfg(Mapping::Block, true);

    compare(
        "ablation 1: O-RD (forward sealed) vs O-RD2 (merge + re-encrypt)",
        &block,
        Algorithm::ORd,
        Algorithm::ORd2,
        &sizes,
    );
    compare(
        "ablation 2: HS1 (leader encrypts lm) vs HS2 (everyone encrypts m)",
        &block,
        Algorithm::Hs1,
        Algorithm::Hs2,
        &sizes,
    );
    compare(
        "ablation 3a: C-Ring vs HS1, NIC contention ON",
        &block,
        Algorithm::CRing,
        Algorithm::Hs1,
        &sizes,
    );
    compare(
        "ablation 3b: C-Ring vs HS1, NIC contention OFF",
        &cfg(Mapping::Block, false),
        Algorithm::CRing,
        Algorithm::Hs1,
        &sizes,
    );
    compare(
        "ablation 4: natural Ring vs rank-ordered Ring, cyclic mapping",
        &cfg(Mapping::Cyclic, true),
        Algorithm::Ring,
        Algorithm::RingRanked,
        &sizes,
    );
    multi_leader_sweep();
}
