//! Wall-clock benchmarks of the *real* runtime: threads, channels, actual
//! byte movement, actual AES-128-GCM — the whole encrypted collective at
//! laptop scale. Complements the virtual-time simulations that regenerate
//! the paper's tables.
//!
//! Measurement follows the OSU benchmark structure the paper uses: the
//! ranks stay up for the whole measurement and the collective runs in a
//! loop inside one world, so thread spawn/join cost stays out of the number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn world() -> WorldSpec {
    WorldSpec::new(
        Topology::new(16, 4, Mapping::Block),
        profile::free(), // wall time is the measurement; no virtual pricing
        DataMode::Real { seed: 9 },
    )
}

/// Runs `iters` collectives inside a single world and returns the loop's
/// wall time measured on rank 0 (all ranks run the same loop, as in OSU).
fn osu_loop(algo: Algorithm, m: usize, iters: u64) -> Duration {
    let spec = world();
    let report = run(&spec, move |ctx| {
        // Warmup.
        for _ in 0..2 {
            black_box(Collective::Allgather(algo).run(ctx, m).is_complete());
        }
        let start = Instant::now();
        for _ in 0..iters {
            black_box(Collective::Allgather(algo).run(ctx, m).is_complete());
        }
        start.elapsed()
    });
    report.outputs[0]
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("allgather_real_16x4");
    group.sample_size(10);
    for &m in &[1024usize, 64 * 1024] {
        group.throughput(Throughput::Bytes((16 * m) as u64));
        for algo in [
            Algorithm::Mvapich,
            Algorithm::Naive,
            Algorithm::ORd,
            Algorithm::CRing,
            Algorithm::Hs2,
        ] {
            group.bench_with_input(BenchmarkId::new(algo.name(), m), &m, |b, &m| {
                b.iter_custom(|iters| osu_loop(algo, m, iters))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
