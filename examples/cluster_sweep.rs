//! Sweep message sizes on a simulated cluster and print which algorithm
//! wins each size band — a miniature version of the paper's Table III that
//! you can point at any (p, N, mapping, profile) combination.
//!
//! ```text
//! cargo run --release --example cluster_sweep [p] [nodes] [block|cyclic]
//! ```

use eag_bench::fmt::size_label;
use eag_bench::tables::{best_scheme_table, candidate_schemes};
use eag_bench::SimConfig;
use eag_netsim::Mapping;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let nodes = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let mapping = match args.get(3).map(String::as_str) {
        Some("cyclic") => Mapping::Cyclic,
        _ => Mapping::Block,
    };
    let cfg = SimConfig::contended(p, nodes, mapping, "noleland");

    println!(
        "best encrypted scheme by message size (p={p}, N={nodes}, {mapping} mapping)\n\
         candidates: {}\n",
        candidate_schemes()
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let sizes = [
        16,
        256,
        1024,
        4 * 1024,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        1024 * 1024,
    ];
    println!(
        "{:>8} {:>14} {:>10} {:>10}  best",
        "size", "MPI (us)", "naive", "best"
    );
    for row in best_scheme_table(&cfg, &sizes) {
        println!(
            "{:>8} {:>14.2} {:>+9.1}% {:>+9.1}%  {}",
            size_label(row.size),
            row.mpi_latency_us,
            row.naive_overhead_pct,
            row.best_overhead_pct,
            row.best
        );
    }
}
