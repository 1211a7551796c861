//! Renders a virtual-time Gantt chart of an encrypted all-gather, showing
//! how communication, encryption, and decryption interleave on every rank.
//!
//! ```text
//! cargo run --release --example trace_gantt [algorithm]
//! ```

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, trace::render_gantt, BusyBreakdown, DataMode, WorldSpec};

fn main() {
    let algo = std::env::args()
        .nth(1)
        .and_then(|s| Algorithm::by_name(&s))
        .unwrap_or(Algorithm::Hs2);

    let mut spec = WorldSpec::new(
        Topology::new(8, 4, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed: 4 },
    );
    spec.trace = true;
    spec.nic_contention = false;

    let report = run(&spec, move |ctx| {
        Collective::Allgather(algo).run(ctx, 16 * 1024).verify(4);
    });

    println!(
        "{} of 16KB blocks, 8 ranks / 4 nodes (Noleland model)\n",
        algo.name()
    );
    print!("{}", render_gantt(&report.traces, 100));

    println!("\nper-rank busy breakdown (µs):");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "rank", "send", "recv/wait", "encrypt", "decrypt", "copy", "barrier"
    );
    for (rank, trace) in report.traces.iter().enumerate() {
        let b = BusyBreakdown::of(trace);
        println!(
            "{rank:>5} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            b.send_us, b.recv_us, b.enc_us, b.dec_us, b.copy_us, b.barrier_us
        );
    }
    println!("\ncollective latency: {:.2} µs", report.latency_us);
}
