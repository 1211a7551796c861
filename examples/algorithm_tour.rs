//! Tour of every all-gather algorithm in the library: runs each one with
//! real bytes on the same small world, verifies correctness, and prints the
//! six metrics of the paper side by side — so you can *see* Table II.
//!
//! ```text
//! cargo run --example algorithm_tour
//! ```

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

fn main() {
    let (p, nodes, m, seed) = (16usize, 4usize, 128usize, 5u64);
    println!("all-gather algorithm tour: p={p}, N={nodes}, m={m}B, block mapping\n");
    println!(
        "{:<14} {:>4} {:>8} {:>4} {:>8} {:>4} {:>8}   correctness",
        "algorithm", "rc", "sc", "re", "se", "rd", "sd"
    );

    for &algo in Algorithm::all() {
        let spec = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::unit(),
            DataMode::Real { seed },
        );
        let report = run(&spec, move |ctx| {
            Collective::Allgather(algo).run(ctx, m).verify(seed);
        });
        let mx = report.max_metrics();
        let check = match Collective::Allgather(algo).predict(p, nodes, m) {
            Some(pred) => {
                let got = eag_core::MetricSet {
                    rc: mx.comm_rounds,
                    sc: mx.sc_payload(),
                    re: mx.enc_rounds,
                    se: mx.enc_bytes,
                    rd: mx.dec_rounds,
                    sd: mx.dec_bytes,
                };
                if got == pred {
                    "verified, matches Table II"
                } else {
                    "verified (metrics differ)"
                }
            }
            None => "verified",
        };
        println!(
            "{:<14} {:>4} {:>8} {:>4} {:>8} {:>4} {:>8}   {check}",
            algo.name(),
            mx.comm_rounds,
            mx.sc(),
            mx.enc_rounds,
            mx.enc_bytes,
            mx.dec_rounds,
            mx.dec_bytes
        );
    }
}
