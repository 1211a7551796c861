//! Quickstart: run an encrypted all-gather on a simulated 4-node cluster
//! with real bytes and real AES-128-GCM, then print what the network saw.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

fn main() {
    // 16 processes on 4 nodes, block mapping, with the Noleland cost model.
    let mut spec = WorldSpec::new(
        Topology::new(16, 4, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed: 2024 },
    );
    spec.capture_wire = true;

    let m = 1024; // bytes per process
    let report = run(&spec, move |ctx| {
        let hs2 = Collective::Allgather(Algorithm::Hs2);
        let out = hs2.run(ctx, m);
        hs2.verify(ctx.rank(), &out, 2024); // every rank has every block, bit-exact
    });

    println!("encrypted all-gather (HS2) of {m} B x 16 ranks complete");
    println!("  simulated latency : {:.2} us", report.latency_us);
    println!("  inter-node frames : {}", report.wiretap.frame_count());
    println!("  inter-node bytes  : {}", report.wiretap.total_bytes());
    println!(
        "  plaintext on wire : {}",
        if report.wiretap.saw_plaintext_frame() {
            "YES (bug!)"
        } else {
            "none"
        }
    );
    let max = report.max_metrics();
    println!(
        "  critical path     : rc={} re={} se={}B rd={} sd={}B",
        max.comm_rounds, max.enc_rounds, max.enc_bytes, max.dec_rounds, max.dec_bytes
    );
}
