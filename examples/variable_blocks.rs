//! MPI_Allgatherv on encrypted links: each rank contributes a different
//! amount of data (an uneven domain decomposition), and the collective is
//! still encrypted end to end.
//!
//! ```text
//! cargo run --release --example variable_blocks
//! ```

use eag_core::{Algorithm, Collective, Group};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

fn main() {
    let p = 12;
    // A lopsided decomposition: rank r owns (r^2 mod 701) * 8 bytes.
    let lens: Vec<usize> = (0..p).map(|r| (r * r % 701) * 8).collect();
    let total: usize = lens.iter().sum();
    println!("all-gather-v over {p} ranks / 3 nodes, {total} bytes total");
    println!("per-rank bytes: {lens:?}\n");

    let mut spec = WorldSpec::new(
        Topology::new(p, 3, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed: 99 },
    );
    spec.capture_wire = true;

    for algo in Algorithm::all()
        .iter()
        .copied()
        .filter(Algorithm::supports_varying)
    {
        let lens2 = lens.clone();
        let report = run(&spec, move |ctx| {
            Collective::Allgatherv(algo)
                .run_with(ctx, Group::world(p).members(), &lens2)
                .verify(99);
        });
        println!(
            "{:<14} {:>10.2} us   {} inter-node frames, plaintext on wire: {}",
            algo.name(),
            report.latency_us,
            report.wiretap.frame_count(),
            if algo.is_encrypted() {
                if report.wiretap.saw_plaintext_frame() {
                    "YES (bug!)"
                } else {
                    "no"
                }
            } else {
                "yes (unencrypted baseline)"
            }
        );
    }
}
