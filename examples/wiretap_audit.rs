//! Security audit: run every encrypted algorithm with a wiretap on all
//! inter-node links and prove that (1) no frame is plaintext, and (2) no
//! process's input block ever appears as a byte substring of the captured
//! traffic — the paper's threat model of a network eavesdropper.
//!
//! ```text
//! cargo run --example wiretap_audit
//! ```

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{pattern_block, run, DataMode, WorldSpec};

fn main() {
    let seed = 77;
    let (p, nodes, m) = (12usize, 3usize, 256usize);
    println!(
        "auditing {} encrypted algorithms on p={p}, N={nodes}, m={m}B\n",
        Algorithm::encrypted_all().len()
    );

    for &algo in Algorithm::encrypted_all() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let mut spec = WorldSpec::new(
                Topology::new(p, nodes, mapping),
                profile::noleland(),
                DataMode::Real { seed },
            );
            spec.capture_wire = true;

            let report = run(&spec, move |ctx| {
                Collective::Allgather(algo).run(ctx, m).verify(seed);
            });

            // 1. Classification: every inter-node frame must be ciphertext.
            assert!(
                !report.wiretap.saw_plaintext_frame(),
                "{algo}/{mapping}: plaintext frame on an inter-node link"
            );
            // 2. Content: no input block may leak, even inside a larger frame.
            for rank in 0..p {
                let block = pattern_block(seed, rank, m);
                assert!(
                    !report.wiretap.contains(&block),
                    "{algo}/{mapping}: rank {rank}'s plaintext leaked"
                );
            }
            println!(
                "  {algo:<8} {mapping:<6} ok — {} ciphertext frames, {} bytes on the wire",
                report.wiretap.frame_count(),
                report.wiretap.total_bytes()
            );
        }
    }
    println!("\nall encrypted algorithms pass the eavesdropper audit");
}
