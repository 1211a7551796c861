//! Sub-communicator collectives on a 2-D process grid: every rank joins a
//! row group and a column group (as dense linear algebra codes do), and
//! both all-gathers stay encrypted across nodes.
//!
//! ```text
//! cargo run --release --example process_grid
//! ```

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Rank, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

fn main() {
    let (rows, cols) = (4usize, 4usize);
    let p = rows * cols;
    let seed = 11;
    let mut spec = WorldSpec::new(
        Topology::new(p, 4, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed },
    );
    spec.capture_wire = true;

    println!("{rows}x{cols} process grid on 4 nodes; row + column encrypted all-gathers\n");
    let report = run(&spec, move |ctx| {
        let me = ctx.rank();
        let row: Vec<Rank> = (0..cols).map(|c| (me / cols) * cols + c).collect();
        let col: Vec<Rank> = (0..rows).map(|r| r * cols + me % cols).collect();

        // Row group: with block mapping these are node-local → the
        // opportunistic algorithms send plaintext and skip crypto entirely.
        let row_out = Collective::Allgather(Algorithm::ORd).run_group(ctx, &row, 2048);
        row_out.verify_members(seed, &row);
        // Column group: one member per node → every hop is encrypted.
        let col_out = Collective::Allgather(Algorithm::OBruck).run_group(ctx, &col, 2048);
        col_out.verify_members(seed, &col);
        (ctx.metrics().enc_rounds, ctx.metrics().dec_rounds)
    });

    let enc: u64 = report.outputs.iter().map(|&(e, _)| e).sum();
    let dec: u64 = report.outputs.iter().map(|&(_, d)| d).sum();
    println!("total encryptions : {enc} (row phase contributed none — node-local)");
    println!("total decryptions : {dec}");
    println!("inter-node frames : {}", report.wiretap.frame_count());
    println!(
        "plaintext on wire : {}",
        if report.wiretap.saw_plaintext_frame() {
            "YES (bug!)"
        } else {
            "none"
        }
    );
    println!("latency           : {:.2} µs", report.latency_us);
}
