//! Golden exactness table: the virtual latency (bit for bit) and the
//! component-max metrics, copy probe included, of every collective the
//! item walks and the opportunistic per-block rule serve, over the shapes
//! where those walks branch — recursive doubling folding a non-power-of-two
//! count, Bruck sending a partial last round, rings and trees crossing node
//! boundaries under both mappings, and a 7-member sub-communicator. Two
//! shapes pin the hierarchical kernels' edge cases: p16n8 has more foreign
//! nodes than ranks per node (N − 1 > ℓ), so an HS1 rank opens several
//! foreign node blocks, and p4n4 has one rank per node (ℓ = 1), so HS
//! copies out with no siblings and C-Ring/C-RD skip their local phase.
//!
//! The expected table (`tests/exactness_golden.txt`) pins behaviour: a
//! refactor of the kernels must reproduce it exactly. On a mismatch the
//! test prints every differing line and then the complete current table.

use eag_bench::SimConfig;
use eag_core::{Algorithm, Collective};
use eag_netsim::{FaultPlan, Mapping};
use eag_runtime::{run, Metrics};

const SEED: u64 = 0xE6AC7;
const GOLDEN: &str = include_str!("exactness_golden.txt");

/// Collectives whose copy probe is not pinned. Opening a ciphertext is
/// free only when no other holder shares its frame; in these kernels a
/// peer that forwarded the frame (or deposited it in shared memory) keeps
/// its copy until it finishes, so whether the open copies depends on thread
/// timing even with one run permit. Every other field is still pinned.
const RACY_PROBE: [&str; 10] = [
    "allgather/HS1",
    "allgather/HS2",
    "allgatherv/HS2",
    "allgather/O-Bruck",
    "allgatherv/O-Bruck",
    "allgather/O-RD",
    "gatherv/linear",
    "gatherv/binomial",
    "scatterv/linear",
    "scatterv/binomial",
];

/// Every collective under test: each all-gather algorithm, each
/// varying-capable one as all-gather-v, and every new operation.
fn collectives() -> Vec<Collective> {
    let mut all: Vec<Collective> = Algorithm::all()
        .iter()
        .map(|&a| Collective::Allgather(a))
        .collect();
    all.extend(
        Algorithm::all()
            .iter()
            .filter(|a| a.supports_varying())
            .map(|&a| Collective::Allgatherv(a)),
    );
    all.extend(Collective::new_operations_all());
    all
}

fn runs_over_groups(c: Collective) -> bool {
    match c {
        Collective::Allgather(a) | Collective::Allgatherv(a) => a.supports_groups(),
        _ => true,
    }
}

fn line(c: Collective, label: &str, latency_us: f64, m: &Metrics) -> String {
    let probe = if RACY_PROBE.contains(&c.name().as_str()) {
        "memcpy=racy".to_string()
    } else {
        format!("memcpy={} allocs={}", m.memcpy_bytes, m.buf_allocs)
    };
    format!(
        "{c} {label} lat={:016x} rc={} bs={} br={} ps={} pr={} inter={} re={} se={} rd={} sd={} \
         copies={} copy_bytes={} {probe}",
        latency_us.to_bits(),
        m.comm_rounds,
        m.bytes_sent,
        m.bytes_recv,
        m.payload_sent,
        m.payload_recv,
        m.inter_bytes_sent,
        m.enc_rounds,
        m.enc_bytes,
        m.dec_rounds,
        m.dec_bytes,
        m.copies,
        m.copy_bytes,
    )
}

/// One real-mode deterministic run of `c` among `members` (the whole
/// world when `None`), every participant verifying its output.
fn cell(cfg: &SimConfig, c: Collective, members: Option<&[usize]>, m: usize) -> (f64, Metrics) {
    let mut spec = cfg.world_spec(FaultPlan::default());
    // One run permit: a rank holds the CPU from a send to its next wait,
    // which makes most kernels' copy probe reproducible.
    spec.workers = Some(1);
    let report = run(&spec, move |ctx| {
        let out = match members {
            None => c.run(ctx, m),
            Some(g) if g.contains(&ctx.rank()) => c.run_group(ctx, g, m),
            Some(_) => return,
        };
        c.verify(ctx.rank(), &out, SEED);
    });
    (report.latency_us, report.max_metrics())
}

fn table() -> Vec<String> {
    const GROUP: [usize; 7] = [0, 1, 3, 5, 6, 8, 11];
    let mut lines = Vec::new();
    for (p, nodes) in [(6usize, 2usize), (9, 3), (12, 3), (16, 8), (4, 4)] {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let mut cfg = SimConfig::deterministic(p, nodes, mapping, "noleland");
            cfg.data_seed = Some(SEED);
            for m in [1000usize, 4] {
                for c in collectives() {
                    if let Collective::Allgather(a) | Collective::Allgatherv(a) = c {
                        if !a.supports(p, nodes) {
                            continue;
                        }
                    }
                    let (lat, met) = cell(&cfg, c, None, m);
                    let label = format!("p{p}n{nodes} {mapping} m{m}");
                    lines.push(line(c, &label, lat, &met));
                    if p == 12 && runs_over_groups(c) {
                        let (lat, met) = cell(&cfg, c, Some(&GROUP), m);
                        let label = format!("p{p}n{nodes} {mapping} m{m} group7");
                        lines.push(line(c, &label, lat, &met));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn every_cell_matches_the_golden_table() {
    let actual = table();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let diffs: Vec<String> = actual
        .iter()
        .zip(golden.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(a, g)| a.as_str() != *g)
        .map(|(a, g)| format!("  golden:  {g}\n  current: {a}"))
        .collect();
    if !diffs.is_empty() || actual.len() != golden.len() {
        println!("{}", actual.join("\n"));
        panic!(
            "{} of {} cells differ from the golden table ({} golden lines):\n{}",
            diffs.len(),
            actual.len(),
            golden.len(),
            diffs.join("\n")
        );
    }
}
