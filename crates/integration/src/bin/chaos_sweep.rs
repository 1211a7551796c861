//! Chaos sweep: every encrypted algorithm × every fault kind × a set of
//! seeds, plus the canonical drop+tamper mix, at p = 16 over 8 nodes.
//!
//! Prints one markdown table per configuration and exits non-zero if any
//! cell is not byte-identical to its fault-free reference. CI runs this at
//! a fixed seed (`--features chaos`).
//!
//! Usage: `cargo run --release -p eag-integration --features chaos --bin chaos_sweep [seeds...]`

use eag_core::{Algorithm, Collective};
use eag_integration::{chaos_run, render_markdown_table, ChaosReport};
use eag_netsim::{FaultKind, FaultPlan};

const P: usize = 16;
const NODES: usize = 8;
const M: usize = 128;
/// Per-kind injection rate for the single-kind sweeps, ‰.
const PERMILLE: u16 = 20;

fn sweep(label: &str, plan: FaultPlan) -> (Vec<ChaosReport>, bool) {
    let rows: Vec<ChaosReport> = Algorithm::encrypted_all()
        .iter()
        .map(|&algo| chaos_run(Collective::Allgather(algo), P, NODES, M, plan.clone()))
        .collect();
    let all_ok = rows.iter().all(|r| r.byte_identical);
    let injected: u64 = rows.iter().map(|r| r.faults_injected).sum();
    println!("### {label}\n");
    println!("{}", render_markdown_table(&rows));
    println!(
        "{} — {} faults injected across {} algorithms\n",
        if all_ok { "all recovered" } else { "FAILURES" },
        injected,
        rows.len()
    );
    (rows, all_ok)
}

/// Wall-clock cost of the reliability framing itself: runs every encrypted
/// algorithm with framing armed at zero fault rates vs. fully disabled and
/// reports the overhead on the best-of-`reps` totals. With the plan fully
/// disabled the framing code is bypassed entirely (zero overhead); the
/// armed-at-zero figure is the stricter bound, dominated by fixed per-run
/// costs at small m and amortized away at larger blocks.
fn framing_overhead(reps: u32) {
    println!("### framing overhead (faults disabled)\n");
    for m in [M, 16 * 1024] {
        let time_all = |plan: FaultPlan| -> std::time::Duration {
            (0..reps)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for &algo in Algorithm::encrypted_all() {
                        let r = chaos_run(Collective::Allgather(algo), P, NODES, m, plan.clone());
                        assert!(r.byte_identical, "{algo} diverged with no faults");
                    }
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let disabled = time_all(FaultPlan::default());
        let armed = time_all(FaultPlan {
            armed: true,
            ..FaultPlan::default()
        });
        let pct = 100.0 * (armed.as_secs_f64() / disabled.as_secs_f64() - 1.0);
        println!(
            "m = {m} B: armed-at-zero-rates {:.1} ms vs disabled {:.1} ms over {} encrypted algorithms: {pct:+.1}%",
            armed.as_secs_f64() * 1e3,
            disabled.as_secs_f64() * 1e3,
            Algorithm::encrypted_all().len()
        );
    }
    println!();
}

fn main() {
    let seeds: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| {
            a.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| a.parse())
                .expect("seeds are u64 (decimal or 0x-hex)")
        })
        .collect();
    let seeds = if seeds.is_empty() {
        vec![0xC0FFEE]
    } else {
        seeds
    };

    println!("# Chaos sweep: p={P}, {NODES} nodes, m={M} B\n");
    let mut ok = true;
    for &seed in &seeds {
        println!("## seed {seed:#x}\n");
        for &kind in FaultKind::all() {
            let (_, all_ok) = sweep(
                &format!("{} at {PERMILLE}‰", kind.label()),
                FaultPlan::only(kind, PERMILLE, seed),
            );
            ok &= all_ok;
        }
        let (_, all_ok) = sweep(
            "drop 10‰ + tamper 10‰ (canonical mix)",
            FaultPlan::drop_and_tamper(10, 10, seed),
        );
        ok &= all_ok;
        let mut adv = FaultPlan::only(FaultKind::Tamper, PERMILLE, seed);
        adv.adversarial_tamper = true;
        let (_, all_ok) = sweep("adversarial tamper at 20‰ (checksum-evading)", adv);
        ok &= all_ok;
    }
    framing_overhead(9);
    if !ok {
        eprintln!("chaos sweep found unrecovered faults");
        std::process::exit(1);
    }
}
