//! Crash sweep: multi-crash recovery across every encrypted algorithm at
//! p = 6 over 2 nodes.
//!
//! `f = 1` sweeps every rank × several phase steps (crash-before,
//! crash-after-send, and a hard crash before the first send), one crash per
//! run — the original single-failure matrix. `f = 2` and `f = 3` sweep seed-derived crash *schedules* of f
//! distinct ranks; half the schedules arm their last crash inside the
//! first agreement instance (`at_epoch(1)`), half of those on the first
//! live coordinator after one of its sends (mid-broadcast), so the sweep
//! always exercises crashes that land mid-agreement, and those armed
//! crashes are required to fire.
//!
//! Each cell runs a crash-tolerant all-gather (`Collective::recover`) and
//! checks the survivor contract: zero hangs, all survivors agree on one
//! failed set naming only real crashes, and every survivor returns the
//! byte-identical degraded output. A crash planned at a send step its
//! rank never reaches must leave a clean, complete run instead.
//!
//! Prints one markdown matrix per algorithm (`R` recovered, `·` no crash
//! fired, `X` contract violated) plus a summary table, and exits non-zero
//! on any violation. CI runs this with `--features chaos` for each
//! f ∈ {1, 2, 3}.
//!
//! Usage: `cargo run --release -p eag-integration --features chaos --bin crash_sweep [seed] [f]`
//! (the seed derives the f ≥ 2 schedules, so a sweep is replayed exactly
//! by rerunning with the same seed; f defaults to 1).

use eag_bench::harness::{crash_schedule_run, CrashRunReport};
use eag_bench::SimConfig;
use eag_core::{Algorithm, Collective};
use eag_integration::render_crash_markdown_table;
use eag_netsim::{splitmix64, Crash, Mapping};

const P: usize = 6;
const NODES: usize = 2;
const M: usize = 64;
/// Send steps the f=1 sweep crashes at (crash-before).
const STEPS: [u64; 3] = [0, 1, 2];
/// Crash schedules per algorithm in the f ≥ 2 sweeps.
const SCHEDULES: usize = 8;

fn variants(rank: usize) -> Vec<(Crash, String)> {
    let mut v: Vec<(Crash, String)> = STEPS
        .iter()
        .map(|&s| (Crash::before(rank, s), format!("b{s}")))
        .collect();
    // One after-send variant: the dying rank's final frame is delivered.
    v.push((Crash::after(rank, 0), "a0".to_string()));
    // One hard variant: the rank departs silently and is only suspected
    // after the grace period.
    v.push((Crash::before(rank, 0).hard(), "b0h".to_string()));
    v
}

/// The world every cell runs in.
fn config() -> SimConfig {
    SimConfig::deterministic(P, NODES, Mapping::Block, "noleland")
}

/// splitmix64 — the deterministic stream all f ≥ 2 schedules draw from.
fn splitmix(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

fn label(c: &Crash) -> String {
    format!(
        "{}{}@{}{}",
        if c.after_send { "a" } else { "b" },
        c.rank,
        c.phase_step,
        if c.epoch > 0 {
            format!("e{}", c.epoch)
        } else {
            String::new()
        }
    )
}

/// Builds the i-th crash schedule of `f` distinct ranks for one algorithm.
/// Odd-indexed schedules arm their last crash in epoch 1, inside the first
/// agreement instance, where every live rank sends at least once: to each
/// coordinator it does not know dead (one of them always survives its
/// round) or, as a coordinator, its replies. So that crash is guaranteed
/// to fire mid-agreement. Schedules 1, 5, … kill a random spared rank
/// before its first such send; schedules 3, 7, … kill the lowest spared
/// rank — the first live coordinator once the ranks below it have died —
/// after its first or second send, mid-broadcast.
fn schedule(state: &mut u64, f: usize, i: usize) -> Vec<Crash> {
    let mut ranks: Vec<usize> = (0..P).collect();
    let mut crashes = Vec::with_capacity(f);
    for k in 0..f {
        let in_agreement = k == f - 1 && i % 2 == 1;
        if in_agreement && i % 4 == 3 {
            let coordinator = *ranks.iter().min().expect("f < P");
            crashes.push(Crash::after(coordinator, splitmix(state) % 2).at_epoch(1));
            continue;
        }
        let j = (splitmix(state) as usize) % ranks.len();
        let rank = ranks.swap_remove(j);
        if in_agreement {
            crashes.push(Crash::before(rank, 0).at_epoch(1));
            continue;
        }
        let step = splitmix(state) % 3;
        let c = if splitmix(state) % 2 == 1 {
            Crash::after(rank, step)
        } else {
            Crash::before(rank, step)
        };
        crashes.push(c);
    }
    crashes
}

fn sweep_single(all: &mut Vec<CrashRunReport>) -> bool {
    let mut ok = true;
    for &algo in Algorithm::encrypted_all() {
        println!("### {algo}\n");
        println!(
            "| rank | {} |",
            variants(0)
                .iter()
                .map(|(_, l)| l.clone())
                .collect::<Vec<_>>()
                .join(" | ")
        );
        println!("|---|{}", "---|".repeat(variants(0).len()));
        for rank in 0..P {
            let mut cells = Vec::new();
            for (crash, _) in variants(rank) {
                let r = crash_schedule_run(&config(), Collective::Allgather(algo), M, vec![crash]);
                cells.push(match (r.ok(), r.fired) {
                    (true, true) => "R",
                    (true, false) => "·",
                    (false, _) => "X",
                });
                ok &= r.ok();
                all.push(r);
            }
            println!("| {rank} | {} |", cells.join(" | "));
        }
        println!();
    }
    ok
}

fn sweep_multi(seed: u64, f: usize, all: &mut Vec<CrashRunReport>) -> bool {
    let mut ok = true;
    for (algo_ix, &algo) in Algorithm::encrypted_all().iter().enumerate() {
        let mut state = seed ^ (algo_ix as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        println!("### {algo}\n");
        println!("| schedule | crashes | survivors | result |");
        println!("|---|---|---:|---|");
        for i in 0..SCHEDULES {
            let crashes = schedule(&mut state, f, i);
            let desc = crashes.iter().map(label).collect::<Vec<_>>().join(", ");
            let r = crash_schedule_run(&config(), Collective::Allgather(algo), M, crashes.clone());
            let mut cell = match (r.ok(), r.fired) {
                (true, true) => "R",
                (true, false) => "·",
                (false, _) => "X",
            };
            // An epoch-1 crash is armed inside the first agreement
            // instance, where every live rank sends: it must have fired.
            for c in crashes.iter().filter(|c| c.epoch > 0) {
                if !r.crashed.contains(&c.rank) {
                    cell = "X";
                    eprintln!(
                        "{algo} schedule {i}: agreement-round crash on rank {} never fired",
                        c.rank
                    );
                }
            }
            ok &= cell != "X";
            println!("| {i} | {desc} | {} | {cell} |", r.survivors);
            all.push(r);
        }
        println!();
    }
    ok
}

fn main() {
    // The happy path unwinds every fired crash through panic machinery;
    // keep the recovered ones out of the logs.
    eag_runtime::quiet_expected_panics();
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|a| {
            a.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| a.parse())
                .expect("seed is u64 (decimal or 0x-hex)")
        })
        .unwrap_or(0xC0FFEE);
    let f: usize = args
        .next()
        .map(|a| a.parse().expect("f is 1, 2, or 3"))
        .unwrap_or(1);
    assert!((1..=3).contains(&f), "fault bound f must be 1, 2, or 3");

    println!("# Crash sweep: p={P}, {NODES} nodes, m={M} B, f={f}, seed {seed:#x}\n");
    let mut all: Vec<CrashRunReport> = Vec::new();
    let ok = if f == 1 {
        sweep_single(&mut all)
    } else {
        sweep_multi(seed, f, &mut all)
    };

    println!("### summary\n");
    println!("{}", render_crash_markdown_table(&all));
    let fired = all.iter().filter(|r| r.fired).count();
    let recovered = all.iter().filter(|r| r.fired && r.ok()).count();
    println!(
        "{} — {recovered}/{fired} fired crashes recovered across {} runs\n",
        if ok { "all survived" } else { "FAILURES" },
        all.len()
    );
    if !ok {
        eprintln!("crash sweep found recovery-contract violations");
        std::process::exit(1);
    }
}
