//! # eag-integration — workspace-spanning tests and the chaos harness
//!
//! The crate's `[[test]]` targets (under the repository's `tests/`) exercise
//! correctness, security, metrics, bounds, and tracing across every crate.
//! The library itself hosts the **chaos harness**: helpers that run any
//! [`Collective`] under a deterministic [`FaultPlan`] and check that the
//! recovered result is byte-identical to a fault-free run of the same
//! collective.
//!
//! The `chaos_sweep` binary (gated behind the `chaos` cargo feature) sweeps
//! algorithms × fault kinds × seeds and renders the results as a markdown
//! table; CI runs it at a fixed seed.

#![deny(missing_docs)]

use eag_core::Collective;
use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{
    try_run, try_run_crashable, CollectiveError, DataMode, Metrics, RetryPolicy, WorldSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The data-pattern seed every chaos run uses (distinct from fault seeds).
pub const DATA_SEED: u64 = 7;

/// The outcome of one collective under fault injection, compared against a
/// fault-free reference run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The collective exercised.
    pub collective: Collective,
    /// The collective completed and every rank's delivered bytes are
    /// identical to the fault-free reference.
    pub byte_identical: bool,
    /// The structured failure, if the collective aborted.
    pub error: Option<CollectiveError>,
    /// Faults injected, summed over ranks.
    pub faults_injected: u64,
    /// Corrupted/missing frames detected on arrival, summed over ranks.
    pub faults_detected: u64,
    /// Recovery actions (NACKs + retransmissions), summed over ranks.
    pub retries: u64,
    /// Duplicate frames discarded by sequence-number dedup, summed.
    pub dup_frames_dropped: u64,
    /// Wire bytes retransmitted (excluded from the Table II columns).
    pub retransmit_bytes: u64,
    /// Simulated latency of the faulted run, µs (faults do not perturb the
    /// virtual-time model except for injected delays).
    pub latency_us: f64,
}

/// Builds the world spec used by chaos runs: `p` ranks over `nodes` nodes,
/// real data, the free-cost profile (chaos is about wall-clock recovery,
/// not virtual-time pricing).
pub fn chaos_spec(p: usize, nodes: usize, plan: FaultPlan) -> WorldSpec {
    let mut spec = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::free(),
        DataMode::Real { seed: DATA_SEED },
    );
    spec.faults = plan;
    spec.retry = RetryPolicy {
        attempt_timeout: Duration::from_millis(20),
        max_attempts: 10,
        backoff: 1.5,
    };
    spec.recv_timeout = Some(Duration::from_secs(60));
    spec
}

/// Runs the collective `c` under `plan` and compares every rank's
/// delivered blocks byte-for-byte against a fault-free run of the same
/// collective on the same inputs (each rank compares only the slots its
/// role delivers).
pub fn chaos_run(c: Collective, p: usize, nodes: usize, m: usize, plan: FaultPlan) -> ChaosReport {
    let deliver = move |ctx: &mut eag_runtime::ProcCtx| {
        let out = c.run(ctx, m);
        c.verify(ctx.rank(), &out, DATA_SEED);
        // Sparse outputs are legal (gather delivers only at the root,
        // scatter only the own slot): collect whatever this role holds.
        (0..out.p())
            .filter_map(|r| out.get(r).map(|b| (r, b.data.to_vec())))
            .collect::<Vec<_>>()
    };
    let clean = try_run(&chaos_spec(p, nodes, FaultPlan::default()), deliver)
        .unwrap_or_else(|e| panic!("{c}: fault-free reference failed: {e}"));
    match try_run(&chaos_spec(p, nodes, plan), deliver) {
        Ok(report) => {
            let sum = Metrics::component_sum(&report.metrics);
            ChaosReport {
                collective: c,
                byte_identical: report.outputs == clean.outputs,
                error: None,
                faults_injected: sum.faults_injected,
                faults_detected: sum.faults_detected,
                retries: sum.retries(),
                dup_frames_dropped: sum.dup_frames_dropped,
                retransmit_bytes: sum.retransmit_bytes,
                latency_us: report.latency_us,
            }
        }
        Err(error) => ChaosReport {
            collective: c,
            byte_identical: false,
            error: Some(error),
            faults_injected: 0,
            faults_detected: 0,
            retries: 0,
            dup_frames_dropped: 0,
            retransmit_bytes: 0,
            latency_us: 0.0,
        },
    }
}

// ----- crash recovery harness -------------------------------------------

/// The outcome of one crash-tolerant collective (any operation) under an
/// injected crash schedule, checked against the operation's uniformity
/// contract: replicated operations must yield the byte-identical degraded
/// output at every survivor; rooted and personalized operations must agree
/// on the canonical *header* (failed set + epochs) while each survivor's
/// own output verifies bit-exact for its role.
#[derive(Debug, Clone)]
pub struct CrashRunReport {
    /// The collective exercised.
    pub collective: Collective,
    /// The injected crash schedule (see `FaultPlan::crashes`).
    pub crashes: Vec<Crash>,
    /// At least one planned crash actually fired (its target rank reached
    /// the armed send step in the armed membership epoch).
    pub fired: bool,
    /// Every survivor converged on the *identical* failed set, and that
    /// set only names ranks that really crashed. The decided set may be a
    /// strict subset of the crashed ranks: a victim that dies after the
    /// deciding agreement (or after contributing its block) is attributed
    /// like a post-collective death and stays out of the decision.
    pub agreed: bool,
    /// The per-operation uniformity contract held (canonical bytes for
    /// replicated operations, canonical header otherwise).
    pub uniform: bool,
    /// Every survivor's output verified bit-exact for its role.
    pub verified: bool,
    /// Number of surviving ranks.
    pub survivors: usize,
    /// The ranks that actually died during the run, ascending.
    pub crashed: Vec<usize>,
    /// Crash detections, summed over ranks (a cascade detects many times).
    pub crashes_detected: u64,
    /// Completed shrink-and-recover re-runs, summed over ranks.
    pub recoveries: u64,
    /// Simulated latency of a fault-free run of the same collective, µs.
    pub clean_latency_us: f64,
    /// Simulated latency of the crashed run (detection + agreement +
    /// degraded re-run), µs.
    pub latency_us: f64,
    /// The structured failure, if the world aborted instead of recovering.
    pub error: Option<CollectiveError>,
}

impl CrashRunReport {
    /// True when the run upheld the full per-operation recovery contract.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.agreed && self.uniform && self.verified
    }
}

/// Builds the world spec used by crash runs. Unlike [`chaos_spec`] this
/// prices virtual time (the noleland profile) so the recovery-latency
/// figures are meaningful, and arms exactly the planned crash schedule.
pub fn crash_schedule_spec(p: usize, nodes: usize, crashes: Vec<Crash>) -> WorldSpec {
    let mut spec = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed: DATA_SEED },
    );
    spec.faults = FaultPlan {
        crashes,
        ..FaultPlan::default()
    };
    spec.retry = RetryPolicy {
        attempt_timeout: Duration::from_millis(20),
        max_attempts: 10,
        backoff: 1.5,
    };
    spec.recv_timeout = Some(Duration::from_secs(60));
    spec
}

/// Single-crash convenience wrapper over [`crash_schedule_spec`].
pub fn crash_spec(p: usize, nodes: usize, crash: Crash) -> WorldSpec {
    crash_schedule_spec(p, nodes, vec![crash])
}

/// Runs `Collective::recover` under an injected crash schedule and checks
/// the per-operation recovery contract (see [`CrashRunReport`]): every
/// survivor settles on the *identical* failed set — a subset of the ranks
/// that really crashed — and the outputs are uniform and verified. A crash
/// whose armed step its rank never reaches simply does not fire; with no
/// fired crash the run must complete cleanly at every rank.
pub fn crash_schedule_run(
    c: Collective,
    p: usize,
    nodes: usize,
    m: usize,
    crashes: Vec<Crash>,
) -> CrashRunReport {
    let clean = try_run(&crash_schedule_spec(p, nodes, Vec::new()), move |ctx| {
        let out = c.run(ctx, m);
        c.verify(ctx.rank(), &out, DATA_SEED);
    })
    .unwrap_or_else(|e| panic!("{c}: fault-free reference failed: {e}"));

    let spec = crash_schedule_spec(p, nodes, crashes.clone());
    match try_run_crashable(&spec, move |ctx| c.recover(ctx, m)) {
        Ok(report) => {
            let sum = Metrics::component_sum(&report.metrics);
            let replicated = c.operation().is_replicated();
            let mut agreed = true;
            let mut uniform = true;
            let mut verified = true;
            let mut canon: Option<Vec<u8>> = None;
            let mut decided: Option<Vec<usize>> = None;
            for (rank, out) in report.survivor_outputs() {
                match &decided {
                    Some(d) => agreed &= &out.failed == d,
                    None => decided = Some(out.failed.clone()),
                }
                agreed &= out.failed.iter().all(|r| report.crashed.contains(r));
                verified &= catch_unwind(AssertUnwindSafe(|| match c {
                    // An all-gather ties `failed` to the output: every rank
                    // outside it must be present and bit-exact.
                    Collective::Allgather(_) | Collective::Allgatherv(_) => out.verify(DATA_SEED),
                    _ => {
                        c.verify(rank, &out.output, DATA_SEED);
                        assert!(out.failed.iter().all(|&f| out.output.get(f).is_none()));
                    }
                }))
                .is_ok();
                let bytes = if replicated {
                    out.canonical_bytes()
                } else {
                    out.canonical_header()
                };
                match &canon {
                    Some(cb) => uniform &= cb == &bytes,
                    None => canon = Some(bytes),
                }
            }
            CrashRunReport {
                collective: c,
                crashes,
                fired: !report.crashed.is_empty(),
                agreed,
                uniform,
                verified,
                survivors: p - report.crashed.len(),
                crashed: report.crashed.clone(),
                crashes_detected: sum.crashes_detected,
                recoveries: sum.recoveries,
                clean_latency_us: clean.latency_us,
                latency_us: report.latency_us,
                error: None,
            }
        }
        Err(error) => CrashRunReport {
            collective: c,
            crashes,
            fired: false,
            agreed: false,
            uniform: false,
            verified: false,
            survivors: 0,
            crashed: Vec::new(),
            crashes_detected: 0,
            recoveries: 0,
            clean_latency_us: clean.latency_us,
            latency_us: 0.0,
            error: Some(error),
        },
    }
}

/// Single-crash convenience wrapper over [`crash_schedule_run`].
pub fn crash_run(c: Collective, p: usize, nodes: usize, m: usize, crash: Crash) -> CrashRunReport {
    crash_schedule_run(c, p, nodes, m, vec![crash])
}

/// Renders crash-run reports as a per-variant summary table: how many
/// planned crashes fired, how many recovered correctly, and the mean
/// recovery-latency overhead versus the fault-free run (fired runs only).
pub fn render_crash_markdown_table(rows: &[CrashRunReport]) -> String {
    let mut out = String::from(
        "| algorithm | runs | fired | recovered | mean recovery latency vs clean |\n\
         |---|---:|---:|---:|---:|\n",
    );
    let mut collectives: Vec<Collective> = Vec::new();
    for r in rows {
        if !collectives.contains(&r.collective) {
            collectives.push(r.collective);
        }
    }
    for c in collectives {
        let runs: Vec<&CrashRunReport> = rows.iter().filter(|r| r.collective == c).collect();
        let fired: Vec<&&CrashRunReport> = runs.iter().filter(|r| r.fired).collect();
        let recovered = fired.iter().filter(|r| r.ok()).count();
        let ratio = if fired.is_empty() {
            "—".to_string()
        } else {
            let mean: f64 = fired
                .iter()
                .map(|r| r.latency_us / r.clean_latency_us)
                .sum::<f64>()
                / fired.len() as f64;
            format!("{mean:.2}x")
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            c.variant_name(),
            runs.len(),
            fired.len(),
            recovered,
            ratio,
        ));
    }
    out
}

/// Renders chaos reports as a GitHub-flavored markdown table (the format
/// embedded in `EXPERIMENTS.md`).
pub fn render_markdown_table(rows: &[ChaosReport]) -> String {
    let mut out = String::from(
        "| algorithm | recovered | injected | detected | retries | dup dropped |\n\
         |---|---|---:|---:|---:|---:|\n",
    );
    for r in rows {
        let verdict = if r.byte_identical {
            "byte-identical".to_string()
        } else if let Some(e) = &r.error {
            format!("failed: {}", e.cause)
        } else {
            "WRONG BYTES".to_string()
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.collective.variant_name(),
            verdict,
            r.faults_injected,
            r.faults_detected,
            r.retries,
            r.dup_frames_dropped,
        ));
    }
    out
}
