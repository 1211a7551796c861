//! # eag-integration — workspace-spanning tests and the chaos harness
//!
//! The crate's `[[test]]` targets (under the repository's `tests/`) exercise
//! correctness, security, metrics, bounds, and tracing across every crate.
//! The library itself hosts the **chaos harness**: [`chaos_run`] runs any
//! [`Collective`] under a deterministic [`FaultPlan`] and checks that the
//! recovered result is byte-identical to a fault-free run of the same
//! collective. [`frame_ids`] lists the frames a fault can name, and
//! [`first_unrecovered`] runs one collective, or several back to back,
//! under each of many listed fault placements. Crash recovery runs through
//! [`eag_bench::harness::crash_schedule_run`], like the bench cells.
//!
//! The `chaos_sweep` and `crash_sweep` binaries (gated behind the `chaos`
//! cargo feature) sweep algorithms × fault kinds × seeds and algorithms ×
//! crash schedules, and render the results as markdown tables with the
//! render functions here; CI runs them at a fixed seed.

#![deny(missing_docs)]

use eag_bench::harness::{CrashRunReport, DATA_SEED};
use eag_bench::SimConfig;
use eag_core::Collective;
use eag_netsim::{FaultKind, FaultPlan, FrameId, Mapping};
use eag_runtime::{try_run, CollectiveError, Metrics, RunReport, WorldSpec};

/// The outcome of one collective under fault injection, compared against a
/// fault-free reference run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The collective exercised (the first, of several run back to back).
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

impl ChaosReport {
    /// One-phrase outcome: `byte-identical`, `failed: <cause>` or
    /// `WRONG BYTES`.
    pub fn verdict(&self) -> String {
        if self.byte_identical {
            "byte-identical".to_string()
        } else if let Some(e) = &self.error {
            format!("failed: {}", e.cause)
        } else {
            "WRONG BYTES".to_string()
        }
    }
}

/// The world chaos runs use: `p` ranks over `nodes` nodes, block mapping,
/// real data at [`DATA_SEED`], the free-cost profile (chaos is about
/// wall-clock recovery, not virtual-time pricing).
pub fn chaos_config(p: usize, nodes: usize) -> SimConfig {
    SimConfig {
        data_seed: Some(DATA_SEED),
        ..SimConfig::deterministic(p, nodes, Mapping::Block, "free")
    }
}

/// Every rank's delivered `(slot, bytes)` pairs.
type Delivered = Vec<(usize, Vec<u8>)>;

/// One run of the collectives `cs`, back to back, in `spec` (a
/// [`chaos_config`] world); each rank verifies every output and returns
/// the slots its role delivers, in order (sparse outputs are legal: gather
/// delivers only at the root, scatter only the own slot).
fn delivered(
    cs: &[Collective],
    m: usize,
    spec: &WorldSpec,
) -> Result<RunReport<Delivered>, CollectiveError> {
    try_run(spec, move |ctx| {
        let mut got = Vec::new();
        for &c in cs {
            let out = c.run(ctx, m);
            c.verify(ctx.rank(), &out, DATA_SEED);
            got.extend((0..out.p()).filter_map(|r| out.get(r).map(|b| (r, b.data.to_vec()))));
        }
        got
    })
}

/// The fault-free reference run of `cs`.
fn clean_run(cs: &[Collective], p: usize, nodes: usize, m: usize) -> Vec<Delivered> {
    let spec = chaos_config(p, nodes).world_spec(FaultPlan::default());
    delivered(cs, m, &spec)
        .unwrap_or_else(|e| panic!("{cs:?}: fault-free reference failed: {e}"))
        .outputs
}

/// Grades a faulted run against the fault-free `clean` outputs.
fn grade(
    c: Collective,
    clean: &[Delivered],
    faulted: Result<RunReport<Delivered>, CollectiveError>,
) -> ChaosReport {
    match faulted {
        Ok(report) => {
            let sum = Metrics::component_sum(&report.metrics);
            ChaosReport {
                collective: c,
                byte_identical: report.outputs == clean,
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

/// Runs the collective `c` under `plan` and compares every rank's
/// delivered blocks byte-for-byte against a fault-free run of the same
/// collective on the same inputs (each rank compares only the slots its
/// role delivers).
pub fn chaos_run(c: Collective, p: usize, nodes: usize, m: usize, plan: FaultPlan) -> ChaosReport {
    let clean = clean_run(&[c], p, nodes, m);
    let spec = chaos_config(p, nodes).world_spec(plan);
    grade(c, &clean, delivered(&[c], m, &spec))
}

/// The identity of every inter-node frame of an armed, fault-free run of
/// `c` in [`chaos_config`]`(p, nodes)`, sorted: every frame a listed fault
/// can name. Identities do not depend on thread order, so every run gives
/// the same list.
pub fn frame_ids(c: Collective, p: usize, nodes: usize, m: usize) -> Vec<FrameId> {
    let armed = FaultPlan {
        armed: true,
        ..FaultPlan::default()
    };
    let mut spec = chaos_config(p, nodes).world_spec(armed);
    spec.capture_wire = true;
    let report = delivered(&[c], m, &spec)
        .unwrap_or_else(|e| panic!("{c}: armed fault-free run failed: {e}"));
    let frames = report.wiretap.frames();
    let mut ids: Vec<FrameId> = frames
        .iter()
        .map(|f| FrameId {
            src: f.src,
            dst: f.dst,
            tag: f.tag,
            seq: f.seq,
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Runs the collectives `cs`, back to back, in an armed world once per
/// placement (a list of faults on distinct frames) and returns the first
/// placement that is not recovered — delivered bytes that differ from the
/// fault-free run, or an injected fault count other than the placement's
/// length — with its report. Stops there: an unrecovered placement can
/// wait out the whole retry budget, so running on would only multiply
/// that wait. [`frame_ids`] of `cs[0]` names frames of the first
/// collective of the sequence too: both run in the world's first
/// collective epoch.
pub fn first_unrecovered(
    cs: &[Collective],
    p: usize,
    nodes: usize,
    m: usize,
    placements: impl IntoIterator<Item = Vec<(FrameId, FaultKind)>>,
) -> Option<(Vec<(FrameId, FaultKind)>, ChaosReport)> {
    let clean = clean_run(cs, p, nodes, m);
    placements.into_iter().find_map(|listed| {
        let plan = FaultPlan {
            armed: true,
            listed: listed.clone(),
            ..FaultPlan::default()
        };
        let spec = chaos_config(p, nodes).world_spec(plan);
        let r = grade(cs[0], &clean, delivered(cs, m, &spec));
        let recovered = r.byte_identical && r.faults_injected == listed.len() as u64;
        (!recovered).then_some((listed, r))
    })
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
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.collective.variant_name(),
            r.verdict(),
            r.faults_injected,
            r.faults_detected,
            r.retries,
            r.dup_frames_dropped,
        ));
    }
    out
}
