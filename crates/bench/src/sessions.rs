//! The concurrent-sessions bench axis: service throughput and tail
//! latency versus the number of tenant sessions sharing the fabric.
//!
//! The paper benchmarks one collective owning the machine; the ROADMAP
//! north star is a *service* running many small encrypted collectives at
//! once. This module measures that axis deterministically so the exact
//! regression gate can bite on tail latencies:
//!
//! 1. Run the session's collective **once**, standalone and
//!    contention-free, on the virtual-time simulator — bit-deterministic
//!    latency plus, from the wiretap, the per-node inter-node egress
//!    demand.
//! 2. Push `sessions` copies of that demand through shared owner-scoped
//!    [`NodeNic`] ledgers (logical node `j` of session `k` lands on
//!    physical NIC `(j + k) % physical_nodes`, all sessions starting at
//!    virtual t = 0). A session completes when its own critical path is
//!    done *and* its last byte has cleared the shared NICs, so
//!    per-session completion times spread into the tail the moment the
//!    fabric saturates.
//!
//! Every step is pure `f64` arithmetic in a fixed order: the sweep is
//! bit-deterministic, scales to 10 000 sessions in milliseconds (ledger
//! math, not 10 000 world runs), and a single session reproduces its
//! standalone latency exactly — the contention model is calibrated to
//! vanish at N = 1.

use crate::harness::{run_verified, SimConfig};
use crate::stats::Stats;
use eag_core::{Algorithm, Collective};
use eag_netsim::nic::NodeNic;
use eag_netsim::{FaultPlan, Mapping};
use serde::{Deserialize, Serialize};

/// One point of the sessions axis: a session shape and how many of them
/// run concurrently.
#[derive(Debug, Clone)]
pub struct SessionCase {
    /// Algorithm every session runs.
    pub algo: Algorithm,
    /// Ranks per session.
    pub p: usize,
    /// Logical nodes per session.
    pub nodes: usize,
    /// Per-process message size in bytes.
    pub msg_bytes: usize,
    /// Concurrent sessions pushed through the shared fabric.
    pub sessions: usize,
    /// Physical nodes (NICs) the service spreads sessions over.
    pub physical_nodes: usize,
    /// Cluster profile name.
    pub profile: String,
}

/// One measured sessions-axis cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionEntry {
    /// Algorithm name as accepted by `Algorithm::by_name`.
    pub algorithm: String,
    /// Ranks per session.
    pub p: u64,
    /// Logical nodes per session.
    pub nodes: u64,
    /// Per-process message size in bytes.
    pub msg_bytes: u64,
    /// Concurrent sessions (part of the entry's identity).
    pub sessions: u64,
    /// Physical NICs sessions were spread over (identity).
    pub physical_nodes: u64,
    /// Latency of one session running alone, µs (the N = 1 anchor).
    pub standalone_latency_us: f64,
    /// Per-session completion-time distribution, µs (p50/p95/p99 are the
    /// tail the regression gate watches). The raw samples are not kept: at
    /// 10 000 sessions they would dominate the report, and the sweep is
    /// deterministic — re-running it reproduces them bit-exactly.
    pub latency: Stats,
    /// Service throughput: total inter-node wire bytes across all
    /// sessions divided by the makespan (B/µs ≡ MB/s).
    pub throughput_mb_per_s: f64,
}

impl SessionEntry {
    /// The cell's identity (algorithm, p, nodes, msg_bytes, sessions,
    /// physical_nodes) as a readable label: the key the regress gate joins
    /// on.
    pub fn label(&self) -> String {
        format!(
            "sessions {} p={} N={} {}B x{} nic{}",
            self.algorithm, self.p, self.nodes, self.msg_bytes, self.sessions, self.physical_nodes
        )
    }
}

/// Session counts of the smoke sweep: 1 → 10k, log-spaced.
pub const SMOKE_SESSION_COUNTS: [usize; 5] = [1, 10, 100, 1000, 10_000];

/// The fixed sessions-axis smoke sweep behind the committed baseline: two
/// small-collective shapes (a leader-routed and a concurrent algorithm),
/// each swept over [`SMOKE_SESSION_COUNTS`] concurrent sessions on a
/// 4-node physical fabric. Deterministic by construction.
pub fn smoke_session_suite() -> Vec<SessionCase> {
    let mut cases = Vec::new();
    for (algo, msg_bytes) in [(Algorithm::ORing, 1024), (Algorithm::CRing, 4096)] {
        for &sessions in &SMOKE_SESSION_COUNTS {
            cases.push(SessionCase {
                algo,
                p: 8,
                nodes: 2,
                msg_bytes,
                sessions,
                physical_nodes: 4,
                profile: "noleland".into(),
            });
        }
    }
    cases
}

/// Runs one sessions-axis cell. See the [module docs](self) for the model.
pub fn run_session_case(case: &SessionCase) -> SessionEntry {
    // Step 1: the standalone, contention-free reference run.
    let cfg = SimConfig::deterministic(case.p, case.nodes, Mapping::Block, &case.profile);
    let spec = cfg.world_spec(FaultPlan::default());
    let nic_bw = spec.profile.model.nic_bandwidth;
    let report = run_verified(&spec, Collective::Allgather(case.algo), case.msg_bytes);
    let standalone = report.latency_us;

    // Per-logical-node inter-node egress, from the wiretap.
    let mut egress = vec![0u64; case.nodes];
    for f in report.wiretap.frames() {
        egress[spec.topology.node_of(f.src)] += f.len as u64;
    }

    // Step 2: N sessions' demand through the shared owner-scoped ledgers.
    let physical = case.physical_nodes.max(1);
    let nics: Vec<NodeNic> = (0..physical).map(|_| NodeNic::new(nic_bw)).collect();
    let mut completions = Vec::with_capacity(case.sessions);
    for k in 0..case.sessions.max(1) {
        let owner = k as u64 + 1;
        let mut finish = standalone;
        for (j, &bytes) in egress.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let drain = nics[(j + k) % physical].reserve_for(owner, 0.0, bytes as usize);
            // After this session's last byte clears the shared NIC it
            // still owes the non-NIC remainder of its critical path
            // (compute, intra-node hops, latency terms). With an empty
            // ledger drain == occupancy, so N = 1 reproduces the
            // standalone latency exactly.
            let tail = if nic_bw.is_finite() {
                (standalone - bytes as f64 / nic_bw).max(0.0)
            } else {
                0.0
            };
            finish = finish.max(drain + tail);
        }
        completions.push(finish);
    }

    let stats = Stats::of(&completions);
    let per_session_bytes: u64 = egress.iter().sum();
    let total_bytes = per_session_bytes * case.sessions.max(1) as u64;
    let throughput = if stats.max > 0.0 {
        total_bytes as f64 / stats.max
    } else {
        0.0
    };
    SessionEntry {
        algorithm: case.algo.name().to_string(),
        p: case.p as u64,
        nodes: case.nodes as u64,
        msg_bytes: case.msg_bytes as u64,
        sessions: case.sessions as u64,
        physical_nodes: case.physical_nodes as u64,
        standalone_latency_us: standalone,
        latency: stats,
        throughput_mb_per_s: throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(sessions: usize) -> SessionCase {
        SessionCase {
            algo: Algorithm::ORing,
            p: 8,
            nodes: 2,
            msg_bytes: 1024,
            sessions,
            physical_nodes: 4,
            profile: "noleland".into(),
        }
    }

    #[test]
    fn single_session_reproduces_standalone_latency() {
        let e = run_session_case(&case(1));
        assert_eq!(e.latency.mean, e.standalone_latency_us);
        assert_eq!(e.latency.p99, e.standalone_latency_us);
        assert!(e.throughput_mb_per_s > 0.0);
    }

    #[test]
    fn contention_stretches_the_tail() {
        let one = run_session_case(&case(1));
        let many = run_session_case(&case(64));
        assert_eq!(many.standalone_latency_us, one.standalone_latency_us);
        // The fabric saturates: later sessions queue, so the p99 pulls
        // away from the median and both exceed the lone-session latency.
        assert!(many.latency.p99 > one.latency.p99);
        assert!(many.latency.p99 >= many.latency.median);
        assert!(many.latency.max >= many.latency.p99);
    }

    #[test]
    fn sweep_is_bit_deterministic() {
        let a = run_session_case(&case(32));
        let b = run_session_case(&case(32));
        assert_eq!(a, b);
    }

    #[test]
    fn smoke_session_suite_shape() {
        let cases = smoke_session_suite();
        assert_eq!(cases.len(), 2 * SMOKE_SESSION_COUNTS.len());
        assert!(cases.iter().all(|c| c.physical_nodes == 4));
        assert!(cases.iter().all(|c| c.profile == "noleland"));
        assert!(cases.iter().any(|c| c.sessions == 10_000));
    }
}
