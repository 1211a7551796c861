//! The experiment harness: the one way the tools turn a cluster
//! configuration into a verified virtual-time number.
//!
//! [`SimConfig`] names a world, [`SimConfig::world_spec`] builds it (the
//! fault-world policy is derived from the fault plan, never set by callers),
//! [`simulate`] runs one latency cell once, and [`crash_schedule_run`] runs
//! one crash-recovery experiment against its fault-free reference.

use eag_core::Collective;
use eag_netsim::{profile, ClusterProfile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{
    run, try_run, try_run_crashable, CipherSuite, CollectiveError, DataMode, Metrics, RetryPolicy,
    RunReport, WorldSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Data-pattern seed of the real-payload runs the harness makes on its own
/// account: crash recovery (survivor agreement seals actual failure bitmaps
/// and the degraded outputs verify bit-exact against the input patterns)
/// and the chaos runs, whose outputs are compared byte for byte.
pub const DATA_SEED: u64 = 7;

/// One simulated cluster configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub p: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Process mapping.
    pub mapping: Mapping,
    /// Cluster profile name (`noleland`, `bridges2`, `unit`, `free`).
    pub profile: String,
    /// Model per-node NIC bandwidth sharing.
    pub nic_contention: bool,
    /// Data-pattern seed for real-payload runs. `None` runs phantom mode
    /// (length-only payloads, the default for latency cells); `Some(seed)`
    /// runs real AEAD over seeded pattern blocks, which also arms the
    /// data-plane copy probe (`memcpy_bytes`/`buf_allocs`) — phantom runs
    /// move no payload bytes, so their probe reading is trivially zero.
    pub data_seed: Option<u64>,
    /// The AEAD cipher suite ranks seal under (performed in real mode,
    /// priced in phantom mode). Virtual latencies are suite-invariant —
    /// the cost model charges by byte count, and the 28-byte framing is
    /// shared — so only real-mode cells distinguish suites in reports.
    pub suite: CipherSuite,
}

impl SimConfig {
    /// One contention-free run of `p` ranks over `nodes` nodes: the
    /// bit-deterministic cell of `eag bench` (phantom payloads under the
    /// default suite; set `data_seed`/`suite` for a real-payload cell).
    pub fn deterministic(p: usize, nodes: usize, mapping: Mapping, profile: &str) -> Self {
        SimConfig {
            p,
            nodes,
            mapping,
            profile: profile.into(),
            nic_contention: false,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        }
    }

    /// The same cell with per-node NIC sharing modeled: concurrent
    /// inter-node streams of one node queue on its NIC. Such a run's latency
    /// depends on the wall-clock order in which ranks reach the NIC ledger,
    /// so it is not bit-reproducible.
    pub fn contended(p: usize, nodes: usize, mapping: Mapping, profile: &str) -> Self {
        SimConfig {
            nic_contention: true,
            ..SimConfig::deterministic(p, nodes, mapping, profile)
        }
    }

    /// The paper's Noleland setup: p = 128 over N = 8.
    pub fn noleland(mapping: Mapping) -> Self {
        SimConfig::contended(128, 8, mapping, "noleland")
    }

    /// The paper's non-power-of-two setup: p = 91 over N = 7.
    pub fn noleland_general(mapping: Mapping) -> Self {
        SimConfig::contended(91, 7, mapping, "noleland")
    }

    /// The paper's Bridges-2 setup: p = 1024 over N = 16, block mapping.
    pub fn bridges2() -> Self {
        SimConfig::contended(1024, 16, Mapping::Block, "bridges2")
    }

    /// Resolves the profile by name.
    pub fn cluster_profile(&self) -> ClusterProfile {
        profile::by_name(&self.profile)
            .unwrap_or_else(|| panic!("unknown profile {:?}", self.profile))
    }

    /// Builds the world of this configuration under `faults`. The timers
    /// of the fault world follow from the plan:
    ///
    /// * a plan that perturbs frames (any rate, `fault_nth_inter_frame` or
    ///   `armed`) retries after 20 ms × 1.5, up to 10 attempts: lost frames
    ///   are recovered by NACK and retransmission, which race these timers;
    /// * a crash-only plan retries after 5 s × 2, up to 3 attempts: crash
    ///   detection reads departure records and never needs the timer, and
    ///   a timer firing would perturb the virtual clock nondeterministically;
    /// * any armed plan gives up a blocking receive after 60 s;
    /// * a plan with a hard crash suspects a silent peer after 50 ms.
    ///
    /// Callers may still set the observation flags (`trace`,
    /// `capture_wire`) on the returned spec.
    pub fn world_spec(&self, faults: FaultPlan) -> WorldSpec {
        let mode = match self.data_seed {
            Some(seed) => DataMode::Real { seed },
            None => DataMode::Phantom,
        };
        let mut spec = WorldSpec::new(
            Topology::new(self.p, self.nodes, self.mapping),
            self.cluster_profile(),
            mode,
        );
        spec.nic_contention = self.nic_contention;
        spec.suite = self.suite;
        let perturbs_frames = FaultPlan {
            crashes: Vec::new(),
            ..faults.clone()
        }
        .enabled();
        if perturbs_frames {
            spec.retry = RetryPolicy {
                attempt_timeout: Duration::from_millis(20),
                max_attempts: 10,
                backoff: 1.5,
            };
        } else if !faults.crashes.is_empty() {
            spec.retry = RetryPolicy {
                attempt_timeout: Duration::from_secs(5),
                max_attempts: 3,
                backoff: 2.0,
            };
        }
        if faults.enabled() {
            spec.recv_timeout = Some(Duration::from_secs(60));
        }
        if faults.crashes.iter().any(|c| c.hard) {
            spec.suspect_after = Some(Duration::from_millis(50));
        }
        spec.faults = faults;
        spec
    }
}

/// Runs the collective `c` with nominal block size `m` once in `spec`;
/// every rank checks its output against the operation's postcondition
/// (origin tracking, and the pattern bytes in real mode).
pub fn run_verified(spec: &WorldSpec, c: Collective, m: usize) -> RunReport<()> {
    let seed = match spec.mode {
        DataMode::Real { seed } => seed,
        DataMode::Phantom => 0,
    };
    run(spec, move |ctx| {
        let out = c.run(ctx, m);
        c.verify(ctx.rank(), &out, seed);
    })
}

/// Simulates the collective `c` with nominal block size `m` under `cfg`
/// once, fault-free, and returns its virtual latency (µs) together with the
/// run's critical-path [`Metrics`].
pub fn simulate(cfg: &SimConfig, c: Collective, m: usize) -> (f64, Metrics) {
    let report = run_verified(&cfg.world_spec(FaultPlan::default()), c, m);
    (report.latency_us, report.max_metrics())
}

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
    /// Simulated latency of a fault-free run of the same crash-tolerant
    /// collective, µs.
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

/// Runs `Collective::recover` with nominal block size `m` under `cfg` twice
/// — fault-free, then under the planned crash schedule — and checks the
/// per-operation recovery contract (see [`CrashRunReport`]): every survivor
/// settles on the *identical* failed set — a subset of the ranks that
/// really crashed — and the outputs are uniform and verified. A crash whose
/// armed step its rank never reaches simply does not fire; with no fired
/// crash the run must complete cleanly at every rank.
///
/// Recovery needs real payloads: both runs use `cfg.data_seed`, or
/// [`DATA_SEED`] for a phantom configuration. Panics if the fault-free
/// reference fails.
pub fn crash_schedule_run(
    cfg: &SimConfig,
    c: Collective,
    m: usize,
    crashes: Vec<Crash>,
) -> CrashRunReport {
    // Every fired crash unwinds through panic machinery by design; keep the
    // expected unwinds out of the output.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(eag_runtime::quiet_expected_panics);

    let seed = cfg.data_seed.unwrap_or(DATA_SEED);
    let cfg = SimConfig {
        data_seed: Some(seed),
        ..cfg.clone()
    };
    let clean = try_run(&cfg.world_spec(FaultPlan::default()), move |ctx| {
        let out = c.recover(ctx, m);
        c.verify(ctx.rank(), &out.output, seed);
    })
    .unwrap_or_else(|e| panic!("{c}: fault-free reference failed: {e}"));

    let faults = FaultPlan {
        crashes: crashes.clone(),
        ..FaultPlan::default()
    };
    let report = match try_run_crashable(&cfg.world_spec(faults), move |ctx| c.recover(ctx, m)) {
        Ok(report) => report,
        Err(error) => {
            return CrashRunReport {
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
            }
        }
    };
    let sum = Metrics::component_sum(&report.metrics);
    let replicated = c.operation().is_replicated();
    let (mut agreed, mut uniform, mut verified) = (true, true, true);
    let mut canon: Option<Vec<u8>> = None;
    let mut decided: Option<Vec<usize>> = None;
    for (rank, out) in report.survivor_outputs() {
        match &decided {
            Some(d) => agreed &= &out.failed == d,
            None => decided = Some(out.failed.clone()),
        }
        agreed &= out.failed.iter().all(|r| report.crashed.contains(r));
        verified &= catch_unwind(AssertUnwindSafe(|| match c {
            // An all-gather ties `failed` to the output: every rank outside
            // it must be present and bit-exact.
            Collective::Allgather(_) | Collective::Allgatherv(_) => out.verify(seed),
            _ => {
                c.verify(rank, &out.output, seed);
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
        survivors: cfg.p - report.crashed.len(),
        crashed: report.crashed.clone(),
        crashes_detected: sum.crashes_detected,
        recoveries: sum.recoveries,
        clean_latency_us: clean.latency_us,
        latency_us: report.latency_us,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_core::Algorithm;

    fn ag(algo: Algorithm) -> Collective {
        Collective::Allgather(algo)
    }

    fn tiny(mapping: Mapping) -> SimConfig {
        SimConfig::contended(16, 4, mapping, "noleland")
    }

    #[test]
    fn simulate_produces_positive_latency() {
        let (latency, metrics) = simulate(&tiny(Mapping::Block), ag(Algorithm::Hs2), 1024);
        assert!(latency > 0.0);
        assert!(metrics.comm_rounds > 0);
    }

    #[test]
    fn all_algorithms_simulate_on_small_worlds() {
        let cfg = tiny(Mapping::Block);
        for &algo in Algorithm::all() {
            assert!(simulate(&cfg, ag(algo), 64).0 > 0.0, "{algo}");
        }
    }

    #[test]
    fn latency_grows_with_message_size() {
        let cfg = tiny(Mapping::Block);
        let small = simulate(&cfg, ag(Algorithm::CRing), 64).0;
        let large = simulate(&cfg, ag(Algorithm::CRing), 256 * 1024).0;
        assert!(large > small * 10.0);
    }

    #[test]
    fn recovery_costs_more_than_clean_and_reproduces_exactly() {
        let cfg = SimConfig::deterministic(16, 4, Mapping::Block, "noleland");
        let run =
            || crash_schedule_run(&cfg, ag(Algorithm::ORing), 1024, vec![Crash::before(0, 0)]);
        let (a, b) = (run(), run());
        assert!(a.fired && a.ok(), "{a:?}");
        // Bit-deterministic: the exact-compare regress gate depends on it.
        assert_eq!(a.clean_latency_us, b.clean_latency_us);
        assert_eq!(a.latency_us, b.latency_us);
        assert_eq!(a.survivors, cfg.p - 1);
        assert!(a.latency_us > a.clean_latency_us);
    }

    #[test]
    fn multi_crash_schedule_reproduces_exactly() {
        let cfg = SimConfig::deterministic(16, 4, Mapping::Block, "noleland");
        // Two epoch-0 crashes plus one armed inside the first agreement
        // instance: the hardest cell shape the committed baseline carries.
        let crashes = vec![
            Crash::before(0, 0),
            Crash::before(5, 1),
            Crash::before(9, 0).at_epoch(1),
        ];
        let run = || crash_schedule_run(&cfg, ag(Algorithm::OBruck), 1024, crashes.clone());
        let (a, b) = (run(), run());
        assert!(a.fired && a.ok(), "{a:?}");
        assert_eq!(a.clean_latency_us, b.clean_latency_us);
        assert_eq!(a.latency_us, b.latency_us);
        assert_eq!(a.survivors, b.survivors);
        assert!(a.survivors >= cfg.p - crashes.len());
        assert!(a.latency_us > a.clean_latency_us);
    }

    #[test]
    fn hard_crash_fires_and_recovers_within_the_grace() {
        // A hard crash departs silently: without the suspicion grace the
        // survivors would wait out the retry budget and time out.
        let cfg = SimConfig::deterministic(6, 2, Mapping::Block, "noleland");
        let crashes = vec![Crash::before(1, 0).hard()];
        let r = crash_schedule_run(&cfg, ag(Algorithm::ORing), 64, crashes);
        assert!(r.fired, "{r:?}");
        assert!(r.ok(), "{r:?}");
        assert_eq!(r.crashed, vec![1]);
    }

    #[test]
    fn deterministic_without_contention() {
        let cfg = SimConfig::deterministic(16, 4, Mapping::Block, "noleland");
        let first = simulate(&cfg, ag(Algorithm::ORd), 4096).0;
        for _ in 0..2 {
            assert_eq!(simulate(&cfg, ag(Algorithm::ORd), 4096).0, first);
        }
    }

    #[test]
    fn fault_world_policy_follows_the_plan() {
        let cfg = SimConfig::deterministic(4, 2, Mapping::Block, "free");
        let clean = cfg.world_spec(FaultPlan::default());
        assert_eq!(clean.retry, RetryPolicy::default());
        assert_eq!(clean.suspect_after, None);

        let chaos = cfg.world_spec(FaultPlan::drop_and_tamper(10, 10, 1));
        assert_eq!(chaos.retry.attempt_timeout, Duration::from_millis(20));
        assert_eq!(chaos.retry.max_attempts, 10);
        assert_eq!(chaos.recv_timeout, Some(Duration::from_secs(60)));

        let armed = cfg.world_spec(FaultPlan {
            armed: true,
            crashes: vec![Crash::before(0, 0)],
            ..FaultPlan::default()
        });
        assert_eq!(armed.retry.attempt_timeout, Duration::from_millis(20));

        let crash = cfg.world_spec(FaultPlan {
            crashes: vec![Crash::before(0, 0)],
            ..FaultPlan::default()
        });
        assert_eq!(crash.retry.attempt_timeout, Duration::from_secs(5));
        assert_eq!(crash.retry.max_attempts, 3);
        assert_eq!(crash.recv_timeout, Some(Duration::from_secs(60)));
        assert_eq!(crash.suspect_after, None);

        let hard = cfg.world_spec(FaultPlan {
            crashes: vec![Crash::before(0, 0).hard()],
            ..FaultPlan::default()
        });
        assert_eq!(hard.suspect_after, Some(Duration::from_millis(50)));
    }
}
