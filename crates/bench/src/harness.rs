//! The simulation driver: runs a collective in a phantom-payload world on a
//! calibrated cluster profile and reports the virtual latency.

use crate::stats::Stats;
use eag_core::Collective;
use eag_netsim::{profile, ClusterProfile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{run, run_crashable, CipherSuite, DataMode, RetryPolicy, WorldSpec};
use std::time::Duration;

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
    /// Repetitions per measurement (the paper averages 10 real runs; the
    /// simulator varies only through NIC-contention arrival order, so a few
    /// repetitions suffice).
    pub reps: usize,
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
            reps: 1,
            nic_contention: false,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        }
    }

    /// The paper's Noleland setup: p = 128 over N = 8.
    pub fn noleland(mapping: Mapping) -> Self {
        SimConfig {
            p: 128,
            nodes: 8,
            mapping,
            profile: "noleland".into(),
            reps: 3,
            nic_contention: true,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        }
    }

    /// The paper's non-power-of-two setup: p = 91 over N = 7.
    pub fn noleland_general(mapping: Mapping) -> Self {
        SimConfig {
            p: 91,
            nodes: 7,
            mapping,
            profile: "noleland".into(),
            reps: 3,
            nic_contention: true,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        }
    }

    /// The paper's Bridges-2 setup: p = 1024 over N = 16, block mapping.
    pub fn bridges2() -> Self {
        SimConfig {
            p: 1024,
            nodes: 16,
            mapping: Mapping::Block,
            profile: "bridges2".into(),
            reps: 2,
            nic_contention: true,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        }
    }

    /// Resolves the profile by name.
    pub fn cluster_profile(&self) -> ClusterProfile {
        profile::by_name(&self.profile)
            .unwrap_or_else(|| panic!("unknown profile {:?}", self.profile))
    }

    fn world_spec(&self) -> WorldSpec {
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
        spec
    }
}

/// Simulates the collective `c` with nominal block size `m` under `cfg`;
/// returns latency statistics over `cfg.reps` runs. Every run also checks
/// the operation's postcondition via origin tracking.
pub fn simulate(cfg: &SimConfig, c: Collective, m: usize) -> Stats {
    let samples: Vec<f64> = (0..cfg.reps.max(1))
        .map(|_| simulate_once(cfg, c, m).0)
        .collect();
    Stats::of(&samples)
}

/// Simulates `c` under `cfg` once and returns its virtual latency (µs)
/// together with the run's critical-path [`Metrics`].
///
/// [`Metrics`]: eag_runtime::Metrics
pub fn simulate_once(cfg: &SimConfig, c: Collective, m: usize) -> (f64, eag_runtime::Metrics) {
    let report = run(&cfg.world_spec(), move |ctx| {
        let out = c.run(ctx, m);
        debug_assert!(out.is_complete());
    });
    (report.latency_us, report.max_metrics())
}

/// Data-pattern seed for recovery measurements. Crash recovery needs real
/// payloads — survivor agreement seals actual failure bitmaps and the
/// degraded outputs are verified bit-exact against the input patterns —
/// unlike the phantom-mode latency paths above.
pub const RECOVERY_DATA_SEED: u64 = 7;

/// One crash-recovery measurement: the virtual latency of a fault-free
/// crash-tolerant all-gather versus the same collective surviving one
/// planned rank crash (detection + survivor agreement + shrink-and-recover
/// re-run over the survivors).
#[derive(Debug, Clone, Copy)]
pub struct RecoverySample {
    /// Virtual latency of the fault-free run, µs.
    pub clean_latency_us: f64,
    /// Virtual latency of the crashed run, µs (includes detection, the
    /// agreement rounds, and the degraded re-run).
    pub recovery_latency_us: f64,
    /// Ranks that survived and produced the degraded output.
    pub survivors: usize,
}

/// Builds the world for a recovery measurement. NIC contention is always
/// off and the NACK retry timer is pushed beyond any realistic wall-clock
/// run: retransmission races wall-clock timers against thread scheduling
/// and would perturb the virtual clock nondeterministically, while crash
/// detection itself is flag-based and never needs it. The resulting
/// latencies are bit-deterministic and safe for an exact-compare gate.
fn recovery_spec(cfg: &SimConfig, crashes: Vec<Crash>) -> WorldSpec {
    let mut spec = WorldSpec::new(
        Topology::new(cfg.p, cfg.nodes, cfg.mapping),
        cfg.cluster_profile(),
        DataMode::Real {
            seed: RECOVERY_DATA_SEED,
        },
    );
    spec.nic_contention = false;
    spec.suite = cfg.suite;
    spec.faults = FaultPlan {
        crashes,
        ..FaultPlan::default()
    };
    spec.retry = RetryPolicy {
        attempt_timeout: Duration::from_secs(5),
        max_attempts: 3,
        backoff: 2.0,
    };
    spec.recv_timeout = Some(Duration::from_secs(60));
    spec
}

/// Measures the collective `c` surviving the planned crash *schedule* — up
/// to `crashes.len()` ranks dying at their armed epochs and send steps —
/// against a fault-free reference of the same crash-tolerant collective,
/// verified per-role (the rooted and personalized operations have
/// rank-dependent outputs). Panics if no planned crash fires at all (the
/// sample would silently measure a clean run) or if any survivor's degraded
/// output fails verification.
pub fn simulate_recovery_schedule(
    cfg: &SimConfig,
    c: Collective,
    m: usize,
    crashes: &[Crash],
) -> RecoverySample {
    // Every fired crash unwinds through panic machinery by design; keep the
    // expected unwinds out of bench output.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(eag_runtime::quiet_expected_panics);

    let clean = run(&recovery_spec(cfg, Vec::new()), move |ctx| {
        let out = c.recover(ctx, m);
        c.verify(ctx.rank(), &out.output, RECOVERY_DATA_SEED);
    });
    let report = run_crashable(&recovery_spec(cfg, crashes.to_vec()), move |ctx| {
        let out = c.recover(ctx, m);
        c.verify(ctx.rank(), &out.output, RECOVERY_DATA_SEED);
        out
    });
    assert!(
        !report.crashed.is_empty(),
        "{c}: no crash of the planned schedule {crashes:?} ever fired — \
         the recovery sample would measure a clean run"
    );
    RecoverySample {
        clean_latency_us: clean.latency_us,
        recovery_latency_us: report.latency_us,
        survivors: cfg.p - report.crashed.len(),
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
        SimConfig {
            p: 16,
            nodes: 4,
            mapping,
            profile: "noleland".into(),
            reps: 2,
            nic_contention: true,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        }
    }

    #[test]
    fn simulate_produces_positive_latency() {
        let s = simulate(&tiny(Mapping::Block), ag(Algorithm::Hs2), 1024);
        assert!(s.mean > 0.0);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn all_algorithms_simulate_on_small_worlds() {
        let cfg = tiny(Mapping::Block);
        for &algo in Algorithm::all() {
            let s = simulate(&cfg, ag(algo), 64);
            assert!(s.mean > 0.0, "{algo}");
        }
    }

    #[test]
    fn latency_grows_with_message_size() {
        let cfg = tiny(Mapping::Block);
        let small = simulate(&cfg, ag(Algorithm::CRing), 64);
        let large = simulate(&cfg, ag(Algorithm::CRing), 256 * 1024);
        assert!(large.mean > small.mean * 10.0);
    }

    #[test]
    fn recovery_costs_more_than_clean_and_reproduces_exactly() {
        let mut cfg = tiny(Mapping::Block);
        cfg.nic_contention = false;
        let a =
            simulate_recovery_schedule(&cfg, ag(Algorithm::ORing), 1024, &[Crash::before(0, 0)]);
        let b =
            simulate_recovery_schedule(&cfg, ag(Algorithm::ORing), 1024, &[Crash::before(0, 0)]);
        // Bit-deterministic: the exact-compare regress gate depends on it.
        assert_eq!(a.clean_latency_us, b.clean_latency_us);
        assert_eq!(a.recovery_latency_us, b.recovery_latency_us);
        assert_eq!(a.survivors, cfg.p - 1);
        assert!(a.recovery_latency_us > a.clean_latency_us);
    }

    #[test]
    fn multi_crash_schedule_reproduces_exactly() {
        let mut cfg = tiny(Mapping::Block);
        cfg.nic_contention = false;
        // Two epoch-0 crashes plus one armed inside the first agreement
        // instance: the hardest cell shape the committed baseline carries.
        let crashes = [
            Crash::before(0, 0),
            Crash::before(5, 1),
            Crash::before(9, 0).at_epoch(1),
        ];
        let a = simulate_recovery_schedule(&cfg, ag(Algorithm::OBruck), 1024, &crashes);
        let b = simulate_recovery_schedule(&cfg, ag(Algorithm::OBruck), 1024, &crashes);
        assert_eq!(a.clean_latency_us, b.clean_latency_us);
        assert_eq!(a.recovery_latency_us, b.recovery_latency_us);
        assert_eq!(a.survivors, b.survivors);
        assert!(a.survivors >= cfg.p - crashes.len());
        assert!(a.recovery_latency_us > a.clean_latency_us);
    }

    #[test]
    fn deterministic_without_contention() {
        let mut cfg = tiny(Mapping::Block);
        cfg.nic_contention = false;
        cfg.reps = 3;
        let s = simulate(&cfg, ag(Algorithm::ORd), 4096);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
    }
}
