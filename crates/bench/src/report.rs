//! Machine-readable benchmark reports.
//!
//! Everything the human-readable tables print — per-configuration latency
//! statistics, the six per-algorithm cost metrics of the paper's Table II,
//! and (optionally) real wall-clock crypto throughput — serialized into a
//! stable, versioned JSON schema (`BENCH_<profile>.json`) that the
//! [`regress`](crate::regress) gate and CI can consume.
//!
//! The committed baseline is produced by [`run_smoke_suite`], which runs a
//! fixed-seed, contention-free suite: on the virtual-time simulator such
//! runs are *bit-deterministic* (pure `f64` arithmetic, no wall clock, no
//! arrival-order races), so the serialized report is byte-identical across
//! machines and re-runs. Wall-clock crypto probes are inherently noisy and
//! therefore excluded from the deterministic suite; attach them explicitly
//! via [`BenchReport::with_crypto`] when measuring, and never commit them
//! into a gating baseline.

use crate::harness::{simulate_recovery_schedule, simulate_samples, SimConfig};
use crate::sessions::{run_session_case, smoke_session_suite, SessionCase, SessionEntry};
use crate::stats::Stats;
use eag_core::{Algorithm, AlltoallAlgo, BcastAlgo, Collective};
use eag_netsim::{Crash, Mapping};
use eag_runtime::{CipherSuite, Metrics};
use serde::{Deserialize, Serialize};

/// Version of the JSON schema emitted by [`BenchReport`]. Bump on any
/// breaking change to the field layout; [`BenchReport::from_json`] rejects
/// mismatched versions instead of misreading them.
///
/// v7: entries and recovery cells carry an `operation` field (the collective
/// operation the cell measured — `allgather`, `bcast`, `alltoall`, …) which
/// joined the entry-identity key; `algorithm` now names the per-operation
/// variant.
pub const SCHEMA_VERSION: u64 = 7;

/// A complete benchmark report: one entry per (algorithm, configuration,
/// message size) plus optional wall-clock crypto throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Name of the suite that produced this report (e.g. `"smoke"`).
    pub suite: String,
    /// Cluster profile every entry ran on (e.g. `"noleland"`).
    pub profile: String,
    /// True when every entry is bit-deterministic (no NIC contention, no
    /// wall-clock probes): a regress gate against such a baseline expects
    /// *exact* reproduction, not just statistical agreement.
    pub deterministic: bool,
    /// One entry per benchmarked (algorithm, config, message size).
    pub entries: Vec<BenchEntry>,
    /// One entry per crash-recovery measurement: the survivor-path latency
    /// of shrink-and-recover under a planned rank crash. Always
    /// deterministic (flag-based detection, no NACK timers, no contention),
    /// so the regress gate compares these exactly.
    pub recovery: Vec<RecoveryEntry>,
    /// One entry per concurrent-sessions cell: service throughput and
    /// per-session tail latency (p95/p99) versus how many tenant sessions
    /// share the fabric (see [`crate::sessions`]). Deterministic by
    /// construction, so the regress gate compares the tails exactly.
    pub sessions: Vec<SessionEntry>,
    /// Real wall-clock AES-GCM throughput, if probed (`--probe`). Always
    /// `None` in committed baselines — wall-clock numbers are machine- and
    /// load-dependent.
    pub crypto: Option<CryptoProbe>,
}

/// One benchmarked (operation, variant, configuration, message size) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Collective operation name as accepted by `Operation::by_name`
    /// (e.g. `"allgather"`, `"bcast"`, `"alltoall"`). Part of the entry's
    /// identity: the same variant name can exist under several operations
    /// (`allgather/O-Ring` vs `allgatherv/O-Ring`).
    pub operation: String,
    /// Variant name within the operation, as accepted by
    /// `Collective::by_names` (e.g. `"O-Ring"`, `"binomial"`).
    pub algorithm: String,
    /// Number of processes.
    pub p: u64,
    /// Number of nodes.
    pub nodes: u64,
    /// Process-to-node mapping.
    pub mapping: Mapping,
    /// Per-process message size in bytes (the paper's `m`).
    pub msg_bytes: u64,
    /// Repetitions the latency statistics summarize.
    pub reps: u64,
    /// Whether per-node NIC bandwidth sharing was modeled (nondeterministic
    /// arrival order; always `false` in the deterministic smoke suite).
    pub nic_contention: bool,
    /// Virtual-time latency statistics over the repetitions.
    pub latency: LatencyStats,
    /// The paper's six cost metrics for this run (critical path over ranks).
    pub metrics: PaperMetrics,
    /// Data-pattern seed for real-payload cells; `None` for phantom-mode
    /// cells. Part of the entry's identity: the same (algorithm, p, nodes,
    /// mapping, msg_bytes) point exists in both modes.
    pub data_seed: Option<u64>,
    /// AEAD cipher suite the cell ran under, by canonical name
    /// (`CipherSuite::name`). Part of the entry's identity: real-payload
    /// smoke cells exist per suite at the same configuration point.
    pub cipher_suite: String,
    /// Data-plane allocation/copy probe (real-payload cells only — phantom
    /// runs move no payload bytes, so the probe would read zero).
    pub copy_probe: Option<CopyProbe>,
}

/// Deterministic data-plane cost of one real-payload cell: what the
/// implementation physically moved, as opposed to the modeled traffic in
/// [`PaperMetrics`]. Taken from the component-wise maximum over ranks, so
/// the numbers read as "per rank on the critical path, per run". Exact
/// counters on the virtual-time simulator, hence gated by exact comparison
/// in `eag regress` — a change here means the zero-copy story changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyProbe {
    /// Payload bytes physically memcpy'd by the data plane.
    pub memcpy_bytes: u64,
    /// Fresh payload byte buffers allocated by the data plane.
    pub buf_allocs: u64,
}

/// Latency summary plus the raw samples it was computed from, all in
/// microseconds of virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Sample standard deviation.
    pub std_dev_us: f64,
    /// Smallest sample.
    pub min_us: f64,
    /// Largest sample.
    pub max_us: f64,
    /// Median sample.
    pub median_us: f64,
    /// 95th percentile (nearest-rank).
    pub p95_us: f64,
    /// 99th percentile (nearest-rank; equals `max_us` for `n < 100`).
    pub p99_us: f64,
    /// Number of samples.
    pub n: u64,
    /// The raw samples, in run order — kept so a future reader can
    /// recompute any statistic without re-running the suite.
    pub samples_us: Vec<f64>,
}

impl LatencyStats {
    /// Builds the serializable summary from computed [`Stats`] and the raw
    /// samples they summarize.
    pub fn from_stats(stats: &Stats, samples: &[f64]) -> LatencyStats {
        LatencyStats {
            mean_us: stats.mean,
            std_dev_us: stats.std_dev,
            min_us: stats.min,
            max_us: stats.max,
            median_us: stats.median,
            p95_us: stats.p95,
            p99_us: stats.p99,
            n: stats.n as u64,
            samples_us: samples.to_vec(),
        }
    }

    /// Reconstructs [`Stats`] for comparison code (regress gate).
    pub fn to_stats(&self) -> Stats {
        Stats {
            mean: self.mean_us,
            std_dev: self.std_dev_us,
            min: self.min_us,
            max: self.max_us,
            median: self.median_us,
            p95: self.p95_us,
            p99: self.p99_us,
            n: self.n as usize,
        }
    }
}

/// The six cost metrics the paper's Table II derives per algorithm, taken
/// from the component-wise maximum over ranks (the per-metric critical
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperMetrics {
    /// Communication rounds (`r` in Table II).
    pub comm_rounds: u64,
    /// max(bytes sent, bytes received) excluding GCM framing (`sc`).
    pub sc_payload_bytes: u64,
    /// Encryption operations (`er`).
    pub enc_rounds: u64,
    /// Plaintext bytes encrypted (`ec`).
    pub enc_bytes: u64,
    /// Decryption operations (`dr`).
    pub dec_rounds: u64,
    /// Plaintext bytes recovered by decryption (`dc`).
    pub dec_bytes: u64,
}

impl PaperMetrics {
    /// Extracts the six paper metrics from a runtime [`Metrics`] record
    /// (normally `RunReport::max_metrics()`).
    pub fn of(m: &Metrics) -> PaperMetrics {
        PaperMetrics {
            comm_rounds: m.comm_rounds,
            sc_payload_bytes: m.sc_payload(),
            enc_rounds: m.enc_rounds,
            enc_bytes: m.enc_bytes,
            dec_rounds: m.dec_rounds,
            dec_bytes: m.dec_bytes,
        }
    }
}

/// One planned crash of a recovery cell's schedule, in serialized form.
/// Mirrors [`eag_netsim::Crash`] field-for-field so a baseline replays the
/// exact schedule it was measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// The rank that crashes.
    pub rank: u64,
    /// The peer-bound send step (within the arming epoch) that triggers it.
    pub step: u64,
    /// The membership epoch the crash is armed in (0 = initial attempt,
    /// e ≥ 1 = inside the e-th recovery iteration's agreement/re-run).
    pub epoch: u64,
    /// Die after the triggering frame left (`true`) or just before
    /// (`false`).
    pub after_send: bool,
    /// Hard crash: a silent departure, suspected by survivors after the
    /// grace period.
    pub hard: bool,
}

impl CrashPoint {
    /// Serialized form of one planned crash.
    pub fn of(c: &Crash) -> CrashPoint {
        CrashPoint {
            rank: c.rank as u64,
            step: c.phase_step,
            epoch: c.epoch,
            after_send: c.after_send,
            hard: c.hard,
        }
    }

    /// Reconstructs the runnable crash this point was serialized from.
    pub fn to_crash(self) -> Crash {
        let base = if self.after_send {
            Crash::after(self.rank as usize, self.step)
        } else {
            Crash::before(self.rank as usize, self.step)
        };
        let base = base.at_epoch(self.epoch);
        if self.hard {
            base.hard()
        } else {
            base
        }
    }
}

/// One crash-recovery latency cell: the virtual-time cost of surviving a
/// planned crash *schedule* — up to f ranks dying at their armed epochs
/// and send steps (failure detection, epoch-versioned survivor agreement,
/// and shrink-and-recover re-runs) — versus the fault-free run of the
/// same crash-tolerant collective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEntry {
    /// Collective operation name (part of the cell identity, like
    /// [`BenchEntry::operation`]).
    pub operation: String,
    /// Variant name within the operation, as accepted by
    /// `Collective::by_names`.
    pub algorithm: String,
    /// Number of processes before the crashes.
    pub p: u64,
    /// Number of nodes.
    pub nodes: u64,
    /// Process-to-node mapping.
    pub mapping: Mapping,
    /// Per-process message size in bytes.
    pub msg_bytes: u64,
    /// The planned crash schedule (f = `crashes.len()`), in arming order.
    pub crashes: Vec<CrashPoint>,
    /// Virtual latency of the fault-free run, µs.
    pub clean_latency_us: f64,
    /// Virtual latency of the crashed run (detection + agreement epochs +
    /// degraded re-runs), µs.
    pub recovery_latency_us: f64,
    /// Ranks that survived and produced the degraded output.
    pub survivors: u64,
}

/// Wall-clock AEAD throughput measured on this machine via the in-place
/// seal/open paths in `eag-crypto`, one point per (suite, message size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CryptoProbe {
    /// One point per probed (cipher suite, message size) pair.
    pub points: Vec<CryptoProbePoint>,
}

/// Throughput of one cipher suite at one message size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CryptoProbePoint {
    /// AEAD cipher suite probed, by canonical name.
    pub cipher_suite: String,
    /// Message size in bytes.
    pub msg_bytes: u64,
    /// Seal (encrypt+tag) throughput in MB/s (10^6 bytes per second).
    pub seal_mb_per_s: f64,
    /// Open (verify+decrypt) throughput in MB/s.
    pub open_mb_per_s: f64,
}

/// One benchmark case of a suite: a configuration, a collective
/// (operation × variant), and a message size.
#[derive(Debug, Clone)]
pub struct SuiteCase {
    /// Simulated cluster configuration.
    pub cfg: SimConfig,
    /// Collective under test (operation × algorithm variant).
    pub collective: Collective,
    /// Per-process message size in bytes.
    pub msg_bytes: usize,
}

/// One crash-recovery case of a suite: a configuration, a collective, a
/// message size, and the planned crash schedule.
#[derive(Debug, Clone)]
pub struct RecoveryCase {
    /// Simulated cluster configuration.
    pub cfg: SimConfig,
    /// Collective under test (operation × algorithm variant).
    pub collective: Collective,
    /// Per-process message size in bytes.
    pub msg_bytes: usize,
    /// The planned crash schedule (f = `crashes.len()`), in arming order.
    pub crashes: Vec<Crash>,
}

/// Message sizes exercised by the smoke suite (1 KiB and 64 KiB: one
/// latency-bound, one bandwidth-bound point).
pub const SMOKE_SIZES: [usize; 2] = [1024, 64 * 1024];

/// The fixed smoke suite behind the committed CI baseline: every encrypted
/// algorithm plus the modeled MVAPICH baseline, on a 16-process / 4-node
/// Noleland world, block and cyclic mappings, [`SMOKE_SIZES`] message
/// sizes. NIC contention is off, so every case is bit-deterministic.
///
/// On top of the phantom latency grid, the suite carries real-payload cells
/// for O-Ring and O-Bruck (block mapping, both sizes, seed
/// [`SMOKE_DATA_SEED`]) under *every* cipher suite: these run actual AEAD
/// over pattern blocks and record the data-plane copy probe,
/// regression-gating the zero-copy story and every backend's correctness
/// alongside latency. The virtual latencies of the per-suite cells are
/// identical by construction (the cost model is suite-blind), which the
/// regress gate then re-checks for free.
///
/// Since schema v7 the suite also carries one phantom latency cell per new
/// collective (broadcast, gather/scatter incl. the irregular variants,
/// all-to-all; block mapping, both sizes) plus real-payload copy-probe
/// cells for a representative pair of them (binomial broadcast and pairwise
/// all-to-all, default suite).
pub fn smoke_suite() -> Vec<SuiteCase> {
    let mut cases = Vec::new();
    for &mapping in &[Mapping::Block, Mapping::Cyclic] {
        let cfg = SimConfig {
            p: 16,
            nodes: 4,
            mapping,
            profile: "noleland".into(),
            reps: 3,
            nic_contention: false,
            data_seed: None,
            suite: CipherSuite::AesGcm128,
        };
        let mut algos = vec![Algorithm::Mvapich];
        algos.extend_from_slice(Algorithm::encrypted_all());
        for algo in algos {
            for &m in &SMOKE_SIZES {
                cases.push(SuiteCase {
                    cfg: cfg.clone(),
                    collective: Collective::Allgather(algo),
                    msg_bytes: m,
                });
            }
        }
    }
    let new_cfg = SimConfig {
        p: 16,
        nodes: 4,
        mapping: Mapping::Block,
        profile: "noleland".into(),
        reps: 3,
        nic_contention: false,
        data_seed: None,
        suite: CipherSuite::AesGcm128,
    };
    for collective in Collective::new_operations_all() {
        for &m in &SMOKE_SIZES {
            cases.push(SuiteCase {
                cfg: new_cfg.clone(),
                collective,
                msg_bytes: m,
            });
        }
    }
    for suite in CipherSuite::ALL {
        let real_cfg = SimConfig {
            p: 16,
            nodes: 4,
            mapping: Mapping::Block,
            profile: "noleland".into(),
            reps: 3,
            nic_contention: false,
            data_seed: Some(SMOKE_DATA_SEED),
            suite,
        };
        for algo in [Algorithm::ORing, Algorithm::OBruck] {
            for &m in &SMOKE_SIZES {
                cases.push(SuiteCase {
                    cfg: real_cfg.clone(),
                    collective: Collective::Allgather(algo),
                    msg_bytes: m,
                });
            }
        }
    }
    let new_real_cfg = SimConfig {
        data_seed: Some(SMOKE_DATA_SEED),
        ..new_cfg
    };
    for collective in [
        Collective::Broadcast(BcastAlgo::Binomial),
        Collective::Alltoall(AlltoallAlgo::Pairwise),
    ] {
        for &m in &SMOKE_SIZES {
            cases.push(SuiteCase {
                cfg: new_real_cfg.clone(),
                collective,
                msg_bytes: m,
            });
        }
    }
    cases
}

/// Data-pattern seed of the smoke suite's real-payload cells.
pub const SMOKE_DATA_SEED: u64 = 11;

/// The fixed crash-recovery cases behind the committed baseline, on an
/// 8-process / 2-node Noleland world with 1 KiB blocks:
///
/// * `f = 1` — every encrypted algorithm survives rank 0 (a node leader,
///   so it sends in every algorithm) crashing just before its first send
///   step;
/// * `f = 2` — O-Ring and O-Bruck survive two concurrent epoch-0 crashes;
/// * `f = 3` — O-Ring and O-Bruck survive a cascading schedule whose last
///   crash is armed at epoch 1, inside round 0 of the first agreement
///   instance (the mid-agreement cascade the restartable agreement
///   exists for);
/// * `f = 1` per new operation — binomial broadcast, pairwise all-to-all
///   and the irregular O-Ring allgatherv each survive a crash of a rank
///   that sends in their main phase (so the armed crash reliably fires).
///
/// Each case is bit-deterministic, so the committed latencies gate exactly.
pub fn smoke_recovery_suite() -> Vec<RecoveryCase> {
    let cfg = SimConfig {
        p: 8,
        nodes: 2,
        mapping: Mapping::Block,
        profile: "noleland".into(),
        reps: 1,
        nic_contention: false,
        data_seed: None,
        suite: eag_runtime::CipherSuite::AesGcm128,
    };
    let mut cases: Vec<RecoveryCase> = Algorithm::encrypted_all()
        .iter()
        .map(|&algo| RecoveryCase {
            cfg: cfg.clone(),
            collective: Collective::Allgather(algo),
            msg_bytes: 1024,
            crashes: vec![Crash::before(0, 0)],
        })
        .collect();
    for algo in [Algorithm::ORing, Algorithm::OBruck] {
        cases.push(RecoveryCase {
            cfg: cfg.clone(),
            collective: Collective::Allgather(algo),
            msg_bytes: 1024,
            crashes: vec![Crash::before(0, 0), Crash::before(4, 1)],
        });
        cases.push(RecoveryCase {
            cfg: cfg.clone(),
            collective: Collective::Allgather(algo),
            msg_bytes: 1024,
            crashes: vec![
                Crash::before(0, 0),
                Crash::before(2, 1),
                Crash::before(4, 0).at_epoch(1),
            ],
        });
    }
    for (collective, victim) in [
        (Collective::Broadcast(BcastAlgo::Binomial), 4usize),
        (Collective::Alltoall(AlltoallAlgo::Pairwise), 3),
        (Collective::Allgatherv(Algorithm::ORing), 3),
    ] {
        cases.push(RecoveryCase {
            cfg: cfg.clone(),
            collective,
            msg_bytes: 1024,
            crashes: vec![Crash::before(victim, 0)],
        });
    }
    cases
}

/// Runs one crash-recovery case and serializes the result.
pub fn run_recovery_case(case: &RecoveryCase) -> RecoveryEntry {
    let sample =
        simulate_recovery_schedule(&case.cfg, case.collective, case.msg_bytes, &case.crashes);
    RecoveryEntry {
        operation: case.collective.operation().name().to_string(),
        algorithm: case.collective.variant_name().to_string(),
        p: case.cfg.p as u64,
        nodes: case.cfg.nodes as u64,
        mapping: case.cfg.mapping,
        msg_bytes: case.msg_bytes as u64,
        crashes: case.crashes.iter().map(CrashPoint::of).collect(),
        clean_latency_us: sample.clean_latency_us,
        recovery_latency_us: sample.recovery_latency_us,
        survivors: sample.survivors as u64,
    }
}

/// Runs one case and serializes the result.
pub fn run_case(case: &SuiteCase) -> BenchEntry {
    let (samples, metrics) = simulate_samples(&case.cfg, case.collective, case.msg_bytes);
    let stats = Stats::of(&samples);
    BenchEntry {
        operation: case.collective.operation().name().to_string(),
        algorithm: case.collective.variant_name().to_string(),
        p: case.cfg.p as u64,
        nodes: case.cfg.nodes as u64,
        mapping: case.cfg.mapping,
        msg_bytes: case.msg_bytes as u64,
        reps: case.cfg.reps as u64,
        nic_contention: case.cfg.nic_contention,
        latency: LatencyStats::from_stats(&stats, &samples),
        metrics: PaperMetrics::of(&metrics),
        data_seed: case.cfg.data_seed,
        cipher_suite: case.cfg.suite.name().to_string(),
        copy_probe: case.cfg.data_seed.map(|_| CopyProbe {
            memcpy_bytes: metrics.memcpy_bytes,
            buf_allocs: metrics.buf_allocs,
        }),
    }
}

/// Runs a full suite into a report. `suite` names the suite in the output;
/// `profile` should match the cases' cluster profile.
pub fn run_suite(suite: &str, profile: &str, cases: &[SuiteCase]) -> BenchReport {
    run_suite_with_recovery(suite, profile, cases, &[])
}

/// Like [`run_suite`], additionally measuring crash-recovery cases into the
/// report's `recovery` section. Recovery measurements are deterministic by
/// construction and never affect the report's `deterministic` flag.
pub fn run_suite_with_recovery(
    suite: &str,
    profile: &str,
    cases: &[SuiteCase],
    recovery: &[RecoveryCase],
) -> BenchReport {
    run_suite_full(suite, profile, cases, recovery, &[])
}

/// Like [`run_suite_with_recovery`], additionally sweeping the
/// concurrent-sessions cases into the report's `sessions` section. Session
/// sweeps are deterministic by construction (see [`crate::sessions`]) and
/// never affect the report's `deterministic` flag.
pub fn run_suite_full(
    suite: &str,
    profile: &str,
    cases: &[SuiteCase],
    recovery: &[RecoveryCase],
    sessions: &[SessionCase],
) -> BenchReport {
    let deterministic = cases.iter().all(|c| !c.cfg.nic_contention);
    BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: suite.to_string(),
        profile: profile.to_string(),
        deterministic,
        entries: cases.iter().map(run_case).collect(),
        recovery: recovery.iter().map(run_recovery_case).collect(),
        sessions: sessions.iter().map(run_session_case).collect(),
        crypto: None,
    }
}

/// Runs the fixed smoke suite (the one CI gates on), including the
/// crash-recovery cases and the concurrent-sessions sweep.
pub fn run_smoke_suite() -> BenchReport {
    run_suite_full(
        "smoke",
        "noleland",
        &smoke_suite(),
        &smoke_recovery_suite(),
        &smoke_session_suite(),
    )
}

/// Reconstructs the suite a report was produced by, so `eag regress` can
/// re-run exactly the baseline's cases when no `--current` report is given.
pub fn suite_from_report(report: &BenchReport) -> Result<Vec<SuiteCase>, String> {
    report
        .entries
        .iter()
        .map(|e| {
            let collective = Collective::by_names(&e.operation, &e.algorithm).ok_or_else(|| {
                format!(
                    "unknown collective {:?}/{:?} in report",
                    e.operation, e.algorithm
                )
            })?;
            let suite = CipherSuite::by_name(&e.cipher_suite)
                .ok_or_else(|| format!("unknown cipher suite {:?} in report", e.cipher_suite))?;
            Ok(SuiteCase {
                cfg: SimConfig {
                    p: e.p as usize,
                    nodes: e.nodes as usize,
                    mapping: e.mapping,
                    profile: report.profile.clone(),
                    reps: e.reps as usize,
                    nic_contention: e.nic_contention,
                    data_seed: e.data_seed,
                    suite,
                },
                collective,
                msg_bytes: e.msg_bytes as usize,
            })
        })
        .collect()
}

/// Reconstructs the crash-recovery cases a report carried, so `eag regress`
/// can re-measure them alongside the latency suite when no `--current`
/// report is given.
pub fn recovery_suite_from_report(report: &BenchReport) -> Result<Vec<RecoveryCase>, String> {
    report
        .recovery
        .iter()
        .map(|e| {
            let collective = Collective::by_names(&e.operation, &e.algorithm).ok_or_else(|| {
                format!(
                    "unknown collective {:?}/{:?} in report",
                    e.operation, e.algorithm
                )
            })?;
            Ok(RecoveryCase {
                cfg: SimConfig {
                    p: e.p as usize,
                    nodes: e.nodes as usize,
                    mapping: e.mapping,
                    profile: report.profile.clone(),
                    reps: 1,
                    nic_contention: false,
                    data_seed: None,
                    suite: CipherSuite::AesGcm128,
                },
                collective,
                msg_bytes: e.msg_bytes as usize,
                crashes: e.crashes.iter().map(|c| c.to_crash()).collect(),
            })
        })
        .collect()
}

impl BenchReport {
    /// Attaches wall-clock crypto throughput to this report. Doing so marks
    /// the report nondeterministic: wall-clock numbers never reproduce
    /// exactly.
    pub fn with_crypto(mut self, probe: CryptoProbe) -> BenchReport {
        self.crypto = Some(probe);
        self.deterministic = false;
        self
    }

    /// Serializes to pretty JSON (stable field order, shortest-round-trip
    /// floats; byte-identical across runs for deterministic reports).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("value-tree serialization cannot fail")
    }

    /// Parses a report back, rejecting schema-version mismatches.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report: BenchReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if report.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (this binary writes {})",
                report.schema_version, SCHEMA_VERSION
            ));
        }
        Ok(report)
    }

    /// Looks up the entry matching `other` by identity (operation,
    /// algorithm, p, nodes, mapping, msg_bytes, data_seed, cipher_suite) —
    /// the key the regress gate joins on. `operation` distinguishes cells
    /// of different collectives that share a variant name
    /// (`allgather/O-Ring` vs `allgatherv/O-Ring`); `data_seed`
    /// distinguishes real-payload cells from the phantom cell at the same
    /// configuration point; `cipher_suite` distinguishes the per-suite real
    /// cells from each other.
    pub fn find_matching(&self, other: &BenchEntry) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| {
            e.operation == other.operation
                && e.algorithm == other.algorithm
                && e.p == other.p
                && e.nodes == other.nodes
                && e.mapping == other.mapping
                && e.msg_bytes == other.msg_bytes
                && e.data_seed == other.data_seed
                && e.cipher_suite == other.cipher_suite
        })
    }

    /// Looks up the recovery entry matching `other` by identity (operation,
    /// algorithm, p, nodes, mapping, msg_bytes, and the full crash
    /// schedule).
    pub fn find_matching_recovery(&self, other: &RecoveryEntry) -> Option<&RecoveryEntry> {
        self.recovery.iter().find(|e| {
            e.operation == other.operation
                && e.algorithm == other.algorithm
                && e.p == other.p
                && e.nodes == other.nodes
                && e.mapping == other.mapping
                && e.msg_bytes == other.msg_bytes
                && e.crashes == other.crashes
        })
    }

    /// Looks up the sessions entry matching `other` by identity (algorithm,
    /// p, nodes, msg_bytes, sessions, physical_nodes).
    pub fn find_matching_session(&self, other: &SessionEntry) -> Option<&SessionEntry> {
        self.sessions.iter().find(|e| {
            e.algorithm == other.algorithm
                && e.p == other.p
                && e.nodes == other.nodes
                && e.msg_bytes == other.msg_bytes
                && e.sessions == other.sessions
                && e.physical_nodes == other.physical_nodes
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let cfg = SimConfig {
            p: 8,
            nodes: 2,
            mapping: Mapping::Block,
            profile: "noleland".into(),
            reps: 2,
            nic_contention: false,
            data_seed: None,
            suite: eag_runtime::CipherSuite::AesGcm128,
        };
        run_suite_with_recovery(
            "unit",
            "noleland",
            &[
                SuiteCase {
                    cfg: cfg.clone(),
                    collective: Collective::Allgather(Algorithm::Hs2),
                    msg_bytes: 512,
                },
                SuiteCase {
                    cfg: cfg.clone(),
                    collective: Collective::Allgather(Algorithm::CRing),
                    msg_bytes: 2048,
                },
            ],
            &[RecoveryCase {
                cfg: SimConfig { reps: 1, ..cfg },
                collective: Collective::Allgather(Algorithm::ORing),
                msg_bytes: 512,
                crashes: vec![Crash::before(0, 0)],
            }],
        )
    }

    #[test]
    fn schema_roundtrip_is_lossless() {
        let report = sample_report();
        let json = report.to_json();
        let back = BenchReport::from_json(&json).expect("parse back");
        assert_eq!(report, back);
        // And the re-serialization is byte-identical (deterministic field
        // order + shortest-round-trip floats).
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn deterministic_suite_reproduces_exactly() {
        // Contention-free virtual-time runs are pure f64 arithmetic: two
        // executions of the same suite serialize byte-identically.
        let a = sample_report().to_json();
        let b = sample_report().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut report = sample_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let json = report.to_json();
        let err = BenchReport::from_json(&json).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn smoke_suite_shape() {
        let cases = smoke_suite();
        // 2 mappings x (1 + encrypted) all-gather variants x 2 sizes, plus
        // one phantom cell per new collective x 2 sizes, plus the
        // real-payload copy-probe cells: (O-Ring, O-Bruck) x 2 sizes under
        // every cipher suite and 2 representative new collectives x 2 sizes
        // under the default suite.
        let algos = 1 + Algorithm::encrypted_all().len();
        let new_phantom = Collective::new_operations_all().len() * SMOKE_SIZES.len();
        let allgather_real = CipherSuite::ALL.len() * 2 * SMOKE_SIZES.len();
        let new_real = 2 * SMOKE_SIZES.len();
        assert_eq!(
            cases.len(),
            2 * algos * 2 + new_phantom + allgather_real + new_real
        );
        assert!(cases.iter().all(|c| !c.cfg.nic_contention));
        assert!(cases.iter().all(|c| c.cfg.profile == "noleland"));
        let real: Vec<_> = cases.iter().filter(|c| c.cfg.data_seed.is_some()).collect();
        assert_eq!(real.len(), allgather_real + new_real);
        // Every suite appears in the all-gather real cells; the new
        // collectives' real cells and all phantom cells stay on the default
        // suite.
        for suite in CipherSuite::ALL {
            assert_eq!(
                real.iter()
                    .filter(|c| c.cfg.suite == suite
                        && matches!(c.collective, Collective::Allgather(_)))
                    .count(),
                2 * SMOKE_SIZES.len(),
                "{suite}"
            );
        }
        let new_real_cases: Vec<_> = real
            .iter()
            .filter(|c| !matches!(c.collective, Collective::Allgather(_)))
            .collect();
        assert_eq!(new_real_cases.len(), new_real);
        assert!(new_real_cases
            .iter()
            .all(|c| c.cfg.suite == CipherSuite::AesGcm128));
        assert!(cases
            .iter()
            .filter(|c| c.cfg.data_seed.is_none())
            .all(|c| c.cfg.suite == CipherSuite::AesGcm128));
        // Every new collective gets a phantom latency cell at every size.
        for collective in Collective::new_operations_all() {
            assert_eq!(
                cases
                    .iter()
                    .filter(|c| c.collective == collective && c.cfg.data_seed.is_none())
                    .count(),
                SMOKE_SIZES.len(),
                "{collective}"
            );
        }
    }

    #[test]
    fn real_payload_cells_carry_the_copy_probe() {
        let cfg = SimConfig {
            p: 8,
            nodes: 2,
            mapping: Mapping::Block,
            profile: "noleland".into(),
            reps: 2,
            nic_contention: false,
            data_seed: Some(SMOKE_DATA_SEED),
            suite: eag_runtime::CipherSuite::AesGcm128,
        };
        let entry = run_case(&SuiteCase {
            cfg,
            collective: Collective::Allgather(Algorithm::ORing),
            msg_bytes: 512,
        });
        assert_eq!(entry.data_seed, Some(SMOKE_DATA_SEED));
        let probe = entry.copy_probe.expect("real cell records the probe");
        assert!(probe.buf_allocs > 0, "{probe:?}");
        // Phantom cells at the same point join differently and carry none.
        let phantom = sample_report();
        assert!(phantom.entries.iter().all(|e| e.copy_probe.is_none()));
        assert!(phantom.entries.iter().all(|e| e.data_seed.is_none()));
    }

    #[test]
    fn smoke_recovery_suite_shape() {
        let cases = smoke_recovery_suite();
        // One f=1 cell per encrypted all-gather variant, f=2 and f=3
        // schedules for O-Ring and O-Bruck, plus one f=1 cell per
        // representative new operation.
        assert_eq!(cases.len(), Algorithm::encrypted_all().len() + 4 + 3);
        assert!(cases.iter().all(|c| !c.cfg.nic_contention));
        let singles: Vec<_> = cases.iter().filter(|c| c.crashes.len() == 1).collect();
        assert_eq!(singles.len(), Algorithm::encrypted_all().len() + 3);
        assert!(singles
            .iter()
            .filter(|c| matches!(c.collective, Collective::Allgather(_)))
            .all(|c| c.crashes[0] == Crash::before(0, 0)));
        // The new-operation cells cover three distinct operations.
        let ops: std::collections::BTreeSet<_> = singles
            .iter()
            .filter(|c| !matches!(c.collective, Collective::Allgather(_)))
            .map(|c| c.collective.operation().name())
            .collect();
        assert_eq!(ops.len(), 3);
        // The f=3 schedules cascade into the first agreement instance.
        let deep: Vec<_> = cases.iter().filter(|c| c.crashes.len() == 3).collect();
        assert_eq!(deep.len(), 2);
        assert!(deep
            .iter()
            .all(|c| c.crashes.iter().any(|crash| crash.epoch == 1)));
    }

    #[test]
    fn recovery_entries_measure_a_real_crash() {
        let report = sample_report();
        assert_eq!(report.recovery.len(), 1);
        let e = &report.recovery[0];
        assert_eq!(e.survivors, e.p - 1);
        assert!(e.recovery_latency_us > e.clean_latency_us);
        // And the suite reconstructs losslessly for the regress re-run path.
        let cases = recovery_suite_from_report(&report).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].collective, Collective::Allgather(Algorithm::ORing));
        assert_eq!(cases[0].cfg.p, e.p as usize);
    }

    #[test]
    fn recovery_lookup_joins_on_identity() {
        let report = sample_report();
        let found = report.find_matching_recovery(&report.recovery[0]).unwrap();
        assert_eq!(found, &report.recovery[0]);
        let mut missing = report.recovery[0].clone();
        missing.crashes[0].step += 1;
        assert!(report.find_matching_recovery(&missing).is_none());
        // A deeper schedule at the same point is a different cell too.
        let mut extended = report.recovery[0].clone();
        extended
            .crashes
            .push(CrashPoint::of(&Crash::before(1, 0).at_epoch(1)));
        assert!(report.find_matching_recovery(&extended).is_none());
    }

    #[test]
    fn entry_lookup_joins_on_identity() {
        let report = sample_report();
        let found = report.find_matching(&report.entries[1]).unwrap();
        assert_eq!(found, &report.entries[1]);
        let mut missing = report.entries[0].clone();
        missing.msg_bytes += 1;
        assert!(report.find_matching(&missing).is_none());
    }

    #[test]
    fn session_entries_roundtrip_and_join_on_identity() {
        let session_case = SessionCase {
            algo: Algorithm::ORing,
            p: 8,
            nodes: 2,
            msg_bytes: 1024,
            sessions: 16,
            physical_nodes: 4,
            profile: "noleland".into(),
        };
        let report = run_suite_full("unit", "noleland", &[], &[], &[session_case]);
        assert!(report.deterministic);
        assert_eq!(report.sessions.len(), 1);
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
        let found = report.find_matching_session(&report.sessions[0]).unwrap();
        assert_eq!(found, &report.sessions[0]);
        let mut missing = report.sessions[0].clone();
        missing.sessions += 1;
        assert!(report.find_matching_session(&missing).is_none());
        // And the sweep reconstructs for the regress re-run path.
        let cases = crate::sessions::session_suite_from_report(&report).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].sessions, 16);
    }

    #[test]
    fn crypto_probe_marks_nondeterministic() {
        let report = sample_report().with_crypto(CryptoProbe {
            points: vec![CryptoProbePoint {
                cipher_suite: "aes-gcm".into(),
                msg_bytes: 4096,
                seal_mb_per_s: 1234.5,
                open_mb_per_s: 2345.6,
            }],
        });
        assert!(!report.deterministic);
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }
}
