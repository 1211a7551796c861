//! Machine-readable benchmark reports.
//!
//! Everything the human-readable tables print — per-configuration
//! virtual-time latency, the six per-algorithm cost metrics of the paper's
//! Table II, crash-recovery and concurrent-sessions cells — serialized into
//! a stable, versioned JSON schema (`BENCH_<profile>.json`) that the
//! [`regress`](crate::regress) gate and CI consume.
//!
//! The committed baseline is produced by [`run_smoke_suite`], a fixed-seed,
//! contention-free suite: on the virtual-time simulator such runs are
//! *bit-deterministic* (pure `f64` arithmetic, no wall clock, no
//! arrival-order races), so each cell is one run and the serialized report
//! is byte-identical across machines and re-runs.

use crate::harness::{crash_schedule_run, simulate, SimConfig};
use crate::sessions::{run_session_case, smoke_session_suite, SessionCase, SessionEntry};
use eag_core::{Algorithm, AlltoallAlgo, BcastAlgo, Collective};
use eag_netsim::{Crash, Mapping};
use eag_runtime::{CipherSuite, Metrics};
use serde::{Deserialize, Serialize};

/// Version of the JSON schema emitted by [`BenchReport`]. Bump on any
/// breaking change to the field layout; [`BenchReport::from_json`] rejects
/// mismatched versions instead of misreading them.
///
/// v8: an entry carries one `latency_us` (the cell is one deterministic
/// run) instead of `reps`, `nic_contention` and a latency summary; the
/// report drops `deterministic` and the wall-clock `crypto` probe; session
/// cells drop their always-empty `samples_us`.
pub const SCHEMA_VERSION: u64 = 8;

/// A complete benchmark report: one entry per (operation, variant,
/// configuration, message size), plus crash-recovery and sessions cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Name of the suite that produced this report (e.g. `"smoke"`).
    pub suite: String,
    /// Cluster profile every entry ran on (e.g. `"noleland"`).
    pub profile: String,
    /// One entry per benchmarked (algorithm, config, message size).
    pub entries: Vec<BenchEntry>,
    /// One entry per crash-recovery measurement: the survivor-path latency
    /// of shrink-and-recover under a planned rank crash.
    pub recovery: Vec<RecoveryEntry>,
    /// One entry per concurrent-sessions cell: service throughput and
    /// per-session tail latency (p95/p99) versus how many tenant sessions
    /// share the fabric (see [`crate::sessions`]).
    pub sessions: Vec<SessionEntry>,
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
    /// Virtual-time latency of the run, µs.
    pub latency_us: f64,
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

impl BenchEntry {
    /// The cell's identity (operation, algorithm, p, nodes, mapping,
    /// msg_bytes, cipher_suite, data_seed) as a readable label: the key the
    /// regress gate joins on.
    pub fn label(&self) -> String {
        let seed = self.data_seed.map(|s| format!(" seed={s}"));
        format!(
            "{}/{} p={} N={} {} {}B {}{}",
            self.operation,
            self.algorithm,
            self.p,
            self.nodes,
            self.mapping,
            self.msg_bytes,
            self.cipher_suite,
            seed.unwrap_or_default()
        )
    }
}

/// Deterministic data-plane cost of one real-payload cell: what the
/// implementation physically moved, as opposed to the modeled traffic in
/// [`PaperMetrics`]. Taken from the component-wise maximum over ranks, so
/// the numbers read as "per rank on the critical path, per run".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyProbe {
    /// Payload bytes physically memcpy'd by the data plane.
    pub memcpy_bytes: u64,
    /// Fresh payload byte buffers allocated by the data plane.
    pub buf_allocs: u64,
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
/// Mirrors [`eag_netsim::Crash`] field-for-field, so the cell names the
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

    /// The crash written `r<rank>@s<step>[e<epoch>][a][h]`, like the
    /// `RANK@STEP[eEPOCH][a][h]` spec `eag run --crash` takes.
    pub fn label(&self) -> String {
        let epoch = if self.epoch > 0 {
            format!("e{}", self.epoch)
        } else {
            String::new()
        };
        let after = if self.after_send { "a" } else { "" };
        let hard = if self.hard { "h" } else { "" };
        format!("r{}@s{}{epoch}{after}{hard}", self.rank, self.step)
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

impl RecoveryEntry {
    /// The cell's identity (operation, algorithm, p, nodes, mapping,
    /// msg_bytes and the full crash schedule, each crash as
    /// [`CrashPoint::label`]) as a readable label: the key the regress gate
    /// joins on.
    pub fn label(&self) -> String {
        let schedule: Vec<String> = self.crashes.iter().map(CrashPoint::label).collect();
        format!(
            "recover {}/{} p={} N={} {} {}B {}",
            self.operation,
            self.algorithm,
            self.p,
            self.nodes,
            self.mapping,
            self.msg_bytes,
            schedule.join("+")
        )
    }
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
/// sizes. Every case is a [`SimConfig::deterministic`] cell.
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
/// The suite also carries one phantom latency cell per other collective
/// (broadcast, gather/scatter incl. the irregular variants, all-to-all;
/// block mapping, both sizes) plus real-payload copy-probe cells for a
/// representative pair of them (binomial broadcast and pairwise
/// all-to-all, default suite).
pub fn smoke_suite() -> Vec<SuiteCase> {
    let cell = |mapping| SimConfig::deterministic(16, 4, mapping, "noleland");
    let real = |suite| SimConfig {
        data_seed: Some(SMOKE_DATA_SEED),
        suite,
        ..cell(Mapping::Block)
    };
    let mut configs: Vec<(SimConfig, Vec<Collective>)> = Vec::new();
    let mut allgathers = vec![Collective::Allgather(Algorithm::Mvapich)];
    allgathers.extend(
        Algorithm::encrypted_all()
            .iter()
            .map(|&a| Collective::Allgather(a)),
    );
    for mapping in [Mapping::Block, Mapping::Cyclic] {
        configs.push((cell(mapping), allgathers.clone()));
    }
    configs.push((cell(Mapping::Block), Collective::new_operations_all()));
    for suite in CipherSuite::ALL {
        let real_allgathers = [Algorithm::ORing, Algorithm::OBruck].map(Collective::Allgather);
        configs.push((real(suite), real_allgathers.to_vec()));
    }
    configs.push((
        real(CipherSuite::AesGcm128),
        vec![
            Collective::Broadcast(BcastAlgo::Binomial),
            Collective::Alltoall(AlltoallAlgo::Pairwise),
        ],
    ));
    let mut cases = Vec::new();
    for (cfg, collectives) in configs {
        for collective in collectives {
            for &msg_bytes in &SMOKE_SIZES {
                cases.push(SuiteCase {
                    cfg: cfg.clone(),
                    collective,
                    msg_bytes,
                });
            }
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
    let case = |collective, crashes| RecoveryCase {
        cfg: SimConfig::deterministic(8, 2, Mapping::Block, "noleland"),
        collective,
        msg_bytes: 1024,
        crashes,
    };
    let mut cases: Vec<RecoveryCase> = Algorithm::encrypted_all()
        .iter()
        .map(|&algo| case(Collective::Allgather(algo), vec![Crash::before(0, 0)]))
        .collect();
    for algo in [Algorithm::ORing, Algorithm::OBruck] {
        cases.push(case(
            Collective::Allgather(algo),
            vec![Crash::before(0, 0), Crash::before(4, 1)],
        ));
        cases.push(case(
            Collective::Allgather(algo),
            vec![
                Crash::before(0, 0),
                Crash::before(2, 1),
                Crash::before(4, 0).at_epoch(1),
            ],
        ));
    }
    for (collective, victim) in [
        (Collective::Broadcast(BcastAlgo::Binomial), 4usize),
        (Collective::Alltoall(AlltoallAlgo::Pairwise), 3),
        (Collective::Allgatherv(Algorithm::ORing), 3),
    ] {
        cases.push(case(collective, vec![Crash::before(victim, 0)]));
    }
    cases
}

/// Runs one crash-recovery case and serializes the result. Panics unless
/// a planned crash fired (the cell would silently measure a clean run) and
/// the survivors upheld the full recovery contract.
pub fn run_recovery_case(case: &RecoveryCase) -> RecoveryEntry {
    let run = crash_schedule_run(
        &case.cfg,
        case.collective,
        case.msg_bytes,
        case.crashes.clone(),
    );
    assert!(
        run.fired && run.ok(),
        "{}: recovery cell under {:?} did not fire and recover: {run:?}",
        case.collective,
        case.crashes
    );
    RecoveryEntry {
        operation: case.collective.operation().name().to_string(),
        algorithm: case.collective.variant_name().to_string(),
        p: case.cfg.p as u64,
        nodes: case.cfg.nodes as u64,
        mapping: case.cfg.mapping,
        msg_bytes: case.msg_bytes as u64,
        crashes: case.crashes.iter().map(CrashPoint::of).collect(),
        clean_latency_us: run.clean_latency_us,
        recovery_latency_us: run.latency_us,
        survivors: run.survivors as u64,
    }
}

/// Runs one case once and serializes the result.
pub fn run_case(case: &SuiteCase) -> BenchEntry {
    let (latency_us, metrics) = simulate(&case.cfg, case.collective, case.msg_bytes);
    entry(case, latency_us, &metrics)
}

/// Serializes one run of `case`: its virtual latency (µs) and the run's
/// critical-path metrics.
pub fn entry(case: &SuiteCase, latency_us: f64, metrics: &Metrics) -> BenchEntry {
    BenchEntry {
        operation: case.collective.operation().name().to_string(),
        algorithm: case.collective.variant_name().to_string(),
        p: case.cfg.p as u64,
        nodes: case.cfg.nodes as u64,
        mapping: case.cfg.mapping,
        msg_bytes: case.msg_bytes as u64,
        latency_us,
        metrics: PaperMetrics::of(metrics),
        data_seed: case.cfg.data_seed,
        cipher_suite: case.cfg.suite.name().to_string(),
        copy_probe: case.cfg.data_seed.map(|_| CopyProbe {
            memcpy_bytes: metrics.memcpy_bytes,
            buf_allocs: metrics.buf_allocs,
        }),
    }
}

/// Runs latency, crash-recovery and concurrent-sessions cases into one
/// report. `suite` names the suite in the output; `profile` should match
/// the cases' cluster profile.
pub fn run_suite(
    suite: &str,
    profile: &str,
    cases: &[SuiteCase],
    recovery: &[RecoveryCase],
    sessions: &[SessionCase],
) -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: suite.to_string(),
        profile: profile.to_string(),
        entries: cases.iter().map(run_case).collect(),
        recovery: recovery.iter().map(run_recovery_case).collect(),
        sessions: sessions.iter().map(run_session_case).collect(),
    }
}

/// Runs the fixed smoke suite (the one CI gates on), including the
/// crash-recovery cases and the concurrent-sessions sweep.
pub fn run_smoke_suite() -> BenchReport {
    run_suite(
        "smoke",
        "noleland",
        &smoke_suite(),
        &smoke_recovery_suite(),
        &smoke_session_suite(),
    )
}

impl BenchReport {
    /// Serializes to pretty JSON (stable field order, shortest-round-trip
    /// floats; byte-identical across runs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("value-tree serialization cannot fail")
    }

    /// Parses a report back. The schema version is checked before the
    /// fields, so a report of another version is refused by name rather
    /// than by its first unfamiliar field.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        match value.get("schema_version") {
            Some(&serde::Value::UInt(SCHEMA_VERSION)) => {
                BenchReport::from_value(&value).map_err(|e| e.to_string())
            }
            other => Err(format!(
                "unsupported schema_version {} (this binary reads and writes {SCHEMA_VERSION})",
                other.map_or("(missing)".to_string(), |v| serde_json::to_string(v)
                    .unwrap_or_default())
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let cfg = SimConfig::deterministic(8, 2, Mapping::Block, "noleland");
        run_suite(
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
                cfg,
                collective: Collective::Allgather(Algorithm::ORing),
                msg_bytes: 512,
                crashes: vec![Crash::before(0, 0)],
            }],
            &[],
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
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema_version 9"), "{err}");
        // A v7 report (entries with a latency summary, a `deterministic`
        // flag) is refused by its version, not by its first unknown field.
        let v7 = r#"{"schema_version": 7, "suite": "smoke", "profile": "noleland",
            "deterministic": true, "entries": [{"reps": 3, "latency": {}}],
            "recovery": [], "sessions": [], "crypto": null}"#;
        let err = BenchReport::from_json(v7).unwrap_err();
        assert!(err.contains("unsupported schema_version 7"), "{err}");
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
            data_seed: Some(SMOKE_DATA_SEED),
            ..SimConfig::deterministic(8, 2, Mapping::Block, "noleland")
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
    }

    #[test]
    fn recovery_lookup_joins_on_identity() {
        let report = sample_report();
        let cell = &report.recovery[0];
        assert_eq!(
            cell.label(),
            "recover allgather/O-Ring p=8 N=2 block 512B r0@s0"
        );
        // Measurements are not identity.
        let mut slower = cell.clone();
        slower.recovery_latency_us += 1.0;
        slower.survivors -= 1;
        assert_eq!(slower.label(), cell.label());
        // Every field of every planned crash is.
        let mut later = cell.clone();
        later.crashes[0].step += 1;
        let mut after = cell.clone();
        after.crashes[0].after_send = true;
        let mut hard = cell.clone();
        hard.crashes[0].hard = true;
        // A deeper schedule at the same point is a different cell too.
        let mut extended = cell.clone();
        extended
            .crashes
            .push(CrashPoint::of(&Crash::before(1, 0).at_epoch(1)));
        let labels: std::collections::BTreeSet<_> = [cell, &later, &after, &hard, &extended]
            .iter()
            .map(|e| e.label())
            .collect();
        assert_eq!(labels.len(), 5, "{labels:?}");
        assert_eq!(
            extended.label(),
            "recover allgather/O-Ring p=8 N=2 block 512B r0@s0+r1@s0e1"
        );
    }

    #[test]
    fn entry_lookup_joins_on_identity() {
        let report = sample_report();
        let cell = &report.entries[0];
        assert_eq!(cell.label(), "allgather/HS2 p=8 N=2 block 512B aes-gcm");
        let mut slower = cell.clone();
        slower.latency_us *= 2.0;
        slower.metrics.enc_rounds += 1;
        assert_eq!(slower.label(), cell.label());
        let mut bigger = cell.clone();
        bigger.msg_bytes += 1;
        let mut real = cell.clone();
        real.data_seed = Some(SMOKE_DATA_SEED);
        let mut chacha = real.clone();
        chacha.cipher_suite = CipherSuite::ChaCha20Poly1305.name().into();
        let mut gatherv = cell.clone();
        gatherv.operation = "allgatherv".into();
        let labels: std::collections::BTreeSet<_> = [cell, &bigger, &real, &chacha, &gatherv]
            .iter()
            .map(|e| e.label())
            .collect();
        assert_eq!(labels.len(), 5, "{labels:?}");
        assert_eq!(
            chacha.label(),
            "allgather/HS2 p=8 N=2 block 512B chacha20-poly1305 seed=11"
        );
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
        let report = run_suite("unit", "noleland", &[], &[], &[session_case]);
        assert_eq!(report.sessions.len(), 1);
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
        let cell = &report.sessions[0];
        assert_eq!(cell.label(), "sessions O-Ring p=8 N=2 1024B x16 nic4");
        let mut slower = cell.clone();
        slower.latency.p99 *= 2.0;
        assert_eq!(slower.label(), cell.label());
        let mut more = cell.clone();
        more.sessions += 1;
        assert_ne!(more.label(), cell.label());
    }
}
