//! The six workloads. Each knows how to set itself up (a verified warm-up
//! pass in fresh worlds), run a timed pass, audit its wire traffic, and price
//! one op on the virtual-time model.

use crate::engine::{
    blocks_and_bytes, rank_ops, verify_due, Cell, LoopCfg, PassStat, RankOut, RawSpan, Tally,
    Verify, PLAIN,
};
use crate::spans::{Span, SpanName, TraceSink};
use crate::stats::percentile;
use crate::sys;
use eag_bench::calibrate::calibrate_local_suite;
use eag_core::{recover_allgather, Algorithm, Collective};
use eag_crypto::Key;
use eag_netsim::{Crash, FaultPlan, Mapping, Topology, Wiretap};
use eag_runtime::{
    pattern_block, pattern_block_pair, run, run_crashable, try_run, try_run_crashable, CipherSuite,
    DataMode, Metrics, RetryPolicy, SessionConfig, SessionManager, WorldSpec,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Retry budget of every armed world: a lost frame is re-requested after
/// 20 ms, so no workload injects drops (the metric would measure the timer).
const RETRY: RetryPolicy = RetryPolicy {
    attempt_timeout: Duration::from_millis(20),
    max_attempts: 10,
    backoff: 1.5,
};

/// The fault mix of `ag_armed`, reseeded per world so that one unlucky
/// placement does not colour a whole run.
pub fn armed_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        duplicate_permille: 20,
        reorder_permille: 10,
        tamper_permille: 10,
        ..FaultPlan::default()
    }
}

/// The all-gather `crash_recover` runs under the recovery engine.
const CRASH_ALGO: Algorithm = Algorithm::Hs2;

pub enum Kind {
    /// A round of collectives in a long-lived world (OSU loop).
    Collectives {
        armed: bool,
        /// Ops per world. Armed worlds never prune their retransmit log, so
        /// this also bounds their memory.
        world_ops: usize,
        warmup_ops: usize,
    },
    /// `clients` threads looping admit → run → drop on one manager.
    Sessions {
        clients: usize,
        warmup_lifecycles: usize,
    },
    /// One client looping a crash-and-recover world.
    Crash { warmup_runs: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub cell: Cell,
    pub kind: Kind,
    /// Process epoch for span timestamps.
    pub epoch: Instant,
    /// Worlds started so far (seeds the next armed world's fault plan).
    worlds: AtomicU64,
}

fn mix(names: &[(&str, &str)]) -> Vec<Collective> {
    names
        .iter()
        .map(|(op, variant)| {
            Collective::by_names(op, variant)
                .unwrap_or_else(|| panic!("no collective {op}/{variant}"))
        })
        .collect()
}

fn allgathers(names: &[&str]) -> Vec<Collective> {
    mix(&names.iter().map(|n| ("allgather", *n)).collect::<Vec<_>>())
}

impl Workload {
    /// `ops_percent` scales every per-world and warm-up op count; `--smoke`
    /// shrinks a run to a few ops with it.
    pub fn build(
        name: &str,
        seed: u64,
        width: usize,
        ops_percent: usize,
        epoch: Instant,
    ) -> Option<Self> {
        let ops = |full: usize| (full * ops_percent / 100).max(1);
        let cell = |p, nodes, m, suite, mix| Cell {
            p,
            nodes,
            m,
            suite,
            mix,
            seed,
            width,
        };
        let aes = CipherSuite::AesGcm128;
        let (name, cell, kind) = match name {
            "ag_small" => (
                "ag_small",
                cell(
                    16,
                    4,
                    256,
                    aes,
                    allgathers(&["Naive", "O-RD", "C-RD", "HS1", "O-Bruck"]),
                ),
                Kind::Collectives {
                    armed: false,
                    world_ops: ops(64),
                    warmup_ops: ops(48),
                },
            ),
            "ag_large" => (
                "ag_large",
                cell(
                    16,
                    4,
                    256 * 1024,
                    aes,
                    allgathers(&["Naive", "O-Ring", "C-Ring", "HS2"]),
                ),
                Kind::Collectives {
                    armed: false,
                    world_ops: ops(8),
                    warmup_ops: ops(2),
                },
            ),
            "ag_armed" => (
                "ag_armed",
                // Channel-only algorithms: a rank waiting in a shared-memory
                // barrier answers no NACK, so an HS member after another
                // collective can deadlock an armed world (see README).
                cell(
                    16,
                    4,
                    16 * 1024,
                    aes,
                    allgathers(&["O-Ring", "O-RD", "C-Ring"]),
                ),
                Kind::Collectives {
                    armed: true,
                    world_ops: ops(16),
                    warmup_ops: ops(32),
                },
            ),
            "ops_mixed" => (
                "ops_mixed",
                cell(
                    16,
                    4,
                    16 * 1024,
                    CipherSuite::ChaCha20Poly1305,
                    mix(&[
                        ("bcast", "binomial"),
                        ("gather", "binomial"),
                        ("scatterv", "binomial"),
                        ("alltoall", "pairwise"),
                        ("allgatherv", "HS2"),
                    ]),
                ),
                Kind::Collectives {
                    armed: false,
                    world_ops: ops(16),
                    warmup_ops: ops(16),
                },
            ),
            "sessions_churn" => (
                "sessions_churn",
                cell(8, 2, 1024, aes, allgathers(&["HS2"])),
                Kind::Sessions {
                    clients: width,
                    warmup_lifecycles: ops(128),
                },
            ),
            "crash_recover" => (
                "crash_recover",
                cell(
                    16,
                    4,
                    16 * 1024,
                    aes,
                    vec![Collective::Allgather(CRASH_ALGO)],
                ),
                Kind::Crash {
                    warmup_runs: ops(32),
                },
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            cell,
            kind,
            epoch,
            worlds: AtomicU64::new(0),
        })
    }

    pub fn armed(&self) -> bool {
        matches!(self.kind, Kind::Collectives { armed: true, .. })
    }

    /// The `predict` closed forms describe fault-free worlds only.
    fn check_predict(&self) -> bool {
        matches!(
            self.kind,
            Kind::Collectives { armed: false, .. } | Kind::Sessions { .. }
        )
    }

    fn next_world(&self) -> u64 {
        self.worlds.fetch_add(1, Ordering::Relaxed)
    }

    fn collective_spec(&self) -> WorldSpec {
        let mut spec = self.cell.spec();
        let world = self.next_world();
        if self.armed() {
            spec.faults = armed_plan(self.cell.seed ^ world.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            spec.retry = RETRY;
        }
        spec
    }

    fn crash_spec(&self) -> WorldSpec {
        let mut spec = self.cell.spec();
        spec.faults = FaultPlan {
            seed: self.cell.seed,
            crashes: vec![Crash::before(0, 0)],
            ..FaultPlan::default()
        };
        spec.retry = RETRY;
        spec
    }

    /// One set-up: fresh worlds, every op byte-verified.
    pub fn warm_up(&self, tally: &mut Tally) {
        match self.kind {
            Kind::Collectives { warmup_ops, .. } => {
                let lat = self.collective_world(warmup_ops, Verify::Every, false, tally, None);
                tally.lat_ns.extend(lat);
            }
            Kind::Sessions {
                clients,
                warmup_lifecycles,
            } => self.session_clients(clients, Until::Count(warmup_lifecycles), false, tally, None),
            Kind::Crash { warmup_runs } => {
                for _ in 0..warmup_runs {
                    self.crash_run(true, false, tally, None);
                }
            }
        }
    }

    /// One timed pass of about `secs` seconds; a pass always finishes the
    /// world (or lifecycle, or run) it is in.
    pub fn pass(
        &self,
        secs: f64,
        traced: bool,
        tally: &mut Tally,
        mut sink: Option<&mut TraceSink>,
    ) {
        let start = Instant::now();
        let (first, first_op) = (tally.lat_ns.len(), tally.ops);
        let cpu_before = sys::process_cpu_s().unwrap_or(0.0);
        match self.kind {
            Kind::Collectives { world_ops, .. } => loop {
                let lat = self.collective_world(
                    world_ops,
                    Verify::Sampled,
                    traced,
                    tally,
                    sink.as_deref_mut(),
                );
                tally.lat_ns.extend(lat);
                if start.elapsed().as_secs_f64() >= secs {
                    break;
                }
            },
            Kind::Sessions { clients, .. } => self.session_clients(
                clients,
                Until::Elapsed(secs),
                traced,
                tally,
                sink.as_deref_mut(),
            ),
            Kind::Crash { .. } => {
                let mut runs = 0usize;
                let mut past = false;
                loop {
                    let verify = past || verify_due(runs);
                    self.crash_run(verify, traced, tally, sink.as_deref_mut());
                    runs += 1;
                    if past {
                        break;
                    }
                    past = start.elapsed().as_secs_f64() >= secs;
                }
            }
        }
        let wall = start.elapsed();
        let cpu_s = sys::process_cpu_s().unwrap_or(cpu_before) - cpu_before;
        if traced {
            self.plain_world(tally, sink);
        }
        tally.wall_ns += wall.as_nanos() as u64;
        let mut lat = tally.lat_ns[first..].to_vec();
        lat.sort_unstable();
        let ops = (tally.ops - first_op).max(1) as f64;
        tally.passes.push(PassStat {
            p50_us: percentile(&lat, 0.5) / 1e3,
            p95_us: percentile(&lat, 0.95) / 1e3,
            ops_per_s: ops / wall.as_secs_f64(),
            cpu_ms_per_op: cpu_s * 1e3 / ops,
        });
    }

    /// The unencrypted reference the paper compares against: MVAPICH at the
    /// cell's p, N and m (and under its fault plan), in a world of its own
    /// after each traced pass, so that it perturbs no span of the workload.
    fn plain_world(&self, tally: &mut Tally, mut sink: Option<&mut TraceSink>) {
        const CALLS: u32 = 32;
        let spec = match self.kind {
            Kind::Collectives { .. } => self.collective_spec(),
            _ => self.cell.spec(),
        };
        let (m, epoch) = (self.cell.m, self.epoch);
        let report = run(&spec, |ctx| {
            (0..CALLS)
                .map(|call| {
                    let start_ns = epoch.elapsed().as_nanos() as u64;
                    std::hint::black_box(PLAIN.run(ctx, m).is_complete());
                    RawSpan {
                        name: SpanName::Plain,
                        op: call,
                        start_ns,
                        end_ns: epoch.elapsed().as_nanos() as u64,
                    }
                })
                .collect::<Vec<_>>()
        });
        for (rank, calls) in report.outputs.iter().enumerate() {
            tally
                .plain_ns
                .extend(calls.iter().map(|s| s.end_ns - s.start_ns));
            if let Some(sink) = sink.as_deref_mut() {
                sink.push_rank_spans(rank as u32, tally.ops, calls, None);
            }
        }
    }

    // ----- collectives ----------------------------------------------------

    /// One world running `ops` ops; returns the pooled rank-local samples.
    fn collective_world(
        &self,
        ops: usize,
        verify: Verify,
        traced: bool,
        tally: &mut Tally,
        sink: Option<&mut TraceSink>,
    ) -> Vec<u64> {
        let spec = self.collective_spec();
        match self.run_world(&spec, ops, verify, traced) {
            Some((outs, _)) => {
                tally.absorb(&self.cell, ops, outs, self.check_predict(), sink, None)
            }
            None => {
                tally.absorb_failed_world(ops);
                Vec::new()
            }
        }
    }

    /// Runs `rank_ops` in a world of `spec`; `None` when the world panicked
    /// or raised a typed failure (reported on stderr).
    fn run_world(
        &self,
        spec: &WorldSpec,
        ops: usize,
        verify: Verify,
        traced: bool,
    ) -> Option<(Vec<RankOut>, std::sync::Arc<Wiretap>)> {
        let cfg = LoopCfg {
            cell: &self.cell,
            ops,
            verify,
            traced,
            epoch: self.epoch,
        };
        match catch_unwind(AssertUnwindSafe(|| {
            try_run(spec, |ctx| rank_ops(ctx, &cfg))
        })) {
            Ok(Ok(report)) => Some((report.outputs, report.wiretap)),
            Ok(Err(e)) => {
                eprintln!("{}: world failed: {e}", self.name);
                None
            }
            Err(_) => {
                eprintln!("{}: world panicked", self.name);
                None
            }
        }
    }

    // ----- sessions -------------------------------------------------------

    fn session_clients(
        &self,
        clients: usize,
        until: Until,
        traced: bool,
        tally: &mut Tally,
        mut sink: Option<&mut TraceSink>,
    ) {
        let mut cfg = SessionConfig::new(Key::from_bytes(
            (self.cell.seed as u128 | (!self.cell.seed as u128) << 64).to_le_bytes(),
        ));
        cfg.max_live = clients;
        cfg.gate_width = Some(self.cell.width);
        let mgr = SessionManager::new(cfg);
        // The session equips the spec with the manager's shared gate, which
        // an explicit `workers` width would override.
        let mut spec = self.cell.spec();
        spec.workers = None;
        let start = Instant::now();
        let per_client: Vec<Vec<Lifecycle>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|tenant| {
                    let (mgr, spec) = (&mgr, &spec);
                    s.spawn(move || {
                        let mut done = Vec::new();
                        let mut past = false;
                        loop {
                            let n = done.len();
                            let verify = match until {
                                Until::Count(_) => true,
                                Until::Elapsed(_) => past || verify_due(n),
                            };
                            done.push(self.lifecycle(mgr, spec, tenant as u64, verify, traced));
                            match until {
                                Until::Count(c) if done.len() >= c => break,
                                Until::Elapsed(_) if past => break,
                                Until::Elapsed(secs) => {
                                    past = start.elapsed().as_secs_f64() >= secs
                                }
                                Until::Count(_) => {}
                            }
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session client panicked"))
                .collect()
        });
        for life in per_client.into_iter().flatten() {
            let op = tally.ops;
            let run_span = sink.as_deref_mut().and_then(|sink| {
                let mut push = |name, parent, from, to| {
                    sink.push(Span {
                        name,
                        parent,
                        rank: None,
                        op,
                        start_ns: from,
                        end_ns: to,
                    })
                };
                let root = push(SpanName::Lifecycle, None, life.start_ns, life.end_ns);
                push(SpanName::Admit, root, life.start_ns, life.admitted_ns);
                push(SpanName::Run, root, life.admitted_ns, life.ran_ns)
            });
            match life.outs {
                Some(outs) => {
                    tally.absorb(
                        &self.cell,
                        1,
                        outs,
                        self.check_predict(),
                        sink.as_deref_mut(),
                        run_span,
                    );
                }
                None => tally.absorb_failed_world(1),
            }
            // A client's clock also runs while its ranks verify, so verified
            // lifecycles count as ops but give no latency sample.
            if !life.verified {
                tally.lat_ns.push(life.end_ns - life.start_ns);
                tally.run_ns.push(life.ran_ns - life.admitted_ns);
            }
            tally.admit_wait_ns.push(life.admitted_ns - life.start_ns);
        }
        let stats = mgr.stats();
        tally.shed += stats.shed;
        tally.peak_live = tally.peak_live.max(stats.peak_live);
    }

    /// One op of `sessions_churn`: admit → run one verified all-gather → drop.
    fn lifecycle(
        &self,
        mgr: &SessionManager,
        spec: &WorldSpec,
        tenant: u64,
        verify: bool,
        traced: bool,
    ) -> Lifecycle {
        let now = || self.epoch.elapsed().as_nanos() as u64;
        let start_ns = now();
        let session = mgr.admit(tenant);
        let admitted_ns = now();
        let cfg = LoopCfg {
            cell: &self.cell,
            ops: 1,
            verify: if verify { Verify::Every } else { Verify::Never },
            traced,
            epoch: self.epoch,
        };
        let (outs, ran_ns) = match session {
            Ok(session) => {
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    session.run(spec, |ctx| rank_ops(ctx, &cfg))
                }));
                let ran_ns = now();
                // Dropping the session frees its slot; the lifecycle's clock
                // stops only after that.
                drop(session);
                (ran.ok().map(|report| report.outputs), ran_ns)
            }
            Err(e) => {
                eprintln!("{}: admission refused: {e:?}", self.name);
                (None, admitted_ns)
            }
        };
        Lifecycle {
            start_ns,
            admitted_ns,
            ran_ns,
            end_ns: now(),
            verified: verify,
            outs,
        }
    }

    // ----- crash and recover ----------------------------------------------

    /// One op of `crash_recover`: rank 0 dies before its first send and the
    /// fifteen survivors must agree on that and finish without it.
    fn crash_run(
        &self,
        verify: bool,
        traced: bool,
        tally: &mut Tally,
        sink: Option<&mut TraceSink>,
    ) {
        let (cell, epoch) = (&self.cell, self.epoch);
        let spec = self.crash_spec();
        let now = || epoch.elapsed().as_nanos() as u64;
        let start_ns = now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            try_run_crashable(&spec, |ctx| {
                let start_ns = now();
                let got = recover_allgather(ctx, CRASH_ALGO, cell.m);
                let end_ns = now();
                let (blocks, bytes) = blocks_and_bytes(&got.output);
                let mut ok = got.failed == [0] && blocks == cell.p - 1;
                let checked = Instant::now();
                if verify {
                    ok &= catch_unwind(AssertUnwindSafe(|| got.verify(cell.seed))).is_ok();
                }
                Survivor {
                    verify_ns: checked.elapsed().as_nanos() as u64,
                    start_ns,
                    end_ns,
                    ok,
                    bytes,
                    epochs: got.epochs,
                    decision: got.canonical_header(),
                }
            })
        }));
        let end_ns = now();
        // The client's clock also runs while survivors verify, so verified
        // runs count as ops but give no latency sample.
        if !verify {
            tally.lat_ns.push(end_ns - start_ns);
        }
        tally.ops += 1;
        let report = match result {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => {
                eprintln!("{}: recovery failed: {e}", self.name);
                tally.failed += 1;
                return;
            }
            Err(_) => {
                eprintln!("{}: recovery panicked", self.name);
                tally.failed += 1;
                return;
            }
        };
        let survivors: Vec<&Survivor> = report.survivor_outputs().map(|(_, s)| s).collect();
        // Every survivor's blocks are checked against the input patterns, so
        // agreeing on the decision makes the degraded outputs byte-identical.
        let uniform = survivors.windows(2).all(|w| w[0].decision == w[1].decision);
        if report.crashed != [0] || !uniform || !survivors.iter().all(|s| s.ok) {
            tally.failed += 1;
        }
        tally.out_bytes += survivors.iter().map(|s| s.bytes).sum::<u64>();
        tally.verify_ns += survivors.iter().map(|s| s.verify_ns).sum::<u64>();
        tally.recovery_epochs += survivors.first().map_or(0, |s| s.epochs);
        let calls = tally.call_ns.entry(cell.labels().remove(0)).or_default();
        calls.extend(survivors.iter().map(|s| s.end_ns - s.start_ns));
        if !traced {
            return;
        }
        tally.counts =
            Metrics::component_sum(&[tally.counts, Metrics::component_sum(&report.metrics)]);
        tally.counted_ops += 1;
        let ends = survivors.iter().map(|s| s.end_ns);
        tally
            .skew_ns
            .push(ends.clone().max().unwrap_or(0) - ends.min().unwrap_or(0));
        if let Some(sink) = sink {
            let op = tally.ops - 1;
            let root = sink.push(Span {
                name: SpanName::RunCrashable,
                parent: None,
                rank: None,
                op,
                start_ns,
                end_ns,
            });
            for (rank, s) in report.survivor_outputs() {
                let raw = RawSpan {
                    name: SpanName::Op,
                    op: 0,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                };
                sink.push_rank_spans(rank as u32, op, &[raw], root);
            }
        }
    }

    // ----- wire audit and model -------------------------------------------

    /// Runs one op with wire capture on and reports whether any inter-node
    /// frame was classified plaintext or contains the head of an input block.
    pub fn plaintext_on_wire(&self, tally: &mut Tally) -> bool {
        let tap = match self.kind {
            Kind::Crash { .. } => {
                let mut spec = self.crash_spec();
                spec.capture_wire = true;
                let m = self.cell.m;
                run_crashable(&spec, move |ctx| {
                    std::hint::black_box(
                        recover_allgather(ctx, CRASH_ALGO, m).output.is_complete(),
                    );
                })
                .wiretap
            }
            _ => {
                let mut spec = self.collective_spec();
                spec.capture_wire = true;
                let Some((outs, tap)) = self.run_world(&spec, 1, Verify::Never, false) else {
                    tally.absorb_failed_world(1);
                    return false;
                };
                // The audit op counts as attempted, but gives no samples.
                tally.ops += 1;
                tally.failed += outs.iter().any(|o| !o.bad_ops.is_empty()) as u64;
                tap
            }
        };
        tap.saw_plaintext_frame() || self.frames_leak(&tap)
    }

    /// Searches every captured frame for the first bytes of every block any
    /// rank contributes. The head of a block is a stricter needle than the
    /// whole block, and one pass over the traffic finds all of them.
    fn frames_leak(&self, tap: &Wiretap) -> bool {
        let (p, seed) = (self.cell.p, self.cell.seed);
        let lens = eag_core::varying_lens(p, self.cell.m);
        let head = lens
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
            .min(self.cell.m)
            .min(64);
        if head < 8 {
            return false;
        }
        let mut needles: Vec<Vec<u8>> = (0..p).map(|r| pattern_block(seed, r, head)).collect();
        if self
            .cell
            .mix
            .iter()
            .any(|c| matches!(c, Collective::Alltoall(_)))
        {
            for src in 0..p {
                needles.extend((0..p).map(|dst| pattern_block_pair(seed, src, dst, head)));
            }
        }
        let key = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("eight bytes"));
        let mut by_key: HashMap<u64, Vec<&[u8]>> = HashMap::new();
        let mut first_two = vec![false; 1 << 16];
        for n in &needles {
            by_key.entry(key(n)).or_default().push(n);
            first_two[u16::from_le_bytes([n[0], n[1]]) as usize] = true;
        }
        let mut flat = Vec::new();
        for frame in tap.frames() {
            flat.clear();
            frame.bytes.copy_into(&mut flat);
            for at in 0..flat.len().saturating_sub(head - 1) {
                if first_two[u16::from_le_bytes([flat[at], flat[at + 1]]) as usize] {
                    if let Some(cands) = by_key.get(&key(&flat[at..])) {
                        if cands.iter().any(|n| flat[at..].starts_with(n)) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Virtual time of one op under the locally calibrated Hockney model
    /// (network terms from the paper's cluster, crypto and copy terms
    /// measured here), µs.
    pub fn model_round_us(&self) -> f64 {
        let cal = calibrate_local_suite("noleland", self.cell.suite)
            .expect("noleland is a shipped profile");
        let mut spec = WorldSpec::new(
            Topology::new(self.cell.p, self.cell.nodes, Mapping::Block),
            cal.profile,
            DataMode::Phantom,
        );
        spec.suite = self.cell.suite;
        spec.workers = Some(self.cell.width);
        let (mix, m) = (&self.cell.mix, self.cell.m);
        match self.kind {
            Kind::Crash { .. } => {
                spec.faults = self.crash_spec().faults;
                spec.retry = RETRY;
                run_crashable(&spec, |ctx| {
                    std::hint::black_box(recover_allgather(ctx, CRASH_ALGO, m).epochs);
                })
                .latency_us
            }
            _ => {
                run(&spec, |ctx| {
                    for c in mix {
                        std::hint::black_box(c.run(ctx, m).is_complete());
                    }
                })
                .latency_us
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Until {
    /// Every client runs this many lifecycles.
    Count(usize),
    /// Every client runs until this many seconds have passed, then once more.
    Elapsed(f64),
}

struct Lifecycle {
    start_ns: u64,
    admitted_ns: u64,
    ran_ns: u64,
    end_ns: u64,
    verified: bool,
    /// Per-rank results; `None` when admission was refused or the world failed.
    outs: Option<Vec<RankOut>>,
}

struct Survivor {
    verify_ns: u64,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
    bytes: u64,
    epochs: u64,
    /// Canonical encoding of the agreed failed set and epochs consumed.
    decision: Vec<u8>,
}
