//! The measuring loop every workload shares: what one rank does for one op,
//! what it hands back, and how per-rank results fold into a [`Tally`].
//!
//! An *op* is one round of the workload's mix, each member called back to
//! back on every rank. The op's latency sample on a rank is the sum of its
//! member-call durations; completeness, block counts and byte verification
//! run between the calls, outside any latency span, and ranks re-align after
//! a verification so that it stays outside their peers' spans too.

use crate::spans::{SpanName, TraceSink};
use eag_core::{Algorithm, Collective, GatherOutput, MetricSet, Operation};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{CipherSuite, DataMode, Metrics, ProcCtx, WorldSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Every this-many-th op of a timed pass is byte-verified (as are the whole
/// warm-up pass and the last op of every world).
const VERIFY_EVERY: usize = 8;

/// True for the ops of a timed pass that the sampling rule byte-verifies.
pub fn verify_due(op: usize) -> bool {
    op % VERIFY_EVERY == VERIFY_EVERY - 1
}

/// Wall-clock guard on a blocking receive: a wedged collective fails the
/// batch with a typed timeout long before the harness's own limit.
const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// One benchmark cell: the world shape, cipher suite and mix of collectives
/// an op consists of.
#[derive(Clone)]
pub struct Cell {
    pub p: usize,
    pub nodes: usize,
    pub m: usize,
    pub suite: CipherSuite,
    pub mix: Vec<Collective>,
    /// Data seed (input patterns, AEAD key derivation).
    pub seed: u64,
    /// Run-permit gate width `W`.
    pub width: usize,
}

impl Cell {
    /// A fault-free real-mode world for this cell, wall time the only cost.
    pub fn spec(&self) -> WorldSpec {
        let mut spec = WorldSpec::new(
            Topology::new(self.p, self.nodes, Mapping::Block),
            profile::free(),
            DataMode::Real { seed: self.seed },
        );
        spec.suite = self.suite;
        spec.workers = Some(self.width);
        spec.recv_timeout = Some(RECV_TIMEOUT);
        spec
    }

    pub fn labels(&self) -> Vec<String> {
        self.mix.iter().map(label).collect()
    }
}

/// Metric-name label of a collective: the paper name for all-gathers
/// (`O-RD`), `operation.variant` otherwise (`bcast.binomial`).
pub fn label(c: &Collective) -> String {
    match c {
        Collective::Allgather(a) => a.name().to_string(),
        _ => format!("{}.{}", c.operation().name(), c.variant_name()),
    }
}

/// The unencrypted reference the paper compares against.
pub const PLAIN: Collective = Collective::Allgather(Algorithm::Mvapich);

/// How many rank slots `c` fills at rank `me` of a `p`-rank world.
fn expected_blocks(c: &Collective, p: usize, me: usize) -> usize {
    match c.operation() {
        Operation::Allgather | Operation::Allgatherv | Operation::Alltoall => p,
        Operation::Broadcast | Operation::Scatter | Operation::Scatterv => 1,
        Operation::Gather | Operation::Gatherv => {
            if me == 0 {
                p
            } else {
                0
            }
        }
    }
}

/// Blocks present in `out` and their total length.
pub fn blocks_and_bytes(out: &GatherOutput) -> (usize, u64) {
    (0..out.p())
        .filter_map(|r| out.get(r))
        .fold((0, 0), |(n, b), c| (n + 1, b + c.len() as u64))
}

/// A span as a rank records it: offsets from the process epoch.
pub struct RawSpan {
    pub name: SpanName,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one rank hands back from one world.
pub struct RankOut {
    /// Per-op latency samples, ns.
    pub op_ns: Vec<u64>,
    /// Per-member call durations, `[member][op]`, ns.
    pub call_ns: Vec<Vec<u64>>,
    /// Ops that were incomplete, miscounted or failed byte verification.
    pub bad_ops: Vec<u32>,
    /// Output bytes this rank ended up holding, all ops.
    pub out_bytes: u64,
    /// Time this rank spent byte-verifying (it holds a run permit then, so
    /// this is CPU the benchmark itself adds to `cpu_ms_per_op`).
    pub verify_ns: u64,
    /// Traced runs: counters summed over every member call.
    pub counts: Metrics,
    /// Traced runs: each member's counters for op 0 (the `predict` check).
    pub first: Vec<Metrics>,
    pub spans: Vec<RawSpan>,
}

/// Which ops of a world are byte-verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// All of them: warm-up passes, verified lifecycles.
    Every,
    /// Every [`VERIFY_EVERY`]-th and the last: timed passes.
    Sampled,
    /// None: the wire audit, whose traffic must be the workload's alone.
    Never,
}

pub struct LoopCfg<'a> {
    pub cell: &'a Cell,
    pub ops: usize,
    pub verify: Verify,
    pub traced: bool,
    /// Process epoch all span timestamps are offsets from.
    pub epoch: Instant,
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn add(a: Metrics, b: Metrics) -> Metrics {
    Metrics::component_sum(&[a, b])
}

/// Runs `cfg.ops` ops on the calling rank. Shared by every workload whose
/// op is a round of collectives (`sessions_churn` calls it with one op).
pub fn rank_ops(ctx: &mut ProcCtx, cfg: &LoopCfg) -> RankOut {
    let cell = cfg.cell;
    let (p, me, k) = (ctx.p(), ctx.rank(), cell.mix.len());
    let mut out = RankOut {
        op_ns: Vec::with_capacity(cfg.ops),
        call_ns: vec![Vec::with_capacity(cfg.ops); k],
        bad_ops: Vec::new(),
        out_bytes: 0,
        verify_ns: 0,
        counts: Metrics::default(),
        first: vec![Metrics::default(); if cfg.traced { k } else { 0 }],
        spans: Vec::new(),
    };
    for op in 0..cfg.ops {
        let verify = match cfg.verify {
            Verify::Every => true,
            Verify::Sampled => verify_due(op) || op + 1 == cfg.ops,
            Verify::Never => false,
        };
        let op_start = since(cfg.epoch);
        let (mut op_ns, mut ok) = (0u64, true);
        for (i, c) in cell.mix.iter().enumerate() {
            if cfg.traced {
                ctx.reset_accounting();
            }
            let start = since(cfg.epoch);
            let got = c.run(ctx, cell.m);
            let end = since(cfg.epoch);
            op_ns += end - start;
            out.call_ns[i].push(end - start);
            if cfg.traced {
                let counted = ctx.metrics();
                out.counts = add(out.counts, counted);
                if op == 0 {
                    out.first[i] = counted;
                }
                out.spans.push(RawSpan {
                    name: SpanName::Call(i as u8),
                    op: op as u32,
                    start_ns: start,
                    end_ns: end,
                });
            }
            let (blocks, bytes) = blocks_and_bytes(&got);
            ok &= got.is_complete() && blocks == expected_blocks(c, p, me);
            out.out_bytes += bytes;
            if verify {
                let t = Instant::now();
                ok &= catch_unwind(AssertUnwindSafe(|| c.verify(me, &got, cell.seed))).is_ok();
                out.verify_ns += t.elapsed().as_nanos() as u64;
                // Ranks finish verifying at different times. A one-byte
                // all-gather lines them up again, untimed, so that nobody's
                // next latency span contains a peer's verification.
                black_box(PLAIN.run(ctx, 1).is_complete());
            }
        }
        let op_end = since(cfg.epoch);
        out.op_ns.push(op_ns);
        if !ok {
            out.bad_ops.push(op as u32);
        }
        if cfg.traced {
            out.spans.push(RawSpan {
                name: SpanName::Op,
                op: op as u32,
                start_ns: op_start,
                end_ns: op_end,
            });
        }
    }
    out
}

/// What one timed pass measured.
pub struct PassStat {
    pub p50_us: f64,
    pub p95_us: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
}

/// Everything the passes of one run accumulate.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// Pooled latency samples (rank-local for collectives, client-side for
    /// lifecycles and crash runs), ns.
    pub lat_ns: Vec<u64>,
    /// One entry per timed pass; the end-to-end metrics are medians over
    /// these, so a burst of interference costs one pass, not the run.
    pub passes: Vec<PassStat>,
    /// Rank-local member-call durations by label, ns.
    pub call_ns: BTreeMap<String, Vec<u64>>,
    pub plain_ns: Vec<u64>,
    /// Output bytes held by all ranks after completed ops.
    pub out_bytes: u64,
    /// Time ranks spent byte-verifying, summed over ranks.
    pub verify_ns: u64,
    /// Traced runs: counters summed over ranks, and the ops they cover.
    pub counts: Metrics,
    pub counted_ops: u64,
    /// Fields of `Collective::predict` that differ from the measured
    /// critical-path maxima, over the members of the mix.
    pub predict_mismatches: u64,
    /// Last minus first rank finish time per op, ns.
    pub skew_ns: Vec<u64>,
    pub recovery_epochs: u64,
    pub admit_wait_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub shed: u64,
    pub peak_live: u64,
}

impl Tally {
    /// Folds one world's per-rank results in and returns its pooled
    /// rank-local latency samples; which samples enter `lat_ns` is the
    /// workload's choice. `parent` is the span the world ran under (a
    /// session's `run`), if any.
    pub fn absorb(
        &mut self,
        cell: &Cell,
        ops: usize,
        outs: Vec<RankOut>,
        check_predict: bool,
        sink: Option<&mut TraceSink>,
        parent: Option<u32>,
    ) -> Vec<u64> {
        let labels = cell.labels();
        let op_base = self.ops;
        self.ops += ops as u64;
        let mut bad: Vec<u32> = outs
            .iter()
            .flat_map(|o| o.bad_ops.iter().copied())
            .collect();
        bad.sort_unstable();
        bad.dedup();
        self.failed += bad.len() as u64;
        let mut pooled = Vec::with_capacity(ops * outs.len());
        for o in &outs {
            pooled.extend_from_slice(&o.op_ns);
            self.out_bytes += o.out_bytes;
            self.verify_ns += o.verify_ns;
            self.counts = add(self.counts, o.counts);
            for (l, calls) in labels.iter().zip(&o.call_ns) {
                self.call_ns
                    .entry(l.clone())
                    .or_default()
                    .extend_from_slice(calls);
            }
        }
        let traced = outs.iter().any(|o| !o.spans.is_empty());
        if traced {
            self.counted_ops += ops as u64;
            // Rank skew: spread of the op spans' end times across ranks. Every
            // rank records its op spans in op order.
            let ends: Vec<Vec<u64>> = outs
                .iter()
                .map(|o| {
                    let ops = o.spans.iter().filter(|s| s.name == SpanName::Op);
                    ops.map(|s| s.end_ns).collect()
                })
                .collect();
            for op in 0..ops {
                let at_op = ends.iter().filter_map(|e| e.get(op).copied());
                let (lo, hi) = at_op.fold((u64::MAX, 0), |(lo, hi), e| (lo.min(e), hi.max(e)));
                if hi >= lo {
                    self.skew_ns.push(hi - lo);
                }
            }
            if check_predict {
                // The same members mismatch in every world; count them once.
                let wrong: u64 = (0..cell.mix.len())
                    .map(|i| {
                        let firsts: Vec<Metrics> = outs.iter().map(|o| o.first[i]).collect();
                        predict_mismatches(
                            &cell.mix[i],
                            cell,
                            &firsts,
                            self.predict_mismatches == 0,
                        )
                    })
                    .sum();
                self.predict_mismatches = self.predict_mismatches.max(wrong);
            }
        }
        if let Some(sink) = sink {
            for (rank, o) in outs.iter().enumerate() {
                sink.push_rank_spans(rank as u32, op_base, &o.spans, parent);
            }
        }
        pooled
    }

    /// A world that panicked or timed out: every op it was to run failed.
    pub fn absorb_failed_world(&mut self, ops: usize) {
        self.ops += ops as u64;
        self.failed += ops as u64;
    }
}

/// Fields of the closed-form `predict` that differ from the measured
/// critical-path maxima; 0 when no closed form is registered.
fn predict_mismatches(c: &Collective, cell: &Cell, per_rank: &[Metrics], report: bool) -> u64 {
    let Some(want) = c.predict(cell.p, cell.nodes, cell.m) else {
        return 0;
    };
    let max = Metrics::component_max(per_rank);
    let got = MetricSet {
        rc: max.comm_rounds,
        sc: max.sc_payload(),
        re: max.enc_rounds,
        se: max.enc_bytes,
        rd: max.dec_rounds,
        sd: max.dec_bytes,
    };
    let pairs = [
        (want.rc, got.rc),
        (want.sc, got.sc),
        (want.re, got.re),
        (want.se, got.se),
        (want.rd, got.rd),
        (want.sd, got.sd),
    ];
    let wrong = pairs.iter().filter(|(w, g)| w != g).count() as u64;
    if wrong > 0 && report {
        eprintln!("predict mismatch for {c}: predicted {want:?}, measured {got:?}");
    }
    wrong
}
