//! Virtual-time trace recording and active-adversary fault injection.

use eag_bench::harness::DATA_SEED;
use eag_core::{Algorithm, Collective};
use eag_integration::{chaos_config, frame_ids};
use eag_netsim::{profile, FaultKind, FrameId, Mapping, Topology};
use eag_runtime::{
    run, run_crashable, try_run, BusyBreakdown, Crash, DataMode, EventKind, FailureCause,
    FaultPlan, Metrics, RetryPolicy, Trace, WorldSpec,
};
use std::time::Duration;

const SEED: u64 = 0x7A;

fn traced_spec(p: usize, nodes: usize) -> WorldSpec {
    let mut s = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed: SEED },
    );
    s.trace = true;
    s.nic_contention = false;
    s
}

#[test]
fn traces_cover_every_rank_and_stay_monotone() {
    let report = run(&traced_spec(8, 4), |ctx| {
        Collective::Allgather(Algorithm::Hs2)
            .run(ctx, 256)
            .verify(SEED);
    });
    assert_eq!(report.traces.len(), 8);
    for (rank, trace) in report.traces.iter().enumerate() {
        assert!(!trace.is_empty(), "rank {rank} recorded nothing");
        let mut prev_end = 0.0f64;
        for e in trace {
            assert!(e.start_us >= prev_end - 1e-9, "rank {rank}: overlap");
            assert!(e.end_us >= e.start_us, "rank {rank}: negative duration");
            prev_end = e.end_us;
        }
        // The last event ends at the rank's final clock.
        assert!((prev_end - report.clocks_us[rank]).abs() < 1e-9);
    }
}

#[test]
fn trace_accounts_for_the_whole_critical_path() {
    let report = run(&traced_spec(8, 4), |ctx| {
        Collective::Allgather(Algorithm::CRing)
            .run(ctx, 1024)
            .verify(SEED);
    });
    for (rank, trace) in report.traces.iter().enumerate() {
        let busy = BusyBreakdown::of(trace).total_us();
        // Events are contiguous intervals on the virtual clock, so their sum
        // can never exceed the final clock; it can be less only by the gaps
        // between an arrival and the next operation (there are none here).
        assert!(
            busy <= report.clocks_us[rank] + 1e-9,
            "rank {rank}: busy {busy} > clock {}",
            report.clocks_us[rank]
        );
    }
}

#[test]
fn traces_show_the_expected_crypto_ops() {
    let report = run(&traced_spec(8, 4), |ctx| {
        Collective::Allgather(Algorithm::Naive)
            .run(ctx, 64)
            .verify(SEED);
    });
    for trace in &report.traces {
        let encs = trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Encrypt { .. }))
            .count();
        let decs = trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Decrypt { .. }))
            .count();
        assert_eq!(encs, 1, "Naive encrypts exactly once per rank");
        assert_eq!(decs, 7, "Naive decrypts p-1 ciphertexts");
    }
}

#[test]
fn gantt_renders_all_ranks() {
    let report = run(&traced_spec(4, 2), |ctx| {
        Collective::Allgather(Algorithm::Hs1)
            .run(ctx, 64)
            .verify(SEED);
    });
    let chart = eag_runtime::trace::render_gantt(&report.traces, 60);
    for rank in 0..4 {
        assert!(chart.contains(&format!("rank {rank:>4}")));
    }
    assert!(chart.contains('E') || chart.contains('D'));
}

/// Folds each rank's trace with `Metrics::add` and asserts it reproduces
/// that rank's metrics field for field — the rope copy probe and the
/// operation label are not events, so both sides leave them out. Returns
/// the sum of the folds, for checking what the run covered.
fn fold_traces(traces: &[Trace], metrics: &[Metrics]) -> Metrics {
    assert_eq!(traces.len(), metrics.len());
    let mut folds = Vec::new();
    for (rank, (trace, m)) in traces.iter().zip(metrics).enumerate() {
        let mut folded = Metrics::default();
        for e in trace {
            folded.add(rank, &e.kind);
        }
        let mut want = *m;
        (want.memcpy_bytes, want.buf_allocs, want.operation) = (0, 0, 0);
        assert_eq!(
            folded, want,
            "rank {rank}: the trace does not fold to its metrics"
        );
        folds.push(folded);
    }
    Metrics::component_sum(&folds)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_millis(10),
        max_attempts: 10,
        backoff: 1.5,
    }
}

#[test]
fn every_rank_trace_folds_to_its_metrics() {
    // A plain-channel all-gather: sends, receives, seals and opens.
    let plain = run(&traced_spec(8, 4), |ctx| {
        Collective::Allgather(Algorithm::ORing)
            .run(ctx, 256)
            .verify(SEED);
    });
    let sum = fold_traces(&plain.traces, &plain.metrics);
    assert!(sum.comm_rounds > 0 && sum.enc_rounds > 0 && sum.dec_rounds > 0);

    // HS2: shared-memory copies and node barriers.
    let hs2 = run(&traced_spec(8, 4), |ctx| {
        Collective::Allgather(Algorithm::Hs2)
            .run(ctx, 256)
            .verify(SEED);
    });
    assert!(fold_traces(&hs2.traces, &hs2.metrics).copies > 0);

    // An armed plan: injected faults, detections, NACKs, retransmits and
    // dropped duplicates.
    let mut armed = traced_spec(8, 4);
    armed.faults = FaultPlan {
        seed: SEED,
        drop_permille: 100,
        duplicate_permille: 100,
        reorder_permille: 100,
        tamper_permille: 100,
        ..FaultPlan::default()
    };
    armed.retry = fast_retry();
    let chaos = run(&armed, |ctx| {
        Collective::Allgather(Algorithm::ORing)
            .run(ctx, 256)
            .verify(SEED);
    });
    let sum = fold_traces(&chaos.traces, &chaos.metrics);
    assert!(
        sum.faults_injected > 0
            && sum.faults_detected > 0
            && sum.nacks_sent > 0
            && sum.retransmits > 0
            && sum.dup_frames_dropped > 0,
        "the armed run left a recovery path unexercised: {sum:?}"
    );

    // One crash, detected and recovered by `recover_collective`. The
    // crashed rank's own marker is not a detection.
    let mut crashing = traced_spec(6, 2);
    crashing.faults = FaultPlan {
        crashes: vec![Crash::before(3, 1)],
        ..FaultPlan::default()
    };
    crashing.retry = fast_retry();
    let crash = run_crashable(&crashing, |ctx| {
        Collective::Allgather(Algorithm::ORing).recover(ctx, 48)
    });
    assert_eq!(crash.crashed, vec![3]);
    assert_eq!(crash.metrics[3].crashes_detected, 0);
    let sum = fold_traces(&crash.traces, &crash.metrics);
    assert!(sum.crashes_detected > 0 && sum.recoveries > 0, "{sum:?}");
}

/// An unframed plan tampering with frame `id`: the unrecovered on-path
/// adversary.
fn tamper(id: FrameId) -> FaultPlan {
    FaultPlan {
        listed: vec![(id, FaultKind::Tamper)],
        ..FaultPlan::default()
    }
}

/// An on-path adversary tampering with any inter-node frame — every frame
/// of every encrypted all-gather at p ∈ {4, 8}, one run each — aborts the
/// collective with a typed `AuthFailure` (GCM tag mismatch): wrong data is
/// never delivered.
#[test]
fn tampering_any_frame_aborts_encrypted_collectives() {
    let mut runs = 0;
    for &algo in Algorithm::encrypted_all() {
        for (p, nodes) in [(4, 2), (8, 4)] {
            let c = Collective::Allgather(algo);
            for id in frame_ids(c, p, nodes, 64) {
                let spec = chaos_config(p, nodes).world_spec(tamper(id));
                let result = try_run(&spec, |ctx| c.run(ctx, 64).verify(DATA_SEED));
                match result.map(|_| ()).map_err(|e| e.cause) {
                    Err(FailureCause::AuthFailure { .. }) => runs += 1,
                    other => panic!("{algo} at p={p}: tamper of {id:?} gave {other:?}"),
                }
            }
        }
    }
    assert!(runs > 0, "no frame was tampered with");
}

/// The same corruption against an *unencrypted* all-gather is silent: the
/// collective completes and delivers wrong bytes. This is the integrity
/// motivation of the paper's threat model.
#[test]
fn corruption_is_silent_without_encryption() {
    let mut spec = WorldSpec::new(
        Topology::new(8, 4, Mapping::Block),
        profile::free(),
        DataMode::Real { seed: SEED },
    );
    let ring = Collective::Allgather(Algorithm::Ring);
    spec.faults = tamper(frame_ids(ring, 8, 4, 128)[0]);
    let report = run(&spec, |ctx| {
        let out = ring.run(ctx, 128);
        // Completes without any error...
        assert!(out.is_complete());
        // ...but at least one delivered block no longer matches its source.
        let mut corrupted = 0;
        for (rank, block) in out.into_blocks().into_iter().enumerate() {
            if *block.data.rope() != eag_runtime::pattern_block(SEED, rank, 128) {
                corrupted += 1;
            }
        }
        corrupted
    });
    let total: usize = report.outputs.iter().sum();
    assert!(total > 0, "corruption should have reached some output");
}
