//! Virtual-time trace recording and active-adversary fault injection.

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, BusyBreakdown, DataMode, EventKind, FaultPlan, WorldSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// An on-path adversary corrupting any inter-node frame aborts every
/// encrypted collective (GCM tag mismatch) — wrong data is never delivered.
#[test]
fn corrupting_any_early_frame_aborts_encrypted_collectives() {
    for &algo in Algorithm::encrypted_all() {
        for frame in [0u64, 1, 2] {
            let mut spec = WorldSpec::new(
                Topology::new(8, 4, Mapping::Block),
                profile::free(),
                DataMode::Real { seed: SEED },
            );
            spec.faults = FaultPlan {
                corrupt_nth_inter_frame: Some(frame),
                ..FaultPlan::default()
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                run(&spec, move |ctx| {
                    Collective::Allgather(algo).run(ctx, 128).verify(SEED);
                })
            }));
            assert!(
                result.is_err(),
                "{algo}: corruption of inter-node frame {frame} went undetected"
            );
        }
    }
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
    spec.faults = FaultPlan {
        corrupt_nth_inter_frame: Some(0),
        ..FaultPlan::default()
    };
    let report = run(&spec, |ctx| {
        let out = Collective::Allgather(Algorithm::Ring).run(ctx, 128);
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
