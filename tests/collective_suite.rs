//! The collective-suite smoke: every new operation (broadcast,
//! gather/scatter incl. the irregular variants, all-to-all) under
//! fixed-seed chaos and under multi-crash recovery, plus the `allgatherv`
//! crash-injection acceptance test (variable lengths must survive a
//! shrink and re-run byte-identically).
//!
//! CI runs this target as the `collective-suite` job.

use eag_bench::harness::{crash_schedule_run, DATA_SEED};
use eag_bench::SimConfig;
use eag_core::{varying_lens, Algorithm, AlltoallAlgo, BcastAlgo, Collective, RootedAlgo};
use eag_integration::{chaos_config, chaos_run};
use eag_netsim::{Crash, FaultPlan, Mapping};
use eag_runtime::try_run;

const CHAOS_SEED: u64 = 0xC0FFEE;

/// The 8-rank / 4-node world the crash cases run in.
fn crash_world() -> SimConfig {
    SimConfig::deterministic(8, 4, Mapping::Block, "noleland")
}

#[test]
fn every_new_collective_recovers_from_canonical_chaos_mix() {
    // Fixed-seed drop 1% + tamper 1%: every new operation must deliver
    // byte-identical results to its fault-free run.
    let plan = FaultPlan::drop_and_tamper(10, 10, CHAOS_SEED);
    for c in Collective::new_operations_all() {
        let r = chaos_run(c, 16, 8, 128, plan.clone());
        assert!(
            r.byte_identical,
            "{c} not byte-identical under drop 1% + tamper 1%: {:?}",
            r.error
        );
    }
}

#[test]
fn every_new_collective_survives_a_single_crash() {
    // Victims are ranks that send in the main phase of every variant
    // (interior tree ranks), so the armed crash reliably fires.
    for c in Collective::new_operations_all() {
        let victim = match c {
            Collective::Scatter(RootedAlgo::Linear) | Collective::Scatterv(RootedAlgo::Linear) => 0,
            _ => 4,
        };
        let r = crash_schedule_run(&crash_world(), c, 64, vec![Crash::before(victim, 1)]);
        assert!(
            r.ok(),
            "{c}: single crash broke the recovery contract: {r:?}"
        );
        if r.fired {
            assert_eq!(r.survivors, 7, "{c}");
            assert_eq!(r.crashed, vec![victim], "{c}");
            assert!(r.recoveries > 0, "{c}: crash fired but nothing re-ran");
        }
    }
}

#[test]
fn every_new_collective_survives_a_double_crash() {
    for c in Collective::new_operations_all() {
        let r = crash_schedule_run(
            &crash_world(),
            c,
            64,
            vec![Crash::before(2, 1), Crash::before(5, 0).at_epoch(1)],
        );
        assert!(
            r.ok(),
            "{c}: double crash broke the recovery contract: {r:?}"
        );
        assert!(r.survivors >= 6, "{c}: more ranks died than scheduled");
    }
}

#[test]
fn rooted_collectives_degrade_cleanly_when_the_root_dies() {
    // Rank 0 is the root of every rooted operation and sends in every
    // variant's main phase. With the root in the failed set the data is
    // lost: every survivor must converge on the same empty-expectation
    // output rather than inventing blocks.
    for c in [
        Collective::Broadcast(BcastAlgo::Binomial),
        Collective::Broadcast(BcastAlgo::Pipelined),
        Collective::Gather(RootedAlgo::Binomial),
        Collective::Gatherv(RootedAlgo::Linear),
        Collective::Scatter(RootedAlgo::Binomial),
        Collective::Scatterv(RootedAlgo::Binomial),
    ] {
        let r = crash_schedule_run(&crash_world(), c, 64, vec![Crash::before(0, 1)]);
        assert!(r.ok(), "{c}: root death broke the recovery contract: {r:?}");
        if r.fired {
            assert_eq!(r.crashed, vec![0], "{c}");
        }
    }
}

#[test]
fn varying_allgather_crash_preserves_variable_lengths_byte_identically() {
    // The satellite acceptance test: an allgatherv with per-rank lengths
    // survives a shrink — the survivors re-run with the *original*
    // lengths and every survivor's degraded output is byte-identical.
    let (cfg, m) = (crash_world(), 96usize);
    let p = cfg.p;
    let lens = varying_lens(p, m);
    for algo in [
        Algorithm::ORing,  // group- and varying-capable: re-runs as itself
        Algorithm::OBruck, // ditto, log-round
        Algorithm::Naive,
        Algorithm::CRing, // varying but not group-capable: falls back to O-Ring
    ] {
        let c = Collective::Allgatherv(algo);
        let r = crash_schedule_run(&cfg, c, m, vec![Crash::before(3, 1)]);
        assert!(r.ok(), "{c}: crash broke the recovery contract: {r:?}");
        assert!(
            r.fired,
            "{c}: the armed crash never fired — test is vacuous"
        );
        assert_eq!(r.crashed, vec![3], "{c}");
        assert!(r.recoveries > 0, "{c}");
        assert_eq!(
            lens,
            varying_lens(p, m),
            "canonical length derivation must be stable"
        );
    }
    // HS2 moves data through shared memory, so a send-step-armed crash
    // never fires in its main phase; it still must complete cleanly under
    // the recovery wrapper (and would fall back to O-Ring on a shrink).
    let r = crash_schedule_run(
        &cfg,
        Collective::Allgatherv(Algorithm::Hs2),
        m,
        vec![Crash::before(3, 1)],
    );
    assert!(r.ok(), "allgatherv/HS2 under recovery wrapper: {r:?}");
}

#[test]
fn alltoall_double_crash_keeps_pairwise_outputs_consistent() {
    // A personalized exchange under two crashes: every survivor must end
    // with exactly the survivor-sourced blocks addressed to *it*.
    for variant in [AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck] {
        let c = Collective::Alltoall(variant);
        let r = crash_schedule_run(
            &crash_world(),
            c,
            64,
            vec![Crash::before(1, 2), Crash::before(6, 1)],
        );
        assert!(r.ok(), "{c}: {r:?}");
    }
}

#[test]
fn a_failing_collective_names_its_operation_as_the_phase() {
    // One rank never joins: whoever waits on it fails with a typed error
    // whose phase tells the operations apart ("binomial" alone would not).
    for (c, absent, phase) in [
        (Collective::Broadcast(BcastAlgo::Binomial), 0, "bcast"),
        (Collective::Gather(RootedAlgo::Binomial), 1, "gather"),
        (Collective::Scatterv(RootedAlgo::Linear), 0, "scatterv"),
        (Collective::Alltoall(AlltoallAlgo::Pairwise), 1, "alltoall"),
    ] {
        let err = try_run(
            &chaos_config(4, 2).world_spec(FaultPlan::default()),
            move |ctx| {
                if ctx.rank() != absent {
                    c.run(ctx, 64);
                }
            },
        )
        .err()
        .expect("a collective with an absent rank must not succeed");
        assert_eq!(err.phase, phase, "{c}");
    }
}

#[test]
fn data_seed_is_the_shared_chaos_seed() {
    // Chaos and crash runs verify against one DATA_SEED; keep it pinned so
    // the committed recovery cells stay comparable.
    assert_eq!(DATA_SEED, 7);
}
