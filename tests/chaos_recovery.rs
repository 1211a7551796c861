//! Chaos recovery: the issue's acceptance criteria for the fault-injection
//! layer, always-on (no `chaos` feature needed).
//!
//! * At the canonical mix (drop 1% + tamper 1%, fixed seed) every encrypted
//!   algorithm at p = 16 finishes byte-identical to its fault-free run with
//!   non-zero retry counts.
//! * Property: any *single* injected fault — one dropped or one tampered
//!   frame at a random position — is recovered by every encrypted algorithm
//!   at p ∈ {4, 8, 16}.
//! * A receive from a rank that exited early fails fast with a typed
//!   `DeadPeer` error carrying the algorithm name as its phase, instead of
//!   hanging.
//! * Property: any *single* injected rank crash — random rank, send step,
//!   before/after-send, and algorithm — resolves within an absolute
//!   deadline to either a complete result at every rank or the identical
//!   `DegradedOutput` at every survivor. Never a hang.
//! * Agreement coordinators dying mid-broadcast, two per instance, or in
//!   the confirming instance leave the survivors' decision uniform.

use eag_bench::harness::crash_schedule_run;
use eag_bench::SimConfig;
use eag_core::{Algorithm, Collective};
use eag_integration::{chaos_config, chaos_run};
use eag_netsim::{Crash, FaultKind, FaultPlan, Mapping};
use eag_runtime::{try_run, FailureCause};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The fixed seed of the acceptance run (also CI's `chaos_sweep` default).
const ACCEPT_SEED: u64 = 0xC0FFEE;

/// The 6-rank / 2-node world the crash properties run in.
fn crash_world() -> SimConfig {
    SimConfig::deterministic(6, 2, Mapping::Block, "noleland")
}

#[test]
fn canonical_mix_all_encrypted_algorithms_recover_byte_identical() {
    let plan = FaultPlan::drop_and_tamper(10, 10, ACCEPT_SEED);
    for &algo in Algorithm::encrypted_all() {
        let r = chaos_run(Collective::Allgather(algo), 16, 8, 128, plan.clone());
        assert!(
            r.byte_identical,
            "{algo} not byte-identical under drop 1% + tamper 1%: {:?}",
            r.error
        );
        assert!(
            r.faults_injected > 0,
            "{algo}: seed {ACCEPT_SEED:#x} injected no faults — acceptance run is vacuous"
        );
        assert!(
            r.retries > 0,
            "{algo}: faults were injected but no retries recorded"
        );
    }
}

#[test]
fn adversarial_tamper_is_recovered_by_hop_verification() {
    // Checksum-evading tamper: only the per-hop GCM check can catch it.
    let mut plan = FaultPlan::only(FaultKind::Tamper, 20, ACCEPT_SEED);
    plan.adversarial_tamper = true;
    for &algo in Algorithm::encrypted_all() {
        let r = chaos_run(Collective::Allgather(algo), 16, 8, 128, plan.clone());
        assert!(
            r.byte_identical,
            "{algo} not byte-identical under adversarial tamper: {:?}",
            r.error
        );
    }
}

#[test]
fn dead_peer_during_collective_fails_with_typed_error_and_phase() {
    // Rank 1 exits without participating; its ring neighbour must fail fast
    // with a structured DeadPeer error whose phase names the algorithm.
    let spec = chaos_config(4, 2).world_spec(FaultPlan::default());
    let err = try_run(&spec, |ctx| {
        if ctx.rank() == 1 {
            return Vec::new();
        }
        Collective::Allgather(Algorithm::ORing)
            .run(ctx, 64)
            .into_blocks()
            .into_iter()
            .flat_map(|b| b.data.to_vec())
            .collect::<Vec<u8>>()
    })
    .err()
    .expect("collective with an absent rank must not succeed");
    assert_eq!(err.phase, "O-Ring", "phase should name the algorithm");
    match err.cause {
        FailureCause::DeadPeer { peer, .. } => assert_eq!(peer, 1),
        other => panic!("expected DeadPeer, got {other}"),
    }
}

/// Coordinator deaths inside the survivor agreement, for every encrypted
/// algorithm at p = 6 over 2 nodes: a round coordinator dying before or
/// after each of its reply sends, two coordinators dying in one instance,
/// a coordinator dying in the confirming instance, and one dying
/// mid-broadcast after two attempt crashes. Every armed agreement crash
/// fires, and the survivors decide one set naming only real crashes and
/// return byte-identical outputs.
#[test]
fn coordinator_deaths_keep_the_decision_uniform() {
    let mut table: Vec<Vec<Crash>> = Vec::new();
    // f = 1: coordinator 0 of the epoch-1 instance answers the five other
    // ranks at its epoch-1 send steps 0–4.
    for step in 0..5 {
        table.push(vec![Crash::before(0, step).at_epoch(1)]);
        table.push(vec![Crash::after(0, step).at_epoch(1)]);
    }
    // f = 2: coordinators 0 and 1 of one instance both die mid-broadcast
    // (rank 1's step 0 is its estimate to coordinator 0).
    table.push(vec![
        Crash::after(0, 1).at_epoch(1),
        Crash::after(1, 2).at_epoch(1),
    ]);
    table.push(vec![
        Crash::before(0, 3).at_epoch(1),
        Crash::before(1, 1).at_epoch(1),
    ]);
    // f = 2: rank 3, the node-1 leader, dies in the attempt, so epoch 1
    // decides {3} and re-runs; coordinator 0 of the epoch-2 confirming
    // instance then dies mid-broadcast.
    table.push(vec![Crash::before(3, 0), Crash::after(0, 1).at_epoch(2)]);
    table.push(vec![Crash::before(3, 0), Crash::before(0, 2).at_epoch(2)]);
    // f = 3: ranks 2 and 4 die in the attempt (where they send), so
    // survivors may enter the instance knowing different sets; coordinator
    // 0 then dies mid-broadcast, before every survivor has the union.
    table.push(vec![
        Crash::before(2, 0),
        Crash::before(4, 0),
        Crash::after(0, 1).at_epoch(1),
    ]);
    table.push(vec![
        Crash::before(2, 0),
        Crash::before(4, 0),
        Crash::before(0, 1).at_epoch(1),
    ]);
    for &algo in Algorithm::encrypted_all() {
        for crashes in &table {
            let r = crash_schedule_run(
                &crash_world(),
                Collective::Allgather(algo),
                64,
                crashes.clone(),
            );
            assert!(
                r.ok(),
                "{algo} {crashes:?} broke the recovery contract: {r:?}"
            );
            // HS non-leaders never send in the attempt, so only the
            // agreement crashes are certain to fire.
            for c in crashes.iter().filter(|c| c.epoch > 0) {
                assert!(
                    r.crashed.contains(&c.rank),
                    "{algo} {crashes:?}: the crash on rank {} never fired",
                    c.rank
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Any single fault — one dropped or one tampered inter-node frame at a
    /// random position — is recovered by every encrypted algorithm, at
    /// p ∈ {4, 8, 16}, with output byte-identical to the fault-free run.
    #[test]
    fn any_single_fault_is_recovered(
        algo_ix in 0..Algorithm::encrypted_all().len(),
        p_ix in 0..3usize,
        nth in 0u64..12,
        tamper in any::<bool>(),
    ) {
        let algo = Algorithm::encrypted_all()[algo_ix];
        let (p, nodes) = [(4, 2), (8, 4), (16, 8)][p_ix];
        let kind = if tamper { FaultKind::Tamper } else { FaultKind::Drop };
        let plan = FaultPlan {
            fault_nth_inter_frame: Some((nth, kind)),
            ..FaultPlan::default()
        };
        let r = chaos_run(Collective::Allgather(algo), p, nodes, 64, plan);
        prop_assert!(
            r.byte_identical,
            "{algo} at p={p} did not recover a single {} of inter frame {nth}: {:?}",
            kind.label(),
            r.error
        );
    }

    /// Any single rank crash — random rank, send step, before/after-send,
    /// and encrypted algorithm — yields, within an absolute deadline,
    /// either a complete result at every rank (the crash never fired) or
    /// the same `DegradedOutput` at every survivor. Never a hang.
    #[test]
    fn any_single_crash_recovers_or_completes(
        algo_ix in 0..Algorithm::encrypted_all().len(),
        rank in 0..6usize,
        step in 0u64..4,
        after in any::<bool>(),
    ) {
        let algo = Algorithm::encrypted_all()[algo_ix];
        let crash = if after {
            Crash::after(rank, step)
        } else {
            Crash::before(rank, step)
        };
        let t0 = Instant::now();
        let r = crash_schedule_run(&crash_world(), Collective::Allgather(algo), 64, vec![crash]);
        let elapsed = t0.elapsed();
        prop_assert!(
            elapsed < Duration::from_secs(30),
            "{algo}: crash at rank {rank} step {step} took {elapsed:?} — \
             the failure detector should resolve in milliseconds"
        );
        prop_assert!(
            r.ok(),
            "{algo}: crash at rank {rank} step {step} (after={after}) broke \
             the recovery contract: {r:?}"
        );
        if r.fired {
            prop_assert_eq!(r.survivors, 5);
            // Either the crash was decided and every survivor completed
            // exactly one shrink-and-recover, or the victim died after
            // contributing its block (e.g. after its last send) and the
            // survivors uniformly kept the complete output. Uniformity is
            // the contract: a mixed count would mean divergence.
            prop_assert!(
                r.recoveries == 5 || r.recoveries == 0,
                "non-uniform recovery count {} across 5 survivors",
                r.recoveries
            );
        } else {
            prop_assert_eq!(r.survivors, 6);
            prop_assert_eq!(r.recoveries, 0);
        }
    }

    /// Any double-crash schedule — two distinct ranks, random steps, the
    /// second crash optionally armed at the victim's first send of the
    /// first agreement instance — resolves within the deadline to one uniform decision:
    /// identical failed set (naming only real crashes) and byte-identical
    /// degraded output at every survivor. Never a hang.
    #[test]
    fn any_double_crash_schedule_recovers_uniformly(
        algo_ix in 0..Algorithm::encrypted_all().len(),
        rank1 in 0..6usize,
        rank2_off in 1..6usize,
        step1 in 0u64..3,
        step2 in 0u64..3,
        in_agreement in any::<bool>(),
    ) {
        let algo = Algorithm::encrypted_all()[algo_ix];
        let rank2 = (rank1 + rank2_off) % 6;
        let first = Crash::before(rank1, step1);
        let second = if in_agreement {
            Crash::before(rank2, 0).at_epoch(1)
        } else {
            Crash::before(rank2, step2)
        };
        let t0 = Instant::now();
        let r = crash_schedule_run(&crash_world(), Collective::Allgather(algo), 64, vec![first, second]);
        let elapsed = t0.elapsed();
        prop_assert!(
            elapsed < Duration::from_secs(30),
            "{algo}: schedule [{rank1}@{step1}, {rank2}@{}] took {elapsed:?}",
            if in_agreement { "0e1".to_string() } else { step2.to_string() }
        );
        prop_assert!(
            r.ok(),
            "{algo}: schedule [{rank1}@{step1}, {rank2}] (agreement={in_agreement}) \
             broke the recovery contract: {r:?}"
        );
        prop_assert!(r.survivors >= 4, "more ranks died than were scheduled");
    }
}
