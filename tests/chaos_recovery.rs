//! Chaos recovery: the issue's acceptance criteria for the fault-injection
//! layer, always-on (no `chaos` feature needed).
//!
//! * At the canonical mix (drop 1% + tamper 1%, fixed seed) every encrypted
//!   algorithm at p = 16 finishes byte-identical to its fault-free run with
//!   non-zero retry counts.
//! * Every *single* injected fault — each fault kind on each inter-node
//!   frame, named by its identity — is recovered by every encrypted
//!   algorithm at p ∈ {4, 8}.
//! * Every inter-node stream a shipped collective sends carries one frame,
//!   fault-free and across a crash recovery: the traffic the transport's
//!   in-order admission is fitted to.
//! * A receive from a rank that exited early fails fast with a typed
//!   `DeadPeer` error carrying the algorithm name as its phase, instead of
//!   hanging.
//! * Property: any *single* injected rank crash — random rank, send step,
//!   before/after-send, and algorithm — resolves within an absolute
//!   deadline to either a complete result at every rank or the identical
//!   `DegradedOutput` at every survivor. Never a hang.
//! * Agreement coordinators dying mid-broadcast, two per instance, or in
//!   the confirming instance leave the survivors' decision uniform.

use eag_bench::harness::{crash_schedule_run, DATA_SEED};
use eag_bench::SimConfig;
use eag_core::{Algorithm, Collective};
use eag_integration::{chaos_config, chaos_run, first_unrecovered, frame_ids};
use eag_netsim::{Crash, FaultKind, FaultPlan, FrameId, Mapping};
use eag_runtime::{try_run, try_run_crashable, FailureCause, Metrics, ProcCtx};
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

/// The recovery engine recovers crashes only. In a world with no crash
/// schedule, an unframed tamper of O-Ring's first frame into node 1 (rank
/// 1 → rank 2, p = 4, N = 2) reaches one decryptor: rank 2 opens it to
/// forward it within its node. `Collective::recover` must not take that
/// forged frame for a crash: the run ends in a typed `AuthFailure` of rank
/// 2 in the algorithm's phase, the same failure the plain run raises.
#[test]
fn recover_does_not_recover_a_forged_frame() {
    let (c, p, nodes, m) = (Collective::Allgather(Algorithm::ORing), 4, 2, 64);
    let id = frame_ids(c, p, nodes, m)
        .into_iter()
        .find(|id| (id.src, id.dst) == (1, 2))
        .expect("O-Ring sends from rank 1 to rank 2");
    let plan = FaultPlan {
        listed: vec![(id, FaultKind::Tamper)],
        ..FaultPlan::default()
    };
    let spec = chaos_config(p, nodes).world_spec(plan);
    let err = try_run_crashable(&spec, |ctx| c.recover(ctx, m))
        .err()
        .expect("a forged frame must not be recovered");
    let detail = "TagMismatch: forged, corrupted, or relabeled ciphertext".to_string();
    assert_eq!(
        (err.rank, err.phase, err.cause),
        (2, "O-Ring", FailureCause::AuthFailure { detail })
    );
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

/// Every single fault — each fault kind on each inter-node frame of an
/// armed fault-free run — is recovered by every encrypted algorithm at
/// p ∈ {4, 8}: output byte-identical to the fault-free run, with exactly
/// one fault injected. Placements name frames by identity, so a failure
/// replays exactly; the first one stops the test.
#[test]
fn any_single_fault_is_recovered() {
    for &algo in Algorithm::encrypted_all() {
        for (p, nodes) in [(4, 2), (8, 4)] {
            let c = Collective::Allgather(algo);
            let ids = frame_ids(c, p, nodes, 64);
            assert!(!ids.is_empty(), "{algo} at p={p} sent no inter-node frame");
            let placements = ids
                .into_iter()
                .flat_map(|id| FaultKind::all().iter().map(move |&kind| vec![(id, kind)]));
            if let Some((listed, r)) = first_unrecovered(&[c], p, nodes, 64, placements) {
                panic!(
                    "{algo} at p={p}: single fault {listed:?} not recovered: {} \
                     ({} injected)",
                    r.verdict(),
                    r.faults_injected
                );
            }
        }
    }
}

/// Every shipped collective: each all-gather algorithm, each
/// varying-capable one as all-gather-v, and every other operation.
fn shipped() -> Vec<Collective> {
    let all = Algorithm::all();
    let mut cs: Vec<Collective> = all.iter().map(|&a| Collective::Allgather(a)).collect();
    cs.extend(
        all.iter()
            .filter(|a| a.supports_varying())
            .map(|&a| Collective::Allgatherv(a)),
    );
    cs.extend(Collective::new_operations_all());
    cs
}

/// Every inter-node stream a collective sends carries one frame: wire
/// tags name the collective epoch and step, and recovery and agreement
/// rounds take fresh ones. The transport's in-order admission is fitted
/// to that traffic (DESIGN.md §4), so a kernel that reuses a tag shows
/// here as a frame with `seq > 0` — in an armed fault-free run of every
/// shipped collective at three shapes, and in one crash-recovery run per
/// operation (a sender of its last-listed frame dies before its first
/// send, so agreement and the shrunk re-run are on the wire too).
#[test]
fn every_stream_a_collective_sends_carries_one_frame() {
    let m = 64;
    for c in shipped() {
        for (p, nodes) in [(8, 4), (12, 3), (16, 4)] {
            let reused: Vec<FrameId> = frame_ids(c, p, nodes, m)
                .into_iter()
                .filter(|id| id.seq > 0)
                .collect();
            assert!(
                reused.is_empty(),
                "{c} at p={p}, N={nodes} reuses a stream: {reused:?}"
            );
        }
    }
    eag_runtime::quiet_expected_panics();
    let (p, nodes) = (8, 4);
    let mut per_operation = vec![
        Collective::Allgather(Algorithm::ORing),
        Collective::Allgatherv(Algorithm::ORing),
    ];
    for c in Collective::new_operations_all() {
        if per_operation.iter().all(|d| d.operation() != c.operation()) {
            per_operation.push(c);
        }
    }
    for c in per_operation {
        let victim = frame_ids(c, p, nodes, m)
            .last()
            .expect("an inter-node frame")
            .src;
        let plan = FaultPlan {
            crashes: vec![Crash::before(victim, 0)],
            ..FaultPlan::default()
        };
        let mut spec = chaos_config(p, nodes).world_spec(plan);
        spec.capture_wire = true;
        let report = try_run_crashable(&spec, |ctx| c.recover(ctx, m))
            .unwrap_or_else(|e| panic!("{c}: crash of rank {victim} not recovered: {e}"));
        assert_eq!(report.crashed, [victim], "{c}: the crash did not fire");
        assert!(Metrics::component_sum(&report.metrics).recoveries > 0);
        let reused: Vec<(usize, usize, u64, u64)> = report
            .wiretap
            .frames()
            .iter()
            .filter(|f| f.seq > 0)
            .map(|f| (f.src, f.dst, f.tag, f.seq))
            .collect();
        assert!(
            reused.is_empty(),
            "{c} recovery reuses a stream: {reused:?}"
        );
    }
}

/// A sender that has moved on into a shared-memory wait still answers
/// NACKs: in an armed world that runs O-Ring and then HS2 at p = 8 over 2
/// nodes, rank 3's O-Ring frame to rank 4 is dropped while rank 3 goes on
/// into HS2's node barrier. That barrier used to block on the segment's own
/// condvar, which never drained the mailbox, so rank 4's NACKs went
/// unanswered and its receive failed with a typed `Timeout` after 10
/// attempts (≈ 2.27 s). Every wait now parks through one loop that admits
/// mail, and urgent mail wakes a segment wait, so rank 3 replays the frame
/// from its barrier. `chaos_sweep_full` runs every ordered pair of
/// encrypted all-gathers this way.
#[test]
fn armed_hs_after_a_collective_recovers_a_single_drop() {
    // Epoch 1 is O-Ring; 0x10_0000 is the logical tag of its first step.
    let drop = FrameId {
        src: 3,
        dst: 4,
        tag: (1 << 40) | 0x10_0000,
        seq: 0,
    };
    let plan = FaultPlan {
        armed: true,
        listed: vec![(drop, FaultKind::Drop)],
        ..FaultPlan::default()
    };
    let result = try_run(&chaos_config(8, 2).world_spec(plan), |ctx: &mut ProcCtx| {
        for algo in [Algorithm::ORing, Algorithm::Hs2] {
            let c = Collective::Allgather(algo);
            let out = c.run(ctx, 64);
            c.verify(ctx.rank(), &out, DATA_SEED);
        }
    });
    if let Err(e) = result {
        panic!("O-Ring then HS2 did not recover a drop of {drop:?}: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

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
