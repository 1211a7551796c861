//! Tests of the walks, and end-to-end tests of the crash-recovery engine
//! ([`crate::recovery`]) on real worlds — detection, agreement traffic,
//! shrunk re-runs and the uniformity contract across survivors. The
//! agreement protocol itself is model-checked in `agreement_tests.rs`.

use super::*;
use crate::recovery::recover_collective;
use crate::{Algorithm, Collective, DegradedOutput, GatherOutput};
use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{run, run_crashable, DataMode, Fallible, RetryPolicy, WorldSpec};
use std::time::Duration;

fn spec(p: usize, nodes: usize) -> WorldSpec {
    WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::free(),
        DataMode::Real { seed: 3 },
    )
}

fn origins_of(items: &[Item]) -> Vec<usize> {
    let mut o: Vec<usize> = items.iter().flat_map(|i| i.origins().to_vec()).collect();
    o.sort_unstable();
    o.dedup();
    o
}

#[test]
fn floor_pow2_and_ceil_log2() {
    assert_eq!(floor_pow2(1), 1);
    assert_eq!(floor_pow2(2), 2);
    assert_eq!(floor_pow2(7), 4);
    assert_eq!(floor_pow2(8), 8);
    assert_eq!(floor_pow2(91), 64);
    assert_eq!(ceil_log2(1), 0);
    assert_eq!(ceil_log2(2), 1);
    assert_eq!(ceil_log2(7), 3);
    assert_eq!(ceil_log2(8), 3);
}

fn check_mover(
    p: usize,
    mover: impl Fn(&mut eag_runtime::ProcCtx, &[Rank], Vec<Item>) -> Fallible<Vec<Item>> + Sync,
) {
    let members: Vec<Rank> = (0..p).collect();
    let report = run(&spec(p, 1), |ctx| {
        let mine = vec![Item::Plain(ctx.my_block(4))];
        let all = mover(ctx, &members, mine).unwrap();
        origins_of(&all)
    });
    for out in report.outputs {
        assert_eq!(out, (0..p).collect::<Vec<_>>());
    }
}

#[test]
fn ring_gathers_everything() {
    for p in [1, 2, 3, 5, 8] {
        check_mover(p, |ctx, m, items| ring_allgather_items(ctx, m, items, 100));
    }
}

#[test]
fn rd_gathers_everything_any_q() {
    for p in [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16] {
        check_mover(p, |ctx, m, items| rd_allgather_items(ctx, m, items, 100));
    }
}

#[test]
fn bruck_gathers_everything_any_q() {
    for p in [1, 2, 3, 5, 7, 8, 11, 16] {
        check_mover(p, |ctx, m, items| bruck_allgather_items(ctx, m, items, 100));
    }
}

#[test]
fn rd_round_count_is_lg_p_for_powers_of_two() {
    let members: Vec<Rank> = (0..8).collect();
    let report = run(&spec(8, 1), |ctx| {
        let mine = vec![Item::Plain(ctx.my_block(4))];
        rd_allgather_items(ctx, &members, mine, 100).unwrap().len()
    });
    for m in &report.metrics {
        assert_eq!(m.comm_rounds, 3);
    }
}

#[test]
fn rd_round_count_bounded_for_general_q() {
    let members: Vec<Rank> = (0..6).collect();
    let report = run(&spec(6, 1), |ctx| {
        let mine = vec![Item::Plain(ctx.my_block(4))];
        origins_of(&rd_allgather_items(ctx, &members, mine, 100).unwrap())
    });
    for out in &report.outputs {
        assert_eq!(out, &(0..6).collect::<Vec<_>>());
    }
    for m in &report.metrics {
        assert!(m.comm_rounds <= 2 * 3, "rounds {} > 2 lg q", m.comm_rounds);
    }
}

#[test]
fn gather_and_bcast_roundtrip() {
    let members: Vec<Rank> = (0..5).collect();
    let report = run(&spec(5, 1), |ctx| {
        let mine = vec![Item::Plain(ctx.my_block(4))];
        let gathered = gather_items_to_root(ctx, &members, mine, 10).unwrap();
        if ctx.rank() == 0 {
            assert_eq!(origins_of(gathered.as_ref().unwrap()), vec![0, 1, 2, 3, 4]);
        }
        let all = bcast_items_from_root(ctx, &members, gathered.unwrap_or_default(), 200).unwrap();
        origins_of(&all)
    });
    for out in report.outputs {
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }
}

#[test]
fn bcast_works_for_many_sizes() {
    for q in [1usize, 2, 3, 4, 6, 7, 8, 9] {
        let members: Vec<Rank> = (0..q).collect();
        let report = run(&spec(q, 1), |ctx| {
            let items = if ctx.rank() == 0 {
                vec![Item::Plain(ctx.my_block(4))]
            } else {
                Vec::new()
            };
            let got = bcast_items_from_root(ctx, &members, items, 50).unwrap();
            origins_of(&got)
        });
        for out in report.outputs {
            assert_eq!(out, vec![0], "q = {q}");
        }
    }
}

#[test]
fn node_groups_partition_the_world_one_rank_per_node() {
    for mapping in [Mapping::Block, Mapping::Cyclic] {
        // Includes ℓ = 1 (every rank its own node) and N = 1.
        for (p, nodes) in [(12, 3), (8, 4), (6, 6), (5, 1), (1, 1)] {
            let topo = Topology::new(p, nodes, mapping);
            let ell = p / nodes;
            let groups: Vec<Vec<Rank>> = (0..ell).map(|g| node_group(&topo, g)).collect();
            let mut all: Vec<Rank> = groups.concat();
            all.sort_unstable();
            assert_eq!(all, (0..p).collect::<Vec<_>>(), "p={p} N={nodes} {mapping}");
            for (g, group) in groups.iter().enumerate() {
                let nodes_of: Vec<usize> = group.iter().map(|&r| topo.node_of(r)).collect();
                assert_eq!(nodes_of, (0..nodes).collect::<Vec<_>>(), "group {g}");
                assert!(group.iter().all(|&r| topo.local_index(r) == g), "group {g}");
            }
            let mut leaders: Vec<Rank> = (0..p).filter(|&r| topo.is_leader(r)).collect();
            leaders.sort_by_key(|&r| topo.node_of(r));
            assert_eq!(groups[0], leaders, "p={p} N={nodes} {mapping}");
        }
    }
}

#[test]
fn ring_respects_member_order() {
    // Ring over a custom permutation still gathers everything.
    let members: Vec<Rank> = vec![2, 0, 3, 1];
    let report = run(&spec(4, 1), |ctx| {
        let mine = vec![Item::Plain(ctx.my_block(4))];
        origins_of(&ring_allgather_items(ctx, &members, mine, 7).unwrap())
    });
    for out in report.outputs {
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}

// --- crash recovery, end to end ---

fn recover(ctx: &mut ProcCtx, algo: Algorithm, m: usize) -> DegradedOutput {
    Collective::Allgather(algo).recover(ctx, m)
}

fn crash_schedule_world(p: usize, nodes: usize, crashes: Vec<Crash>) -> WorldSpec {
    let mut s = spec(p, nodes);
    // `check_degraded` reads detections off the `Crash` markers.
    s.trace = true;
    s.faults = FaultPlan {
        crashes,
        ..FaultPlan::default()
    };
    s.retry = RetryPolicy {
        attempt_timeout: Duration::from_millis(20),
        max_attempts: 10,
        backoff: 1.5,
    };
    s
}

fn crash_world(p: usize, nodes: usize, crash: Crash) -> WorldSpec {
    crash_schedule_world(p, nodes, vec![crash])
}

/// Asserts the degraded contract across a crashed world's survivors:
/// every survivor agreed on `failed`, verified bit-exact, recovered
/// at least once, and produced byte-identical output (which covers
/// the epoch count too — it is folded into the canonical encoding);
/// and some survivor's failure detector saw each crash. Not every
/// survivor need see one: a rank that never waits on the dead rank
/// learns the crash from an agreement coordinator's union.
fn check_degraded(report: &eag_runtime::CrashReport<DegradedOutput>, failed: &[Rank]) {
    assert_eq!(report.crashed, failed);
    let mut canon: Option<Vec<u8>> = None;
    for (rank, out) in report.survivor_outputs() {
        assert_eq!(out.failed, failed, "rank {rank} agreed on a different set");
        assert!(out.epochs >= 1, "rank {rank} recovered without an epoch");
        out.verify(3);
        assert!(report.metrics[rank].recoveries >= 1, "rank {rank}");
        let bytes = out.canonical_bytes();
        match &canon {
            Some(c) => assert_eq!(c, &bytes, "rank {rank} diverged"),
            None => canon = Some(bytes),
        }
    }
    for &f in failed {
        assert!(report.outputs[f].is_none(), "crashed rank {f} has output");
        let detected = report.survivor_outputs().any(|(rank, _)| {
            report.traces[rank]
                .iter()
                .any(|e| e.kind == eag_runtime::EventKind::Crash { rank: f })
        });
        assert!(detected, "no survivor detected the crash of rank {f}");
    }
}

#[test]
fn recover_without_chaos_is_a_plain_allgather() {
    // No fault plan, so f = 0: the budget rule returns the completed
    // attempt at once with no agreement traffic — the world seals
    // exactly what a plain all-gather seals — at every rank.
    let report = run(&spec(6, 2), |ctx| recover(ctx, Algorithm::ORing, 32));
    let plain = run(&spec(6, 2), |ctx| {
        Collective::Allgather(Algorithm::ORing).run(ctx, 32);
    });
    let sealed =
        |metrics: &[eag_runtime::Metrics]| -> u64 { metrics.iter().map(|m| m.enc_rounds).sum() };
    assert_eq!(sealed(&report.metrics), sealed(&plain.metrics));
    let mut canon: Option<Vec<u8>> = None;
    for out in &report.outputs {
        assert!(out.is_complete());
        assert!(out.failed.is_empty());
        out.verify(3);
        let bytes = out.canonical_bytes();
        match &canon {
            Some(c) => assert_eq!(c, &bytes),
            None => canon = Some(bytes),
        }
    }
    for m in &report.metrics {
        assert_eq!(m.recoveries, 0);
        assert_eq!(m.crashes_detected, 0);
    }
}

#[test]
fn armed_chaos_without_a_fired_crash_completes_cleanly() {
    // The crash is planned at a send step the rank never reaches, so
    // the agreement rounds run against an all-alive world and must
    // conclude "nobody failed".
    let s = crash_world(4, 2, Crash::before(0, 1_000_000));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORd, 32));
    assert!(report.crashed.is_empty());
    for (_, out) in report.survivor_outputs() {
        assert!(out.is_complete());
        out.verify(3);
    }
    assert_eq!(report.survivor_outputs().count(), 4);
}

#[test]
fn crash_mid_ring_yields_identical_degraded_outputs() {
    // Rank 3 dies before its second ring send; the five survivors must
    // agree on {3}, re-run over the shrunk group, and return
    // byte-identical degraded outputs.
    let s = crash_world(6, 2, Crash::before(3, 1));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORing, 48));
    check_degraded(&report, &[3]);
}

#[test]
fn crash_after_a_send_still_recovers() {
    // The dying rank's last frame is delivered first (crash-after-send),
    // exercising the drain-then-fail order in the failure detector.
    let s = crash_world(5, 1, Crash::after(2, 0));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::OBruck, 32));
    check_degraded(&report, &[2]);
}

#[test]
fn shared_memory_algorithm_recovers_via_group_fallback() {
    // HS2 cannot run over a shrunk group (it assumes whole nodes), so
    // recovery falls back to O-Ring. The crash also exercises the
    // shared-segment cascade: the dead leader's node is aborted by the
    // runner, and the *other* node's non-leaders are unblocked by their
    // own leader's attempt abandonment.
    let s = crash_world(6, 2, Crash::before(0, 0));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::Hs2, 48));
    check_degraded(&report, &[0]);
}

#[test]
fn every_encrypted_algorithm_survives_an_early_crash() {
    // Rank 0 is the node-0 leader: it performs peer-bound sends in every
    // algorithm (non-leader ranks never send in the HS family, so a
    // crash planned on one would never fire there).
    for &algo in Algorithm::encrypted_all() {
        let s = crash_world(6, 2, Crash::before(0, 0));
        let report = run_crashable(&s, move |ctx| recover(ctx, algo, 32));
        check_degraded(&report, &[0]);
    }
}

#[test]
fn epoch_zero_crash_on_a_sendless_rank_never_fires() {
    // Rank 1 is an HS2 non-leader: it performs no peer-bound sends
    // during the epoch-0 attempt, so a crash armed at epoch 0 never
    // matches its per-epoch send counter. The agreement rounds run at
    // epoch 1 and conclude "nobody failed"; the run completes cleanly.
    let s = crash_world(6, 2, Crash::before(1, 0));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::Hs2, 32));
    assert!(report.crashed.is_empty());
    for (_, out) in report.survivor_outputs() {
        assert!(out.is_complete());
        out.verify(3);
    }
    assert_eq!(report.survivor_outputs().count(), 6);
}

#[test]
fn crash_inside_an_agreement_round_is_tolerated() {
    // The same sendless HS2 non-leader, but armed for epoch 1: its
    // first peer-bound send ever is its estimate to coordinator 0 in
    // agreement round 0, where it dies.
    // Whether the crash lands before or after the last survivor has
    // left the epoch-0 attempt is a scheduling race, so two decisions
    // are sound: "nobody failed" (the victim's block was gathered
    // before it died — keep the complete output) or "{1} failed" (a
    // same-node peer was still blocked on shared memory and its
    // attempt was aborted). The contract is uniformity: every
    // survivor decides the same set and returns byte-identical bytes.
    let s = crash_world(6, 2, Crash::before(1, 0).at_epoch(1));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::Hs2, 32));
    assert_eq!(report.crashed, vec![1]);
    let outs: Vec<_> = report.survivor_outputs().collect();
    assert_eq!(outs.len(), 5);
    let failed = outs[0].1.failed.clone();
    assert!(
        failed.is_empty() || failed == vec![1],
        "decided set {failed:?} names a rank that never crashed"
    );
    let mut canon: Option<Vec<u8>> = None;
    for (rank, out) in outs {
        assert_eq!(out.failed, failed, "rank {rank} agreed on a different set");
        if failed.is_empty() {
            assert!(out.is_complete(), "rank {rank}");
            assert_eq!(out.epochs, 0, "rank {rank}");
        }
        out.verify(3);
        let bytes = out.canonical_bytes();
        match &canon {
            Some(c) => assert_eq!(c, &bytes, "rank {rank} diverged"),
            None => canon = Some(bytes),
        }
    }
}

#[test]
fn two_concurrent_crashes_recover_to_one_agreed_set() {
    // Ranks 2 and 4 both die before their first ring send: two
    // concurrent epoch-0 failures. Survivors must merge both
    // detections into one decided set and re-run over p-2 ranks.
    let s = crash_schedule_world(6, 2, vec![Crash::before(2, 0), Crash::before(4, 0)]);
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORing, 48));
    check_degraded(&report, &[2, 4]);
}

#[test]
fn cascading_crashes_across_epochs_recover() {
    // Ranks 1 and 3 die at epoch 0; rank 5 survives the initial
    // attempt but dies at its first send of the epoch-1 agreement.
    // The engine must iterate — detect, agree, re-run — until a
    // re-run covers all three (the whole budget, so it is final).
    let s = crash_schedule_world(
        6,
        2,
        vec![
            Crash::before(1, 0),
            Crash::before(3, 0),
            Crash::before(5, 0).at_epoch(1),
        ],
    );
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORing, 32));
    check_degraded(&report, &[1, 3, 5]);
}

#[test]
fn crash_during_the_confirming_agreement_keeps_the_covered_output() {
    // Rank 0 dies at epoch 0 and is recovered over the shrunk group.
    // Rank 2 then dies inside the epoch-2 *confirming* agreement —
    // after the degraded output already covers the decided set {0}.
    // Survivors return that output (rank 2's block included) rather
    // than looping: the late crash is attributed like a post-collective
    // death, and the decided set stays {0}.
    let s = crash_schedule_world(
        6,
        2,
        vec![Crash::before(0, 0), Crash::before(2, 0).at_epoch(2)],
    );
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORing, 32));
    assert_eq!(report.crashed, vec![0, 2]);
    let mut canon: Option<Vec<u8>> = None;
    for (rank, out) in report.survivor_outputs() {
        assert_eq!(out.failed, vec![0], "rank {rank} agreed on a different set");
        assert!(
            out.output.get(2).is_some(),
            "rank {rank} lost the late victim's block"
        );
        out.verify(3);
        let bytes = out.canonical_bytes();
        match &canon {
            Some(c) => assert_eq!(c, &bytes, "rank {rank} diverged"),
            None => canon = Some(bytes),
        }
    }
    assert_eq!(report.survivor_outputs().count(), 4);
}

#[test]
fn hard_and_soft_crashes_mix_in_one_schedule() {
    // A hard crash (no dying gasp: peers suspect it once its silent
    // departure outlasts the grace period) alongside a soft one. Suspicion of the hard-crashed
    // rank may be raised independently by several survivors across
    // epochs; the suspicion path is idempotent, so the decided set
    // still converges.
    let mut s = crash_schedule_world(6, 2, vec![Crash::before(2, 0).hard(), Crash::before(4, 0)]);
    // Hard crashes leave no dying gasp: arm the failure detector's
    // suspicion clock so silence past the grace period reads as death.
    s.suspect_after = Some(Duration::from_millis(50));
    let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORing, 32));
    check_degraded(&report, &[2, 4]);
}

/// Runs the engine around a message-free attempt and re-run, so every
/// sealed frame is agreement traffic. Each rank in `dying` makes one
/// send its planned crash fires before; every other rank waits on the
/// first of them, so all survivors enter epoch 1 knowing it dead.
/// Returns the report and the world's sealed-frame count.
fn agreement_only(
    p: usize,
    crashes: Vec<Crash>,
    dying: &[Rank],
) -> (eag_runtime::CrashReport<DegradedOutput>, u64) {
    let report = run_crashable(&crash_schedule_world(p, 2, crashes), |ctx| {
        let me = ctx.rank();
        let empty = |members: &[Rank]| GatherOutput::new(vec![0; p], members);
        recover_collective(
            ctx,
            |ctx| {
                if dying.contains(&me) {
                    ctx.send((me + 1) % p, 1, Parcel { items: Vec::new() });
                } else if let Some(&first) = dying.first() {
                    ctx.try_recv(first, 1)?;
                }
                Ok(empty(&[]))
            },
            |_, members| Ok(empty(members)),
        )
        .unwrap()
    });
    let sealed = report.metrics.iter().map(|m| m.enc_rounds).sum();
    (report, sealed)
}

fn assert_decision(
    report: &eag_runtime::CrashReport<DegradedOutput>,
    failed: &[Rank],
    epochs: u64,
) {
    for (rank, out) in report.survivor_outputs() {
        assert_eq!(out.failed, failed, "rank {rank}");
        assert_eq!(out.epochs, epochs, "rank {rank}");
    }
}

#[test]
fn agreement_sends_two_frames_per_live_rank_per_coordinator() {
    // p = 16, rank 0 dead before its first send and known dead at
    // every survivor. Coordinator 0 is skipped; coordinator 1 gathers
    // and answers the other q − 1 = 14 survivors; the re-run covers
    // the one crash f = 1 allows, so no confirming instance follows.
    let (report, sealed) = agreement_only(16, vec![Crash::before(0, 0)], &[0]);
    assert_eq!(report.crashed, vec![0]);
    assert_decision(&report, &[0], 1);
    assert_eq!(sealed, 2 * 14);

    // Armed, never fired: both coordinators of the f = 1 instance
    // gather and answer p − 1 estimates, 2·(f + 1)·(p − 1) frames,
    // and confirm the clean attempt's empty set.
    let (report, sealed) = agreement_only(16, vec![Crash::before(0, 1_000_000)], &[]);
    assert!(report.crashed.is_empty());
    assert_decision(&report, &[], 0);
    assert_eq!(sealed, 2 * 2 * 15);

    // f = 2 at p = 6: ranks 0 and 1 die, only 0 is known at entry,
    // q = 4 survivors. Epoch 1: coordinator 0 skipped, each survivor
    // seals to coordinator 1 and finds it dead (q), coordinator 2
    // decides {0} (2(q − 1)). Epoch 2 (b = 1): coordinator 1 is now
    // known dead, coordinator 2 decides {0, 1} (2(q − 1)). That
    // re-run covers f crashes, so nothing follows it.
    let crashes = vec![Crash::before(0, 0), Crash::before(1, 0)];
    let (report, sealed) = agreement_only(6, crashes, &[0, 1]);
    assert_eq!(report.crashed, vec![0, 1]);
    assert_decision(&report, &[0, 1], 2);
    assert_eq!(sealed, 4 + 2 * 3 + 2 * 3);
}

#[test]
fn large_fault_bound_of_unfired_crashes_recovers() {
    // f = 40 at p = 40: 40 coordinator rounds of two tags each, past
    // the 64-tag stride that once separated epochs. Rank 0 dies; the
    // 39 other planned crashes never fire, so a confirming instance
    // runs. Epoch 1: coordinator 0 skipped, then 39 rounds of
    // 2·38 frames; epoch 2 (prev {0}, b = 39): coordinators 1..=39,
    // 39 rounds of 2·38 again.
    let mut crashes = vec![Crash::before(0, 0)];
    crashes.extend((1..40).map(|r| Crash::before(r, 1_000_000)));
    let (report, sealed) = agreement_only(40, crashes, &[0]);
    assert_eq!(report.crashed, vec![0]);
    assert_decision(&report, &[0], 1);
    assert_eq!(sealed, 2 * 39 * 2 * 38);
}
