//! Full chaos sweep as a test: every encrypted algorithm × every fault kind
//! × several seeds, plus the canonical mix, at p = 16 over 8 nodes; and the
//! listed-fault enumerations too wide for the always-on suite — every
//! single fault at p = 16, every pair at p = 4, every single fault of the
//! other collectives at p ∈ {4, 8}, and every drop in every ordered pair
//! of collectives run back to back at p = 8.
//!
//! Heavyweight by design — gated behind the `chaos` cargo feature:
//! `cargo test -p eag-integration --features chaos --test chaos_sweep_full`

use eag_core::{Algorithm, Collective};
use eag_integration::{chaos_run, first_unrecovered, frame_ids};
use eag_netsim::{FaultKind, FaultPlan, FrameId};

const SEEDS: &[u64] = &[0xC0FFEE, 1, 0xDEAD_BEEF];

fn assert_sweep(label: &str, plan: FaultPlan) {
    for &algo in Algorithm::encrypted_all() {
        let r = chaos_run(Collective::Allgather(algo), 16, 8, 128, plan.clone());
        assert!(
            r.byte_identical,
            "{algo} under {label}: not byte-identical ({:?})",
            r.error
        );
    }
}

#[test]
fn every_fault_kind_at_two_percent_recovers() {
    for &seed in SEEDS {
        for &kind in FaultKind::all() {
            assert_sweep(
                &format!("{} 20‰ seed {seed:#x}", kind.label()),
                FaultPlan::only(kind, 20, seed),
            );
        }
    }
}

#[test]
fn canonical_mix_recovers_across_seeds() {
    for &seed in SEEDS {
        assert_sweep(
            &format!("drop+tamper 10‰ seed {seed:#x}"),
            FaultPlan::drop_and_tamper(10, 10, seed),
        );
    }
}

#[test]
fn adversarial_tamper_recovers_across_seeds() {
    for &seed in SEEDS {
        let mut plan = FaultPlan::only(FaultKind::Tamper, 20, seed);
        plan.adversarial_tamper = true;
        assert_sweep(&format!("adversarial tamper 20‰ seed {seed:#x}"), plan);
    }
}

/// Runs each collective of `cs` at `(p, nodes)` under each placement
/// `placements` builds from its frame list, stopping at the first one not
/// recovered byte-identically with one injected fault per listed frame.
fn assert_enumeration(
    cs: &[Collective],
    p: usize,
    nodes: usize,
    placements: impl Fn(&[FrameId]) -> Vec<Vec<(FrameId, FaultKind)>>,
) {
    for &c in cs {
        let ids = frame_ids(c, p, nodes, 64);
        if let Some((listed, r)) = first_unrecovered(&[c], p, nodes, 64, placements(&ids)) {
            panic!(
                "{c} at p={p}: {listed:?} not recovered: {} ({} injected)",
                r.verdict(),
                r.faults_injected
            );
        }
    }
}

fn encrypted_allgathers() -> Vec<Collective> {
    Algorithm::encrypted_all()
        .iter()
        .map(|&a| Collective::Allgather(a))
        .collect()
}

/// Every fault kind on each frame, one at a time.
fn single_faults(ids: &[FrameId]) -> Vec<Vec<(FrameId, FaultKind)>> {
    ids.iter()
        .flat_map(|&id| FaultKind::all().iter().map(move |&kind| vec![(id, kind)]))
        .collect()
}

#[test]
fn every_single_fault_at_p16_recovers() {
    assert_enumeration(&encrypted_allgathers(), 16, 8, single_faults);
}

#[test]
fn every_pair_of_drops_and_tampers_at_p4_recovers() {
    const KINDS: [FaultKind; 2] = [FaultKind::Drop, FaultKind::Tamper];
    assert_enumeration(&encrypted_allgathers(), 4, 2, |ids| {
        let mut pairs = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                for ka in KINDS {
                    for kb in KINDS {
                        pairs.push(vec![(a, ka), (b, kb)]);
                    }
                }
            }
        }
        pairs
    });
}

/// The always-on single-fault enumeration (`chaos_recovery.rs`) covers the
/// encrypted all-gathers; this one covers every other collective at the
/// same shapes: both variants of bcast, gather, gatherv, scatter, scatterv
/// and all-to-all, and every varying-capable algorithm as all-gather-v.
#[test]
fn every_single_fault_of_the_other_collectives_recovers() {
    let mut cs = Collective::new_operations_all();
    cs.extend(
        Algorithm::all()
            .iter()
            .filter(|a| a.supports_varying())
            .map(|&a| Collective::Allgatherv(a)),
    );
    for (p, nodes) in [(4, 2), (8, 4)] {
        assert_enumeration(&cs, p, nodes, single_faults);
    }
}

/// Every ordered pair (A, B) of the encrypted all-gathers, run back to
/// back in one armed world (p = 8 over 2 nodes, m = 64), recovers a drop
/// of each of A's frames. The dropped frame's sender may have moved on
/// into B by the time the NACK comes — into a shared-segment fetch or
/// node barrier when B is HS1 or HS2 — and must answer it from there.
#[test]
fn every_drop_before_another_collective_recovers() {
    let (p, nodes, m) = (8, 2, 64);
    for &a in Algorithm::encrypted_all() {
        let first = Collective::Allgather(a);
        let ids = frame_ids(first, p, nodes, m);
        for &b in Algorithm::encrypted_all() {
            let pair = [first, Collective::Allgather(b)];
            let drops = ids.iter().map(|&id| vec![(id, FaultKind::Drop)]);
            if let Some((listed, r)) = first_unrecovered(&pair, p, nodes, m, drops) {
                panic!(
                    "{a} then {b}: drop of {:?} not recovered: {}",
                    listed[0].0,
                    r.verdict()
                );
            }
        }
    }
}
