//! Full chaos sweep as a test: every encrypted algorithm × every fault kind
//! × several seeds, plus the canonical mix, at p = 16 over 8 nodes.
//!
//! Heavyweight by design — gated behind the `chaos` cargo feature:
//! `cargo test -p eag-integration --features chaos --test chaos_sweep_full`

use eag_core::{Algorithm, Collective};
use eag_integration::chaos_run;
use eag_netsim::{FaultKind, FaultPlan};

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
