//! Deterministic fault injection — the "chaos fabric".
//!
//! A production collective cannot assume the lossless InfiniBand fabric the
//! paper (and CryptMPI before it) was designed for: frames get dropped,
//! delayed, duplicated, reordered, and — in the paper's threat model —
//! actively tampered with. This module describes *what* to inject; the
//! runtime's transport layer (see `eag-runtime`) decides how each injected
//! fault is detected and recovered (sequence numbers, transport checksums,
//! per-hop GCM verification, NACK + retransmit).
//!
//! Decisions are **stateless and seeded**: whether the frame with sequence
//! number `seq` on the `(src, dst, tag)` stream (on transmission `attempt`)
//! is faulted is a pure hash of `(seed, src, dst, tag, seq, attempt)`.
//! Because each rank's send sequence is deterministic, the injected fault
//! set is exactly reproducible run-to-run regardless of thread
//! interleaving — a chaos run that fails in CI can be replayed locally from
//! its seed alone.

/// One kind of in-flight perturbation of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The frame never arrives. Recovered by receive-timeout + NACK.
    Drop,
    /// The frame arrives late (virtual time). No recovery needed; stresses
    /// clock handling and out-of-order tolerance.
    Delay,
    /// The frame arrives twice. Recovered by sequence-number deduplication.
    Duplicate,
    /// The frame is delivered after a later send overtakes it. Recovered by
    /// tag matching + sequence-number deduplication.
    Reorder,
    /// One byte of the frame's payload is flipped on the wire. Recovered by
    /// transport checksum (random corruption) or per-hop GCM verification
    /// (checksum-evading adversarial corruption) + NACK.
    Tamper,
}

impl FaultKind {
    /// Every injectable kind, in a fixed order (used by sweep harnesses).
    pub fn all() -> &'static [FaultKind] {
        &[
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Tamper,
        ]
    }

    /// Short label for tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "dup",
            FaultKind::Reorder => "reorder",
            FaultKind::Tamper => "tamper",
        }
    }
}

/// A seeded, replayable rank-crash event.
///
/// Unlike the message-level faults above — which perturb frames the
/// transport then recovers — a crash kills a rank's *thread* mid-collective.
/// The runtime cannot recover the rank; it can only detect the death,
/// agree on the surviving membership, and re-run the collective degraded
/// (see the recovery path in `eag-core`). The trigger is the crashing
/// rank's own send-step counter *within a membership epoch*, so the same
/// plan kills the rank at the same point of the same algorithm run-to-run
/// regardless of thread interleaving — including points inside the
/// recovery machinery itself (agreement rounds and degraded re-runs run
/// under epochs ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The rank whose thread dies.
    pub rank: usize,
    /// Which of the rank's own peer-bound send steps (0-based count of
    /// sends to a *different* rank, counted from the start of the arming
    /// epoch) triggers the death.
    pub phase_step: u64,
    /// The membership epoch the crash is armed in. Epoch 0 is the initial
    /// optimistic attempt; epoch `e ≥ 1` covers the e-th recovery
    /// iteration (its agreement rounds followed by its degraded re-run).
    /// The per-epoch send counter resets when a rank enters an epoch, so
    /// `phase_step` addresses a send *inside* that epoch's traffic.
    pub epoch: u64,
    /// Die after the triggering frame has left (`true`) or just before it
    /// would have been sent (`false`). Both points matter: dying before
    /// leaves the peer's receive permanently unsatisfied, dying after
    /// exercises the "message from a dead rank" admission path.
    pub after_send: bool,
    /// Hard crash: the dead rank departs silently, so survivors suspect it
    /// only once its departure record has stayed silent for the world's
    /// `suspect_after` grace period, instead of acting on the record at
    /// once as they do for a soft crash. Slower to detect but covers
    /// kill -9-style deaths rather than clean aborts.
    pub hard: bool,
}

impl Crash {
    /// Soft crash of `rank` just before its `phase_step`-th peer send
    /// (armed in epoch 0, the initial attempt).
    pub fn before(rank: usize, phase_step: u64) -> Self {
        Crash {
            rank,
            phase_step,
            epoch: 0,
            after_send: false,
            hard: false,
        }
    }

    /// Soft crash of `rank` just after its `phase_step`-th peer send
    /// (armed in epoch 0, the initial attempt).
    pub fn after(rank: usize, phase_step: u64) -> Self {
        Crash {
            rank,
            phase_step,
            epoch: 0,
            after_send: true,
            hard: false,
        }
    }

    /// Same event, but departing silently (detected only by suspicion
    /// after the grace period).
    pub fn hard(mut self) -> Self {
        self.hard = true;
        self
    }

    /// Re-arm the event in membership epoch `epoch`. Epoch 1's early send
    /// steps land inside the first agreement rounds, so
    /// `Crash::before(r, 0).at_epoch(1)` kills `r` mid-agreement — the
    /// cascade the restartable-agreement machinery exists for.
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }
}

/// A seeded plan of which inter-node frames to perturb, and how.
///
/// Rates are per-mille (‰) per frame, evaluated independently per
/// `(src, dst, tag, seq, attempt)`; at most one fault is injected per
/// frame.
/// `fault_nth_inter_frame` injects exactly one *recoverable* fault at the
/// n-th inter-node frame (counted globally), which is what the
/// single-fault recovery property tests use. `corrupt_nth_inter_frame` is
/// the legacy **unrecovered** active-adversary injection: it corrupts the
/// frame without arming any of the transport's recovery machinery, so GCM
/// must abort the collective (the security tests rely on this).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-frame fault hash. Two runs with equal seeds (and
    /// equal traffic) inject identical fault sets.
    pub seed: u64,
    /// Drop rate, ‰ of inter-node frames.
    pub drop_permille: u16,
    /// Delay rate, ‰ of inter-node frames.
    pub delay_permille: u16,
    /// Duplication rate, ‰ of inter-node frames.
    pub duplicate_permille: u16,
    /// Reorder rate, ‰ of inter-node frames.
    pub reorder_permille: u16,
    /// Tamper rate, ‰ of inter-node frames.
    pub tamper_permille: u16,
    /// When true, tampering recomputes the transport checksum after
    /// corrupting the payload — modeling an on-path adversary rather than
    /// random bit rot. Such frames pass the link-level check and are caught
    /// only by the per-hop GCM verification (sealed items) or not at all
    /// (plaintext items — exactly the integrity gap encryption closes).
    pub adversarial_tamper: bool,
    /// Virtual-time penalty added to a delayed frame's arrival, µs.
    pub delay_us: f64,
    /// Arm the runtime's reliability framing (sequence numbers, transport
    /// checksums, retransmit log, linger) even when every rate is zero.
    /// No fault is ever injected; this exists to measure the framing's
    /// overhead in isolation (the benches compare armed-at-zero-rate
    /// against fully disabled).
    pub armed: bool,
    /// Inject exactly one recoverable fault at the n-th inter-node frame
    /// (0-based global count). Retransmissions are not counted.
    pub fault_nth_inter_frame: Option<(u64, FaultKind)>,
    /// Legacy unrecovered adversary: flip one byte of the n-th inter-node
    /// frame with **no** recovery framing armed. The encrypted collectives
    /// must abort on it (GCM tag mismatch); unencrypted ones silently
    /// deliver wrong bytes.
    pub corrupt_nth_inter_frame: Option<u64>,
    /// Kill rank threads mid-collective, possibly several and possibly
    /// inside the recovery machinery itself. Each entry arms
    /// independently; the schedule's length is the fault bound `f` the
    /// recovery engine sizes its agreement rounds for. See [`Crash`].
    pub crashes: Vec<Crash>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_permille: 0,
            delay_permille: 0,
            duplicate_permille: 0,
            reorder_permille: 0,
            tamper_permille: 0,
            adversarial_tamper: false,
            delay_us: 25.0,
            armed: false,
            fault_nth_inter_frame: None,
            corrupt_nth_inter_frame: None,
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An all-zero plan with the given seed (faults armed one knob at a
    /// time by the caller).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The canonical chaos mix: `drop_permille`‰ drops plus
    /// `tamper_permille`‰ random tampering (e.g. `10, 10` = 1% + 1%).
    pub fn drop_and_tamper(drop_permille: u16, tamper_permille: u16, seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_permille,
            tamper_permille,
            ..FaultPlan::default()
        }
    }

    /// A plan injecting only `kind`, at `permille`‰.
    pub fn only(kind: FaultKind, permille: u16, seed: u64) -> Self {
        let mut plan = FaultPlan::seeded(seed);
        match kind {
            FaultKind::Drop => plan.drop_permille = permille,
            FaultKind::Delay => plan.delay_permille = permille,
            FaultKind::Duplicate => plan.duplicate_permille = permille,
            FaultKind::Reorder => plan.reorder_permille = permille,
            FaultKind::Tamper => plan.tamper_permille = permille,
        }
        plan
    }

    /// Whether any *recoverable* chaos knob is armed — this is what turns
    /// on the runtime's reliability framing (checksums, retransmit log,
    /// NACK/retry, linger). The legacy `corrupt_nth_inter_frame` is
    /// deliberately excluded: it models an adversary the transport must
    /// *not* recover from.
    pub fn enabled(&self) -> bool {
        self.armed
            || self.total_permille() > 0
            || self.fault_nth_inter_frame.is_some()
            || !self.crashes.is_empty()
    }

    /// The fault bound `f`: how many rank crashes this plan can fire. The
    /// recovery engine's agreement visits one coordinator more than the
    /// crashes still possible (at most `f + 1`), so one of them is
    /// guaranteed to survive its round.
    pub fn fault_bound(&self) -> usize {
        self.crashes.len()
    }

    fn total_permille(&self) -> u32 {
        self.drop_permille as u32
            + self.delay_permille as u32
            + self.duplicate_permille as u32
            + self.reorder_permille as u32
            + self.tamper_permille as u32
    }

    /// Decides whether frame `seq` of the `(src → dst, tag)` stream on
    /// transmission `attempt` (0 = original, 1+ = retransmits) is
    /// perturbed, and how. Pure function of the plan's seed and the
    /// arguments; `tag` participates so that algorithms which open a fresh
    /// tag per round (every frame at seq 0) still see independent per-frame
    /// decisions.
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        seq: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        let total = self.total_permille();
        if total == 0 {
            return None;
        }
        let mut h = self.seed ^ 0x6A09_E667_F3BC_C908;
        for word in [src as u64, dst as u64, tag, seq, attempt as u64] {
            h = crate::splitmix64(h ^ word);
        }
        let roll = (h % 1000) as u32;
        let mut edge = self.drop_permille as u32;
        if roll < edge {
            return Some(FaultKind::Drop);
        }
        edge += self.delay_permille as u32;
        if roll < edge {
            return Some(FaultKind::Delay);
        }
        edge += self.duplicate_permille as u32;
        if roll < edge {
            return Some(FaultKind::Duplicate);
        }
        edge += self.reorder_permille as u32;
        if roll < edge {
            return Some(FaultKind::Reorder);
        }
        edge += self.tamper_permille as u32;
        if roll < edge {
            return Some(FaultKind::Tamper);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled());
        for seq in 0..1000 {
            assert_eq!(plan.decide(0, 1, 9, seq, 0), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_in_seed_and_coords() {
        let a = FaultPlan::drop_and_tamper(10, 10, 42);
        let b = FaultPlan::drop_and_tamper(10, 10, 42);
        for seq in 0..500 {
            assert_eq!(a.decide(3, 7, 9, seq, 0), b.decide(3, 7, 9, seq, 0));
        }
        // A different seed gives a different fault set.
        let c = FaultPlan::drop_and_tamper(10, 10, 43);
        let differs = (0..500).any(|seq| a.decide(3, 7, 9, seq, 0) != c.decide(3, 7, 9, seq, 0));
        assert!(differs, "seed does not influence decisions");
    }

    #[test]
    fn retransmissions_hash_independently() {
        // A faulted (seq, attempt=0) must not deterministically fault every
        // retransmit of the same seq, or recovery could never converge.
        let plan = FaultPlan::only(FaultKind::Drop, 1000, 7); // always drop
        assert_eq!(plan.decide(0, 1, 9, 5, 0), Some(FaultKind::Drop));
        let plan = FaultPlan::only(FaultKind::Drop, 500, 7);
        let escapes = (0..64).any(|seq| {
            plan.decide(0, 1, 9, seq, 0) == Some(FaultKind::Drop)
                && plan.decide(0, 1, 9, seq, 1).is_none()
        });
        assert!(escapes, "attempt number does not reroll the fault hash");
    }

    #[test]
    fn rates_are_approximately_honored() {
        let plan = FaultPlan::only(FaultKind::Tamper, 100, 11); // 10%
        let n = 10_000u64;
        let hits = (0..n)
            .filter(|&seq| plan.decide(1, 2, 9, seq, 0) == Some(FaultKind::Tamper))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "tamper rate {rate} off 10%");
    }

    #[test]
    fn only_and_all_cover_every_kind() {
        for &kind in FaultKind::all() {
            let plan = FaultPlan::only(kind, 1000, 0);
            assert!(plan.enabled());
            assert_eq!(plan.decide(0, 1, 9, 0, 0), Some(kind));
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn legacy_corruption_does_not_arm_recovery() {
        let plan = FaultPlan {
            corrupt_nth_inter_frame: Some(0),
            ..FaultPlan::default()
        };
        assert!(!plan.enabled());
        let plan = FaultPlan {
            fault_nth_inter_frame: Some((0, FaultKind::Drop)),
            ..FaultPlan::default()
        };
        assert!(plan.enabled());
    }

    #[test]
    fn crash_plan_arms_recovery_framing() {
        let plan = FaultPlan {
            crashes: vec![Crash::before(3, 2)],
            ..FaultPlan::default()
        };
        assert!(plan.enabled(), "crash detection rides on chaos framing");
        assert_eq!(plan.fault_bound(), 1);
        // Crashes are not message faults: frame decisions stay clean.
        for seq in 0..100 {
            assert_eq!(plan.decide(3, 1, 9, seq, 0), None);
        }
        // Constructors cover both trigger points and the hard knob.
        assert!(!Crash::before(3, 2).after_send);
        assert!(Crash::after(3, 2).after_send);
        assert!(Crash::before(0, 0).hard().hard);
        assert!(!Crash::before(0, 0).hard);
    }

    #[test]
    fn multi_crash_schedules_arm_per_epoch() {
        // A cascade: rank 3 dies in the first attempt, rank 1 dies inside
        // the first recovery iteration's agreement rounds, rank 5 dies in
        // the second iteration's re-run.
        let plan = FaultPlan {
            crashes: vec![
                Crash::before(3, 2),
                Crash::before(1, 0).at_epoch(1),
                Crash::after(5, 4).at_epoch(2).hard(),
            ],
            ..FaultPlan::default()
        };
        assert!(plan.enabled());
        assert_eq!(plan.fault_bound(), 3);
        assert_eq!(plan.crashes[0].epoch, 0);
        assert_eq!(plan.crashes[1].epoch, 1);
        assert_eq!(plan.crashes[2].epoch, 2);
        assert!(plan.crashes[2].hard && plan.crashes[2].after_send);
        // Constructors default to the initial attempt.
        assert_eq!(Crash::before(0, 0).epoch, 0);
        assert_eq!(Crash::after(0, 0).epoch, 0);
        // `hard()` and `at_epoch()` compose in either order.
        assert_eq!(
            Crash::before(2, 1).hard().at_epoch(3),
            Crash::before(2, 1).at_epoch(3).hard()
        );
    }

    #[test]
    fn armed_plan_enables_framing_but_injects_nothing() {
        let plan = FaultPlan {
            armed: true,
            ..FaultPlan::default()
        };
        assert!(plan.enabled());
        for seq in 0..1000 {
            assert_eq!(plan.decide(0, 1, 9, seq, 0), None);
        }
    }
}
