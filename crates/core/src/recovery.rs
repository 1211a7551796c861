//! The crash-recovery engine: an epoch-versioned shrink-and-rerun loop
//! that attempts a collective and, for as long as crashes keep landing —
//! including inside its own agreement rounds and degraded re-runs —
//! re-detects, re-agrees on the failed set, and re-runs over ever-smaller
//! survivor groups.
//!
//! The protocol — the rotating-coordinator agreement and the decide-or-
//! re-run loop — is a thread-free state machine in `agreement.rs`, model-
//! checked on its own. This module is its glue: [`recover_collective`]
//! runs the attempts, seals, sends, receives and opens the agreement's
//! bitmaps, and places its tags. [`crate::Collective::recover`] is the
//! entry point built on it.

use crate::agreement::{Action, Agreement, Event};
use crate::algorithm::Algorithm;
use crate::operation::Collective;
use crate::output::{DegradedOutput, GatherOutput};
use crate::tags;
use eag_netsim::Rank;
use eag_runtime::{Chunk, Data, FailureCause, Fallible, Item, Parcel, ProcCtx};
use std::collections::BTreeSet;

/// Logical tags each `tags::PHASE_*` base owns; a tag past it would land
/// in the next phase.
const PHASE_SLOT: u64 = 1 << 20;

/// Tags between consecutive agreement instances: the most any instance
/// of a `p`-rank world with fault bound `f` can use — a gather tag and a
/// reply tag for each of at most `min(f + 1, p)` coordinator rounds.
pub(crate) fn agreement_stride(p: usize, f: usize) -> u64 {
    2 * (f + 1).min(p) as u64
}

/// Logical tag `k` of the epoch-`epoch` agreement instance. Instances sit
/// `stride` tags apart, so a restarted agreement can never alias an
/// aborted instance's frames. Checked in release builds: a large fault
/// bound must stop here rather than run into the next phase's tags.
fn agreement_tag(epoch: u64, stride: u64, k: u64) -> u64 {
    let offset = epoch
        .checked_mul(stride)
        .and_then(|o| o.checked_add(k))
        .filter(|&o| k < stride && o < PHASE_SLOT);
    match offset {
        Some(o) => tags::PHASE_AGREE + o,
        None => panic!(
            "agreement tag {k} of epoch {epoch} (stride {stride}) overflows the \
             {PHASE_SLOT}-tag phase slot"
        ),
    }
}

/// Backstop on membership epochs: the agreement model shows every
/// recovery returns within `f + 1` instances (an instance that does not
/// return decides a strictly larger set of at most `f` crashes).
/// Exceeding it means the engine itself is broken, and panicking beats
/// spinning.
pub(crate) fn max_epochs(f: usize) -> u64 {
    f as u64 + 1
}

/// Seals `set` as a `p`-byte bitmap — one encryption per transmission, so
/// every agreement frame carries a fresh nonce — and sends it to `dst`.
fn send_set(ctx: &mut ProcCtx, dst: Rank, tag: u64, set: &BTreeSet<Rank>) {
    let mut bitmap = vec![0u8; ctx.p()];
    for &r in set {
        bitmap[r] = 1;
    }
    let sealed = ctx.encrypt(Chunk::single(ctx.rank(), Data::Real(bitmap.into())));
    ctx.send(dst, tag, Parcel::one(Item::Sealed(sealed)));
}

/// Receives and opens a bitmap sent by [`send_set`].
fn recv_set(ctx: &mut ProcCtx, src: Rank, tag: u64) -> Fallible<BTreeSet<Rank>> {
    let parcel = ctx.try_recv(src, tag)?;
    let mut set = BTreeSet::new();
    for item in parcel.items {
        if let Data::Real(bytes) = &ctx.decrypt(item.into_sealed())?.data {
            for (r, &bit) in bytes.segments().flatten().enumerate() {
                if bit != 0 {
                    set.insert(r);
                }
            }
        }
    }
    Ok(set)
}

/// Runs one recoverable attempt of a collective: on a `Crash` failure the
/// attempt is abandoned, blaming the detected crash (which cascades to
/// peers), and the inner `Err` names the crashed rank; any other failure
/// is returned as it is.
fn run_attempt<F>(ctx: &mut ProcCtx, attempt: F) -> Fallible<Result<GatherOutput, Rank>>
where
    F: FnOnce(&mut ProcCtx) -> Fallible<GatherOutput>,
{
    ctx.begin_attempt();
    match attempt(ctx) {
        Ok(out) => {
            ctx.complete_attempt();
            Ok(Ok(out))
        }
        Err(e) => match e.cause {
            FailureCause::Crash { rank } => {
                ctx.abort_attempt(rank);
                Ok(Err(rank))
            }
            _ => Err(e),
        },
    }
}

/// Generic epoch-versioned shrink-and-rerun engine tolerating up to `f`
/// concurrent or cascading crashes (`f` = the fault plan's schedule
/// length), including crashes during detection, agreement, and re-run.
///
/// `attempt` runs the optimistic whole-world collective; `rerun` runs it
/// degraded over a survivor member list. Every rank must call this in
/// lockstep, like the collective itself. A failure that is not a crash
/// ends the recovery and is returned; an injected crash of this very rank
/// unwinds through untouched, like a process dying.
///
/// Protocol — a loop over *membership epochs*:
///
/// 1. **Attempt (epoch 0).** Run `attempt` inside an attempt scope; a
///    receive blocked on a dead (or cascade-aborted) peer resolves through
///    the failure detector with a `Crash` cause and abandons the attempt,
///    blaming the crash so peers cascade promptly.
/// 2. **Agreement (entering epoch `e ≥ 1`).** One epoch-stamped
///    rotating-coordinator instance of `b + 1` rounds, `b` the crash
///    budget the previous decision leaves unspent, decides a failed set
///    from *epoch-entry* knowledge only, in `2(q − 1)` sealed frames per
///    round over `q` live ranks. Crashes landing inside the instance are
///    excluded from the decision (kept for the next epoch), which keeps
///    the decision uniform across survivors; the instance is effectively
///    restartable — a crash mid-agreement simply enlarges the next
///    epoch's entry set.
/// 3. **Decide or re-run.** If the decided set is exactly the set the
///    latest completed output already covers (for a clean attempt: both
///    empty), the loop terminates and returns that output. Otherwise all
///    survivors re-run over [`crate::Group::shrink`]\(decided\) — composed
///    shrinks renumber deterministically, so cascaded recoveries stay
///    aligned — and loop back to agreement to *confirm* the re-run. A
///    completed re-run does not exempt a rank from that confirmation: a
///    peer may have died after serving this rank but before serving
///    others. The one exception is a completed output covering `f`
///    ranks: with the whole budget spent no crash is left to happen, so
///    it is returned without a confirming instance. A world with no crash
///    schedule has `f = 0`, so its completed attempt returns at once, with
///    no agreement traffic.
///
/// Each re-run is a fresh collective epoch: blocks are re-sealed with
/// fresh nonces, never reusing a (key, nonce) pair. Termination: an
/// instance either decides, or its decided set strictly grows by the next
/// one (a failed re-run always surfaces a crash outside the decided set),
/// so at most `f + 1` instances run. A crash that fires *after* the
/// deciding agreement (e.g. during another rank's last rounds) is
/// intentionally not in the returned `failed` set — its victim contributed
/// its block before dying, exactly like a rank crashing after a plain
/// collective returns.
pub fn recover_collective<A, R>(
    ctx: &mut ProcCtx,
    attempt: A,
    mut rerun: R,
) -> Fallible<DegradedOutput>
where
    A: FnOnce(&mut ProcCtx) -> Fallible<GatherOutput>,
    R: FnMut(&mut ProcCtx, &[Rank]) -> Fallible<GatherOutput>,
{
    ctx.enter_epoch(0);
    let mut output = run_attempt(ctx, attempt)?;
    let f = ctx.fault_bound();
    let stride = agreement_stride(ctx.p(), f);
    let entry = output.as_ref().err().copied().into_iter().collect();
    let mut agreement = Agreement::new(ctx.rank(), ctx.p(), f, entry);
    let mut epoch = 0;
    loop {
        let event = match agreement.next() {
            Action::Enter { epoch: e } => {
                assert!(
                    e <= max_epochs(f),
                    "recovery did not converge within {} membership epochs",
                    max_epochs(f)
                );
                ctx.enter_epoch(e);
                epoch = e;
                continue;
            }
            Action::Round => {
                ctx.begin_collective();
                ctx.set_phase("recovery-agreement");
                continue;
            }
            Action::Send { to, tag, members } => {
                send_set(ctx, to, agreement_tag(epoch, stride, tag), &members);
                continue;
            }
            Action::Await { from, tag } => {
                match recv_set(ctx, from, agreement_tag(epoch, stride, tag)) {
                    Ok(members) => Event::Set { from, members },
                    Err(e) => match e.cause {
                        FailureCause::Crash { rank } => Event::Dead(rank),
                        _ => return Err(e),
                    },
                }
            }
            Action::Rerun { members } => {
                // The group keeps global rank identities, so node placement
                // (and the opportunistic encryption rule) stays correct.
                output = run_attempt(ctx, |ctx| rerun(ctx, &members))?;
                match output {
                    Ok(_) => {
                        ctx.note_recovery(members.len());
                        Event::Completed
                    }
                    Err(blame) => Event::Crashed { blame },
                }
            }
            Action::Return { failed, epochs } => {
                return Ok(DegradedOutput {
                    failed,
                    epochs,
                    output: output.expect("the agreement returns only a completed output"),
                });
            }
        };
        agreement.on(event);
    }
}

/// Alias of `Collective::Allgather(algo).recover(ctx, m)`, kept only
/// because the frozen wall-clock harness under `benchmarks/` calls it; it
/// goes when a `benchmark` PR moves the `crash_recover` workload to
/// [`Collective::recover`].
pub fn recover_allgather(ctx: &mut ProcCtx, algo: Algorithm, m: usize) -> DegradedOutput {
    Collective::Allgather(algo).recover(ctx, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_tags_stay_inside_their_epoch_and_the_phase_slot() {
        // Includes fault bounds whose instances need more than 64 tags,
        // the fixed stride that once ran epoch e's tags into epoch e+1's.
        for (p, f) in [(6, 1), (16, 1), (40, 40), (64, 200), (300, 299)] {
            let stride = agreement_stride(p, f);
            for epoch in 1..=max_epochs(f) {
                let last = agreement_tag(epoch, stride, stride - 1);
                assert!(last < tags::PHASE_AGREE + PHASE_SLOT, "p={p} f={f}");
                assert!(last < agreement_tag(epoch + 1, stride, 0), "p={p} f={f}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn agreement_tag_past_the_phase_slot_is_refused() {
        agreement_tag(PHASE_SLOT / 4, 4, 0);
    }
}
