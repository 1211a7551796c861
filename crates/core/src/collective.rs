//! Generic, crypto-oblivious item movers, plus the crash-recovery driver.
//!
//! These primitives move opaque [`Item`]s (plaintext or sealed) among an
//! ordered member list with the classic all-gather communication patterns:
//! ring, recursive doubling (general member counts via fold/unfold), and
//! Bruck. They do no encryption themselves; the encrypted algorithms either
//! pre-seal items (Naive, the Concurrent sub-gathers, HS) or use the
//! crypto-aware movers in [`crate::encrypted`].
//!
//! [`recover_collective`] is the ULFM-style crash-tolerant engine: an
//! epoch-versioned shrink-and-rerun loop that attempts the collective and,
//! for as long as crashes keep landing — including inside its own
//! agreement rounds and degraded re-runs — re-detects, re-agrees (a
//! rotating-coordinator consensus, `2(q − 1)` sealed frames per round over
//! `q` live ranks), and re-runs over ever-smaller survivor groups until an
//! agreement instance confirms a completed output, or a completed output
//! already covers every crash the fault bound allows.
//! [`crate::Collective::recover`] is the entry point built on it (see the
//! function docs for the protocol).

use crate::algorithm::Algorithm;
use crate::group::Group;
use crate::operation::Collective;
use crate::output::{DegradedOutput, GatherOutput};
use crate::tags;
use eag_netsim::Rank;
use eag_runtime::{Chunk, CollectiveError, Data, FailureCause, Item, Parcel, ProcCtx};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};

/// Largest power of two `<= q`.
pub fn floor_pow2(q: usize) -> usize {
    assert!(q >= 1);
    1usize << (usize::BITS - 1 - q.leading_zeros())
}

/// `ceil(log2(q))` for `q >= 1`.
pub fn ceil_log2(q: usize) -> u32 {
    assert!(q >= 1);
    q.next_power_of_two().trailing_zeros()
}

/// Index of `rank` within `members`; panics if absent.
fn my_index(ctx: &ProcCtx, members: &[Rank]) -> usize {
    members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank is not in the member list")
}

/// Ring all-gather: member `k` sends to `k+1` and receives from `k-1`,
/// `q-1` times, forwarding what it received the previous step. Every member
/// contributes `my_items`; returns all members' items (own included).
pub fn ring_allgather_items(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_items: Vec<Item>,
    tag_base: u64,
) -> Vec<Item> {
    let q = members.len();
    let k = my_index(ctx, members);
    let succ = members[(k + 1) % q];
    let pred = members[(k + q - 1) % q];
    let mut collected = my_items.clone();
    let mut cur = my_items;
    for step in 0..q.saturating_sub(1) {
        // Round boundary: a natural scheduling point on a contended world.
        ctx.yield_now();
        let tag = tag_base + step as u64;
        ctx.send(succ, tag, Parcel { items: cur });
        cur = ctx.recv(pred, tag).items;
        collected.extend(cur.iter().cloned());
    }
    collected
}

/// Recursive-doubling all-gather over an arbitrary member count.
///
/// For `q` a power of two this is the textbook algorithm (`lg q` exchange
/// rounds, doubling data each round). Otherwise the surplus `r = q - 2^k`
/// members fold their data into a power-of-two active set first and receive
/// the full result afterwards, for at most `lg q + 2` rounds (the paper's
/// "extra steps ... still bounded by 2·lg(p)").
pub fn rd_allgather_items(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_items: Vec<Item>,
    tag_base: u64,
) -> Vec<Item> {
    let q = members.len();
    if q == 1 {
        return my_items;
    }
    let k = my_index(ctx, members);
    let pow = floor_pow2(q);
    let r = q - pow;

    let mut holdings = my_items;

    // Fold: odd members of the first 2r send everything to their left
    // neighbour and go dormant until the unfold.
    let fold_tag = tag_base;
    if k < 2 * r {
        if k % 2 == 1 {
            ctx.send(members[k - 1], fold_tag, Parcel { items: holdings });
            // Wait for the complete result.
            let unfold_tag = tag_base + 1 + 64;
            return ctx.recv(members[k - 1], unfold_tag).items;
        } else {
            let received = ctx.recv(members[k + 1], fold_tag).items;
            holdings.extend(received);
        }
    }

    // Active set: even members of the first 2r, then everyone from 2r on.
    let active_index = if k < 2 * r { k / 2 } else { k - r };
    let active_member = |idx: usize| -> Rank {
        if idx < r {
            members[2 * idx]
        } else {
            members[idx + r]
        }
    };

    let rounds = pow.trailing_zeros();
    for b in 0..rounds {
        ctx.yield_now();
        let peer = active_member(active_index ^ (1usize << b));
        let tag = tag_base + 1 + b as u64;
        let received = ctx
            .sendrecv(
                peer,
                peer,
                tag,
                Parcel {
                    items: holdings.clone(),
                },
            )
            .items;
        holdings.extend(received);
    }

    // Unfold: give the folded members the complete result.
    if k < 2 * r && k.is_multiple_of(2) {
        let unfold_tag = tag_base + 1 + 64;
        ctx.send(
            members[k + 1],
            unfold_tag,
            Parcel {
                items: holdings.clone(),
            },
        );
    }
    holdings
}

/// Bruck all-gather (`⌈lg q⌉` rounds for any `q`). Requires exactly one item
/// per member; item `j` of the returned vector is the item of member
/// `(k + j) mod q` (callers place by origin, so order does not matter).
pub fn bruck_allgather_items(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_item: Item,
    tag_base: u64,
) -> Vec<Item> {
    let q = members.len();
    let k = my_index(ctx, members);
    let mut slots: Vec<Item> = vec![my_item];
    let mut round = 0u64;
    let mut step = 1usize;
    while step < q {
        ctx.yield_now();
        let cnt = step.min(q - step);
        let dst = members[(k + q - step) % q];
        let src = members[(k + step) % q];
        let tag = tag_base + round;
        ctx.send(
            dst,
            tag,
            Parcel {
                items: slots[..cnt].to_vec(),
            },
        );
        let received = ctx.recv(src, tag).items;
        debug_assert_eq!(received.len(), cnt);
        slots.extend(received);
        step *= 2;
        round += 1;
    }
    debug_assert_eq!(slots.len(), q);
    slots
}

/// Point-to-point gather to `members[0]`: every other member sends its items
/// to the root; the root returns everyone's items, others return `None`.
pub fn gather_items_to_root(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_items: Vec<Item>,
    tag_base: u64,
) -> Option<Vec<Item>> {
    let root = members[0];
    if ctx.rank() == root {
        let mut all = my_items;
        for (j, &m) in members.iter().enumerate().skip(1) {
            let received = ctx.recv(m, tag_base + j as u64).items;
            all.extend(received);
        }
        Some(all)
    } else {
        let j = my_index(ctx, members);
        ctx.send(root, tag_base + j as u64, Parcel { items: my_items });
        None
    }
}

/// Binomial-tree broadcast from `members[0]`: the root's `items` reach every
/// member in at most `⌈lg q⌉` rounds. Non-roots pass `None`.
pub fn bcast_items_from_root(
    ctx: &mut ProcCtx,
    members: &[Rank],
    items: Option<Vec<Item>>,
    tag_base: u64,
) -> Vec<Item> {
    let q = members.len();
    let k = my_index(ctx, members);
    let mut holdings = if k == 0 {
        items.expect("root must supply the broadcast items")
    } else {
        Vec::new()
    };

    // MPICH-style binomial tree, root = index 0.
    let mut mask = 1usize;
    while mask < q {
        if k & mask != 0 {
            let src = members[k - mask];
            holdings = ctx.recv(src, tag_base + mask as u64).items;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if k + mask < q && k & (mask - 1) == 0 && k & mask == 0 {
            let dst = members[k + mask];
            ctx.send(
                dst,
                tag_base + mask as u64,
                Parcel {
                    items: holdings.clone(),
                },
            );
        }
        mask >>= 1;
    }
    holdings
}

// ----- crash recovery ---------------------------------------------------

/// Logical tags each `tags::PHASE_*` base owns; a tag past it would land
/// in the next phase.
const PHASE_SLOT: u64 = 1 << 20;

/// Tags between consecutive agreement instances: the most any instance
/// of a `p`-rank world with fault bound `f` can use — a gather tag and a
/// reply tag for each of at most `min(f + 1, p)` coordinator rounds.
fn agreement_stride(p: usize, f: usize) -> u64 {
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

/// Backstop on membership epochs. Every epoch that fails to decide
/// strictly grows the agreed failed set (a failed re-run always surfaces a
/// crash outside it), so convergence within `p` epochs is guaranteed;
/// exceeding this bound means the engine itself is broken, and panicking
/// beats spinning.
fn max_epochs(p: usize) -> u64 {
    p as u64 + 4
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

/// Receives and opens a bitmap sent by [`send_set`]. `Err(rank)` is the
/// failure detector's verdict that it will never arrive because `rank`
/// crashed; any other failure is unrecoverable and unwinds.
fn recv_set(ctx: &mut ProcCtx, src: Rank, tag: u64) -> Result<BTreeSet<Rank>, Rank> {
    let parcel = match ctx.try_recv(src, tag) {
        Ok(parcel) => parcel,
        Err(FailureCause::Crash { rank }) => return Err(rank),
        Err(cause) => panic_any(CollectiveError {
            rank: ctx.rank(),
            phase: "recovery-agreement",
            cause,
        }),
    };
    let mut set = BTreeSet::new();
    for item in parcel.items {
        if let Data::Real(bytes) = &ctx.decrypt(item.into_sealed()).data {
            for (r, &bit) in bytes.segments().flatten().enumerate() {
                if bit != 0 {
                    set.insert(r);
                }
            }
        }
    }
    Ok(set)
}

/// One epoch-stamped agreement instance: rotating-coordinator consensus
/// for a perfect failure detector (Chandra & Toueg), deciding on **entry
/// values only**.
///
/// The instance visits coordinators c₁…c_{b+1}: the lowest `b + 1` ranks
/// outside `prev`, the previous instance's (uniform) decision, where
/// `b = f − |prev|` is the crash budget still unspent — so every survivor
/// derives the same list. In round r every live rank seals its estimate
/// (a `p`-byte bitmap, initially its entry-time failed set) to c_r; c_r
/// unions what arrives and seals the union back to each sender; each rank
/// adopts it. A rank that already knows c_r is dead skips the round, and
/// one that finds c_r dead while waiting keeps its estimate. That is
/// `2(q − 1)` sealed frames per round over `q` live ranks.
///
/// Crashes detected *during* the instance (a sender or coordinator that
/// cannot answer) never enter an estimate: they go into the caller's
/// `failed` for the *next* epoch's entry. Uniformity: `prev` holds `|prev|`
/// of the at most `f` crashes, so at most `b` coordinators die. Once the
/// first that does not has answered, every live rank holds its union, and
/// every later union is of identical sets. The decision names only crashed
/// ranks and covers every survivor's entry set.
///
/// Returns the decided set (ascending); extends `failed` with both the
/// decided set and any mid-instance detections.
fn agreement_instance(
    ctx: &mut ProcCtx,
    failed: &mut BTreeSet<Rank>,
    prev: &[Rank],
    epoch: u64,
    stride: u64,
) -> Vec<Rank> {
    let p = ctx.p();
    let me = ctx.rank();
    let budget = ctx.fault_bound().saturating_sub(prev.len());
    let coordinators: Vec<Rank> = (0..p)
        .filter(|r| !prev.contains(r))
        .take(budget + 1)
        .collect();
    // Entry knowledge: what this rank brings into the epoch. Changes only
    // by adopting a coordinator's union of (equally entry-derived) sets.
    let mut estimate: BTreeSet<Rank> = failed.clone();
    // Mid-instance detections: next epoch's problem, never in an estimate.
    let mut fresh: BTreeSet<Rank> = BTreeSet::new();
    for (round, &coord) in coordinators.iter().enumerate() {
        // Every rank opens every round, skipped or not, so the runtime's
        // per-collective wire epochs stay in lockstep.
        ctx.begin_collective();
        ctx.set_phase("recovery-agreement");
        if estimate.contains(&coord) || fresh.contains(&coord) {
            continue;
        }
        let gather = agreement_tag(epoch, stride, 2 * round as u64);
        let reply = gather + 1;
        if coord == me {
            let mut heard = Vec::new();
            for r in 0..p {
                if r == me || estimate.contains(&r) || fresh.contains(&r) {
                    continue;
                }
                match recv_set(ctx, r, gather) {
                    Ok(set) => {
                        estimate.extend(set);
                        heard.push(r);
                    }
                    Err(dead) => {
                        fresh.insert(dead);
                    }
                }
            }
            for r in heard {
                send_set(ctx, r, reply, &estimate);
            }
        } else {
            send_set(ctx, coord, gather, &estimate);
            match recv_set(ctx, coord, reply) {
                Ok(union) => estimate = union,
                Err(dead) => {
                    fresh.insert(dead);
                }
            }
        }
    }
    let decided: Vec<Rank> = estimate.iter().copied().collect();
    failed.extend(estimate);
    failed.extend(fresh);
    decided
}

/// Runs one recoverable attempt of a collective: on a `Crash` failure the
/// attempt is abandoned (blaming the detected crash, which cascades to
/// peers) and the crashed rank joins `failed`; any other failure re-raises
/// for the poison protocol. Returns the output when the attempt completed.
fn run_attempt<F>(
    ctx: &mut ProcCtx,
    failed: &mut BTreeSet<Rank>,
    attempt: F,
) -> Option<GatherOutput>
where
    F: FnOnce(&mut ProcCtx) -> GatherOutput,
{
    ctx.begin_attempt();
    match catch_unwind(AssertUnwindSafe(|| attempt(ctx))) {
        Ok(out) => {
            ctx.complete_attempt();
            Some(out)
        }
        Err(payload) => match payload.downcast::<CollectiveError>() {
            Ok(e) => match e.cause {
                FailureCause::Crash { rank } => {
                    failed.insert(rank);
                    ctx.abort_attempt(rank);
                    None
                }
                // Unrecoverable structured failure: re-raise for the
                // poison protocol.
                _ => resume_unwind(e),
            },
            // Not a structured failure (includes the runner's private
            // crash payload when *this* rank is the one dying): re-raise.
            Err(other) => resume_unwind(other),
        },
    }
}

/// Generic epoch-versioned shrink-and-rerun engine tolerating up to `f`
/// concurrent or cascading crashes (`f` = the fault plan's schedule
/// length), including crashes during detection, agreement, and re-run.
///
/// `attempt` runs the optimistic whole-world collective; `rerun` runs it
/// degraded over a survivor member list. Every rank must call this in
/// lockstep, like the collective itself.
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
///    from *epoch-entry* knowledge only (see `agreement_instance`).
///    Crashes landing inside the instance are excluded from the decision
///    (kept for the next epoch), which keeps the decision uniform across
///    survivors; the instance is effectively restartable — a crash
///    mid-agreement simply enlarges the next epoch's entry set.
/// 3. **Decide or re-run.** If the decided set is exactly the set the
///    latest completed output already covers (for a clean attempt: both
///    empty), the loop terminates and returns that output. Otherwise all
///    survivors re-run over [`Group::shrink`]\(decided\) — composed
///    shrinks renumber deterministically, so cascaded recoveries stay
///    aligned — and loop back to agreement to *confirm* the re-run. A
///    completed re-run does not exempt a rank from that confirmation: a
///    peer may have died after serving this rank but before serving
///    others. The one exception is a completed output covering `f`
///    ranks: with the whole budget spent no crash is left to happen, so
///    it is returned without a confirming instance.
///
/// Each re-run is a fresh collective epoch: blocks are re-sealed with
/// fresh nonces, never reusing a (key, nonce) pair. Termination: an epoch
/// either decides, or its decided set strictly grows by the next epoch
/// (a failed re-run always surfaces a crash outside the decided set), and
/// the crash schedule is finite. A crash that fires *after* the deciding
/// agreement (e.g. during another rank's last rounds) is intentionally
/// not in the returned `failed` set — its victim contributed its block
/// before dying, exactly like a rank crashing after a plain collective
/// returns.
///
/// In a world with no fault plan armed (chaos disabled) crashes are
/// impossible, so agreement is skipped entirely and the wrapper costs
/// nothing beyond the attempt bookkeeping.
pub fn recover_collective<A, R>(ctx: &mut ProcCtx, attempt: A, mut rerun: R) -> DegradedOutput
where
    A: FnOnce(&mut ProcCtx) -> GatherOutput,
    R: FnMut(&mut ProcCtx, &[Rank]) -> GatherOutput,
{
    let mut failed: BTreeSet<Rank> = BTreeSet::new();
    ctx.enter_epoch(0);
    let mut output = run_attempt(ctx, &mut failed, attempt);
    if !ctx.chaos_enabled() {
        return DegradedOutput {
            failed: Vec::new(),
            epochs: 0,
            output: output.expect("crash detected in a world with no fault plan"),
        };
    }
    // The failed set the latest completed output was produced over
    // (`None` while no usable output exists). The decision rule compares
    // it against the agreement's decided set, and both are
    // protocol-lockstep, so every survivor terminates in the same epoch.
    let mut covered: Option<Vec<Rank>> = output.as_ref().map(|_| Vec::new());
    let f = ctx.fault_bound();
    let stride = agreement_stride(ctx.p(), f);
    // The previous instance's decision: uniform, so it names the same
    // coordinators at every survivor.
    let mut decided: Vec<Rank> = Vec::new();
    let mut epoch = 0u64;
    loop {
        if let Some(done) = covered.take_if(|c| c.len() == f) {
            // The output covers f crashes: none is left to happen, so
            // there is nothing for a confirming instance to find.
            return DegradedOutput {
                failed: done,
                epochs: epoch,
                output: output.take().expect("covered set implies an output"),
            };
        }
        epoch += 1;
        assert!(
            epoch <= max_epochs(ctx.p()),
            "recovery did not converge within {} membership epochs",
            max_epochs(ctx.p())
        );
        ctx.enter_epoch(epoch);
        decided = agreement_instance(ctx, &mut failed, &decided, epoch, stride);
        if covered.as_deref() == Some(&decided[..]) {
            return DegradedOutput {
                failed: decided,
                epochs: epoch - 1,
                output: output.take().expect("covered set implies an output"),
            };
        }
        // Survivors re-run over the shrunk group — *all* of them, even
        // those holding a completed (but now stale) output, so every
        // survivor's degraded output is byte-identical. The group keeps
        // global rank identities, so node placement (and the
        // opportunistic encryption rule) stays correct.
        let survivors = Group::world(ctx.p()).shrink(&decided);
        match run_attempt(ctx, &mut failed, |ctx| rerun(ctx, survivors.members())) {
            Some(out) => {
                ctx.note_recovery(survivors.len());
                output = Some(out);
                covered = Some(decided.clone());
            }
            None => {
                // The re-run itself was crashed out from under us; the
                // stale output (if any) covers neither the old nor the
                // new failed set. Detection already enlarged `failed`.
                output = None;
                covered = None;
            }
        }
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
    use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology};

    fn recover(ctx: &mut ProcCtx, algo: Algorithm, m: usize) -> DegradedOutput {
        Collective::Allgather(algo).recover(ctx, m)
    }

    use eag_runtime::{run, run_crashable, DataMode, RetryPolicy, WorldSpec};
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
        mover: impl Fn(&mut eag_runtime::ProcCtx, &[Rank], Vec<Item>) -> Vec<Item> + Sync,
    ) {
        let members: Vec<Rank> = (0..p).collect();
        let report = run(&spec(p, 1), |ctx| {
            let mine = vec![Item::Plain(ctx.my_block(4))];
            let all = mover(ctx, &members, mine);
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
            check_mover(p, |ctx, m, items| {
                bruck_allgather_items(ctx, m, items.into_iter().next().unwrap(), 100)
            });
        }
    }

    #[test]
    fn rd_round_count_is_lg_p_for_powers_of_two() {
        let members: Vec<Rank> = (0..8).collect();
        let report = run(&spec(8, 1), |ctx| {
            let mine = vec![Item::Plain(ctx.my_block(4))];
            rd_allgather_items(ctx, &members, mine, 100).len()
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
            origins_of(&rd_allgather_items(ctx, &members, mine, 100))
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
            let gathered = gather_items_to_root(ctx, &members, mine, 10);
            if ctx.rank() == 0 {
                assert_eq!(origins_of(gathered.as_ref().unwrap()), vec![0, 1, 2, 3, 4]);
            }
            let all = bcast_items_from_root(ctx, &members, gathered, 200);
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
                let items = (ctx.rank() == 0).then(|| vec![Item::Plain(ctx.my_block(4))]);
                let got = bcast_items_from_root(ctx, &members, items, 50);
                origins_of(&got)
            });
            for out in report.outputs {
                assert_eq!(out, vec![0], "q = {q}");
            }
        }
    }

    #[test]
    fn ring_respects_member_order() {
        // Ring over a custom permutation still gathers everything.
        let members: Vec<Rank> = vec![2, 0, 3, 1];
        let report = run(&spec(4, 1), |ctx| {
            let mine = vec![Item::Plain(ctx.my_block(4))];
            origins_of(&ring_allgather_items(ctx, &members, mine, 7))
        });
        for out in report.outputs {
            assert_eq!(out, vec![0, 1, 2, 3]);
        }
    }

    // --- crash recovery ---

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
        // No fault plan: the wrapper adds no agreement traffic and returns
        // the complete output at every rank.
        let report = run(&spec(6, 2), |ctx| recover(ctx, Algorithm::ORing, 32));
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
        assert_eq!(report.wiretap.crashed_ranks(), vec![3]);
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
        let mut s =
            crash_schedule_world(6, 2, vec![Crash::before(2, 0).hard(), Crash::before(4, 0)]);
        // Hard crashes leave no dying gasp: arm the failure detector's
        // suspicion clock so silence past the grace period reads as death.
        s.suspect_after = Some(Duration::from_millis(50));
        let report = run_crashable(&s, |ctx| recover(ctx, Algorithm::ORing, 32));
        check_degraded(&report, &[2, 4]);
    }

    #[test]
    fn agreement_tags_stay_inside_their_epoch_and_the_phase_slot() {
        // Includes fault bounds whose instances need more than 64 tags,
        // the fixed stride that once ran epoch e's tags into epoch e+1's.
        for (p, f) in [(6, 1), (16, 1), (40, 40), (64, 200), (300, 299)] {
            let stride = agreement_stride(p, f);
            for epoch in 1..=max_epochs(p) {
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
                        ctx.recv(first, 1);
                    }
                    empty(&[])
                },
                |_, members| empty(members),
            )
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
}
