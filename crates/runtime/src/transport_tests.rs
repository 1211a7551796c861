//! Thread-free tests of the reliable transport: two [`Transport`]
//! endpoints joined by an in-memory network, explored exhaustively over
//! small streams, plus a malformed-frame property test. No thread, clock,
//! scheduler or world is involved — every event is fed by hand and every
//! action is executed by the fake glue below.

use super::*;
use crate::payload::Chunk;
use crate::Metrics;
use eag_netsim::Tape;
use proptest::prelude::*;

const SENDER: Rank = 0;
const RECEIVER: Rank = 1;

/// The fault alphabet of one transmission. The seventh letter of the
/// issue's alphabet, *adversarial* tamper, is `Tamper` under a plan with
/// `adversarial_tamper` set — a plan-wide switch, as in the runtime.
const FAULTS: [Option<FaultKind>; 6] = [
    None,
    Some(FaultKind::Drop),
    Some(FaultKind::Duplicate),
    Some(FaultKind::Reorder),
    Some(FaultKind::Delay),
    Some(FaultKind::Tamper),
];

fn plan(adversarial: bool) -> FaultPlan {
    FaultPlan {
        adversarial_tamper: adversarial,
        ..FaultPlan::default()
    }
}

/// A parcel whose bytes (and length) identify frame `id`.
fn parcel(id: usize) -> Parcel {
    let bytes = vec![id as u8 + 1; 8 + id];
    Parcel::one(Item::Plain(Chunk::single(SENDER, Data::Real(bytes.into()))))
}

/// The fake glue: drains `t.out`, moving frames into `wire` (the FIFO
/// mailbox of the other endpoint) and folding the events into a tally,
/// the way the runtime folds them into a rank's metrics.
fn pump(t: &mut Transport, wire: &mut VecDeque<Message>, tally: &mut Metrics) {
    for action in t.out.drain(..) {
        match action {
            Action::Send(_, msg) => wire.push_back(msg),
            Action::Note(kind) => tally.add(t.rank, &kind),
        }
    }
}

/// One run of the two-endpoint model: the sender transmits `tags.len()`
/// frames (frame `i` on stream `tags[i]`), then finishes and lingers; the
/// receiver's application receives them in send order. Every fault of
/// every first transmission and of every frame's first replay comes off
/// the tape (later replays run clean), as does the sender-side order of
/// {send the next frame, block, handle the next NACK}.
///
/// The mailboxes are FIFO and each endpoint only ever appends to the
/// other's, so a step of one endpoint commutes with any step of the other
/// that is enabled at the same time: the receiver may therefore consume
/// eagerly, and enumerating the *sender's* order covers every delivery
/// order the network allows. A retry round elapses whenever nothing else
/// can move and the receiver is still short.
///
/// The receiver's ACKs are handled as soon as they reach the head of the
/// sender's mailbox. That loses no schedule: an ACK prunes only frames
/// below the receiver's expected sequence number, so it commutes with the
/// sender's own sends, and it stays FIFO with the NACKs around it, so
/// every NACK sees the log it would see had the sender handled the ACK at
/// any later drain. Every run ends with the sender's log empty: each
/// delivered frame is acknowledged and pruned.
///
/// Returns how many retry rounds the run needed.
fn run_model(tags: &[u64], adversarial: bool, tape: &mut Tape) -> u32 {
    let plan = plan(adversarial);
    let mut sender = Transport::new(SENDER, &plan);
    let mut receiver = Transport::new(RECEIVER, &plan);
    let mut to_receiver: VecDeque<Message> = VecDeque::new();
    let mut to_sender: VecDeque<Message> = VecDeque::new();
    let parcels: Vec<Parcel> = (0..tags.len()).map(parcel).collect();
    // The stand-in for the per-hop authenticator: a parcel verifies iff
    // it is one of the clean originals.
    let mut verify = |p: &Parcel| parcels.contains(p);
    // Frames the receiver holds verified (buffered or delivered).
    let mut held: Vec<(u64, u64)> = Vec::new();
    let (mut sent, mut received, mut rounds) = (0, 0, 0u32);
    let mut limbo_occupied = false;
    loop {
        while let Some(msg) = to_receiver.pop_front() {
            let Wire::Data(frame) = msg.wire else {
                panic!("the sender emits only data frames while the receiver is short");
            };
            let id = (frame.tag, frame.seq);
            let clean = parcels.contains(&frame.parcel);
            let mut tally = Metrics::default();
            receiver.on_frame(SENDER, frame, msg.arrive_us, &mut verify);
            pump(&mut receiver, &mut to_sender, &mut tally);
            let nacks = tally.nacks_sent;
            if held.contains(&id) {
                // Satellite 1: a copy of a frame already held verified is
                // a duplicate whatever its bytes look like — never a NACK.
                assert_eq!(nacks, 0, "duplicate of {id:?} was NACKed");
                assert_eq!(tally.dup_frames_dropped, 1);
            } else if clean {
                held.push(id);
            } else {
                assert_eq!(nacks, 1, "corrupt frame {id:?} was not NACKed");
                assert_eq!(tally.faults_detected, 1);
            }
            // The application receives in send order: exactly the sent
            // parcel, or nothing yet.
            while received < tags.len() {
                let Some((got, _)) = receiver.take_ready(SENDER, tags[received]) else {
                    break;
                };
                assert_eq!(got, parcels[received], "frame {received} corrupted");
                received += 1;
            }
        }
        while let Some(&Wire::Ack { tag, seq }) = to_sender.front().map(|m| &m.wire) {
            to_sender.pop_front();
            sender.on_ack(RECEIVER, tag, seq);
        }
        let can_send = sent < tags.len();
        let can_hear = !to_sender.is_empty();
        let mut tally = Metrics::default();
        if can_send && (!can_hear || tape.pick(2) == 0) {
            if limbo_occupied && tape.pick(2) == 1 {
                // The sender blocks in a receive of its own first.
                sender.flush_limbo();
            }
            let fault = FAULTS[tape.pick(FAULTS.len())];
            let mut frame = sender.frame(RECEIVER, tags[sent], parcels[sent].clone());
            let mut arrive_us = sent as f64;
            sender.apply_fault(RECEIVER, &mut frame, &mut arrive_us, fault);
            sender.dispatch(RECEIVER, frame, arrive_us, fault);
            limbo_occupied = fault == Some(FaultKind::Reorder);
            sent += 1;
            if sent == tags.len() {
                // Finished: the limbo drains and the rank lingers.
                sender.flush_limbo();
            }
        } else if can_hear {
            let Some(Wire::Nack { tag, seq }) = to_sender.pop_front().map(|m| m.wire) else {
                panic!("the receiver emits only NACKs and ACKs");
            };
            let finished = sent == tags.len();
            let mut refault = |_seq, attempt| match attempt {
                1 => FAULTS[tape.pick(FAULTS.len())],
                _ => None,
            };
            sender.on_nack(RECEIVER, tag, seq, finished, 99.0, &mut refault);
        } else if received == tags.len() {
            break;
        } else {
            rounds += 1;
            let round = receiver.round_elapsed(SENDER, tags[received], rounds, u32::MAX);
            assert_eq!(round, Round::Nack);
            pump(&mut receiver, &mut to_sender, &mut tally);
        }
        pump(&mut sender, &mut to_receiver, &mut tally);
        assert!(tally.faults_injected <= tally.retransmits.max(1));
    }
    // Exactly once: nothing is left over on any stream.
    for &tag in tags {
        assert!(receiver.take_ready(SENDER, tag).is_none(), "extra delivery");
    }
    // Bounded: every delivered frame was acknowledged and pruned.
    assert_eq!(
        sender.logged(),
        0,
        "the retransmit log kept acknowledged frames"
    );
    rounds
}

/// Explores every tape of `run_model` over `tags`; returns the number of
/// runs and the most retry rounds any of them needed.
fn explore(tags: &[u64], adversarial: bool) -> (u64, u32) {
    let mut tape = Tape::default();
    let (mut runs, mut worst) = (0u64, 0u32);
    loop {
        runs += 1;
        worst = worst.max(run_model(tags, adversarial, &mut tape));
        if !tape.advance() {
            return (runs, worst);
        }
    }
}

/// The "delivered exactly once, in order, intact" contract, explored
/// rather than sampled: every fault assignment to the frames and to each
/// frame's first replay, every schedule, streams of up to three frames
/// over up to two tags, with and without the checksum-fixing adversary.
/// Each run must also *finish* once replays run clean: a frame's second
/// replay is never faulted, so two retry rounds per stream bound the
/// recovery.
#[test]
fn every_fault_assignment_and_schedule_delivers_exactly_once_in_order() {
    const A: u64 = 7;
    const B: u64 = 9 | (3 << 40); // another tag, in another collective epoch
    let shapes: &[&[u64]] = if cfg!(miri) {
        &[&[A], &[A, A]]
    } else {
        &[
            &[A],
            &[A, A],
            &[A, B],
            &[A, A, A],
            &[A, A, B],
            &[A, B, A],
            &[A, B, B],
        ]
    };
    let mut total = 0;
    for tags in shapes {
        for adversarial in [false, true] {
            let (runs, worst) = explore(tags, adversarial);
            let streams = if tags.contains(&B) { 2 } else { 1 };
            assert!(
                worst <= 2 * streams,
                "{tags:?}: a run needed {worst} retry rounds"
            );
            total += runs;
        }
    }
    // Guards the exploration itself against silently shrinking.
    let floor = if cfg!(miri) { 1_000 } else { 200_000 };
    assert!(total >= floor, "explored only {total} runs");
}

/// A NACK for a stream with nothing logged: a *finished* sender's log is
/// complete, so it answers `NackMiss` (the frames will never exist); a
/// running sender may simply not have sent yet, and stays silent.
#[test]
fn nack_to_an_empty_log_is_answered_only_once_finished() {
    let mut sender = Transport::new(SENDER, &plan(false));
    let mut clean = |_, _| None;
    sender.on_nack(RECEIVER, 5, 0, false, 0.0, &mut clean);
    assert!(sender.out.is_empty(), "a running sender must stay silent");
    sender.on_nack(RECEIVER, 5, 0, true, 0.0, &mut clean);
    let [Action::Send(RECEIVER, msg)] = &sender.out[..] else {
        panic!("expected exactly one frame back");
    };
    assert!(matches!(msg.wire, Wire::NackMiss { tag: 5 }));
    // A log with frames on *another* tag is still empty for this one.
    sender.out.clear();
    sender.frame(RECEIVER, 6, parcel(0));
    sender.on_nack(RECEIVER, 5, 0, true, 0.0, &mut clean);
    assert!(matches!(
        &sender.out[..],
        [Action::Send(
            RECEIVER,
            Message {
                wire: Wire::NackMiss { tag: 5 },
                ..
            }
        )]
    ));
}

/// A NACK that arrives after the frames it asks for were acknowledged
/// and pruned finds nothing at or after its sequence number: a finished
/// sender answers `NackMiss`, a running one stays silent, and the
/// receiver — which already holds every frame — sees no redelivery.
#[test]
fn stale_nack_after_the_ack_pruned_its_frames_replays_nothing() {
    let plan = plan(false);
    let mut sender = Transport::new(SENDER, &plan);
    let mut receiver = Transport::new(RECEIVER, &plan);
    let mut verify = |_: &Parcel| true;
    let (mut to_receiver, mut to_sender, mut tally) =
        (VecDeque::new(), VecDeque::new(), Metrics::default());
    for id in 0..2 {
        let frame = sender.frame(RECEIVER, 4, parcel(id));
        receiver.on_frame(SENDER, frame, id as f64, &mut verify);
    }
    pump(&mut receiver, &mut to_sender, &mut tally);
    assert_eq!(receiver.take_ready(SENDER, 4), Some((parcel(0), 0.0)));
    assert_eq!(receiver.take_ready(SENDER, 4), Some((parcel(1), 1.0)));
    assert_eq!(sender.logged(), 2);
    for msg in to_sender.drain(..) {
        let Wire::Ack { tag, seq } = msg.wire else {
            panic!("expected only ACKs back");
        };
        sender.on_ack(RECEIVER, tag, seq);
    }
    assert_eq!(sender.logged(), 0, "both frames are acknowledged");
    let mut clean = |_, _| None;
    sender.on_nack(RECEIVER, 4, 0, false, 0.0, &mut clean);
    assert!(sender.out.is_empty(), "a running sender must stay silent");
    sender.on_nack(RECEIVER, 4, 0, true, 0.0, &mut clean);
    pump(&mut sender, &mut to_receiver, &mut tally);
    let [Message {
        wire: Wire::NackMiss { tag: 4 },
        ..
    }] = &to_receiver.make_contiguous()[..]
    else {
        panic!("a finished sender answers NackMiss and replays nothing");
    };
    assert_eq!(tally.retransmits, 0);
    assert_eq!(receiver.take_ready(SENDER, 4), None, "no redelivery");
}

/// Satellite-1 regression: go-back-N re-delivers frames the receiver
/// already buffered, and each replay is independently re-faultable. A
/// tampered replay of a frame held *verified* used to fail the integrity
/// check first and trigger another full-suffix replay; it is a duplicate.
#[test]
fn tampered_replay_of_a_buffered_frame_is_a_duplicate_not_a_fault() {
    for adversarial in [false, true] {
        let plan = plan(adversarial);
        let mut sender = Transport::new(SENDER, &plan);
        let mut receiver = Transport::new(RECEIVER, &plan);
        let mut verify = |p: &Parcel| *p == parcel(0) || *p == parcel(1);
        let first = sender.frame(RECEIVER, 3, parcel(0));
        let second = sender.frame(RECEIVER, 3, parcel(1));
        // Frame 1 overtakes frame 0: buffered, one NACK for the gap.
        receiver.on_frame(SENDER, second.clone(), 1.0, &mut verify);
        let (mut wire, mut tally) = (VecDeque::new(), Metrics::default());
        pump(&mut receiver, &mut wire, &mut tally);
        assert_eq!(tally.nacks_sent, 1);
        // Its replay arrives tampered.
        let mut replay = second;
        let mut arrive_us = 2.0;
        sender.apply_fault(
            RECEIVER,
            &mut replay,
            &mut arrive_us,
            Some(FaultKind::Tamper),
        );
        receiver.on_frame(SENDER, replay, arrive_us, &mut verify);
        assert!(matches!(
            &receiver.out[..],
            [Action::Note(EventKind::Duplicate {
                src: SENDER,
                tag: 3
            })]
        ));
        receiver.out.clear();
        // The gap fills: both frames come out clean, in order, once, and
        // one cumulative ACK covers them both.
        receiver.on_frame(SENDER, first, 3.0, &mut verify);
        assert!(matches!(
            &receiver.out[..],
            [Action::Send(
                SENDER,
                Message {
                    wire: Wire::Ack { tag: 3, seq: 2 },
                    ..
                }
            )]
        ));
        assert_eq!(receiver.take_ready(SENDER, 3), Some((parcel(0), 3.0)));
        assert_eq!(receiver.take_ready(SENDER, 3), Some((parcel(1), 1.0)));
        assert_eq!(receiver.take_ready(SENDER, 3), None);
    }
}

/// A frame as a hostile or broken wire might present it: any header, over
/// a payload that may since have been truncated, bit-flipped or emptied.
#[derive(Debug, Clone)]
struct Arrival {
    tag: u64,
    seq: u64,
    /// Stamp the header with the payload's true checksum (before the
    /// payload is mangled) instead of `stray_sum`.
    stamp: bool,
    stray_sum: u64,
    payload: Vec<u8>,
    mangle: u8,
    at: usize,
    /// What the per-hop verifier says about this frame.
    vouched: bool,
}

fn arb_arrival() -> impl Strategy<Value = Arrival> {
    let header = (0u64..3, 0u64..6, any::<bool>(), any::<u64>());
    let body = (
        proptest::collection::vec(any::<u8>(), 0..24),
        0u8..4,
        any::<usize>(),
        any::<bool>(),
    );
    (header, body).prop_map(
        |((tag, seq, stamp, stray_sum), (payload, mangle, at, vouched))| Arrival {
            tag,
            seq,
            stamp,
            stray_sum,
            payload,
            mangle,
            at,
            vouched,
        },
    )
}

impl Arrival {
    fn frame(&self) -> Frame {
        let wrap = |bytes: Vec<u8>| {
            Parcel::one(Item::Plain(Chunk::single(SENDER, Data::Real(bytes.into()))))
        };
        let stamped = wrap(self.payload.clone()).checksum();
        let mut bytes = self.payload.clone();
        let parcel = match self.mangle {
            1 => {
                bytes.truncate(self.at % (bytes.len() + 1));
                wrap(bytes)
            }
            2 if !bytes.is_empty() => {
                let at = self.at % bytes.len();
                bytes[at] ^= 1 << (self.at % 8);
                wrap(bytes)
            }
            3 => Parcel::new(),
            _ => wrap(bytes),
        };
        Frame {
            tag: self.tag,
            seq: self.seq,
            checksum: Some(if self.stamp { stamped } else { self.stray_sum }),
            parcel,
        }
    }
}

proptest! {
    /// Whatever arrives — arbitrary `(tag, seq, checksum)` headers over
    /// truncated, bit-flipped or emptied parcels — admission never panics,
    /// and only hands the application frames whose checksum matched (and,
    /// under an adversarial plan, that the per-hop verifier vouched for).
    #[test]
    fn admission_survives_malformed_frames_and_delivers_only_verified_ones(
        arrivals in proptest::collection::vec(arb_arrival(), 1..40),
        adversarial in any::<bool>(),
    ) {
        let mut receiver = Transport::new(RECEIVER, &plan(adversarial));
        let mut admissible = Vec::new();
        for arrival in &arrivals {
            let frame = arrival.frame();
            if Some(frame.parcel.checksum()) == frame.checksum
                && (arrival.vouched || !adversarial)
            {
                admissible.push((frame.tag, frame.parcel.clone()));
            }
            receiver.on_frame(SENDER, frame, 0.0, &mut |_| arrival.vouched);
            for action in receiver.out.drain(..) {
                if let Action::Send(to, msg) = action {
                    prop_assert_eq!(to, SENDER);
                    prop_assert!(matches!(msg.wire, Wire::Nack { .. } | Wire::Ack { .. }));
                }
            }
        }
        for tag in 0..3 {
            while let Some((got, _)) = receiver.take_ready(SENDER, tag) {
                prop_assert!(
                    admissible.contains(&(tag, got)),
                    "delivered a frame that never verified"
                );
            }
        }
    }
}
