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

/// Wire tags of distinct streams, in distinct collective epochs.
const TAGS: [u64; 3] = [7, 9 | (3 << 40), 11 | (4 << 40)];

/// The traffic of one model run, as the system sends it.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One frame on each of `n` streams — every collective's traffic. The
    /// receiver takes them in an order the tape picks, not in send order.
    Streams(usize),
    /// `n` frames on one reused stream, each sent once the receiver took
    /// the one before: a ping-pong on one tag.
    PingPong(usize),
}

impl Shape {
    /// The wire tag of each frame, in send order.
    fn tags(self) -> Vec<u64> {
        match self {
            Shape::Streams(n) => TAGS[..n].to_vec(),
            Shape::PingPong(n) => vec![TAGS[0]; n],
        }
    }
}

/// One run of the two-endpoint model: the sender transmits the frames of
/// `shape`, then finishes and lingers; the receiver's application takes
/// them. Every fault of every first transmission and of every frame's
/// first replay comes off the tape (later replays run clean), as do the
/// receiver's order across streams and the sender-side order of {send the
/// next frame, block, handle the next NACK}. A ping-pong sender is
/// blocked in its own receive between pings, so nothing overtakes a ping.
///
/// The mailboxes are FIFO and each endpoint only ever appends to the
/// other's, so a step of one endpoint commutes with any step of the other
/// that is enabled at the same time: the receiver may therefore admit
/// eagerly, and enumerating the *sender's* order covers every delivery
/// order the network allows. A retry round of the receive the application
/// waits on elapses whenever nothing else can move.
///
/// The receiver's ACKs are handled as soon as they reach the head of the
/// sender's mailbox. That loses no schedule: an ACK names a delivered
/// frame, below the receiver's expected sequence number, so it commutes
/// with the sender's own sends, and it stays FIFO with the NACKs around
/// it, so every NACK sees the log it would see had the sender handled the
/// ACK at any later drain.
///
/// Checks at every arrival that a frame already delivered is a duplicate
/// (never NACKed), that the next frame of its stream arriving intact is
/// delivered with one ACK naming it, and that anything else is NACKed from
/// the stream's next frame; at the end, that each frame was taken exactly
/// once, in order per stream and intact, and that the sender's log is
/// empty and, like every drained ready queue, unallocated. Returns how
/// many retry rounds the run needed.
fn run_model(shape: Shape, adversarial: bool, tape: &mut Tape) -> u32 {
    let plan = plan(adversarial);
    let mut sender = Transport::new(SENDER, &plan);
    let mut receiver = Transport::new(RECEIVER, &plan);
    let mut to_receiver: VecDeque<Message> = VecDeque::new();
    let mut to_sender: VecDeque<Message> = VecDeque::new();
    let tags = shape.tags();
    let n = tags.len();
    let parcels: Vec<Parcel> = (0..n).map(parcel).collect();
    // The stand-in for the per-hop authenticator: a parcel verifies iff
    // it is one of the clean originals.
    let mut verify = |p: &Parcel| parcels.contains(p);
    // Frames the receiver's transport delivered, and those the
    // application took.
    let (mut delivered, mut taken) = (vec![false; n], vec![false; n]);
    // The frame the application waits on.
    let mut waiting: Option<usize> = None;
    let (mut sent, mut rounds) = (0, 0u32);
    let mut limbo_occupied = false;
    loop {
        while let Some(msg) = to_receiver.pop_front() {
            let Wire::Data(frame) = msg.wire else {
                panic!("the sender emits only data frames while the receiver is short");
            };
            let (tag, seq) = (frame.tag, frame.seq);
            let on_stream = |i: &usize| tags[*i] == tag;
            let i = (0..n).filter(on_stream).nth(seq as usize).unwrap();
            let next = (0..n).filter(on_stream).filter(|&j| delivered[j]).count() as u64;
            let intact = frame.parcel == parcels[i];
            let mut tally = Metrics::default();
            receiver.on_frame(SENDER, frame, msg.arrive_us, &mut verify);
            let before = to_sender.len();
            pump(&mut receiver, &mut to_sender, &mut tally);
            let answer: Vec<&Wire> = to_sender.range(before..).map(|m| &m.wire).collect();
            if delivered[i] {
                // A copy of a frame already delivered is a duplicate
                // whatever its bytes look like — never a NACK.
                assert!(answer.is_empty(), "duplicate of {i} was answered");
                assert_eq!(tally.dup_frames_dropped, 1);
            } else if intact && seq == next {
                assert!(
                    matches!(answer[..], [&Wire::Ack { tag: t, seq: s }] if (t, s) == (tag, seq)),
                    "delivery of {i} was not acknowledged by name"
                );
                delivered[i] = true;
            } else {
                assert!(
                    matches!(answer[..], [&Wire::Nack { tag: t, seq: s }] if (t, s) == (tag, next)),
                    "frame {i} (seq {seq}, stream at {next}) was not NACKed"
                );
                assert_eq!(tally.faults_detected, 1);
            }
        }
        // The application takes what it waits on, then picks its next
        // receive: the tape orders the streams; a stream's own frames
        // come in send order.
        loop {
            let i = match waiting {
                Some(i) => i,
                None => {
                    let rest: Vec<usize> = (0..n).filter(|&j| !taken[j]).collect();
                    let i = match (shape, rest.len()) {
                        (_, 0) => break,
                        (Shape::Streams(_), k) if k > 1 => rest[tape.pick(k)],
                        _ => rest[0],
                    };
                    *waiting.insert(i)
                }
            };
            let Some((got, _)) = receiver.take_ready(SENDER, tags[i]) else {
                break;
            };
            assert_eq!(got, parcels[i], "frame {i} corrupted or out of order");
            taken[i] = true;
            waiting = None;
        }
        while let Some(&Wire::Ack { tag, seq }) = to_sender.front().map(|m| &m.wire) {
            to_sender.pop_front();
            sender.on_ack(RECEIVER, tag, seq);
        }
        let gated = matches!(shape, Shape::PingPong(_)) && sent > 0 && !taken[sent - 1];
        let can_send = sent < n && !gated;
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
            if sent == n || matches!(shape, Shape::PingPong(_)) {
                // Finished, or waiting for the pong: the limbo drains.
                sender.flush_limbo();
                limbo_occupied = false;
            }
        } else if can_hear {
            let Some(Wire::Nack { tag, seq }) = to_sender.pop_front().map(|m| m.wire) else {
                panic!("the receiver emits only NACKs and ACKs");
            };
            let finished = sent == n;
            let mut refault = |_seq, attempt| match attempt {
                1 => FAULTS[tape.pick(FAULTS.len())],
                _ => None,
            };
            sender.on_nack(RECEIVER, tag, seq, finished, 99.0, &mut refault);
        } else if let Some(i) = waiting {
            rounds += 1;
            let round = receiver.round_elapsed(SENDER, tags[i], rounds, u32::MAX);
            assert_eq!(round, Round::Nack);
            pump(&mut receiver, &mut to_sender, &mut tally);
        } else {
            break;
        }
        pump(&mut sender, &mut to_receiver, &mut tally);
        assert!(tally.faults_injected <= tally.retransmits.max(1));
    }
    // Exactly once: every frame was taken, and nothing is left over.
    assert!(taken.iter().all(|&t| t), "a frame was never received");
    for &tag in &tags {
        assert!(receiver.take_ready(SENDER, tag).is_none(), "extra delivery");
    }
    // Bounded: every delivered frame was acknowledged and pruned, and no
    // drained log or queue keeps its buffer for the life of the world.
    assert_eq!(
        sender.logged(),
        0,
        "the retransmit log kept acknowledged frames"
    );
    assert!(sender.outgoing.values().all(|s| s.log.capacity() == 0));
    assert!(receiver.incoming.values().all(|s| s.ready.capacity() == 0));
    rounds
}

/// Explores every tape of `run_model` over `shape`; returns the number of
/// runs and the most retry rounds any of them needed.
fn explore(shape: Shape, adversarial: bool) -> (u64, u32) {
    let mut tape = Tape::default();
    let (mut runs, mut worst) = (0u64, 0u32);
    loop {
        runs += 1;
        worst = worst.max(run_model(shape, adversarial, &mut tape));
        if !tape.advance() {
            return (runs, worst);
        }
    }
}

/// The "delivered exactly once, in order, intact" contract, explored
/// rather than sampled over the traffic the system sends: every fault
/// assignment to the frames and to each frame's first replay, every
/// schedule and every receive order across streams, for up to three
/// one-frame streams and a ping-pong of up to four frames on one stream,
/// with and without the checksum-fixing adversary. Each run must also
/// *finish* once replays run clean: a frame's second replay is never
/// faulted, so two retry rounds per frame bound the recovery — per stream
/// for one-frame streams, per ping on the reused one.
#[test]
fn every_fault_assignment_and_schedule_delivers_exactly_once_in_order() {
    let shapes: &[Shape] = if cfg!(miri) {
        &[Shape::Streams(1), Shape::PingPong(2)]
    } else {
        &[
            Shape::Streams(1),
            Shape::Streams(2),
            Shape::Streams(3),
            Shape::PingPong(2),
            Shape::PingPong(3),
            Shape::PingPong(4),
        ]
    };
    let mut total = 0;
    for &shape in shapes {
        for adversarial in [false, true] {
            let (runs, worst) = explore(shape, adversarial);
            let frames = shape.tags().len() as u32;
            assert!(
                worst <= 2 * frames,
                "{shape:?}: a run needed {worst} retry rounds"
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

/// A replay of a frame already delivered is re-faultable like any other,
/// and may arrive tampered: it is a duplicate whatever its bytes look
/// like — never a NACK, which would only trigger another replay.
#[test]
fn tampered_replay_of_a_delivered_frame_is_a_duplicate_not_a_fault() {
    for adversarial in [false, true] {
        let plan = plan(adversarial);
        let mut sender = Transport::new(SENDER, &plan);
        let mut receiver = Transport::new(RECEIVER, &plan);
        let mut verify = |p: &Parcel| *p == parcel(0);
        let frame = sender.frame(RECEIVER, 3, parcel(0));
        receiver.on_frame(SENDER, frame.clone(), 1.0, &mut verify);
        assert!(matches!(
            &receiver.out[..],
            [Action::Send(
                SENDER,
                Message {
                    wire: Wire::Ack { tag: 3, seq: 0 },
                    ..
                }
            )]
        ));
        receiver.out.clear();
        let mut replay = frame;
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
        assert_eq!(receiver.take_ready(SENDER, 3), Some((parcel(0), 1.0)));
        assert_eq!(receiver.take_ready(SENDER, 3), None);
    }
}

/// A frame that overtakes an earlier one of its stream is not buffered:
/// it is NACKed from the missing frame, like a corrupt one, and the
/// go-back-N replay re-delivers both in order, each once.
#[test]
fn an_early_frame_is_nacked_and_replayed_in_order() {
    let plan = plan(false);
    let mut sender = Transport::new(SENDER, &plan);
    let mut receiver = Transport::new(RECEIVER, &plan);
    let mut verify = |_: &Parcel| true;
    let (mut to_sender, mut to_receiver) = (VecDeque::new(), VecDeque::new());
    let mut tally = Metrics::default();
    let first = sender.frame(RECEIVER, 5, parcel(0));
    let second = sender.frame(RECEIVER, 5, parcel(1));
    receiver.on_frame(SENDER, second, 1.0, &mut verify);
    pump(&mut receiver, &mut to_sender, &mut tally);
    assert_eq!(tally.faults_detected, 1);
    assert!(matches!(
        to_sender.make_contiguous(),
        [Message {
            wire: Wire::Nack { tag: 5, seq: 0 },
            ..
        }]
    ));
    assert_eq!(receiver.take_ready(SENDER, 5), None, "nothing is buffered");
    receiver.on_frame(SENDER, first, 0.0, &mut verify);
    let mut clean = |_, _| None;
    sender.on_nack(RECEIVER, 5, 0, false, 2.0, &mut clean);
    pump(&mut sender, &mut to_receiver, &mut tally);
    assert_eq!(tally.retransmits, 2, "go-back-N replays both frames");
    for msg in to_receiver.drain(..) {
        let Wire::Data(frame) = msg.wire else {
            panic!("a replay is a data frame");
        };
        receiver.on_frame(SENDER, frame, msg.arrive_us, &mut verify);
    }
    pump(&mut receiver, &mut to_sender, &mut tally);
    assert_eq!(tally.dup_frames_dropped, 1, "frame 0 came twice");
    assert_eq!(receiver.take_ready(SENDER, 5), Some((parcel(0), 0.0)));
    assert_eq!(receiver.take_ready(SENDER, 5), Some((parcel(1), 2.0)));
    assert_eq!(receiver.take_ready(SENDER, 5), None);
}

/// An ACK prunes only the frame it names. Two frames of one stream are
/// lost; an ACK naming frame 2, which was never sent, and one naming
/// `u64::MAX` arrive; the receiver's NACK must still replay both frames —
/// a cumulative reading of either ACK would prune them, and the finished
/// sender would answer `NackMiss`, turning the loss into a typed failure.
#[test]
fn a_bogus_ack_prunes_nothing() {
    let mut sender = Transport::new(SENDER, &plan(false));
    for id in 0..2 {
        sender.frame(RECEIVER, 6, parcel(id));
    }
    sender.on_ack(RECEIVER, 6, 2);
    sender.on_ack(RECEIVER, 6, u64::MAX);
    assert_eq!(sender.logged(), 2);
    let mut clean = |_, _| None;
    sender.on_nack(RECEIVER, 6, 0, true, 0.0, &mut clean);
    let replayed: Vec<u64> = sender
        .out
        .iter()
        .filter_map(|action| match action {
            Action::Send(
                RECEIVER,
                Message {
                    wire: Wire::Data(frame),
                    ..
                },
            ) => Some(frame.seq),
            _ => None,
        })
        .collect();
    assert_eq!(replayed, [0, 1], "the NACK did not replay both lost frames");
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
