//! The reliable transport of chaos mode, as a thread-free state machine.
//!
//! One [`Transport`] per rank owns the whole reliability protocol — stream
//! sequence numbers, checksum admission, the retransmit log, NACK /
//! go-back-N replay, deduplication and fault application — and nothing
//! else: it never reads a clock, parks, touches a mailbox, bumps a counter
//! or writes a timeline; it names what happened as an [`EventKind`] and
//! leaves the booking to the glue. The glue in [`crate::world`] feeds it
//! **events** and executes the **actions** it leaves in [`Transport::out`]:
//!
//! | event (glue → transport)                | method                                  |
//! |-----------------------------------------|-----------------------------------------|
//! | frame to send                           | [`frame`](Transport::frame) → [`apply_fault`](Transport::apply_fault) → [`dispatch`](Transport::dispatch) |
//! | frame arrived                           | [`on_frame`](Transport::on_frame)       |
//! | NACK arrived                            | [`on_nack`](Transport::on_nack)         |
//! | ACK arrived                             | [`on_ack`](Transport::on_ack)           |
//! | retry round elapsed                     | [`round_elapsed`](Transport::round_elapsed) |
//!
//! | action (transport → glue)               | executed against                        |
//! |-----------------------------------------|-----------------------------------------|
//! | deliver (into the stream's ready queue, popped by [`take_ready`](Transport::take_ready)) | the blocked `recv` |
//! | [`Action::Send`] a data/control frame   | the scheduler's mailboxes               |
//! | [`Action::Note`] a fault/recovery event | the rank's metrics and timeline         |
//!
//! A world with no fault plan armed never frames or holds back a frame (it
//! may corrupt or delay a listed one), so `dispatch` mails its sends as
//! they are; its arrivals still pass through
//! [`on_frame`](Transport::on_frame), whose first check delivers them.
//!
//! Streams are in order: the receiver delivers only the next frame of a
//! stream and NACKs a later one, which go-back-N replay re-sends. Every
//! stream a collective sends carries one frame (wire tags name the epoch
//! and step); a ping-pong reuses one stream frame after frame.
//!
//! The contract (DESIGN.md §4): every frame sent on a stream is delivered
//! exactly once, in order and intact, or the receive fails with a typed
//! cause — never a wrong, duplicated or reordered delivery. Because the
//! machine has no threads in it, the contract is *explored* (every fault
//! assignment × every schedule of small streams, see the tests) rather
//! than sampled by seeded chaos runs.

use crate::payload::{Data, Item, Parcel};
use crate::trace::EventKind;
use eag_netsim::{FaultKind, FaultPlan, Rank};
use std::collections::{HashMap, VecDeque};

/// An application frame. `seq` numbers the `(src, tag)` stream and
/// `checksum` is the transport-level integrity check; unframed frames
/// (chaos off, or an intra-node/self stream that can never be faulted)
/// carry `seq: 0, checksum: None` and bypass admission at the receiver.
#[derive(Clone)]
pub(crate) struct Frame {
    pub(crate) tag: u64,
    pub(crate) seq: u64,
    pub(crate) checksum: Option<u64>,
    pub(crate) parcel: Parcel,
}

/// What travels on a channel: a data frame, one of the three recovery
/// control frames, or the poison marker that propagates a panic.
#[derive(Clone)]
pub(crate) enum Wire {
    Data(Frame),
    /// "Retransmit everything on `tag` from `seq` onward."
    Nack {
        tag: u64,
        seq: u64,
    },
    /// "I have delivered frame `seq` of `tag`" — one per delivered frame;
    /// the sender drops exactly that frame from its retransmit log.
    Ack {
        tag: u64,
        seq: u64,
    },
    /// "I have nothing logged for `tag` at or after the NACKed sequence
    /// number" — the finished sender will never produce the frame; lets
    /// the receiver fail fast with `DeadPeer`.
    NackMiss {
        tag: u64,
    },
    /// The sender panicked; unwind.
    Poison,
}

#[derive(Clone)]
pub(crate) struct Message {
    pub(crate) src: Rank,
    pub(crate) arrive_us: f64,
    pub(crate) wire: Wire,
}

/// What the glue must do on the transport's behalf.
pub(crate) enum Action {
    Send(Rank, Message),
    /// Book a fault or recovery event (tags are wire tags).
    Note(EventKind),
}

/// Answer to a retry round elapsing on a blocked receive.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Round {
    /// A NACK went out; wait another round.
    Nack,
    /// The retry budget is spent; fail the receive with a typed timeout.
    Exhausted,
}

/// One logged transmission, kept for NACK-triggered replay until the peer
/// acknowledges it. The parcel is the *pre-fault* clone: retransmissions
/// start from clean bytes.
struct SentRecord {
    seq: u64,
    attempts: u32,
    parcel: Parcel,
}

/// A `(peer, wire tag)` stream.
type Stream = (Rank, u64);

/// The receiving end of one stream.
#[derive(Default)]
struct Incoming {
    /// The sequence number of the next frame to deliver.
    expected: u64,
    /// Delivered frames awaiting a matching `recv`, with their virtual
    /// arrival times. An emptied queue holds no allocation: the record
    /// lives as long as the world, and most streams carry one frame.
    ready: VecDeque<(Parcel, f64)>,
}

/// The sending end of one stream.
#[derive(Default)]
struct Outgoing {
    /// The sequence number of the next first transmission.
    next_seq: u64,
    /// Retransmit log, in sequence order: exactly the frames the peer has
    /// not acknowledged yet. An emptied log holds no allocation.
    log: Vec<SentRecord>,
}

/// One rank's end of every stream it sends or receives on.
pub(crate) struct Transport {
    rank: Rank,
    /// The plan's `adversarial_tamper`: tampering re-stamps the checksum,
    /// and admission additionally runs the caller's per-hop verifier.
    adversarial: bool,
    /// The plan's `delay_us`.
    delay_us: f64,
    incoming: HashMap<Stream, Incoming>,
    outgoing: HashMap<Stream, Outgoing>,
    /// Frames held back by an injected `Reorder`; released after the next
    /// first transmission (or when the rank blocks or finishes).
    reorder_limbo: Vec<(Rank, Message)>,
    /// Actions awaiting execution; the glue drains this after every event
    /// (a reused buffer — no allocation per frame).
    pub(crate) out: Vec<Action>,
}

impl Transport {
    pub(crate) fn new(rank: Rank, plan: &FaultPlan) -> Self {
        Transport {
            rank,
            adversarial: plan.adversarial_tamper,
            delay_us: plan.delay_us,
            incoming: HashMap::new(),
            outgoing: HashMap::new(),
            reorder_limbo: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Pops the next delivered frame of `(src, tag)`, if any.
    pub(crate) fn take_ready(&mut self, src: Rank, tag: u64) -> Option<(Parcel, f64)> {
        let ready = &mut self.incoming.get_mut(&(src, tag))?.ready;
        let got = ready.pop_front()?;
        if ready.is_empty() {
            *ready = VecDeque::new();
        }
        Some(got)
    }

    fn note(&mut self, kind: EventKind) {
        self.out.push(Action::Note(kind));
    }

    fn message(&self, arrive_us: f64, wire: Wire) -> Message {
        Message {
            src: self.rank,
            arrive_us,
            wire,
        }
    }

    fn emit(&mut self, dst: Rank, arrive_us: f64, wire: Wire) {
        let msg = self.message(arrive_us, wire);
        self.out.push(Action::Send(dst, msg));
    }

    /// The number of frames logged for replay, over every stream.
    #[cfg(test)]
    pub(crate) fn logged(&self) -> usize {
        self.outgoing.values().map(|s| s.log.len()).sum()
    }

    /// The one NACK constructor: asks `to` to replay `tag` from the first
    /// sequence number this rank has not delivered yet.
    fn nack(&mut self, to: Rank, tag: u64, attempt: u32) {
        let seq = self.incoming.get(&(to, tag)).map_or(0, |s| s.expected);
        self.note(EventKind::Nack {
            peer: to,
            tag,
            attempt,
        });
        self.emit(to, 0.0, Wire::Nack { tag, seq });
    }

    // ----- frame to send ----------------------------------------------------

    /// Frames a first transmission on an armed stream: the next sequence
    /// number, a checksum and a log entry — both taken *before* any fault
    /// touches the frame, so retransmissions replay the clean bytes.
    pub(crate) fn frame(&mut self, dst: Rank, tag: u64, parcel: Parcel) -> Frame {
        let stream = self.outgoing.entry((dst, tag)).or_default();
        let seq = stream.next_seq;
        stream.next_seq += 1;
        stream.log.push(SentRecord {
            seq,
            attempts: 0,
            parcel: parcel.clone(),
        });
        Frame {
            tag,
            seq,
            checksum: Some(parcel.checksum()),
            parcel,
        }
    }

    /// The one fault applicator, shared by first transmissions and replays,
    /// framed or not: books the injection and perturbs the frame in place. `Drop`,
    /// `Duplicate` and `Reorder` change where the frame goes, not what it
    /// carries — [`dispatch`](Self::dispatch) routes them (replays are
    /// handed neither of the last two).
    pub(crate) fn apply_fault(
        &mut self,
        dst: Rank,
        frame: &mut Frame,
        arrive_us: &mut f64,
        fault: Option<FaultKind>,
    ) {
        let Some(kind) = fault else { return };
        self.note(EventKind::Fault { kind, dst });
        match kind {
            FaultKind::Tamper => {
                corrupt_parcel(&mut frame.parcel);
                if self.adversarial && frame.checksum.is_some() {
                    // On-path adversary: fix up the transport checksum so
                    // only the per-hop verification can catch it.
                    frame.checksum = Some(frame.parcel.checksum());
                }
            }
            FaultKind::Delay => *arrive_us += self.delay_us,
            FaultKind::Drop | FaultKind::Duplicate | FaultKind::Reorder => {}
        }
    }

    /// Puts a first transmission on the wire as its fault dictates, then
    /// releases the frames earlier `Reorder` injections held back — i.e.
    /// they are genuinely overtaken by this one.
    pub(crate) fn dispatch(
        &mut self,
        dst: Rank,
        frame: Frame,
        arrive_us: f64,
        fault: Option<FaultKind>,
    ) {
        let held = self.reorder_limbo.len();
        match fault {
            Some(FaultKind::Drop) => {}
            Some(FaultKind::Reorder) => {
                let msg = self.message(arrive_us, Wire::Data(frame));
                self.reorder_limbo.push((dst, msg));
            }
            Some(FaultKind::Duplicate) => {
                self.emit(dst, arrive_us, Wire::Data(frame.clone()));
                self.emit(dst, arrive_us, Wire::Data(frame));
            }
            Some(FaultKind::Delay | FaultKind::Tamper) | None => {
                self.emit(dst, arrive_us, Wire::Data(frame));
            }
        }
        let released = self.reorder_limbo.drain(..held);
        self.out.extend(released.map(|(d, m)| Action::Send(d, m)));
    }

    /// Releases every frame held back by a `Reorder` injection.
    pub(crate) fn flush_limbo(&mut self) {
        let released = self.reorder_limbo.drain(..);
        self.out.extend(released.map(|(d, m)| Action::Send(d, m)));
    }

    // ----- frame arrived ----------------------------------------------------

    /// Admits a data frame from `src`. In order of the checks: unframed →
    /// delivered as is; already delivered → dropped as a duplicate (before
    /// any integrity work: go-back-N re-sends delivered frames by design,
    /// and a corrupted copy of one must not trigger another replay); not
    /// the next in sequence, or an integrity failure → NACKed, so the
    /// replay re-sends it in order; otherwise delivered, and one ACK naming
    /// it sent. `verify` is the per-hop authenticator check, consulted only
    /// under an adversarial-tamper plan. Nothing is delivered unverified
    /// or out of order.
    pub(crate) fn on_frame(
        &mut self,
        src: Rank,
        frame: Frame,
        arrive_us: f64,
        verify: &mut dyn FnMut(&Parcel) -> bool,
    ) {
        let Frame {
            tag,
            seq,
            checksum,
            parcel,
        } = frame;
        let stream = self.incoming.entry((src, tag)).or_default();
        let Some(sum) = checksum else {
            stream.ready.push_back((parcel, arrive_us));
            return;
        };
        if seq < stream.expected {
            self.note(EventKind::Duplicate { src, tag });
            return;
        }
        // The transport checksum covers random corruption; the (expensive)
        // per-hop verification is only armed when the threat model
        // includes checksum-evading tamper.
        if seq > stream.expected
            || parcel.checksum() != sum
            || (self.adversarial && !verify(&parcel))
        {
            self.note(EventKind::Detect { src, tag });
            self.nack(src, tag, 0);
            return;
        }
        stream.expected += 1;
        stream.ready.push_back((parcel, arrive_us));
        self.emit(src, 0.0, Wire::Ack { tag, seq });
    }

    // ----- NACK arrived -----------------------------------------------------

    /// Replays to `from` every logged frame of `tag` from `from_seq`
    /// onward (go-back-N). Each replay bumps the frame's attempt number
    /// and is re-faulted through `refault(seq, attempt)` — keyed by the
    /// attempt so a deterministic re-fault cannot starve recovery; a
    /// replay that is duplicated or reordered adds nothing the receiver's
    /// dedup does not already absorb, so those two are ignored. Replays
    /// arrive at `now_us` (they do not advance any clock) and are counted
    /// apart from first transmissions.
    ///
    /// With nothing logged at or after `from_seq`, the answer is
    /// `NackMiss` only once this rank has `finished`: a `NackMiss` is a
    /// proof that the frames will *never* exist, which holds only once
    /// every frame is sent. Pruning keeps the proof sound: a pruned frame
    /// was delivered, so it lies below the receiver's expected sequence
    /// number, which only grows; and mailboxes are FIFO per destination —
    /// so every ACK handled before this NACK was sent before it, and named
    /// a frame below `from_seq`. Mid-run the NACK may simply be early — the
    /// receiver's retry timer can race a send that has not happened yet —
    /// so the transport stays silent and the receiver's backoff re-asks.
    pub(crate) fn on_nack(
        &mut self,
        from: Rank,
        tag: u64,
        from_seq: u64,
        finished: bool,
        now_us: f64,
        refault: &mut dyn FnMut(u64, u32) -> Option<FaultKind>,
    ) {
        let mut jobs = Vec::new();
        if let Some(stream) = self.outgoing.get_mut(&(from, tag)) {
            let start = stream.log.partition_point(|rec| rec.seq < from_seq);
            for rec in &mut stream.log[start..] {
                rec.attempts += 1;
                jobs.push((rec.seq, rec.attempts, rec.parcel.clone()));
            }
        }
        if jobs.is_empty() && finished {
            self.emit(from, 0.0, Wire::NackMiss { tag });
        }
        for (seq, attempt, parcel) in jobs {
            self.note(EventKind::Retransmit {
                peer: from,
                tag,
                attempt,
                bytes: parcel.wire_len(),
            });
            let fault = refault(seq, attempt)
                .filter(|k| !matches!(k, FaultKind::Duplicate | FaultKind::Reorder));
            let mut arrive_us = now_us;
            let mut frame = Frame {
                tag,
                seq,
                checksum: Some(parcel.checksum()),
                parcel,
            };
            self.apply_fault(from, &mut frame, &mut arrive_us, fault);
            if fault != Some(FaultKind::Drop) {
                self.emit(from, arrive_us, Wire::Data(frame));
            }
        }
    }

    // ----- ACK arrived ------------------------------------------------------

    /// `from` has delivered frame `seq` of `tag`: drops exactly that frame
    /// from the retransmit log. An ACK naming a frame that is not logged —
    /// never sent, or already acknowledged — drops nothing.
    pub(crate) fn on_ack(&mut self, from: Rank, tag: u64, seq: u64) {
        let Some(stream) = self.outgoing.get_mut(&(from, tag)) else {
            return;
        };
        if let Ok(at) = stream.log.binary_search_by_key(&seq, |rec| rec.seq) {
            stream.log.remove(at);
            if stream.log.is_empty() {
                stream.log = Vec::new();
            }
        }
    }

    // ----- retry round elapsed ----------------------------------------------

    /// A retry round of the receive blocked on `(src, tag)` elapsed with
    /// nothing delivered; `attempt` counts the rounds elapsed so far.
    /// Asks the peer to replay the stream from where this rank is, or
    /// reports the budget spent.
    pub(crate) fn round_elapsed(
        &mut self,
        src: Rank,
        tag: u64,
        attempt: u32,
        max_attempts: u32,
    ) -> Round {
        if attempt >= max_attempts {
            return Round::Exhausted;
        }
        self.nack(src, tag, attempt);
        Round::Nack
    }
}

/// Flips one byte of the first real payload in `parcel` (tamper injection).
/// Copy-on-write: the retransmit log's clone of the same frame shares the
/// rope's buffers, and a replayed frame must carry the original, pre-fault
/// bytes — only the corrupted in-flight view may see the flip.
pub(crate) fn corrupt_parcel(parcel: &mut Parcel) {
    for item in &mut parcel.items {
        let data = match item {
            Item::Plain(c) => &mut c.data,
            Item::Sealed(s) => &mut s.data,
        };
        if let Data::Real(bytes) = data {
            if !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes.xor_byte(mid, 0x80);
                return;
            }
        }
    }
}

#[cfg(test)]
#[path = "transport_tests.rs"]
mod tests;
