//! The reliable transport of chaos mode, as a thread-free state machine.
//!
//! One [`Transport`] per rank owns the whole reliability protocol — stream
//! sequence numbers, checksum admission, the out-of-order buffer, the
//! retransmit log, NACK / go-back-N replay, deduplication and fault
//! application — and nothing else: it never reads a clock, parks, touches
//! a mailbox, bumps a counter or writes a timeline. The glue in
//! [`crate::world`] feeds it **events** and executes the **actions** it
//! leaves in [`Transport::out`]:
//!
//! | event (glue → transport)                | method                                  |
//! |-----------------------------------------|-----------------------------------------|
//! | frame to send                           | [`frame`](Transport::frame) → [`apply_fault`](Transport::apply_fault) → [`dispatch`](Transport::dispatch) |
//! | frame arrived                           | [`on_frame`](Transport::on_frame)       |
//! | NACK arrived                            | [`on_nack`](Transport::on_nack)         |
//! | retry round elapsed                     | [`round_elapsed`](Transport::round_elapsed) |
//!
//! | action (transport → glue)               | executed against                        |
//! |-----------------------------------------|-----------------------------------------|
//! | deliver (into `pending`, popped by [`take_ready`](Transport::take_ready)) | the blocked `recv` |
//! | [`Action::Send`] a data/control frame   | the scheduler's mailboxes               |
//! | [`Action::Count`] a recovery counter    | the rank's metrics                      |
//! | [`Action::Mark`] a fault/retry marker   | the rank's timeline                     |
//!
//! A world with no fault plan armed never frames, faults or holds back a
//! frame, so its sends skip `dispatch` and go to the mailbox directly; its
//! arrivals still pass through [`on_frame`](Transport::on_frame), whose
//! first check delivers them.
//!
//! The contract (DESIGN.md §4): every frame sent on a stream is delivered
//! exactly once, in order and intact, or the receive fails with a typed
//! cause — never a wrong, duplicated or reordered delivery. Because the
//! machine has no threads in it, the contract is *explored* (every fault
//! assignment × every schedule of small streams, see the tests) rather
//! than sampled by seeded chaos runs.

use crate::payload::{Data, Item, Parcel};
use eag_netsim::{FaultKind, FaultPlan, Rank};
use std::collections::{BTreeMap, HashMap, VecDeque};

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

/// What travels on a channel: a data frame, one of the two recovery
/// control frames, or the poison marker that propagates a panic.
#[derive(Clone)]
pub(crate) enum Wire {
    Data(Frame),
    /// "Retransmit everything on `tag` from `seq` onward."
    Nack {
        tag: u64,
        seq: u64,
    },
    /// "I have nothing logged for `tag`" — the NACKed sender will never
    /// produce the frame; lets the receiver fail fast with `DeadPeer`.
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

/// The recovery counters the transport asks the glue to bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    FaultsInjected,
    FaultsDetected,
    NacksSent,
    Retransmits,
    RetransmitBytes,
    DupFramesDropped,
}

/// A zero-duration timeline marker (tags are wire tags).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Mark {
    Fault { kind: FaultKind, dst: Rank },
    Retry { peer: Rank, tag: u64, attempt: u32 },
}

/// What the glue must do on the transport's behalf.
pub(crate) enum Action {
    Send(Rank, Message),
    Count(Counter, u64),
    Mark(Mark),
}

/// Answer to a retry round elapsing on a blocked receive.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Round {
    /// A NACK went out; wait another round.
    Nack,
    /// The retry budget is spent; fail the receive with a typed timeout.
    Exhausted,
}

/// One logged transmission, kept for NACK-triggered replay. The parcel is
/// the *pre-fault* clone: retransmissions start from clean bytes.
struct SentRecord {
    tag: u64,
    seq: u64,
    attempts: u32,
    parcel: Parcel,
}

/// A `(peer, wire tag)` stream.
type Stream = (Rank, u64);

/// One rank's end of every stream it sends or receives on.
pub(crate) struct Transport {
    rank: Rank,
    /// The plan's `adversarial_tamper`: tampering re-stamps the checksum,
    /// and admission additionally runs the caller's per-hop verifier.
    adversarial: bool,
    /// The plan's `delay_us`.
    delay_us: f64,
    /// Accepted, in-order frames awaiting a matching `recv`, with their
    /// virtual arrival times.
    pending: HashMap<Stream, VecDeque<(Parcel, f64)>>,
    /// Next sequence number per outgoing stream.
    next_seq: HashMap<Stream, u64>,
    /// Next expected sequence number per incoming stream.
    expected: HashMap<Stream, u64>,
    /// Verified out-of-order frames buffered until the gap before them
    /// fills.
    ooo: HashMap<Stream, BTreeMap<u64, (Parcel, f64)>>,
    /// Retransmit log per destination (grows with the collective —
    /// bounded by the run, not pruned).
    sent_log: HashMap<Rank, Vec<SentRecord>>,
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
            pending: HashMap::new(),
            next_seq: HashMap::new(),
            expected: HashMap::new(),
            ooo: HashMap::new(),
            sent_log: HashMap::new(),
            reorder_limbo: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Pops the next delivered frame of `(src, tag)`, if any.
    pub(crate) fn take_ready(&mut self, src: Rank, tag: u64) -> Option<(Parcel, f64)> {
        self.pending
            .get_mut(&(src, tag))
            .and_then(VecDeque::pop_front)
    }

    fn count(&mut self, counter: Counter, n: u64) {
        self.out.push(Action::Count(counter, n));
    }

    fn mark(&mut self, mark: Mark) {
        self.out.push(Action::Mark(mark));
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

    /// The one NACK constructor: asks `to` to replay `tag` from the first
    /// sequence number this rank has not accepted yet.
    fn nack(&mut self, to: Rank, tag: u64, attempt: u32) {
        let seq = self.expected.get(&(to, tag)).copied().unwrap_or(0);
        self.count(Counter::NacksSent, 1);
        self.mark(Mark::Retry {
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
        let next = self.next_seq.entry((dst, tag)).or_insert(0);
        let seq = *next;
        *next += 1;
        self.sent_log.entry(dst).or_default().push(SentRecord {
            tag,
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

    /// The one fault applicator, shared by first transmissions and replays:
    /// books the injection and perturbs the frame in place. `Drop`,
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
        self.count(Counter::FaultsInjected, 1);
        self.mark(Mark::Fault { kind, dst });
        match kind {
            FaultKind::Tamper => {
                corrupt_parcel(&mut frame.parcel);
                if self.adversarial {
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
    /// delivered as is; already accepted or already buffered → dropped as
    /// a duplicate (before any integrity work: go-back-N re-delivers
    /// buffered frames by design, and a corrupted copy of a frame held
    /// verified must not trigger another replay); integrity failure →
    /// NACK; next in sequence → delivered, followed by the consecutive
    /// buffered frames; a gap → buffered, NACKed once per gap. `verify` is
    /// the per-hop authenticator check, consulted only under an
    /// adversarial-tamper plan. Nothing is buffered or delivered
    /// unverified.
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
        let key = (src, tag);
        let Some(sum) = checksum else {
            let ready = self.pending.entry(key).or_default();
            ready.push_back((parcel, arrive_us));
            return;
        };
        let expected = *self.expected.entry(key).or_insert(0);
        let buffered = seq > expected && self.ooo.get(&key).is_some_and(|b| b.contains_key(&seq));
        if seq < expected || buffered {
            self.count(Counter::DupFramesDropped, 1);
            return;
        }
        // The transport checksum covers random corruption; the (expensive)
        // per-hop verification is only armed when the threat model
        // includes checksum-evading tamper.
        if parcel.checksum() != sum || (self.adversarial && !verify(&parcel)) {
            self.count(Counter::FaultsDetected, 1);
            self.nack(src, tag, 0);
            return;
        }
        if seq == expected {
            let ready = self.pending.entry(key).or_default();
            ready.push_back((parcel, arrive_us));
            let mut next = seq + 1;
            if let Some(buf) = self.ooo.get_mut(&key) {
                while let Some(entry) = buf.remove(&next) {
                    ready.push_back(entry);
                    next += 1;
                }
            }
            self.expected.insert(key, next);
        } else {
            let buf = self.ooo.entry(key).or_default();
            let first_of_gap = buf.is_empty();
            buf.insert(seq, (parcel, arrive_us));
            if first_of_gap {
                self.count(Counter::FaultsDetected, 1);
                self.nack(src, tag, 0);
            }
        }
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
    /// With nothing logged, the answer is `NackMiss` only once this rank
    /// has `finished`: a `NackMiss` is a proof that the frames will
    /// *never* exist, which holds only for a complete log. Mid-run the
    /// NACK may simply be early — the receiver's retry timer can race a
    /// send that has not happened yet — so the transport stays silent and
    /// the receiver's backoff re-asks.
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
        for rec in self.sent_log.get_mut(&from).into_iter().flatten() {
            if rec.tag == tag && rec.seq >= from_seq {
                rec.attempts += 1;
                jobs.push((rec.seq, rec.attempts, rec.parcel.clone()));
            }
        }
        if jobs.is_empty() && finished {
            self.emit(from, 0.0, Wire::NackMiss { tag });
        }
        for (seq, attempt, parcel) in jobs {
            self.count(Counter::Retransmits, 1);
            self.count(Counter::RetransmitBytes, parcel.wire_len() as u64);
            self.mark(Mark::Retry {
                peer: from,
                tag,
                attempt,
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
