//! The rank scheduler: per-rank mailboxes, event-driven parking, and a
//! worker gate bounding how many rank state machines run at once.
//!
//! A rank's OS thread is only a stack for its state machine (DESIGN.md
//! tells how the thread-per-rank world became this); whether the machine
//! may *run* is a scheduler decision:
//!
//! - **Run permits.** A [`Scheduler`] holds a gate of `width` run permits
//!   (the "worker pool"). A rank executes algorithm steps only while it
//!   holds a permit; at most `width` ranks make progress at any instant, no
//!   matter how large p is.
//! - **Mailboxes.** Point-to-point traffic lands in a per-rank inbound
//!   queue ([`Scheduler::send_from`]); the owner drains it in batches
//!   ([`Scheduler::drain_into`]).
//! - **Parking.** A rank with nothing to do does not poll. It calls
//!   [`Scheduler::park_on`] with a [`Watch`] naming what it waits on,
//!   which returns its permit to the gate and blocks until that fires or
//!   its earliest timer (receive watchdog, retry round, suspect deadline)
//!   expires. Waking re-acquires a permit before returning, so a woken
//!   rank is again a running rank. Every wait of a world's rank parks here,
//!   shared-segment waits included.
//! - **Targeted wakes.** Only news about the watch wakes a parked rank. A
//!   receive watches one peer: mail from that peer wakes it, and so does
//!   an event about that peer — its departure, or its attempt abort
//!   ([`Scheduler::raise`]). A segment wait watches its node's
//!   [segment events](Scheduler::segment_event). A lingering rank watches
//!   the departures and wakes on the last one. Urgent mail (a NACK someone
//!   waits on, a poison) wakes any watch; other mail waits in the mailbox
//!   until the owner's next drain. Parkers snapshot the event
//!   [generation] *before* re-checking their conditions and pass it to
//!   `park_on`; an event about the watch that fires in the race window
//!   makes the park return at once instead of being lost.
//! - **Departures.** Liveness is a scheduler fact, not a wall-clock guess:
//!   the runner records how every rank left the world
//!   ([`Scheduler::depart`]), including hard crashes — the simulation
//!   analogue of per-node OS process monitoring. These records are the
//!   runtime's only liveness state: the failure detector, the dead-peer
//!   check and the post-collective linger in `world` all read them (no
//!   second copy of who finished or crashed exists to fall out of step),
//!   so a rank that is merely descheduled (oversubscribed, busy in a long
//!   compute step) can never be suspected: it has not departed.
//!
//! The scheduler is deliberately oblivious to what the messages mean: the
//! sender passes its rank and whether the letter is urgent, and
//! reliability framing, virtual clocks, and failure semantics stay in
//! [`crate::world`].
//!
//! [generation]: Scheduler::generation

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Why [`Scheduler::park_on`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Mail the watch hears is queued.
    Mail,
    /// An event the watch hears was raised after the parker's generation
    /// snapshot.
    Event,
    /// The requested deadline passed.
    Deadline,
}

/// What a parked rank waits on: only news about it wakes the rank
/// (urgent mail aside, which wakes any watch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// One peer, as a receive does: mail from it, and events about it
    /// (its departure, its attempt abort).
    Peer(usize),
    /// The departures, as a lingering rank does: the last one wakes it.
    Departures,
    /// A node's shared segment, as a fetch or a node barrier does: a
    /// segment event about that node wakes it.
    Segment(usize),
    /// Any mail and no event, as [`Scheduler::park`] does.
    Mail,
}

impl Watch {
    /// Whether a letter from `from` (`None`: urgent mail) wakes this watch.
    fn hears_mail(self, from: Option<usize>) -> bool {
        match (self, from) {
            (_, None) | (Watch::Mail, _) => true,
            (Watch::Peer(peer), Some(src)) => peer == src,
            (Watch::Departures | Watch::Segment(_), Some(_)) => false,
        }
    }

    /// Whether an event about `about` (`last`: the world's last departure)
    /// wakes this watch.
    fn hears_event(self, about: usize, last: bool) -> bool {
        match self {
            Watch::Peer(peer) => peer == about,
            Watch::Departures => last,
            Watch::Segment(_) | Watch::Mail => false,
        }
    }
}

/// How a rank left the scheduler (recorded by the world runner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departure {
    /// Its step function returned normally.
    Finished,
    /// Killed by an injected crash survivors may act on at once: this
    /// record is the notice.
    SoftCrash,
    /// Killed by an injected crash that leaves no notice. Survivors learn
    /// of it only through this departure record — after the world's
    /// `suspect_after` grace period, the failure detector turns a silent
    /// departure into a suspected crash.
    HardCrash,
    /// Unwound by a propagating (poisoning) panic.
    Poisoned,
}

/// Counting semaphore of run permits, shareable across schedulers.
///
/// Every [`Scheduler`] draws its run permits from a `RunGate`. A world that
/// builds its own scheduler gets a private gate ([`Scheduler::new`]); worlds
/// that should contend for the *same* worker pool — concurrent tenant
/// sessions on one host — are built with [`Scheduler::with_gate`] over one
/// shared `Arc<RunGate>`, so the bound is per host, not per world. Ranks
/// never touch the gate directly; they go through [`Scheduler::enter`] /
/// [`Scheduler::exit`] / [`Scheduler::park_on`], which releases the permit
/// for as long as the rank is parked — a parked rank costs no permit, so
/// sharing a gate cannot deadlock worlds against each other.
pub struct RunGate {
    state: Mutex<GateState>,
    cv: Condvar,
    width: usize,
}

struct GateState {
    free: usize,
    waiting: usize,
}

impl RunGate {
    /// A gate holding `width` run permits (clamped to at least 1).
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        RunGate {
            state: Mutex::new(GateState {
                free: width,
                waiting: 0,
            }),
            cv: Condvar::new(),
            width,
        }
    }

    /// The process-global gate, sized to `available_parallelism()` (floor
    /// 4) on first use. Worlds that specify neither an explicit worker
    /// count nor their own gate share this one, so N concurrent worlds
    /// are bounded by the host's core count — not N× it.
    pub fn global() -> Arc<RunGate> {
        static GLOBAL: OnceLock<Arc<RunGate>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            let width = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4);
            Arc::new(RunGate::new(width))
        }))
    }

    /// Total number of run permits this gate was built with.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Run permits currently unheld — a diagnostic snapshot (stale the
    /// moment it returns). Tests use it to assert that parked or retired
    /// worlds hold no permits; schedulers must not branch on it.
    pub fn free_permits(&self) -> usize {
        self.state.lock().free
    }

    fn acquire(&self) {
        let mut st = self.state.lock();
        while st.free == 0 {
            st.waiting += 1;
            self.cv.wait(&mut st);
            st.waiting -= 1;
        }
        st.free -= 1;
    }

    fn release(&self) {
        let mut st = self.state.lock();
        st.free += 1;
        if st.waiting > 0 {
            self.cv.notify_one();
        }
    }

    fn has_waiters(&self) -> bool {
        self.state.lock().waiting > 0
    }
}

struct RankSlot<M> {
    inbox: Mutex<Inbox<M>>,
    cv: Condvar,
    /// Monotone count of this rank's scheduler interactions (drains, parks,
    /// yields) — diagnostics for tests and tooling, not a liveness oracle.
    progress: AtomicU64,
}

struct Inbox<M> {
    mail: VecDeque<Letter<M>>,
    /// What the owner is parked on; `None` while it is not parked.
    watch: Option<Watch>,
}

struct Letter<M> {
    /// The sender of routine mail; `None` for urgent mail.
    from: Option<usize>,
    msg: M,
}

/// The event-driven rank scheduler. See the [module docs](self) for the
/// execution model.
pub struct Scheduler<M> {
    slots: Vec<RankSlot<M>>,
    /// How and when each rank left the world — written once, read
    /// lock-free by every receive that checks on its peer. Kept apart from
    /// the mailbox slots: those cache lines are written on every send and
    /// drain, these are read-mostly.
    departed: Vec<OnceLock<(Departure, Instant)>>,
    /// Event generation counter, bumped by every event (see
    /// [`Scheduler::generation`]).
    generation: AtomicU64,
    /// Per rank, the generation of the latest event about it.
    heard: Vec<AtomicU64>,
    /// Per node (a world has no more nodes than ranks), the generation of
    /// the latest segment event about it.
    segment_heard: Vec<AtomicU64>,
    /// Number of ranks with a departure record.
    departures: AtomicUsize,
    gate: Arc<RunGate>,
}

impl<M> Scheduler<M> {
    /// A scheduler for `p` ranks driven by a private gate of `width` run
    /// permits (clamped to at least 1).
    pub fn new(p: usize, width: usize) -> Self {
        Self::with_gate(p, Arc::new(RunGate::new(width)))
    }

    /// A scheduler for `p` ranks drawing permits from a caller-provided
    /// (possibly shared) gate. Multiple schedulers over one gate contend
    /// for the same worker pool: total running ranks across all of them
    /// never exceed the gate's width.
    pub fn with_gate(p: usize, gate: Arc<RunGate>) -> Self {
        Scheduler {
            slots: (0..p)
                .map(|_| RankSlot {
                    inbox: Mutex::new(Inbox {
                        mail: VecDeque::new(),
                        watch: None,
                    }),
                    cv: Condvar::new(),
                    progress: AtomicU64::new(0),
                })
                .collect(),
            departed: (0..p).map(|_| OnceLock::new()).collect(),
            generation: AtomicU64::new(0),
            heard: (0..p).map(|_| AtomicU64::new(0)).collect(),
            segment_heard: (0..p).map(|_| AtomicU64::new(0)).collect(),
            departures: AtomicUsize::new(0),
            gate,
        }
    }

    /// Number of run permits in this scheduler's gate.
    pub fn width(&self) -> usize {
        self.gate.width()
    }

    /// Acquires a run permit; a rank's state machine must hold one while
    /// executing. Blocks until a permit frees up.
    pub fn enter(&self) {
        self.gate.acquire();
    }

    /// Returns the run permit (rank finished or unwinding).
    pub fn exit(&self) {
        self.gate.release();
    }

    /// Pushes `msg` into `dst`'s mailbox as urgent mail: it wakes `dst`
    /// whatever it watches.
    pub fn send(&self, dst: usize, msg: M) {
        self.deliver(dst, None, msg);
    }

    /// Pushes `msg` from `src` into `dst`'s mailbox. It wakes a parked
    /// `dst` only if `urgent`, or if `dst` watches `src` (or any mail);
    /// otherwise it waits for `dst`'s next drain.
    pub fn send_from(&self, dst: usize, src: usize, urgent: bool, msg: M) {
        self.deliver(dst, (!urgent).then_some(src), msg);
    }

    fn deliver(&self, dst: usize, from: Option<usize>, msg: M) {
        let slot = &self.slots[dst];
        let mut inbox = slot.inbox.lock();
        inbox.mail.push_back(Letter { from, msg });
        if inbox.watch.is_some_and(|w| w.hears_mail(from)) {
            slot.cv.notify_one();
        }
    }

    /// Moves everything queued for `rank` into `buf` (appending).
    pub fn drain_into(&self, rank: usize, buf: &mut Vec<M>) {
        let slot = &self.slots[rank];
        slot.progress.fetch_add(1, Ordering::Relaxed);
        let mut inbox = slot.inbox.lock();
        buf.extend(inbox.mail.drain(..).map(|letter| letter.msg));
    }

    /// Current event generation. A parker must snapshot this *before*
    /// draining its mailbox and re-checking its wake conditions, then pass
    /// the snapshot to [`Scheduler::park_on`]: an event about its watch
    /// raised after the snapshot aborts the park instead of being lost.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Publishes an event about `rank` other than its departure (the world
    /// raises one when `rank` abandons a collective attempt): wakes the
    /// ranks parked on a watch of `rank`.
    pub fn raise(&self, rank: usize) {
        let everyone = 0..self.slots.len();
        self.event(&self.heard[rank], everyone, |w| w.hears_event(rank, false));
    }

    /// Publishes news on node `node`'s shared segment (a deposit, a barrier
    /// release, a crash abort): wakes its ranks `ranks` parked on it.
    pub fn segment_event(&self, node: usize, ranks: impl IntoIterator<Item = usize>) {
        let hears = |w| w == Watch::Segment(node);
        self.event(&self.segment_heard[node], ranks, hears);
    }

    /// Bumps the generation, stamps it on `heard` (what the event is about)
    /// and wakes exactly the ranks of `ranks` parked on a watch that `hears`.
    fn event(
        &self,
        heard: &AtomicU64,
        ranks: impl IntoIterator<Item = usize>,
        hears: impl Fn(Watch) -> bool,
    ) {
        let gen = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        heard.fetch_max(gen, Ordering::SeqCst);
        for rank in ranks {
            let slot = &self.slots[rank];
            // Taking the mailbox lock orders this check after any parker
            // that read the old stamp but has not yet blocked: the parker
            // holds the lock from its stamp check until `wait` atomically
            // enqueues it.
            let inbox = slot.inbox.lock();
            if inbox.watch.is_some_and(&hears) {
                slot.cv.notify_one();
            }
        }
    }

    /// Whether an event `watch` hears was raised after snapshot `gen`. The
    /// last departure is one for good: a linger that parks after it (its
    /// caller checks the count first) has nothing left to wait for.
    fn event_since(&self, watch: Watch, gen: u64) -> bool {
        match watch {
            Watch::Peer(peer) => self.heard[peer].load(Ordering::SeqCst) > gen,
            Watch::Departures => self.departures() == self.slots.len(),
            Watch::Segment(node) => self.segment_heard[node].load(Ordering::SeqCst) > gen,
            Watch::Mail => false,
        }
    }

    /// [`Scheduler::park_on`] with [`Watch::Mail`]: parks `rank` until
    /// any mail arrives or `deadline` passes.
    pub fn park(&self, rank: usize, deadline: Option<Instant>, gen: u64) -> Wake {
        self.park_on(rank, Watch::Mail, deadline, gen)
    }

    /// Parks `rank` until mail `watch` hears is queued, an event `watch`
    /// hears postdates the `gen` snapshot, or `deadline` passes (`None` =
    /// no timer). Mail `watch` does not hear stays queued for the next
    /// drain. The caller must hold a run permit; the permit is returned to
    /// the gate for the duration of the block and re-acquired before
    /// `park_on` returns, so a parked rank costs no worker.
    pub fn park_on(&self, rank: usize, watch: Watch, deadline: Option<Instant>, gen: u64) -> Wake {
        let slot = &self.slots[rank];
        slot.progress.fetch_add(1, Ordering::Relaxed);
        // Only the owner drains, so while it is here its queue only grows:
        // each check scans the letters that arrived since the last one.
        let mut seen = 0;
        let ready = |inbox: &Inbox<M>, seen: &mut usize| {
            let heard = inbox.mail.range(*seen..).any(|l| watch.hears_mail(l.from));
            *seen = inbox.mail.len();
            if heard {
                Some(Wake::Mail)
            } else if self.event_since(watch, gen) {
                Some(Wake::Event)
            } else {
                None
            }
        };
        // Fast path: already satisfied — keep the permit, skip the gate.
        if let Some(wake) = ready(&slot.inbox.lock(), &mut seen) {
            return wake;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Wake::Deadline;
        }
        // Hand the permit back for the block, so ℓ − 1 siblings parked on
        // their node's segment cannot starve the one that releases them.
        self.gate.release();
        let mut inbox = slot.inbox.lock();
        inbox.watch = Some(watch);
        let wake = loop {
            if let Some(wake) = ready(&inbox, &mut seen) {
                break wake;
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break Wake::Deadline;
                    }
                    slot.cv.wait_for(&mut inbox, d - now);
                }
                None => slot.cv.wait(&mut inbox),
            }
        };
        inbox.watch = None;
        drop(inbox);
        self.gate.acquire();
        wake
    }

    /// Cooperative yield: if other ranks are waiting for a run permit,
    /// cycles this rank's permit through the gate so they get a turn.
    /// Algorithms call this at step boundaries; on an uncontended gate it
    /// is a single mutex probe.
    pub fn yield_now(&self, rank: usize) {
        self.slots[rank].progress.fetch_add(1, Ordering::Relaxed);
        if self.gate.has_waiters() {
            self.gate.release();
            self.gate.acquire();
        }
    }

    /// Records how `rank` left the world (a rank leaves once; the first
    /// record stands) and raises an event about it, so the ranks parked on
    /// it re-examine its liveness — and, if it was the last to leave, the
    /// lingering ranks stop. The record is published before the event.
    pub fn depart(&self, rank: usize, how: Departure) {
        if self.departed[rank].set((how, Instant::now())).is_ok() {
            let left = self.departures.fetch_add(1, Ordering::SeqCst) + 1;
            let (last, everyone) = (left == self.slots.len(), 0..self.slots.len());
            self.event(&self.heard[rank], everyone, |w| w.hears_event(rank, last));
        }
    }

    /// How `rank` left the world, if it has.
    pub fn departure(&self, rank: usize) -> Option<Departure> {
        self.departed[rank].get().map(|&(how, _)| how)
    }

    /// How many ranks have left the world, for any reason.
    pub fn departures(&self) -> usize {
        self.departures.load(Ordering::SeqCst)
    }

    /// When `rank` departed *silently* (a hard crash), if it did. This is
    /// what the failure detector's suspicion clock runs from.
    pub fn hard_departed_at(&self, rank: usize) -> Option<Instant> {
        match self.departed[rank].get() {
            Some(&(Departure::HardCrash, at)) => Some(at),
            _ => None,
        }
    }

    /// This rank's scheduler-interaction counter (monotone; diagnostics).
    pub fn progress(&self, rank: usize) -> u64 {
        self.slots[rank].progress.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn queued_mail_returns_without_blocking() {
        let s = Scheduler::new(2, 4);
        s.enter();
        s.send(0, 7u32);
        let before = s.progress(0);
        assert_eq!(s.park(0, None, s.generation()), Wake::Mail);
        assert!(s.progress(0) > before, "park must count as progress");
        let mut buf = Vec::new();
        s.drain_into(0, &mut buf);
        assert_eq!(buf, vec![7]);
        s.exit();
    }

    /// The lost-wakeup race, made deterministic: an event about the
    /// watched peer raised *between* the generation snapshot and the park
    /// must abort the park; one about another rank or node must not.
    #[test]
    fn stale_generation_snapshot_aborts_the_park() {
        let s: Scheduler<u32> = Scheduler::new(3, 4);
        s.enter();
        let soon = || Some(Instant::now() + Duration::from_millis(20));
        let gen = s.generation();
        s.depart(2, Departure::Finished);
        assert_eq!(s.park_on(0, Watch::Peer(1), soon(), gen), Wake::Deadline);
        s.raise(1);
        assert_eq!(s.park_on(0, Watch::Peer(1), soon(), gen), Wake::Event);
        let gen = s.generation();
        s.depart(1, Departure::SoftCrash);
        assert_eq!(s.park_on(0, Watch::Peer(1), soon(), gen), Wake::Event);
        // The same for a segment park: the stamp is its node's.
        let gen = s.generation();
        s.segment_event(1, [0]);
        assert_eq!(s.park_on(0, Watch::Segment(0), soon(), gen), Wake::Deadline);
        s.segment_event(0, [0]);
        assert_eq!(s.park_on(0, Watch::Segment(0), soon(), gen), Wake::Event);
        s.exit();
    }

    /// Parks rank 0 of `s` (a one-permit gate) on `watch` in a thread,
    /// runs `news` once the parker is inside `park_on` (so the news
    /// postdates its generation snapshot) and has handed its permit back,
    /// and returns why the park ended and how long it took.
    fn park_through(
        s: &Arc<Scheduler<u32>>,
        gate: &RunGate,
        watch: Watch,
        limit: Duration,
        news: impl FnOnce(&Scheduler<u32>),
    ) -> (Wake, Duration) {
        let entered = s.progress(0);
        let parker = {
            let s = Arc::clone(s);
            thread::spawn(move || {
                s.enter();
                let t0 = Instant::now();
                let wake = s.park_on(0, watch, Some(t0 + limit), s.generation());
                let took = t0.elapsed();
                s.exit();
                (wake, took)
            })
        };
        while s.progress(0) == entered || gate.free_permits() == 0 {
            thread::yield_now();
        }
        news(s);
        parker.join().unwrap()
    }

    fn one_permit(p: usize) -> (Arc<Scheduler<u32>>, Arc<RunGate>) {
        let gate = Arc::new(RunGate::new(1));
        (Arc::new(Scheduler::with_gate(p, Arc::clone(&gate))), gate)
    }

    /// A receive parked on peer 1 sleeps through routine mail from peer 2
    /// and peer 2's departure, and runs out its deadline; the mail stays
    /// queued for the next drain.
    #[test]
    fn news_about_another_peer_leaves_a_receive_parked() {
        let (s, gate) = one_permit(3);
        let limit = Duration::from_millis(20);
        let (wake, took) = park_through(&s, &gate, Watch::Peer(1), limit, |s| {
            s.send_from(0, 2, false, 5);
            s.depart(2, Departure::Finished);
        });
        assert_eq!(wake, Wake::Deadline);
        assert!(took >= limit);
        let mut buf = Vec::new();
        s.drain_into(0, &mut buf);
        assert_eq!(buf, vec![5]);
    }

    /// Mail from the watched peer, urgent mail from anyone (a NACK, a
    /// poison) and the watched peer's departure each end the park at once.
    #[test]
    fn watched_or_urgent_news_ends_a_receive_park() {
        let long = Duration::from_secs(30);
        type News = fn(&Scheduler<u32>);
        let cases: [(&str, Wake, News); 5] = [
            ("frame from peer 1", Wake::Mail, |s| {
                s.send_from(0, 1, false, 1)
            }),
            ("NACK from peer 2", Wake::Mail, |s| {
                s.send_from(0, 2, true, 2)
            }),
            ("poison from peer 3", Wake::Mail, |s| {
                s.send_from(0, 3, true, 3)
            }),
            ("unlabelled mail", Wake::Mail, |s| s.send(0, 4)),
            ("departure of peer 1", Wake::Event, |s| {
                s.depart(1, Departure::HardCrash)
            }),
        ];
        for (what, want, news) in cases {
            let (s, gate) = one_permit(4);
            let (wake, took) = park_through(&s, &gate, Watch::Peer(1), long, news);
            assert_eq!(wake, want, "{what}");
            assert!(took < long, "{what} did not wake the park");
        }
    }

    /// A segment park ends at once on a segment event about its node and
    /// on urgent mail (a NACK to answer, a poison).
    #[test]
    fn segment_news_or_urgent_mail_ends_a_segment_park() {
        let long = Duration::from_secs(30);
        type News = fn(&Scheduler<u32>);
        let cases: [(&str, Wake, News); 3] = [
            ("deposit on node 0", Wake::Event, |s| {
                s.segment_event(0, [0, 1])
            }),
            ("NACK from peer 2", Wake::Mail, |s| {
                s.send_from(0, 2, true, 2)
            }),
            ("poison from peer 3", Wake::Mail, |s| {
                s.send_from(0, 3, true, 3)
            }),
        ];
        for (what, want, news) in cases {
            let (s, gate) = one_permit(4);
            let (wake, took) = park_through(&s, &gate, Watch::Segment(0), long, news);
            assert_eq!(wake, want, "{what}");
            assert!(took < long, "{what} did not wake the park");
        }
    }

    /// A segment park sleeps through a segment event about another node
    /// (even one that lists the parker), routine mail and a departure, and
    /// runs out its deadline.
    #[test]
    fn news_about_another_node_leaves_a_segment_park_parked() {
        let (s, gate) = one_permit(4);
        let limit = Duration::from_millis(20);
        let (wake, took) = park_through(&s, &gate, Watch::Segment(0), limit, |s| {
            s.segment_event(1, [0, 2, 3]);
            s.send_from(0, 1, false, 5);
            s.depart(1, Departure::SoftCrash);
        });
        assert_eq!(wake, Wake::Deadline);
        assert!(took >= limit);
    }

    /// A departure wakes the ranks watching the departed rank and no
    /// other parked rank.
    #[test]
    fn departure_wakes_only_its_watchers() {
        let gate = Arc::new(RunGate::new(2));
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::with_gate(3, Arc::clone(&gate)));
        let gen = s.generation();
        let park = |rank: usize, watch: Watch, limit: Duration| {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                s.enter();
                let wake = s.park_on(rank, watch, Some(Instant::now() + limit), gen);
                s.exit();
                wake
            })
        };
        let watcher = park(0, Watch::Peer(2), Duration::from_secs(30));
        let bystander = park(1, Watch::Peer(0), Duration::from_millis(20));
        while s.progress(0) == 0 || s.progress(1) == 0 || gate.free_permits() < 2 {
            thread::yield_now();
        }
        s.depart(2, Departure::SoftCrash);
        assert_eq!(watcher.join().unwrap(), Wake::Event);
        assert_eq!(bystander.join().unwrap(), Wake::Deadline);
        assert_eq!(s.departure(2), Some(Departure::SoftCrash));
        assert_eq!(s.departure(0), None);
    }

    /// A lingering park sleeps through every departure but the last, and
    /// through routine mail; the last departure ends it.
    #[test]
    fn lingering_park_returns_only_on_the_last_departure() {
        let (s, gate) = one_permit(3);
        s.depart(0, Departure::Finished);
        let short = Duration::from_millis(20);
        let (wake, _) = park_through(&s, &gate, Watch::Departures, short, |s| {
            s.send_from(0, 1, false, 1);
            s.depart(1, Departure::Finished);
        });
        assert_eq!(wake, Wake::Deadline);
        let long = Duration::from_secs(30);
        let (wake, took) = park_through(&s, &gate, Watch::Departures, long, |s| {
            s.depart(2, Departure::HardCrash);
        });
        assert_eq!(wake, Wake::Event);
        assert!(took < long);
    }

    #[test]
    fn past_deadline_returns_immediately() {
        let s: Scheduler<u32> = Scheduler::new(1, 4);
        s.enter();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(s.park(0, Some(past), s.generation()), Wake::Deadline);
        s.exit();
    }

    #[test]
    fn deadline_park_times_out() {
        let s: Scheduler<u32> = Scheduler::new(1, 4);
        s.enter();
        let t0 = Instant::now();
        let wake = s.park(0, Some(t0 + Duration::from_millis(20)), s.generation());
        assert_eq!(wake, Wake::Deadline);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        s.exit();
    }

    #[test]
    fn send_wakes_a_parked_rank() {
        let s = Arc::new(Scheduler::new(2, 4));
        let parker = Arc::clone(&s);
        let handle = thread::spawn(move || {
            parker.enter();
            let wake = parker.park(1, None, parker.generation());
            parker.exit();
            wake
        });
        thread::sleep(Duration::from_millis(20));
        s.send(1, 42u32);
        assert_eq!(handle.join().unwrap(), Wake::Mail);
    }

    #[test]
    fn departure_records_distinguish_silence() {
        let s: Scheduler<u32> = Scheduler::new(3, 4);
        s.depart(0, Departure::Finished);
        s.depart(1, Departure::HardCrash);
        assert!(s.hard_departed_at(0).is_none());
        assert!(s.hard_departed_at(1).is_some());
        assert!(s.hard_departed_at(2).is_none());
    }

    #[test]
    fn gate_bounds_concurrent_runners() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(8, 2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    s.enter();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                    s.exit();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate width exceeded");
    }

    /// One gate, two schedulers: the permit bound is global across both,
    /// not per scheduler — this is what keeps N concurrent worlds from
    /// oversubscribing the host N×.
    #[test]
    fn shared_gate_bounds_ranks_across_schedulers() {
        let gate = Arc::new(RunGate::new(2));
        let a: Arc<Scheduler<u32>> = Arc::new(Scheduler::with_gate(4, Arc::clone(&gate)));
        let b: Arc<Scheduler<u32>> = Arc::new(Scheduler::with_gate(4, Arc::clone(&gate)));
        assert_eq!(a.width(), 2);
        assert_eq!(b.width(), 2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = if i % 2 == 0 {
                    Arc::clone(&a)
                } else {
                    Arc::clone(&b)
                };
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    s.enter();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                    s.exit();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "shared gate width exceeded across schedulers"
        );
    }

    #[test]
    fn global_gate_is_one_instance() {
        let g1 = RunGate::global();
        let g2 = RunGate::global();
        assert!(Arc::ptr_eq(&g1, &g2));
        assert!(g1.width() >= 4);
    }

    /// ℓ − 1 siblings parked on their node's segment hold no permit: with
    /// two permits and two segment parkers, the third sibling still runs,
    /// and its segment event (say, the barrier release) wakes them both.
    #[test]
    fn segment_parkers_leave_their_permits_to_the_releasing_sibling() {
        let gate = Arc::new(RunGate::new(2));
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::with_gate(3, Arc::clone(&gate)));
        let parkers: Vec<_> = (0..2)
            .map(|rank| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    s.enter();
                    let limit = Some(Instant::now() + Duration::from_secs(30));
                    let wake = s.park_on(rank, Watch::Segment(0), limit, s.generation());
                    s.exit();
                    wake
                })
            })
            .collect();
        while s.progress(0) == 0 || s.progress(1) == 0 || gate.free_permits() < 2 {
            thread::yield_now();
        }
        s.enter(); // only acquirable while both siblings are parked
        s.segment_event(0, [0, 1, 2]);
        s.exit();
        for parker in parkers {
            assert_eq!(parker.join().unwrap(), Wake::Event);
        }
    }

    /// A parked rank costs no worker: with one permit, a parked rank A must
    /// let rank B run, and B's send must then wake A.
    #[test]
    fn park_hands_its_permit_to_another_rank() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(2, 1));
        let a = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                s.enter();
                let wake = s.park(0, None, s.generation());
                s.exit();
                wake
            })
        };
        let b = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                s.enter(); // only acquirable while A is parked
                s.send(0, 9u32);
                s.exit();
            })
        };
        assert_eq!(a.join().unwrap(), Wake::Mail);
        b.join().unwrap();
    }
}
