//! The rank scheduler: per-rank mailboxes, event-driven parking, and a
//! worker gate bounding how many rank state machines run at once.
//!
//! The world used to be thread-per-rank all the way down: every rank owned
//! an OS thread that *ran* whenever it was not blocked in a channel
//! `recv_timeout`, so p ranks meant p schedulable threads spinning poll
//! loops against each other. This module inverts that. A rank's OS thread
//! is demoted to a stack for its state machine; whether the machine may
//! *run* is a scheduler decision:
//!
//! - **Run permits.** A [`Scheduler`] holds a gate of `width` run permits
//!   (the "worker pool"). A rank executes algorithm steps only while it
//!   holds a permit; at most `width` ranks make progress at any instant, no
//!   matter how large p is.
//! - **Mailboxes.** Point-to-point traffic lands in a per-rank inbound
//!   queue ([`Scheduler::send`]); the owner drains it in batches
//!   ([`Scheduler::drain_into`]).
//! - **Parking.** A rank with nothing to do does not poll. It calls
//!   [`Scheduler::park`], which returns its permit to the gate and blocks
//!   until one of its wake sources fires: mail arrives, a *world event* is
//!   raised, or its earliest timer (receive watchdog, retry round, suspect
//!   deadline) expires. Waking re-acquires a permit before returning, so a
//!   woken rank is again a running rank.
//! - **World events.** State every rank may be parked on — a departure, an
//!   attempt abort, a poisoning panic — is published through
//!   [`Scheduler::world_event`], which bumps a generation counter and wakes
//!   all parked ranks. Parkers snapshot the generation *before* re-checking
//!   their conditions and pass it to `park`; an event that fires in the
//!   race window makes the park return immediately instead of being lost.
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
//! The scheduler is deliberately oblivious to what the messages mean;
//! reliability framing, virtual clocks, and failure semantics stay in
//! [`crate::world`].

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Why [`Scheduler::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The rank's mailbox is non-empty.
    Mail,
    /// A world event was raised after the parker's generation snapshot.
    Event,
    /// The requested deadline passed.
    Deadline,
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
/// [`Scheduler::exit`] / [`Scheduler::park`] / [`Scheduler::blocking`],
/// which release the permit across every blocking region — a parked or
/// blocked rank costs no permit, so sharing a gate cannot deadlock worlds
/// against each other.
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
    mail: Mutex<VecDeque<M>>,
    cv: Condvar,
    /// Monotone count of this rank's scheduler interactions (drains, parks,
    /// yields) — diagnostics for tests and tooling, not a liveness oracle.
    progress: AtomicU64,
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
    /// World-event generation counter (see [`Scheduler::world_event`]).
    generation: AtomicU64,
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
                    mail: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    progress: AtomicU64::new(0),
                })
                .collect(),
            departed: (0..p).map(|_| OnceLock::new()).collect(),
            generation: AtomicU64::new(0),
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

    /// Pushes `msg` into `dst`'s mailbox and wakes `dst` if it is parked.
    pub fn send(&self, dst: usize, msg: M) {
        let slot = &self.slots[dst];
        let mut mail = slot.mail.lock();
        mail.push_back(msg);
        slot.cv.notify_one();
    }

    /// Moves everything queued for `rank` into `buf` (appending).
    pub fn drain_into(&self, rank: usize, buf: &mut Vec<M>) {
        let slot = &self.slots[rank];
        slot.progress.fetch_add(1, Ordering::Relaxed);
        let mut mail = slot.mail.lock();
        buf.extend(mail.drain(..));
    }

    /// Current world-event generation. A parker must snapshot this *before*
    /// draining its mailbox and re-checking its wake conditions, then pass
    /// the snapshot to [`Scheduler::park`]: any event raised after the
    /// snapshot aborts the park instead of being lost in the race window.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Publishes a state change every rank may be parked on (a departure,
    /// an attempt abort, a poisoning panic): bumps the generation and wakes
    /// all parked ranks so they re-examine the world.
    pub fn world_event(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        for slot in &self.slots {
            // Taking the mailbox lock orders this notification after any
            // parker that read the old generation but has not yet blocked:
            // the parker holds the lock from its generation check until
            // `wait` atomically enqueues it.
            let _mail = slot.mail.lock();
            slot.cv.notify_all();
        }
    }

    /// Parks `rank` until mail arrives, a world event postdates the `gen`
    /// snapshot, or `deadline` passes (`None` = no timer). The caller must
    /// hold a run permit; the permit is returned to the gate for the
    /// duration of the block and re-acquired before `park` returns, so a
    /// parked rank costs no worker.
    pub fn park(&self, rank: usize, deadline: Option<Instant>, gen: u64) -> Wake {
        let slot = &self.slots[rank];
        slot.progress.fetch_add(1, Ordering::Relaxed);
        // Fast path: already satisfied — keep the permit, skip the gate.
        {
            let mail = slot.mail.lock();
            if !mail.is_empty() {
                return Wake::Mail;
            }
            if self.generation.load(Ordering::SeqCst) != gen {
                return Wake::Event;
            }
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Wake::Deadline;
            }
        }
        self.blocking(|| {
            let mut mail = slot.mail.lock();
            loop {
                if !mail.is_empty() {
                    return Wake::Mail;
                }
                if self.generation.load(Ordering::SeqCst) != gen {
                    return Wake::Event;
                }
                match deadline {
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Wake::Deadline;
                        }
                        slot.cv.wait_for(&mut mail, d - now);
                    }
                    None => slot.cv.wait(&mut mail),
                }
            }
        })
    }

    /// Runs `f` with the run permit returned to the gate, re-acquiring it
    /// afterwards (on unwind too). For blocking operations outside the
    /// scheduler's own parking — shared-memory fetches and barriers block
    /// on their segment's condvar and must not hold a worker hostage.
    pub fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Reacquire<'a>(&'a RunGate);
        impl Drop for Reacquire<'_> {
            fn drop(&mut self) {
                self.0.acquire();
            }
        }
        self.gate.release();
        let _reacquire = Reacquire(&self.gate);
        f()
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
    /// record stands) and raises a world event so every parked rank
    /// re-examines liveness — the record is published before the event.
    pub fn depart(&self, rank: usize, how: Departure) {
        if self.departed[rank].set((how, Instant::now())).is_ok() {
            self.departures.fetch_add(1, Ordering::SeqCst);
        }
        self.world_event();
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
    use std::sync::atomic::{AtomicBool, AtomicUsize};
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

    /// The lost-wakeup race, made deterministic: an event raised *between*
    /// the generation snapshot and the park must abort the park.
    #[test]
    fn stale_generation_snapshot_aborts_the_park() {
        let s: Scheduler<u32> = Scheduler::new(1, 4);
        s.enter();
        let gen = s.generation();
        s.world_event();
        assert_eq!(s.park(0, None, gen), Wake::Event);
        s.exit();
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
    fn world_event_wakes_all_parked_ranks() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(3, 4));
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let parker = Arc::clone(&s);
                thread::spawn(move || {
                    parker.enter();
                    let wake = parker.park(rank, None, parker.generation());
                    parker.exit();
                    wake
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        s.depart(2, Departure::SoftCrash);
        for h in handles {
            assert_eq!(h.join().unwrap(), Wake::Event);
        }
        assert_eq!(s.departure(2), Some(Departure::SoftCrash));
        assert_eq!(s.departure(0), None);
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

    /// A rank inside `blocking` must not hold a worker hostage: with a
    /// single permit, a second rank can only run if the first gave its
    /// permit back for the duration of the blocking section.
    #[test]
    fn blocking_releases_the_run_permit() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(2, 1));
        let a_inside = Arc::new(AtomicBool::new(false));
        let b_done = Arc::new(AtomicBool::new(false));
        let a = {
            let s = Arc::clone(&s);
            let a_inside = Arc::clone(&a_inside);
            let b_done = Arc::clone(&b_done);
            thread::spawn(move || {
                s.enter();
                s.blocking(|| {
                    a_inside.store(true, Ordering::SeqCst);
                    while !b_done.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(1));
                    }
                });
                s.exit();
            })
        };
        let b = {
            let s = Arc::clone(&s);
            let a_inside = Arc::clone(&a_inside);
            let b_done = Arc::clone(&b_done);
            thread::spawn(move || {
                while !a_inside.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                }
                s.enter();
                b_done.store(true, Ordering::SeqCst);
                s.exit();
            })
        };
        a.join().unwrap();
        b.join().unwrap();
        assert!(b_done.load(Ordering::SeqCst));
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
