//! Node-local shared memory: deposit/fetch slots and a clock-synchronizing
//! barrier.
//!
//! The HS1/HS2 algorithms (paper Section IV-B) communicate *within* a node
//! through shared-memory plaintext/ciphertext buffers rather than message
//! passing. [`NodeShared`] models one node's shared segment: processes
//! deposit items into named slots, peers fetch them, and a node barrier
//! separates phases. In virtual time, a fetch completes no earlier than the
//! deposit's completion, and barriers align all participants' clocks.
//!
//! Slots are reference-counted: a deposit declares how many fetches will
//! consume it, items are shared via [`Arc`] (no deep copy per fetch), and
//! the slot self-removes when the last declared consumer has fetched it —
//! so the map is empty again after every collective instead of growing by
//! one generation of slots per `begin_collective` epoch.
//!
//! The segment never blocks a world's rank: the world polls it one wait
//! step at a time and parks a waiting rank in its scheduler, where it keeps
//! answering its mail. [`NodeShared::fetch`] and [`NodeShared::barrier`]
//! block on the segment's condvar instead, for use without a world.

use crate::payload::Item;
use eag_netsim::Rank;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// A slot address inside a node's shared segment.
pub type SlotKey = (u64, usize); // (phase tag, index)

/// A wait step's answer: `Ok(None)` while the wait goes on, `Err(rank)`
/// once a sibling process on the node crashed.
pub(crate) type Answer<R> = Result<Option<R>, Rank>;

struct DepositedItem {
    item: Arc<Item>,
    /// Virtual time at which the deposit became visible.
    ready_us: f64,
    /// Fetches left before the slot self-removes.
    remaining: usize,
}

/// Everything behind the segment's one lock.
#[derive(Default)]
pub(crate) struct Segment {
    slots: HashMap<SlotKey, DepositedItem>,
    /// A claim found its slot empty since the last deposit.
    missed: bool,
    /// Barrier generations released so far.
    generation: u64,
    arrived: usize,
    max_clock_us: f64,
    release_clock_us: f64,
    /// A sibling process that crashed mid-collective: every fetch and
    /// barrier wait from then on fails with `Err(rank)`, so the survivors
    /// recover instead of waiting for what will never come.
    crashed: Option<Rank>,
}

impl Segment {
    /// Takes one declared read of the item in `key`, if it is deposited:
    /// a shared handle to the item (no deep copy) and the virtual time it
    /// became visible. The last declared consumer removes the slot and
    /// receives the map's own `Arc` — then sole ownership, so
    /// `Arc::try_unwrap` gives the item back without any copy at all.
    pub(crate) fn claim(&mut self, key: SlotKey) -> Answer<(Arc<Item>, f64)> {
        self.crashed.map_or(Ok(()), Err)?;
        let Some(d) = self.slots.get_mut(&key) else {
            self.missed = true;
            return Ok(None);
        };
        debug_assert!(d.remaining > 0);
        d.remaining -= 1;
        Ok(Some(if d.remaining == 0 {
            let d = self.slots.remove(&key).expect("slot present");
            (d.item, d.ready_us)
        } else {
            (Arc::clone(&d.item), d.ready_us)
        }))
    }

    /// The release clock of barrier `generation` once it has released.
    pub(crate) fn released(&self, generation: u64) -> Answer<f64> {
        if self.generation != generation {
            return Ok(Some(self.release_clock_us));
        }
        self.crashed.map_or(Ok(None), Err)
    }
}

/// One node's shared-memory segment.
pub struct NodeShared {
    participants: usize,
    state: Mutex<Segment>,
    /// Wakes the blocking [`fetch`](Self::fetch) and
    /// [`barrier`](Self::barrier) only.
    cv: Condvar,
}

impl NodeShared {
    /// A segment shared by `participants` processes.
    pub fn new(participants: usize) -> Self {
        NodeShared {
            participants,
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    /// Marks a sibling process as crashed (the node's OS observes local
    /// process death immediately, even for a hard crash): its deposits may
    /// never arrive, so every fetch and barrier wait from now on returns
    /// `Err(rank)`. The first crash recorded stands.
    pub fn crash_abort(&self, rank: Rank) {
        self.state.lock().crashed.get_or_insert(rank);
        self.cv.notify_all();
    }

    /// Deposits `item` into `key`, visible from virtual time `ready_us` and
    /// consumed by exactly `consumers` fetches (after the last one the slot
    /// is removed). A deposit nobody will fetch (`consumers == 0`) is
    /// skipped outright. Panics if the slot is already occupied (phase tags
    /// must be unique). Returns whether a claim found its slot empty since
    /// the last deposit, so a fetch may be waiting.
    pub fn deposit(&self, key: SlotKey, item: Item, ready_us: f64, consumers: usize) -> bool {
        if consumers == 0 {
            return false;
        }
        let mut st = self.state.lock();
        let prev = st.slots.insert(
            key,
            DepositedItem {
                item: Arc::new(item),
                ready_us,
                remaining: consumers,
            },
        );
        assert!(prev.is_none(), "shared-memory slot {key:?} deposited twice");
        let awaited = std::mem::take(&mut st.missed);
        drop(st);
        if awaited {
            self.cv.notify_all();
        }
        awaited
    }

    /// Takes one declared read of the item in `key`, blocking until it is
    /// deposited: see `Segment::claim`.
    pub fn fetch(&self, key: SlotKey) -> Result<(Arc<Item>, f64), Rank> {
        self.block(|st| st.claim(key))
    }

    /// Number of live (not yet fully consumed) slots — 0 after a correctly
    /// consumer-counted collective completes.
    pub fn len(&self) -> usize {
        self.state.lock().slots.len()
    }

    /// Whether the slot map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arrives at the node barrier with clock `my_clock_us`. Returns the
    /// barrier generation to wait on (`Segment::released`), and whether
    /// this arrival was the last one and released it: every participant's
    /// release clock is then max(arrival clocks) + `barrier_cost_us`.
    /// Returns `Err(rank)` if a sibling process on this node crashed — the
    /// barrier would never release.
    pub fn arrive(&self, my_clock_us: f64, barrier_cost_us: f64) -> Result<(u64, bool), Rank> {
        let mut st = self.state.lock();
        st.crashed.map_or(Ok(()), Err)?;
        let generation = st.generation;
        st.max_clock_us = st.max_clock_us.max(my_clock_us);
        st.arrived += 1;
        let last = st.arrived == self.participants;
        if last {
            st.release_clock_us = st.max_clock_us + barrier_cost_us;
            st.generation += 1;
            st.arrived = 0;
            st.max_clock_us = 0.0;
            drop(st);
            self.cv.notify_all();
        }
        Ok((generation, last))
    }

    /// Node barrier: [`arrive`](Self::arrive), then block until the
    /// generation releases, and return the common release clock.
    pub fn barrier(&self, my_clock_us: f64, barrier_cost_us: f64) -> Result<f64, Rank> {
        let (generation, _) = self.arrive(my_clock_us, barrier_cost_us)?;
        self.block(|st| st.released(generation))
    }

    /// Runs one step of a wait on the segment, without blocking.
    pub(crate) fn poll<R>(&self, step: impl FnOnce(&mut Segment) -> Answer<R>) -> Answer<R> {
        step(&mut self.state.lock())
    }

    /// Blocks on the condvar until `step` answers.
    fn block<R>(&self, mut step: impl FnMut(&mut Segment) -> Answer<R>) -> Result<R, Rank> {
        let mut st = self.state.lock();
        loop {
            if let Some(got) = step(&mut st)? {
                return Ok(got);
            }
            self.cv.wait(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Chunk, Data};

    fn item(v: u8) -> Item {
        Item::Plain(Chunk::single(0, Data::Real(vec![v; 4].into())))
    }

    #[test]
    fn deposit_then_fetch() {
        let sh = NodeShared::new(1);
        sh.deposit((1, 0), item(7), 5.0, 1);
        let (got, ready) = sh.fetch((1, 0)).unwrap();
        assert_eq!(*got, item(7));
        assert_eq!(ready, 5.0);
    }

    #[test]
    fn fetch_blocks_until_deposit() {
        let sh = Arc::new(NodeShared::new(2));
        let sh2 = Arc::clone(&sh);
        let handle = std::thread::spawn(move || (*sh2.fetch((9, 3)).unwrap().0).clone());
        std::thread::sleep(std::time::Duration::from_millis(20));
        sh.deposit((9, 3), item(1), 0.0, 1);
        assert_eq!(handle.join().unwrap(), item(1));
    }

    #[test]
    #[should_panic(expected = "deposited twice")]
    fn double_deposit_panics() {
        let sh = NodeShared::new(1);
        sh.deposit((1, 0), item(1), 0.0, 2);
        sh.deposit((1, 0), item(2), 0.0, 2);
    }

    #[test]
    fn slot_self_removes_after_declared_consumers() {
        let sh = NodeShared::new(3);
        sh.deposit((2, 1), item(9), 1.0, 3);
        assert_eq!(sh.len(), 1);
        let (a, _) = sh.fetch((2, 1)).unwrap();
        let (b, _) = sh.fetch((2, 1)).unwrap();
        assert_eq!(sh.len(), 1, "slot must survive until the last consumer");
        let (c, _) = sh.fetch((2, 1)).unwrap();
        assert!(sh.is_empty(), "last consumer removes the slot");
        assert_eq!(*a, *b);
        drop((a, b));
        // The final fetch got the map's own Arc: with the earlier handles
        // dropped it is sole owner, so the item comes back copy-free.
        assert!(Arc::try_unwrap(c).is_ok());
    }

    #[test]
    fn zero_consumer_deposit_is_skipped() {
        let sh = NodeShared::new(1);
        sh.deposit((3, 0), item(4), 0.0, 0);
        assert!(sh.is_empty());
    }

    #[test]
    fn fetches_share_one_allocation() {
        let sh = NodeShared::new(2);
        sh.deposit((4, 0), item(6), 0.0, 2);
        let (a, _) = sh.fetch((4, 0)).unwrap();
        let (b, _) = sh.fetch((4, 0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "fetches must not deep-clone the item");
    }

    #[test]
    fn barrier_aligns_clocks_to_max() {
        let sh = Arc::new(NodeShared::new(3));
        let clocks = [3.0, 10.0, 7.0];
        let mut handles = Vec::new();
        for &c in &clocks {
            let sh = Arc::clone(&sh);
            handles.push(std::thread::spawn(move || sh.barrier(c, 0.5).unwrap()));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 10.5);
        }
    }

    #[test]
    fn crash_abort_unblocks_fetch_and_barrier() {
        let sh = Arc::new(NodeShared::new(2));
        let f = {
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || sh.fetch((5, 0)))
        };
        let b = {
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || sh.barrier(1.0, 0.0))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        sh.crash_abort(1);
        assert_eq!(f.join().unwrap(), Err(1));
        assert_eq!(b.join().unwrap(), Err(1));
        // Later calls fail fast too — the segment stays dead.
        assert_eq!(sh.fetch((5, 0)), Err(1));
        assert_eq!(sh.barrier(2.0, 0.0), Err(1));
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let sh = Arc::new(NodeShared::new(2));
        for round in 0..3 {
            let sh2 = Arc::clone(&sh);
            let base = round as f64 * 100.0;
            let h = std::thread::spawn(move || sh2.barrier(base + 1.0, 0.0).unwrap());
            let mine = sh.barrier(base + 2.0, 0.0).unwrap();
            assert_eq!(mine, base + 2.0);
            assert_eq!(h.join().unwrap(), base + 2.0);
        }
    }
}
