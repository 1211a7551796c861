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

use crate::payload::Item;
use eag_netsim::Rank;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A slot address inside a node's shared segment.
pub type SlotKey = (u64, usize); // (phase tag, index)

struct DepositedItem {
    item: Arc<Item>,
    /// Virtual time at which the deposit became visible.
    ready_us: f64,
    /// Fetches left before the slot self-removes.
    remaining: usize,
}

#[derive(Default)]
struct SlotMap {
    slots: HashMap<SlotKey, DepositedItem>,
}

struct BarrierState {
    generation: u64,
    arrived: usize,
    max_clock_us: f64,
    release_clock_us: f64,
}

/// One node's shared-memory segment.
pub struct NodeShared {
    participants: usize,
    slots: Mutex<SlotMap>,
    slots_cv: Condvar,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    poisoned: std::sync::atomic::AtomicBool,
    /// `rank + 1` of a sibling process that crashed mid-collective, or 0.
    /// Unlike poison this is recoverable: blocked `fetch`/`barrier` calls
    /// return `Err(rank)` so survivors can run the recovery protocol.
    crashed: AtomicUsize,
}

impl NodeShared {
    /// A segment shared by `participants` processes.
    pub fn new(participants: usize) -> Self {
        NodeShared {
            participants,
            slots: Mutex::new(SlotMap::default()),
            slots_cv: Condvar::new(),
            barrier: Mutex::new(BarrierState {
                generation: 0,
                arrived: 0,
                max_clock_us: 0.0,
                release_clock_us: 0.0,
            }),
            barrier_cv: Condvar::new(),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            crashed: AtomicUsize::new(0),
        }
    }

    /// Marks the segment poisoned (a sibling process panicked) and wakes all
    /// waiters so they can propagate the failure instead of deadlocking.
    pub fn poison(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.slots_cv.notify_all();
        self.barrier_cv.notify_all();
    }

    fn check_poison(&self) {
        if self.poisoned.load(std::sync::atomic::Ordering::SeqCst) {
            panic!("node shared segment poisoned: a sibling process panicked");
        }
    }

    /// Marks a sibling process as crashed (the node's OS observes local
    /// process death immediately, even for a hard crash) and wakes all
    /// waiters so blocked `fetch`/`barrier` calls return `Err(rank)`.
    pub fn crash_abort(&self, rank: Rank) {
        let _ = self
            .crashed
            .compare_exchange(0, rank + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.slots_cv.notify_all();
        self.barrier_cv.notify_all();
    }

    fn check_crash(&self) -> Result<(), Rank> {
        match self.crashed.load(Ordering::SeqCst) {
            0 => Ok(()),
            dead => Err(dead - 1),
        }
    }

    /// Deposits `item` into `key`, visible from virtual time `ready_us` and
    /// consumed by exactly `consumers` fetches (after the last one the slot
    /// is removed). A deposit nobody will fetch (`consumers == 0`) is
    /// skipped outright. Panics if the slot is already occupied (phase tags
    /// must be unique).
    pub fn deposit(&self, key: SlotKey, item: Item, ready_us: f64, consumers: usize) {
        if consumers == 0 {
            return;
        }
        let mut slots = self.slots.lock();
        let prev = slots.slots.insert(
            key,
            DepositedItem {
                item: Arc::new(item),
                ready_us,
                remaining: consumers,
            },
        );
        assert!(prev.is_none(), "shared-memory slot {key:?} deposited twice");
        drop(slots);
        self.slots_cv.notify_all();
    }

    /// Fetches the item in `key`, blocking until deposited. Returns a shared
    /// handle to the item (no deep copy) and the virtual time it became
    /// visible. The last declared consumer removes the slot and receives the
    /// map's own `Arc` — then sole ownership, so `Arc::try_unwrap` gives the
    /// item back without any copy at all. Returns `Err(rank)` if a sibling
    /// process on this node crashed: its deposits may never arrive, so the
    /// whole segment fails fast once [`crash_abort`](Self::crash_abort) ran.
    pub fn fetch(&self, key: SlotKey) -> Result<(Arc<Item>, f64), Rank> {
        let mut slots = self.slots.lock();
        loop {
            self.check_poison();
            self.check_crash()?;
            if let Some(d) = slots.slots.get_mut(&key) {
                debug_assert!(d.remaining > 0);
                d.remaining -= 1;
                return if d.remaining == 0 {
                    let d = slots.slots.remove(&key).expect("slot present");
                    Ok((d.item, d.ready_us))
                } else {
                    Ok((Arc::clone(&d.item), d.ready_us))
                };
            }
            self.slots_cv.wait(&mut slots);
        }
    }

    /// Removes the item in `key` if present, regardless of outstanding
    /// consumer count (cleanup between phases).
    pub fn take(&self, key: SlotKey) -> Option<Arc<Item>> {
        self.slots.lock().slots.remove(&key).map(|d| d.item)
    }

    /// Number of live (not yet fully consumed) slots — 0 after a correctly
    /// consumer-counted collective completes.
    pub fn len(&self) -> usize {
        self.slots.lock().slots.len()
    }

    /// Whether the slot map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node barrier: blocks until all participants arrive, and returns the
    /// common release clock = max(arrival clocks) + `barrier_cost_us`.
    /// Returns `Err(rank)` if a sibling process on this node crashed — the
    /// barrier would never release, so waiters fail fast instead.
    pub fn barrier(&self, my_clock_us: f64, barrier_cost_us: f64) -> Result<f64, Rank> {
        let mut st = self.barrier.lock();
        self.check_crash()?;
        let gen = st.generation;
        st.max_clock_us = st.max_clock_us.max(my_clock_us);
        st.arrived += 1;
        if st.arrived == self.participants {
            st.release_clock_us = st.max_clock_us + barrier_cost_us;
            st.generation += 1;
            st.arrived = 0;
            st.max_clock_us = 0.0;
            let release = st.release_clock_us;
            drop(st);
            self.barrier_cv.notify_all();
            Ok(release)
        } else {
            while st.generation == gen {
                self.check_poison();
                self.check_crash()?;
                self.barrier_cv.wait(&mut st);
            }
            Ok(st.release_clock_us)
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
    fn take_removes_slot() {
        let sh = NodeShared::new(1);
        sh.deposit((1, 0), item(1), 0.0, 5);
        assert!(sh.take((1, 0)).is_some());
        assert!(sh.take((1, 0)).is_none());
        assert!(sh.is_empty());
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
