//! Per-node NIC contention in virtual time.
//!
//! The paper observes that "on contemporary HPC systems, a single core
//! usually does not have enough computing power to fully utilize the network
//! link" — which is exactly why the Concurrent algorithms win: ℓ concurrent
//! per-process streams together saturate the NIC, while a single leader
//! stream cannot exceed its per-core rate.
//!
//! [`NodeNic`] models the shared NIC as a serially-reusable resource in
//! virtual time: an inter-node transmission of `b` bytes occupies the NIC
//! for `b / nic_bandwidth`, placed in the *earliest idle gap at or after the
//! sender's virtual clock*. Keeping a set of busy intervals (rather than a
//! single high-water mark) matters because worker threads reach the ledger
//! in wall-clock order, not virtual-time order: a rank still at virtual time
//! 4 µs must not queue behind a reservation another rank already made for
//! virtual time 10 µs while the NIC is idle in between.
//!
//! # Multi-session sharing
//!
//! One physical NIC may be shared by several concurrent sessions (worlds):
//! each reservation is stamped with its caller's *owner id*
//! ([`NodeNic::reserve_for`]), and a finished session retires only its own
//! intervals ([`NodeNic::retire`]) — it must not drop another session's
//! live reservations. Intervals only merge with same-owner neighbours so retirement stays exact;
//! cross-owner back-to-back reservations remain distinct ledger entries.

use parking_lot::Mutex;

/// One busy stretch of the NIC, stamped with the reserving session.
#[derive(Debug, Clone, Copy)]
struct Interval {
    start: f64,
    end: f64,
    owner: u64,
}

/// Virtual-time ledger for one node's NIC.
#[derive(Debug)]
pub struct NodeNic {
    /// Non-overlapping busy intervals, sorted by start time.
    busy: Mutex<Vec<Interval>>,
    /// Aggregate NIC bandwidth in B/µs (`INFINITY` disables contention).
    bandwidth: f64,
}

impl NodeNic {
    /// Creates a ledger with the given aggregate bandwidth.
    pub fn new(bandwidth: f64) -> Self {
        NodeNic {
            busy: Mutex::new(Vec::new()),
            bandwidth,
        }
    }

    /// Reserves the NIC for `bytes` starting no earlier than `now`, on
    /// behalf of session `owner`; returns the virtual time at which the
    /// last byte clears the NIC. Contention is global — a reservation
    /// queues behind *every* session's traffic — but the interval is
    /// stamped with `owner` so [`NodeNic::retire`] can later remove
    /// exactly this session's stretches.
    ///
    /// With infinite bandwidth this returns `now` and keeps no state.
    pub fn reserve_for(&self, owner: u64, now_us: f64, bytes: usize) -> f64 {
        if self.bandwidth.is_infinite() {
            return now_us;
        }
        let occ = bytes as f64 / self.bandwidth;
        if occ <= 0.0 {
            return now_us;
        }
        let mut busy = self.busy.lock();

        // Earliest candidate start: skip every interval that overlaps or
        // precedes the running candidate without leaving room for `occ`.
        let mut t = now_us;
        let mut i = busy.partition_point(|iv| iv.end <= now_us);
        while i < busy.len() {
            let iv = busy[i];
            if iv.start - t >= occ {
                break; // fits in the gap before interval i
            }
            if iv.end > t {
                t = iv.end;
            }
            i += 1;
        }
        let finish = t + occ;

        // Insert [t, finish) at position i, merging with exact-adjacent
        // *same-owner* neighbours so saturated stretches collapse to one
        // interval; cross-owner neighbours stay distinct so retirement
        // removes exactly the caller's time.
        let merge_left = i > 0 && busy[i - 1].end == t && busy[i - 1].owner == owner;
        let merge_right = i < busy.len() && busy[i].start == finish && busy[i].owner == owner;
        match (merge_left, merge_right) {
            (true, true) => {
                busy[i - 1].end = busy[i].end;
                busy.remove(i);
            }
            (true, false) => busy[i - 1].end = finish,
            (false, true) => busy[i].start = t,
            (false, false) => busy.insert(
                i,
                Interval {
                    start: t,
                    end: finish,
                    owner,
                },
            ),
        }
        finish
    }

    /// Retires every interval reserved by session `owner`, leaving all
    /// other sessions' reservations intact. This is how a finished session
    /// leaves a *shared* NIC.
    pub fn retire(&self, owner: u64) {
        self.busy.lock().retain(|iv| iv.owner != owner);
    }

    /// Snapshot of the busy intervals (testing and diagnostics).
    pub fn busy_intervals(&self) -> Vec<(f64, f64)> {
        self.busy
            .lock()
            .iter()
            .map(|iv| (iv.start, iv.end))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_bandwidth_is_transparent() {
        let nic = NodeNic::new(f64::INFINITY);
        assert_eq!(nic.reserve_for(0, 5.0, 1 << 30), 5.0);
        assert_eq!(nic.reserve_for(0, 3.0, 1 << 30), 3.0);
    }

    #[test]
    fn serializes_concurrent_streams() {
        let nic = NodeNic::new(100.0); // 100 B/µs
                                       // Two 1000-byte sends at the same instant: the second queues.
        assert_eq!(nic.reserve_for(0, 0.0, 1000), 10.0);
        assert_eq!(nic.reserve_for(0, 0.0, 1000), 20.0);
        // A later send after the NIC drained starts immediately.
        assert_eq!(nic.reserve_for(0, 50.0, 1000), 60.0);
    }

    #[test]
    fn earlier_virtual_time_uses_idle_gap() {
        let nic = NodeNic::new(100.0);
        // A rank that is ahead in virtual time reserves [10, 20).
        assert_eq!(nic.reserve_for(0, 10.0, 1000), 20.0);
        // A rank still at virtual time 0 must not queue behind it:
        // the NIC is idle during [0, 10).
        assert_eq!(nic.reserve_for(0, 0.0, 1000), 10.0);
        // But a third rank at time 0 now has to go after [0,20).
        assert_eq!(nic.reserve_for(0, 0.0, 1000), 30.0);
    }

    #[test]
    fn small_gap_is_skipped_when_too_tight() {
        let nic = NodeNic::new(1.0); // 1 B/µs
        assert_eq!(nic.reserve_for(0, 0.0, 10), 10.0); // [0,10)
        assert_eq!(nic.reserve_for(0, 15.0, 10), 25.0); // [15,25)
                                                        // A 10-byte send at t=5 does not fit into the [10,15) gap.
        assert_eq!(nic.reserve_for(0, 5.0, 10), 35.0);
        // A 5-byte send at t=5 does fit into [10,15).
        assert_eq!(nic.reserve_for(0, 5.0, 5), 15.0);
    }

    #[test]
    fn adjacent_intervals_merge() {
        let nic = NodeNic::new(1.0);
        for k in 0..100 {
            nic.reserve_for(0, k as f64 * 10.0, 10);
        }
        // All reservations were back-to-back → a single merged interval.
        assert_eq!(nic.busy.lock().len(), 1);
    }

    #[test]
    fn cross_owner_adjacency_does_not_merge() {
        let nic = NodeNic::new(1.0);
        // Sessions 1 and 2 alternate back-to-back 10-byte stretches.
        for k in 0..10 {
            let owner = 1 + (k % 2) as u64;
            nic.reserve_for(owner, k as f64 * 10.0, 10);
        }
        // Same wall of traffic, but per-owner boundaries survive.
        assert_eq!(nic.busy.lock().len(), 10);
        assert_eq!(nic.busy_intervals().first(), Some(&(0.0, 10.0)));
        assert_eq!(nic.busy_intervals().last(), Some(&(90.0, 100.0)));
    }

    /// Satellite-2 regression: two interleaved sessions share the ledger;
    /// one retiring must not free the other's backlog (the old blanket
    /// `reset` did exactly that).
    #[test]
    fn retire_removes_only_the_callers_intervals() {
        let nic = NodeNic::new(1.0); // 1 B/µs
                                     // Session A and session B interleave reservations at t=0:
                                     // A:[0,100) B:[100,200) A:[200,300) B:[300,400).
        assert_eq!(nic.reserve_for(0xA, 0.0, 100), 100.0);
        assert_eq!(nic.reserve_for(0xB, 0.0, 100), 200.0);
        assert_eq!(nic.reserve_for(0xA, 0.0, 100), 300.0);
        assert_eq!(nic.reserve_for(0xB, 0.0, 100), 400.0);

        nic.retire(0xA);

        // B's stretches survive verbatim...
        assert_eq!(nic.busy_intervals(), vec![(100.0, 200.0), (300.0, 400.0)]);
        // ...and still queue B's (and anyone's) new work: a fresh send at
        // t=150 lands in the [200,300) gap A vacated, not at t=400.
        assert_eq!(nic.reserve_for(0xB, 150.0, 100), 300.0);
        // Retiring B empties the ledger entirely.
        nic.retire(0xB);
        assert!(nic.busy_intervals().is_empty());
    }

    #[test]
    fn zero_sized_sends_cost_nothing() {
        let nic = NodeNic::new(1.0);
        assert_eq!(nic.reserve_for(0, 7.0, 0), 7.0);
        assert!(nic.busy.lock().is_empty());
    }
}
