//! Thread-local allocation/copy accounting for the data plane.
//!
//! The runtime is thread-per-rank, so a thread-local counter pair gives an
//! exact, deterministic per-rank tally with no atomics on the hot path.
//! Rank threads are pooled and reused across worlds, so the runtime
//! [`reset`]s the counters at every rank start. The
//! rope counts every byte and buffer it materializes ([`crate::Rope::to_vec`],
//! [`crate::Rope::copy_into`], copy-on-write, shared `into_vec`); freezing an
//! existing buffer is free. Layers above count their own residual copies and
//! allocations through [`count_copied`]/[`count_buffer`] so the bench probe
//! sees the whole data plane, not just the rope.

use std::cell::Cell;

thread_local! {
    static COPIED_BYTES: Cell<u64> = const { Cell::new(0) };
    static BUFFERS: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time reading of this thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Payload bytes memcpy'd on this thread since the last [`reset`].
    pub copied_bytes: u64,
    /// Fresh byte buffers allocated on this thread since the last [`reset`].
    pub buffers: u64,
}

/// Adds `n` to this thread's copied-bytes tally.
#[inline]
pub fn count_copied(n: usize) {
    COPIED_BYTES.with(|c| c.set(c.get() + n as u64));
}

/// Counts one freshly allocated byte buffer on this thread.
#[inline]
pub fn count_buffer() {
    BUFFERS.with(|c| c.set(c.get() + 1));
}

/// Reads this thread's counters without resetting them.
pub fn snapshot() -> Snapshot {
    Snapshot {
        copied_bytes: COPIED_BYTES.with(Cell::get),
        buffers: BUFFERS.with(Cell::get),
    }
}

/// Zeroes this thread's counters.
pub fn reset() {
    COPIED_BYTES.with(|c| c.set(0));
    BUFFERS.with(|c| c.set(0));
}

/// Reads and zeroes this thread's counters in one step.
pub fn take() -> Snapshot {
    let snap = snapshot();
    reset();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        count_copied(10);
        count_copied(5);
        count_buffer();
        assert_eq!(
            snapshot(),
            Snapshot {
                copied_bytes: 15,
                buffers: 1
            }
        );
        assert_eq!(take().copied_bytes, 15);
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn counters_are_per_thread() {
        reset();
        count_copied(7);
        let other = std::thread::spawn(|| {
            count_copied(100);
            snapshot().copied_bytes
        })
        .join()
        .unwrap();
        assert_eq!(other, 100);
        assert_eq!(snapshot().copied_bytes, 7);
    }
}
