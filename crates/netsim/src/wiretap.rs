//! A passive network adversary for tests.
//!
//! The threat model of the paper is a network eavesdropper: inter-node
//! traffic is visible (and tamperable), intra-node traffic is not. The
//! [`Wiretap`] records every frame that crosses an inter-node link so tests
//! can assert the security contract of every encrypted algorithm: *no
//! plaintext byte sequence ever appears on the wire*. A world records only
//! when asked (`WorldSpec::capture_wire` in `eag-runtime`); the tap of a
//! world that did not record refuses to be read, so an empty tap can never
//! pass for a clean one.

use eag_rope::Rope;
use parking_lot::{Mutex, MutexGuard};

/// What kind of payload a recorded frame claimed to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Sent as plaintext (allowed only intra-node; the tap flags it).
    Plain,
    /// Sent as an encrypted frame (nonce ‖ ciphertext ‖ tag).
    Cipher,
    /// Phantom payload (cost simulation; no bytes to inspect).
    Phantom,
}

/// One captured inter-node frame.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Wire tag (the collective epoch included).
    pub tag: u64,
    /// Transport sequence number (0 on an unframed frame).
    pub seq: u64,
    /// Payload classification at capture time.
    pub kind: FrameKind,
    /// Wire length in bytes.
    pub len: usize,
    /// Captured bytes (empty for phantom frames). A refcounted rope view of
    /// the payload buffers in flight: the tap observes traffic without
    /// copying it.
    pub bytes: Rope,
}

/// Records all inter-node traffic of a run.
#[derive(Debug, Default)]
pub struct Wiretap {
    frames: Mutex<Vec<FrameRecord>>,
    /// Set on the tap of a world that records nothing: reads panic.
    off: bool,
}

impl Wiretap {
    /// An empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tap of a world that records nothing; reading it panics.
    pub fn off() -> Self {
        Wiretap {
            off: true,
            ..Self::default()
        }
    }

    /// The captured frames, for a reader.
    fn records(&self) -> MutexGuard<'_, Vec<FrameRecord>> {
        assert!(
            !self.off,
            "this world recorded no wire traffic: set `WorldSpec::capture_wire` to read its tap"
        );
        self.frames.lock()
    }

    /// Records one frame.
    pub fn capture(&self, record: FrameRecord) {
        self.frames.lock().push(record);
    }

    /// Number of captured frames.
    pub fn frame_count(&self) -> usize {
        self.records().len()
    }

    /// Snapshot of all captured frames.
    pub fn frames(&self) -> Vec<FrameRecord> {
        self.records().clone()
    }

    /// Total bytes observed on inter-node links.
    pub fn total_bytes(&self) -> usize {
        self.records().iter().map(|f| f.len).sum()
    }

    /// True if any captured frame was classified as plaintext.
    pub fn saw_plaintext_frame(&self) -> bool {
        self.records().iter().any(|f| f.kind == FrameKind::Plain)
    }

    /// True if `needle` occurs as a contiguous byte substring of any captured
    /// frame (segment boundaries in the captured rope are transparent). Used
    /// with high-entropy plaintext blocks: a hit means plaintext leaked onto
    /// the network.
    pub fn contains(&self, needle: &[u8]) -> bool {
        self.records()
            .iter()
            .any(|f| f.bytes.contains_subslice(needle))
    }

    /// Clears all captured frames.
    pub fn clear(&self) {
        self.frames.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, bytes: &[u8]) -> FrameRecord {
        FrameRecord {
            src: 0,
            dst: 1,
            tag: 9,
            seq: 0,
            kind,
            len: bytes.len(),
            bytes: Rope::from(bytes),
        }
    }

    #[test]
    fn records_and_counts() {
        let tap = Wiretap::new();
        tap.capture(frame(FrameKind::Cipher, &[1, 2, 3]));
        tap.capture(frame(FrameKind::Cipher, &[4, 5]));
        assert_eq!(tap.frame_count(), 2);
        assert_eq!(tap.total_bytes(), 5);
        assert!(!tap.saw_plaintext_frame());
    }

    #[test]
    fn flags_plaintext_frames() {
        let tap = Wiretap::new();
        tap.capture(frame(FrameKind::Plain, b"secret"));
        assert!(tap.saw_plaintext_frame());
    }

    #[test]
    fn substring_search() {
        let tap = Wiretap::new();
        tap.capture(frame(FrameKind::Cipher, b"xxTOPSECRETyy"));
        assert!(tap.contains(b"TOPSECRET"));
        assert!(!tap.contains(b"TOPSECRES"));
        assert!(!tap.contains(b""));
    }

    #[test]
    #[should_panic(expected = "WorldSpec::capture_wire")]
    fn a_tap_that_recorded_nothing_refuses_to_be_read() {
        Wiretap::off().saw_plaintext_frame();
    }

    #[test]
    fn clear_empties_the_tap() {
        let tap = Wiretap::new();
        tap.capture(frame(FrameKind::Cipher, &[1]));
        tap.clear();
        assert_eq!(tap.frame_count(), 0);
    }
}
