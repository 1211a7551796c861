//! Per-process metrics matching the paper's six performance measures.
//!
//! Section IV-A defines, per critical-path process:
//! `rc` communication rounds, `sc` bytes sent/received, `re` encryption
//! rounds, `se` bytes encrypted, `rd` decryption rounds, `sd` bytes
//! decrypted. The runtime counts all six (plus a few extras) so tests can
//! check measured values against the paper's Table II formulas and Table I
//! lower bounds. Every counter except the data-plane probe pair is a fold
//! of the rank's event stream: [`Metrics::add`] is the one place an
//! occurrence becomes a count.

use crate::trace::EventKind;
use eag_netsim::{LinkClass, Rank};

/// Counters for one process, one collective invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Communication rounds (one per blocking receive).
    pub comm_rounds: u64,
    /// Bytes sent (wire bytes, all links).
    pub bytes_sent: u64,
    /// Bytes received (wire bytes, all links).
    pub bytes_recv: u64,
    /// Payload bytes sent: wire bytes minus the 28-byte GCM framing of each
    /// sealed item (the paper's analyses "ignore this constant overhead").
    pub payload_sent: u64,
    /// Payload bytes received (framing-free).
    pub payload_recv: u64,
    /// Bytes sent over inter-node links only.
    pub inter_bytes_sent: u64,
    /// Encryption operations.
    pub enc_rounds: u64,
    /// Plaintext bytes encrypted.
    pub enc_bytes: u64,
    /// Decryption operations.
    pub dec_rounds: u64,
    /// Plaintext bytes recovered by decryption.
    pub dec_bytes: u64,
    /// Shared-memory/user-buffer copies performed.
    pub copies: u64,
    /// Bytes moved by those copies.
    pub copy_bytes: u64,
    /// Payload bytes physically memcpy'd by the data plane on this rank's
    /// thread (rope materializations, staging copies, copy-on-write) — the
    /// zero-copy probe. Unlike `copy_bytes`, which models the collective's
    /// shared-memory traffic, this counts what the implementation actually
    /// moved.
    pub memcpy_bytes: u64,
    /// Fresh payload byte buffers allocated by the data plane on this
    /// rank's thread.
    pub buf_allocs: u64,
    /// Faults this rank injected into its outgoing frames (chaos runs).
    pub faults_injected: u64,
    /// Corrupted or early frames this rank detected on arrival (transport
    /// checksum, per-hop GCM verification, or a sequence number past the
    /// next one its stream expects); each is NACKed.
    pub faults_detected: u64,
    /// NACKs this rank sent asking a peer to retransmit.
    pub nacks_sent: u64,
    /// Frames this rank retransmitted in response to NACKs.
    pub retransmits: u64,
    /// Wire bytes of those retransmissions (excluded from `bytes_sent` so
    /// the paper's Table II traffic columns stay fault-independent).
    pub retransmit_bytes: u64,
    /// Duplicate frames discarded by sequence-number deduplication.
    pub dup_frames_dropped: u64,
    /// Peer crashes this rank's failure detector observed (a crashed
    /// peer's departure record, an attempt abort blaming a crash, or a
    /// same-node shared-segment abort).
    pub crashes_detected: u64,
    /// Degraded recoveries this rank completed (shrunk-group re-runs).
    pub recoveries: u64,
    /// Numeric id of the collective operation this rank last ran (0 =
    /// unset; ids are assigned by the collective layer in `eag-core`). A
    /// label rather than a counter: aggregations take the max so
    /// default-padded slots never mask it.
    pub operation: u64,
}

impl Metrics {
    /// Folds one event of rank `me` into the counters. Self-loop traffic
    /// is a local hand-off, not communication, so it leaves the Table II
    /// columns alone; a `Crash` naming `me` is the dying rank's own marker,
    /// not a detection.
    pub fn add(&mut self, me: Rank, kind: &EventKind) {
        match *kind {
            EventKind::Send {
                bytes,
                payload,
                link,
                ..
            } => {
                if link != LinkClass::SelfLoop {
                    self.bytes_sent += bytes as u64;
                    self.payload_sent += payload as u64;
                }
                if link == LinkClass::Inter {
                    self.inter_bytes_sent += bytes as u64;
                }
            }
            EventKind::Recv {
                bytes,
                payload,
                link,
                ..
            } => {
                if link != LinkClass::SelfLoop {
                    self.comm_rounds += 1;
                    self.bytes_recv += bytes as u64;
                    self.payload_recv += payload as u64;
                }
            }
            EventKind::Encrypt { bytes } => {
                self.enc_rounds += 1;
                self.enc_bytes += bytes as u64;
            }
            EventKind::Decrypt { bytes } => {
                self.dec_rounds += 1;
                self.dec_bytes += bytes as u64;
            }
            EventKind::Copy { bytes } => {
                self.copies += 1;
                self.copy_bytes += bytes as u64;
            }
            EventKind::Fault { .. } => self.faults_injected += 1,
            EventKind::Detect { .. } => self.faults_detected += 1,
            EventKind::Nack { .. } => self.nacks_sent += 1,
            EventKind::Retransmit { bytes, .. } => {
                self.retransmits += 1;
                self.retransmit_bytes += bytes as u64;
            }
            EventKind::Duplicate { .. } => self.dup_frames_dropped += 1,
            EventKind::Crash { rank } if rank != me => self.crashes_detected += 1,
            EventKind::Recover { .. } => self.recoveries += 1,
            EventKind::Barrier | EventKind::Crash { .. } | EventKind::Suite { .. } => {}
        }
    }

    /// Labels these metrics with the collective operation being run,
    /// max-merged like the aggregations.
    pub(crate) fn label_operation(&mut self, id: u64) {
        self.operation = self.operation.max(id);
    }

    /// `sc` in the paper's terms: bytes through this process's critical path
    /// (the larger of sent and received), wire bytes.
    pub fn sc(&self) -> u64 {
        self.bytes_sent.max(self.bytes_recv)
    }

    /// `sc` with the GCM framing excluded — directly comparable to the
    /// paper's Table II formulas, which treat ciphertext and plaintext as
    /// the same length.
    pub fn sc_payload(&self) -> u64 {
        self.payload_sent.max(self.payload_recv)
    }

    /// Total recovery actions: NACKs issued plus frames retransmitted.
    /// Non-zero exactly when the run exercised the retry protocol.
    pub fn retries(&self) -> u64 {
        self.nacks_sent + self.retransmits
    }

    /// Merges `other` into `self` counter by counter with `f`. The
    /// `operation` label is not a counter: it always takes the max, so a
    /// default-padded slot never masks it and ids are never summed.
    fn merge(&mut self, other: &Metrics, f: fn(u64, u64) -> u64) {
        macro_rules! each {
            ($($field:ident),*) => { $(self.$field = f(self.$field, other.$field);)* };
        }
        each! {
            comm_rounds, bytes_sent, bytes_recv, payload_sent, payload_recv, inter_bytes_sent,
            enc_rounds, enc_bytes, dec_rounds, dec_bytes, copies, copy_bytes, memcpy_bytes,
            buf_allocs, faults_injected, faults_detected, nacks_sent, retransmits,
            retransmit_bytes, dup_frames_dropped, crashes_detected, recoveries
        }
        self.operation = self.operation.max(other.operation);
    }

    /// Component-wise maximum: the per-metric critical path over processes.
    pub fn component_max(all: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for m in all {
            out.merge(m, u64::max);
        }
        out
    }

    /// Sum over processes (for aggregate traffic checks).
    pub fn component_sum(all: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for m in all {
            out.merge(m, |a, b| a + b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_is_max_of_sent_and_received() {
        let m = Metrics {
            bytes_sent: 10,
            bytes_recv: 25,
            ..Default::default()
        };
        assert_eq!(m.sc(), 25);
    }

    #[test]
    fn component_max_and_sum() {
        let a = Metrics {
            comm_rounds: 3,
            enc_bytes: 100,
            ..Default::default()
        };
        let b = Metrics {
            comm_rounds: 5,
            enc_bytes: 10,
            ..Default::default()
        };
        let max = Metrics::component_max(&[a, b]);
        assert_eq!(max.comm_rounds, 5);
        assert_eq!(max.enc_bytes, 100);
        let sum = Metrics::component_sum(&[a, b]);
        assert_eq!(sum.comm_rounds, 8);
        assert_eq!(sum.enc_bytes, 110);
    }

    #[test]
    fn crash_counters_aggregate() {
        let a = Metrics {
            crashes_detected: 1,
            recoveries: 1,
            ..Default::default()
        };
        let b = Metrics {
            crashes_detected: 2,
            ..Default::default()
        };
        let max = Metrics::component_max(&[a, b]);
        assert_eq!(max.crashes_detected, 2);
        assert_eq!(max.recoveries, 1);
        let sum = Metrics::component_sum(&[a, b]);
        assert_eq!(sum.crashes_detected, 3);
        assert_eq!(sum.recoveries, 1);
    }

    #[test]
    fn fold_skips_self_loops_and_the_dying_ranks_own_crash() {
        let mut m = Metrics::default();
        for link in [LinkClass::SelfLoop, LinkClass::Intra, LinkClass::Inter] {
            m.add(
                0,
                &EventKind::Send {
                    dst: 1,
                    bytes: 92,
                    payload: 64,
                    link,
                },
            );
            m.add(
                0,
                &EventKind::Recv {
                    src: 1,
                    bytes: 92,
                    payload: 64,
                    link,
                },
            );
        }
        m.add(0, &EventKind::Crash { rank: 0 });
        m.add(0, &EventKind::Crash { rank: 2 });
        let want = Metrics {
            comm_rounds: 2,
            bytes_sent: 184,
            bytes_recv: 184,
            payload_sent: 128,
            payload_recv: 128,
            inter_bytes_sent: 92,
            crashes_detected: 1,
            ..Default::default()
        };
        assert_eq!(m, want);
    }

    #[test]
    fn retries_sums_nacks_and_retransmits() {
        let m = Metrics {
            nacks_sent: 3,
            retransmits: 2,
            ..Default::default()
        };
        assert_eq!(m.retries(), 5);
        assert_eq!(Metrics::default().retries(), 0);
        let agg = Metrics::component_sum(&[m, m]);
        assert_eq!(agg.retries(), 10);
        assert_eq!(
            Metrics::component_max(&[m, Metrics::default()]).nacks_sent,
            3
        );
    }
}
