//! Per-process metrics matching the paper's six performance measures.
//!
//! Section IV-A defines, per critical-path process:
//! `rc` communication rounds, `sc` bytes sent/received, `re` encryption
//! rounds, `se` bytes encrypted, `rd` decryption rounds, `sd` bytes
//! decrypted. The runtime counts all six (plus a few extras) so tests can
//! check measured values against the paper's Table II formulas and Table I
//! lower bounds.

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
    /// Corrupted or missing frames this rank detected on arrival (transport
    /// checksum, per-hop GCM verification, or a sequence gap).
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
    /// The [`CipherSuite::id`](eag_crypto::CipherSuite::id) of the suite
    /// this rank sealed under (0 = unset, e.g. a default-constructed
    /// `Metrics`). A label, not a counter: aggregations take the max so a
    /// uniform world reports its suite and a default-padded slot never
    /// masks it.
    pub cipher_suite: u64,
    /// Numeric id of the collective operation this rank last ran (0 =
    /// unset; ids are assigned by the collective layer in `eag-core`).
    /// Like `cipher_suite`, a label rather than a counter: aggregations
    /// take the max so default-padded slots never mask it.
    pub operation: u64,
}

impl Metrics {
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

    /// Component-wise maximum: the per-metric critical path over processes.
    pub fn component_max(all: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for m in all {
            out.comm_rounds = out.comm_rounds.max(m.comm_rounds);
            out.bytes_sent = out.bytes_sent.max(m.bytes_sent);
            out.bytes_recv = out.bytes_recv.max(m.bytes_recv);
            out.payload_sent = out.payload_sent.max(m.payload_sent);
            out.payload_recv = out.payload_recv.max(m.payload_recv);
            out.inter_bytes_sent = out.inter_bytes_sent.max(m.inter_bytes_sent);
            out.enc_rounds = out.enc_rounds.max(m.enc_rounds);
            out.enc_bytes = out.enc_bytes.max(m.enc_bytes);
            out.dec_rounds = out.dec_rounds.max(m.dec_rounds);
            out.dec_bytes = out.dec_bytes.max(m.dec_bytes);
            out.copies = out.copies.max(m.copies);
            out.copy_bytes = out.copy_bytes.max(m.copy_bytes);
            out.memcpy_bytes = out.memcpy_bytes.max(m.memcpy_bytes);
            out.buf_allocs = out.buf_allocs.max(m.buf_allocs);
            out.faults_injected = out.faults_injected.max(m.faults_injected);
            out.faults_detected = out.faults_detected.max(m.faults_detected);
            out.nacks_sent = out.nacks_sent.max(m.nacks_sent);
            out.retransmits = out.retransmits.max(m.retransmits);
            out.retransmit_bytes = out.retransmit_bytes.max(m.retransmit_bytes);
            out.dup_frames_dropped = out.dup_frames_dropped.max(m.dup_frames_dropped);
            out.crashes_detected = out.crashes_detected.max(m.crashes_detected);
            out.recoveries = out.recoveries.max(m.recoveries);
            out.cipher_suite = out.cipher_suite.max(m.cipher_suite);
            out.operation = out.operation.max(m.operation);
        }
        out
    }

    /// Sum over processes (for aggregate traffic checks).
    pub fn component_sum(all: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for m in all {
            out.comm_rounds += m.comm_rounds;
            out.bytes_sent += m.bytes_sent;
            out.bytes_recv += m.bytes_recv;
            out.payload_sent += m.payload_sent;
            out.payload_recv += m.payload_recv;
            out.inter_bytes_sent += m.inter_bytes_sent;
            out.enc_rounds += m.enc_rounds;
            out.enc_bytes += m.enc_bytes;
            out.dec_rounds += m.dec_rounds;
            out.dec_bytes += m.dec_bytes;
            out.copies += m.copies;
            out.copy_bytes += m.copy_bytes;
            out.memcpy_bytes += m.memcpy_bytes;
            out.buf_allocs += m.buf_allocs;
            out.faults_injected += m.faults_injected;
            out.faults_detected += m.faults_detected;
            out.nacks_sent += m.nacks_sent;
            out.retransmits += m.retransmits;
            out.retransmit_bytes += m.retransmit_bytes;
            out.dup_frames_dropped += m.dup_frames_dropped;
            out.crashes_detected += m.crashes_detected;
            out.recoveries += m.recoveries;
            // Labels, not counters: summing ids is meaningless.
            out.cipher_suite = out.cipher_suite.max(m.cipher_suite);
            out.operation = out.operation.max(m.operation);
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
