//! The benchmark's vocabulary: every workload and every metric it may emit,
//! with unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root lists the same names; the self-test fails when the two
//! drift apart, and the ledger refuses to emit a name that is not here.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "ag_small",
        why: "all-gather p=16 N=4 m=256 B: latency-bound, so sched park/wake, per-frame transport and per-call AEAD set-up do the work and byte costs none",
    },
    WorkloadDef {
        name: "ag_large",
        why: "all-gather p=16 N=4 m=256 KiB (64 MiB gathered per call): bandwidth-bound, so seal/open bytes and rope/payload copies dominate and the scheduler is noise",
    },
    WorkloadDef {
        name: "ag_armed",
        why: "all-gather m=16 KiB under duplicate/reorder/tamper faults: the reliable transport (seq, checksum, sent_log, NACK, dedup, linger) that the other workloads bypass",
    },
    WorkloadDef {
        name: "ops_mixed",
        why: "bcast, gather, scatterv, alltoall, allgatherv through the Collective seam under ChaCha20-Poly1305: code paths the ag_* workloads never execute",
    },
    WorkloadDef {
        name: "sessions_churn",
        why: "admit, run one small all-gather, drop: world spawn/join, key derivation and admission do the work and the steady-state loop almost none",
    },
    WorkloadDef {
        name: "crash_recover",
        why: "rank 0 crashes before its first send: detection, floodset agreement and the shrunk re-run are on no other workload's path",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports all of them.
///
/// The time and memory bounds sit at the contract's ceiling because the box
/// this benchmark was sized on changes speed with its neighbours: the same
/// binary, run ten times with ten seeds, spreads 2–8 % (interquartile range
/// over median) on the time metrics in a quiet hour and 12–19 % in a busy
/// one, and a bound is only usable at about three times that. README.md
/// lists the measured spreads per workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_latency_us_p50", "us", Lower, 0.25),
    e2e("op_latency_us_p95", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_MB", "MB", Lower, 0.25),
    e2e("ok_ops_share", "share", Higher, 0.001),
];

/// Measured by the traced run. A value of 0 means "not on this workload's
/// path": `session.*` outside `sessions_churn`, or `core.call_us_p50.<v>` for
/// a variant `<v>` the workload's mix does not contain.
pub const PER_LAYER: &[MetricDef] = &[
    layer("crypto.seal_ns_per_byte", "ns/B", Lower),
    layer("crypto.open_ns_per_byte", "ns/B", Lower),
    layer("crypto.seal_segments_ns_per_byte", "ns/B", Lower),
    layer("crypto.seal_ns_per_call_16B", "ns", Lower),
    layer("crypto.open_ns_per_call_16B", "ns", Lower),
    layer("crypto.kdf_derive_ns", "ns", Lower),
    layer("rope.append_ns", "ns", Lower),
    layer("rope.slice_ns", "ns", Lower),
    layer("rope.into_vec_ns_per_byte", "ns/B", Lower),
    layer("payload.concat_ns", "ns", Lower),
    layer("payload.checksum_ns_per_byte", "ns/B", Lower),
    layer("payload.pattern_block_ns_per_byte", "ns/B", Lower),
    layer("sched.park_wake_rtt_ns", "ns", Lower),
    layer("sched.park_wake_cpu_ns", "ns", Lower),
    layer("sched.permit_handoff_ns", "ns", Lower),
    layer("sched.yield_ns", "ns", Lower),
    layer("shared.deposit_fetch_ns", "ns", Lower),
    layer("shared.barrier_ns", "ns", Lower),
    layer("world.sendrecv_intra_ns", "ns", Lower),
    layer("world.sendrecv_inter_ns", "ns", Lower),
    layer("world.sendrecv_inter_armed_ns", "ns", Lower),
    layer("world.frame_cpu_intra_ns", "ns", Lower),
    layer("world.frame_cpu_inter_ns", "ns", Lower),
    layer("world.frame_cpu_inter_armed_ns", "ns", Lower),
    layer("world.encrypt_ns_per_call", "ns", Lower),
    layer("world.decrypt_ns_per_call", "ns", Lower),
    layer("world.spawn_join_us", "us", Lower),
    layer("world.spawn_join_cpu_us", "us", Lower),
    layer("world.frames_per_op", "count", Lower),
    layer("world.wire_bytes_per_op", "B", Lower),
    layer("world.inter_bytes_per_op", "B", Lower),
    layer("world.enc_calls_per_op", "count", Lower),
    layer("world.enc_bytes_per_op", "B", Lower),
    layer("world.dec_calls_per_op", "count", Lower),
    layer("world.dec_bytes_per_op", "B", Lower),
    layer("world.memcpy_bytes_per_op", "B", Lower),
    layer("world.buf_allocs_per_op", "count", Lower),
    layer("world.nacks_per_op", "count", Lower),
    layer("world.retransmits_per_op", "count", Lower),
    layer("world.retransmit_bytes_per_op", "B", Lower),
    layer("world.dup_frames_dropped_per_op", "count", Lower),
    layer("world.faults_detected_per_op", "count", Lower),
    layer("world.useful_frame_ratio", "ratio", Higher),
    layer("world.rank_skew_us_p50", "us", Lower),
    layer("session.admit_ns", "ns", Lower),
    layer("session.admit_wait_us_p50", "us", Lower),
    layer("session.run_us_p50", "us", Lower),
    layer("session.shed_per_op", "count", Lower),
    layer("session.peak_live", "count", Higher),
    layer("core.call_us_p50.Naive", "us", Lower),
    layer("core.call_us_p50.O-RD", "us", Lower),
    layer("core.call_us_p50.C-RD", "us", Lower),
    layer("core.call_us_p50.HS1", "us", Lower),
    layer("core.call_us_p50.O-Bruck", "us", Lower),
    layer("core.call_us_p50.O-Ring", "us", Lower),
    layer("core.call_us_p50.C-Ring", "us", Lower),
    layer("core.call_us_p50.HS2", "us", Lower),
    layer("core.call_us_p50.bcast.binomial", "us", Lower),
    layer("core.call_us_p50.gather.binomial", "us", Lower),
    layer("core.call_us_p50.scatterv.binomial", "us", Lower),
    layer("core.call_us_p50.alltoall.pairwise", "us", Lower),
    layer("core.call_us_p50.allgatherv.HS2", "us", Lower),
    layer("core.plain_call_us_p50", "us", Lower),
    layer("core.enc_overhead_ratio", "ratio", Lower),
    layer("core.goodput_MBps", "MB/s", Higher),
    layer("core.op_latency_us_p99", "us", Lower),
    layer("core.run_spread", "ratio", Lower),
    layer("core.recovery_epochs_per_op", "count", Lower),
    layer("core.predict_mismatch_count", "count", Lower),
    layer("core.failed_ops_share", "share", Lower),
    layer("netsim.model_round_us", "us", Lower),
    layer("netsim.model_error_pct", "%", Lower),
    layer("netsim.fault_decide_ns", "ns", Lower),
    layer("attrib.crypto_share", "share", Lower),
    layer("attrib.copy_share", "share", Lower),
    layer("attrib.transport_share", "share", Lower),
    layer("attrib.sched_share", "share", Lower),
    layer("attrib.spawn_share", "share", Lower),
    layer("attrib.harness_share", "share", Lower),
    layer("attrib.unattributed_share", "share", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
