//! Calibrated cluster profiles.
//!
//! Two real clusters are modeled after the paper's Section V-A, calibrated
//! against the paper's own measurements (Figure 1 anchors: encryption
//! throughput saturates near 5,500 MB/s and ping-pong near 11,000 MB/s on
//! Noleland), plus idealized profiles for unit tests. Absolute latencies are
//! not expected to match the authors' hardware; the calibration targets the
//! *shape* of the evaluation (algorithm ranking, crossover message sizes,
//! overhead signs).

use crate::model::{CostModel, CryptoCost, LinkCost};
use serde::{Deserialize, Serialize};

/// A named cluster profile: a cost model plus descriptive metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterProfile {
    /// Human-readable name, e.g. `"noleland"`.
    pub name: String,
    /// The virtual-time cost model.
    pub model: CostModel,
}

/// The paper's local Noleland cluster: Intel Xeon Gold 6130 (32 cores/node),
/// 100 Gbps Mellanox InfiniBand, evaluated with p = 128 on N = 8 nodes.
///
/// Calibration anchors (paper Figure 1 and Table III):
/// - single-stream network bandwidth ≈ 11,000 MB/s, startup ≈ 2 µs;
/// - AES-GCM-128 throughput saturates ≈ 5,500 MB/s, per-op cost ≈ 0.25 µs;
/// - NIC aggregate 100 Gbps = 12,500 MB/s;
/// - intra-node (two-copy shared-memory channel) ≈ 2,000 MB/s per pair;
/// - plain memcpy ≈ 10,000 MB/s.
pub fn noleland() -> ClusterProfile {
    ClusterProfile {
        name: "noleland".to_string(),
        model: CostModel {
            intra: LinkCost {
                alpha_us: 0.3,
                bandwidth: 2_000.0,
            },
            inter: LinkCost {
                alpha_us: 2.0,
                bandwidth: 11_000.0,
            },
            nic_bandwidth: 12_500.0,
            copy_alpha_us: 0.2,
            copy_bandwidth: 10_000.0,
            strided_copy_factor: 4.0,
            barrier_us: 1.5,
            crypto: CryptoCost {
                enc_alpha_us: 0.25,
                enc_bandwidth: 5_500.0,
                dec_alpha_us: 0.25,
                dec_bandwidth: 5_500.0,
            },
        },
    }
}

/// PSC Bridges-2 Regular Memory: 2× AMD EPYC 7742 (128 cores/node),
/// 200 Gbps Mellanox ConnectX-6 HDR, evaluated with p = 1024 on N = 16.
///
/// Relative to Noleland: twice the NIC bandwidth, but many more (and
/// lower-clocked) cores per node sharing it, slightly cheaper memory channel
/// contention per pair, and similar per-core crypto throughput.
pub fn bridges2() -> ClusterProfile {
    ClusterProfile {
        name: "bridges2".to_string(),
        model: CostModel {
            intra: LinkCost {
                alpha_us: 0.4,
                bandwidth: 1_800.0,
            },
            inter: LinkCost {
                alpha_us: 2.2,
                bandwidth: 12_000.0,
            },
            nic_bandwidth: 25_000.0,
            copy_alpha_us: 0.2,
            copy_bandwidth: 9_000.0,
            strided_copy_factor: 4.0,
            barrier_us: 2.5,
            crypto: CryptoCost {
                enc_alpha_us: 0.3,
                enc_bandwidth: 4_800.0,
                dec_alpha_us: 0.3,
                dec_bandwidth: 4_800.0,
            },
        },
    }
}

/// Everything free: functional testing only.
pub fn free() -> ClusterProfile {
    ClusterProfile {
        name: "free".to_string(),
        model: CostModel::free(),
    }
}

/// Unit costs (`α = β = αe = βe = 1`, uniform links): metric validation.
pub fn unit() -> ClusterProfile {
    ClusterProfile {
        name: "unit".to_string(),
        model: CostModel::unit(),
    }
}

/// Looks a profile up by name (`noleland`, `bridges2`, `free`, `unit`).
pub fn by_name(name: &str) -> Option<ClusterProfile> {
    match name {
        "noleland" => Some(noleland()),
        "bridges2" => Some(bridges2()),
        "free" => Some(free()),
        "unit" => Some(unit()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noleland_anchors_match_figure_1() {
        let p = noleland();
        // Encryption throughput at 64 KiB should be near saturation
        // (~5,400+ MB/s) and ping-pong at 2 MiB near ~11,000 MB/s.
        let m = 64 * 1024;
        let enc_tput = m as f64 / p.model.crypto.enc_time(m);
        assert!(enc_tput > 5_000.0 && enc_tput < 5_500.0, "{enc_tput}");
        let big = 2 * 1024 * 1024;
        let pp_tput = big as f64 / p.model.inter.time(big);
        assert!(pp_tput > 10_500.0 && pp_tput <= 11_000.0, "{pp_tput}");
        // Encryption is cheaper than ping-pong for tiny messages
        // (0.25 µs vs 2 µs startup)...
        assert!(p.model.crypto.enc_time(1) < p.model.inter.time(1));
        // ...but slower per byte for large ones (the paper's 2x gap).
        assert!(p.model.crypto.enc_time(big) > p.model.inter.time(big));
    }

    #[test]
    fn nic_is_wider_than_one_stream() {
        for p in [noleland(), bridges2()] {
            assert!(p.model.nic_bandwidth > p.model.inter.bandwidth);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("noleland").is_some());
        assert!(by_name("bridges2").is_some());
        assert!(by_name("unit").is_some());
        assert!(by_name("free").is_some());
        assert!(by_name("nope").is_none());
    }
}
