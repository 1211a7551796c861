//! The Hockney-style cost model from Section IV-A of the paper.
//!
//! All times are in microseconds (µs); all sizes in bytes; bandwidths in
//! bytes per microsecond (1 B/µs = 1 MB/s).

use serde::{Deserialize, Serialize};

/// Which class of link a message traverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Between two processes on the same node (shared memory channel).
    Intra,
    /// Between processes on different nodes (the network; must be encrypted).
    Inter,
    /// A process sending to itself (modeled as free).
    SelfLoop,
}

/// Hockney parameters for one link class: `t(m) = alpha + m / bandwidth`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkCost {
    /// Startup cost α in µs.
    pub alpha_us: f64,
    /// Per-stream bandwidth in B/µs (MB/s).
    pub bandwidth: f64,
}

impl LinkCost {
    /// Transmission time of `bytes` over this link.
    #[inline]
    pub fn time(&self, bytes: usize) -> f64 {
        self.alpha_us + bytes as f64 / self.bandwidth
    }

    /// A free link (used for self-sends and idealized models).
    pub const FREE: LinkCost = LinkCost {
        alpha_us: 0.0,
        bandwidth: f64::INFINITY,
    };
}

/// Hockney parameters for encryption and decryption
/// (`αe + βe·m` / `αd + βd·m`, Section IV-A).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CryptoCost {
    /// Per-operation encryption startup αe in µs.
    pub enc_alpha_us: f64,
    /// Encryption bandwidth 1/βe in B/µs.
    pub enc_bandwidth: f64,
    /// Per-operation decryption startup αd in µs.
    pub dec_alpha_us: f64,
    /// Decryption bandwidth 1/βd in B/µs.
    pub dec_bandwidth: f64,
}

impl CryptoCost {
    /// Time to encrypt `bytes` of plaintext in one operation.
    #[inline]
    pub fn enc_time(&self, bytes: usize) -> f64 {
        self.enc_alpha_us + bytes as f64 / self.enc_bandwidth
    }

    /// Time to decrypt a ciphertext carrying `bytes` of plaintext.
    #[inline]
    pub fn dec_time(&self, bytes: usize) -> f64 {
        self.dec_alpha_us + bytes as f64 / self.dec_bandwidth
    }

    /// Free crypto (for unencrypted baselines in idealized tests).
    pub const FREE: CryptoCost = CryptoCost {
        enc_alpha_us: 0.0,
        enc_bandwidth: f64::INFINITY,
        dec_alpha_us: 0.0,
        dec_bandwidth: f64::INFINITY,
    };
}

/// The full virtual-time cost model for one cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Intra-node (shared-memory channel) point-to-point cost.
    pub intra: LinkCost,
    /// Inter-node (network) per-stream point-to-point cost.
    pub inter: LinkCost,
    /// Aggregate NIC bandwidth per node in B/µs; concurrent inter-node
    /// streams from one node share this. `f64::INFINITY` disables contention.
    pub nic_bandwidth: f64,
    /// Cost of a memory copy of `m` bytes: `copy_alpha + m / copy_bandwidth`
    /// (shared-memory buffer deposits / user-buffer copies in HS1/HS2).
    pub copy_alpha_us: f64,
    /// Memory-copy bandwidth in B/µs.
    pub copy_bandwidth: f64,
    /// Slowdown factor for strided (non-contiguous) copies, e.g. the
    /// per-block rank-order rearrangement HS1/HS2 need under cyclic mapping.
    /// 1.0 means strided copies run at full copy bandwidth.
    pub strided_copy_factor: f64,
    /// Cost of one node-local barrier in µs.
    pub barrier_us: f64,
    /// Encryption/decryption cost.
    pub crypto: CryptoCost,
}

impl CostModel {
    /// Communication time of `bytes` over `link` (per-stream, no contention).
    #[inline]
    pub fn comm_time(&self, link: LinkClass, bytes: usize) -> f64 {
        match link {
            LinkClass::Intra => self.intra.time(bytes),
            LinkClass::Inter => self.inter.time(bytes),
            LinkClass::SelfLoop => 0.0,
        }
    }

    /// Memory-copy time of `bytes`.
    #[inline]
    pub fn copy_time(&self, bytes: usize) -> f64 {
        self.copy_alpha_us + bytes as f64 / self.copy_bandwidth
    }

    /// Strided (cache-unfriendly) memory-copy time of `bytes`.
    #[inline]
    pub fn strided_copy_time(&self, bytes: usize) -> f64 {
        self.copy_alpha_us + bytes as f64 * self.strided_copy_factor / self.copy_bandwidth
    }

    /// A model in which everything is free (functional testing only).
    pub fn free() -> Self {
        CostModel {
            intra: LinkCost::FREE,
            inter: LinkCost::FREE,
            nic_bandwidth: f64::INFINITY,
            copy_alpha_us: 0.0,
            copy_bandwidth: f64::INFINITY,
            strided_copy_factor: 1.0,
            barrier_us: 0.0,
            crypto: CryptoCost::FREE,
        }
    }

    /// A "unit" model: every message costs `1 + m`, every crypto op
    /// `1 + m`, copies and barriers are free, no link-class asymmetry.
    /// Used by tests that validate round/byte metrics rather than shapes.
    pub fn unit() -> Self {
        let link = LinkCost {
            alpha_us: 1.0,
            bandwidth: 1.0,
        };
        CostModel {
            intra: link,
            inter: link,
            nic_bandwidth: f64::INFINITY,
            copy_alpha_us: 0.0,
            copy_bandwidth: f64::INFINITY,
            strided_copy_factor: 1.0,
            barrier_us: 0.0,
            crypto: CryptoCost {
                enc_alpha_us: 1.0,
                enc_bandwidth: 1.0,
                dec_alpha_us: 1.0,
                dec_bandwidth: 1.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_time_is_affine() {
        let link = LinkCost {
            alpha_us: 2.0,
            bandwidth: 1000.0,
        };
        assert_eq!(link.time(0), 2.0);
        assert_eq!(link.time(1000), 3.0);
        assert_eq!(link.time(4000), 6.0);
    }

    #[test]
    fn free_model_costs_nothing() {
        let m = CostModel::free();
        assert_eq!(m.comm_time(LinkClass::Inter, 1 << 20), 0.0);
        assert_eq!(m.comm_time(LinkClass::Intra, 1 << 20), 0.0);
        assert_eq!(m.crypto.enc_time(1 << 20), 0.0);
        assert_eq!(m.copy_time(1 << 20), 0.0);
    }

    #[test]
    fn self_loop_is_free_even_in_unit_model() {
        let m = CostModel::unit();
        assert_eq!(m.comm_time(LinkClass::SelfLoop, 123), 0.0);
        assert_eq!(m.comm_time(LinkClass::Inter, 123), 124.0);
    }

    #[test]
    fn crypto_cost_affine() {
        let c = CryptoCost {
            enc_alpha_us: 0.5,
            enc_bandwidth: 5500.0,
            dec_alpha_us: 0.25,
            dec_bandwidth: 5500.0,
        };
        assert!((c.enc_time(5500) - 1.5).abs() < 1e-12);
        assert!((c.dec_time(0) - 0.25).abs() < 1e-12);
    }
}
