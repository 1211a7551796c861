//! # eag-netsim — network & crypto cost simulation for encrypted collectives
//!
//! The paper analyzes encrypted all-gather in Hockney's model: a message of
//! `m` bytes costs `α + β·m`, encryption costs `αe + βe·m`, decryption costs
//! `αd + βd·m` (Section IV-A). This crate implements that model as a
//! *virtual-time* cost simulator:
//!
//! - [`model::CostModel`] prices communication (per link class), encryption,
//!   decryption, memory copies, and barriers;
//! - [`profile`] ships calibrated cluster profiles: [`profile::noleland`]
//!   (the paper's local cluster: 32-core nodes, 100 Gbps InfiniBand) and
//!   [`profile::bridges2`] (PSC Bridges-2: 128-core nodes, 200 Gbps), plus
//!   idealized profiles for deterministic unit tests;
//! - [`topology::Topology`] maps ranks to nodes under block or cyclic
//!   process mapping — the two mappings the paper evaluates;
//! - [`nic::NodeNic`] optionally serializes concurrent inter-node streams of
//!   one node through a shared NIC with bounded aggregate bandwidth (this is
//!   what makes the paper's Concurrent algorithms shine: one core cannot
//!   saturate the link, ℓ cores can);
//! - [`wiretap::Wiretap`] records every frame crossing an inter-node link so
//!   tests can prove plaintext never leaves a node unencrypted;
//! - [`tape::Tape`] records the choices of one model run, so the
//!   thread-free protocol models explore every run by stateless DFS.
//!
//! ```
//! use eag_netsim::{profile, LinkClass, Mapping, Topology};
//!
//! let topo = Topology::new(128, 8, Mapping::Block);
//! assert_eq!(topo.procs_per_node(), 16);
//! assert_eq!(topo.link(0, 15), LinkClass::Intra);
//! assert_eq!(topo.link(0, 16), LinkClass::Inter);
//!
//! // The Noleland model prices a 1 MB inter-node message.
//! let model = profile::noleland().model;
//! let t = model.comm_time(LinkClass::Inter, 1 << 20);
//! assert!(t > 90.0 && t < 110.0); // ~95 µs at ~11 GB/s + 2 µs startup
//! ```

#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod chaos;
pub mod model;
pub mod nic;
pub mod profile;
pub mod tape;
pub mod topology;
pub mod wiretap;

pub use chaos::{Crash, FaultKind, FaultPlan, FrameId};
pub use model::{CostModel, CryptoCost, LinkClass, LinkCost};
pub use profile::ClusterProfile;
pub use tape::Tape;
pub use topology::{Mapping, Rank, Topology};
pub use wiretap::{FrameKind, FrameRecord, Wiretap};

/// splitmix64: one Weyl step (`z + γ`, γ = 2⁶⁴/φ) then the finalizer, a
/// full-avalanche bijection on `u64`. The workspace's one copy: fault
/// decisions, per-rank seeds, the crash sweep's schedule stream and the
/// payload pattern (word `i` of a stream keyed by `k` is
/// `splitmix64(k + i·γ)`) all call it, so no second generator can drift
/// from the one that makes the inputs.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
