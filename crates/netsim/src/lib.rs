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
//!   tests can prove plaintext never leaves a node unencrypted.
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
pub mod topology;
pub mod wiretap;

pub use chaos::{Crash, FaultKind, FaultPlan};
pub use model::{CostModel, CryptoCost, LinkClass, LinkCost};
pub use profile::ClusterProfile;
pub use topology::{Mapping, Rank, Topology};
pub use wiretap::{FrameKind, FrameRecord, Wiretap};
