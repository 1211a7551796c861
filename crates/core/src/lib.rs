//! # eag-core — encrypted all-gather algorithms
//!
//! A reproduction of *"Efficient Algorithms for Encrypted All-gather
//! Operation"* (IPDPS 2021): all-gather collectives whose inter-node traffic
//! is AES-128-GCM encrypted, designed to meet the paper's lower bounds on
//! communication, encryption, and decryption cost.
//!
//! ## Algorithms
//!
//! Unencrypted baselines ([`unencrypted`]): Ring, rank-ordered Ring,
//! Recursive Doubling (any p), Bruck, Hierarchical, and the modeled MVAPICH
//! default — plus the unencrypted counterparts of the new algorithms
//! (in [`encrypted`], with encryption switched off).
//!
//! Encrypted algorithms ([`encrypted`]): Naive, O-Ring, O-RD, O-RD2,
//! C-Ring, C-RD, HS1, HS2 — the full Table II column set — and the
//! operation-generic extensions (broadcast, gather/scatter, all-to-all).
//!
//! ## Entry point
//!
//! [`Collective`] — an operation × algorithm pair — is the one way in:
//! `run` / `run_group` / `run_with` execute it, `recover` runs it under the
//! crash-recovery engine, `predict` and [`Operation::lower_bounds`] give
//! its closed-form metrics, `verify` checks its output.
//!
//! ```
//! use eag_core::{Algorithm, Collective};
//! use eag_netsim::{profile, Mapping, Topology};
//! use eag_runtime::{run, DataMode, WorldSpec};
//!
//! let spec = WorldSpec::new(
//!     Topology::new(8, 2, Mapping::Block),
//!     profile::noleland(),
//!     DataMode::Real { seed: 7 },
//! );
//! let report = run(&spec, |ctx| {
//!     let hs2 = Collective::Allgather(Algorithm::Hs2);
//!     let out = hs2.run(ctx, 1024);
//!     hs2.verify(ctx.rank(), &out, 7); // every rank got every block, bit-exact
//! });
//! assert!(report.latency_us > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod algorithm;
pub mod bounds;
pub mod collective;
pub mod encrypted;
pub mod group;
pub mod operation;
pub mod output;
pub mod unencrypted;

pub use algorithm::Algorithm;
pub use bounds::{predict_latency_us, recommend, BoundsError, MetricSet};
pub use collective::{recover_allgather, recover_collective};
pub use eag_runtime::CipherSuite;
pub use group::Group;
pub use operation::{varying_lens, AlltoallAlgo, BcastAlgo, Collective, Operation, RootedAlgo};
pub use output::{DegradedOutput, GatherOutput};
pub use unencrypted::MVAPICH_SWITCH_BYTES;

/// Tag-space layout: every phase of every algorithm draws its message tags
/// (and shared-memory slot keys) from a distinct base so that concurrent
/// phases can never alias.
pub mod tags {
    /// Main all-gather exchange.
    pub const PHASE_MAIN: u64 = 1 << 20;
    /// Intra-node gather (hierarchical baseline).
    pub const PHASE_GATHER: u64 = 2 << 20;
    /// Intra-node broadcast (hierarchical baseline).
    pub const PHASE_BCAST: u64 = 3 << 20;
    /// Concurrent sub-all-gathers.
    pub const PHASE_SUB: u64 = 4 << 20;
    /// Node-local all-gather (Concurrent phase 2).
    pub const PHASE_LOCAL: u64 = 5 << 20;
    /// Shared-memory slots: per-process input blocks.
    pub const SLOT_GATHER: u64 = 10 << 20;
    /// Shared-memory slots: own-node ciphertexts (HS2 step 1).
    pub const SLOT_CIPHER_IN: u64 = 11 << 20;
    /// Shared-memory slots: foreign ciphertexts awaiting decryption.
    pub const SLOT_CIPHER_FOREIGN: u64 = 12 << 20;
    /// Shared-memory slots: jointly decrypted plaintexts.
    pub const SLOT_PLAIN_OUT: u64 = 13 << 20;
    /// Survivor agreement on the failed-rank set (crash recovery; each
    /// membership epoch's instance adds a gather and a reply tag per
    /// coordinator round to the base).
    pub const PHASE_AGREE: u64 = 14 << 20;
    /// Scatter tree/linear exchange (scatter and scatterv).
    pub const PHASE_SCATTER: u64 = 15 << 20;
    /// All-to-all exchange (pairwise and Bruck variants).
    pub const PHASE_A2A: u64 = 16 << 20;
    /// Sealed length-exchange prologue of the irregular collectives.
    pub const PHASE_LEN_XCHG: u64 = 17 << 20;
}
