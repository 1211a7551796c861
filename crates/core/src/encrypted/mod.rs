//! Encrypted collective kernels: the all-gather algorithms of paper
//! Section IV, plus the operation-generic extensions (broadcast,
//! gather/scatter, all-to-all) built on the same opportunistic rule.

pub mod alltoall;
pub mod bcast;
pub mod concurrent;
pub mod hs;
pub mod hs_ml;
pub mod naive;
pub mod o_bruck;
pub mod o_rd;
pub mod o_ring;
pub mod rooted;

pub use alltoall::{alltoall_bruck, alltoall_pairwise};
pub use bcast::{bcast_binomial, bcast_pipelined, bcast_segments};
pub use concurrent::{concurrent, SubPattern};
pub use hs::{hs_over, HsVariant};
pub use hs_ml::{hs_ml, MlPattern};
pub use naive::naive_over;
pub use o_bruck::o_bruck_over;
pub use o_rd::{o_rd_over, OrdVariant};
pub use o_ring::o_ring_over;
pub use rooted::{
    exchange_lengths, gather_binomial, gather_linear, scatter_binomial, scatter_linear,
};
