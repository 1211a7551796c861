//! # eag-runtime — an MPI-like substrate for encrypted collectives
//!
//! The paper's algorithms run inside an MPI library on a multi-node cluster.
//! This crate provides the equivalent substrate for a single machine:
//!
//! - each MPI **process** is a rank state machine with a
//!   [`world::ProcCtx`], driven by the event-driven [`sched`] scheduler
//!   (a fixed pool of run permits; a parked rank wakes only for what it
//!   waits on — mail or an event about its peer, the last departure —,
//!   for urgent mail, or on timer expiry);
//! - **nodes** are groups of ranks; rank→node placement follows the
//!   topology's block or cyclic mapping;
//! - point-to-point messaging is tag-matched over per-rank mailboxes;
//! - **intra-node shared memory** (the HS1/HS2 buffers) is a per-node
//!   deposit/fetch segment with a clock-synchronizing barrier;
//! - every action advances a per-process **virtual clock** priced by the
//!   cluster's cost model (Hockney α+βm links, αe+βe·m crypto, memcpy,
//!   NIC contention), so a run yields both a *functional* result and a
//!   *simulated* latency;
//! - payloads are real bytes (with real AES-128-GCM) or phantom lengths,
//!   chosen per run via [`world::DataMode`].
//!
//! See [`world::run`] for the entry point.
//!
//! ```
//! use eag_netsim::{profile, Mapping, Topology};
//! use eag_runtime::{run, DataMode, Item, Parcel, WorldSpec};
//!
//! // Two ranks on two nodes exchange one encrypted block.
//! let mut spec = WorldSpec::new(
//!     Topology::new(2, 2, Mapping::Block),
//!     profile::noleland(),
//!     DataMode::Real { seed: 1 },
//! );
//! spec.capture_wire = true; // record the wire, to read the tap below
//! let report = run(&spec, |ctx| {
//!     if ctx.rank() == 0 {
//!         let sealed = ctx.encrypt(ctx.my_block(64));
//!         ctx.send(1, 7, Parcel::one(Item::Sealed(sealed)));
//!         0
//!     } else {
//!         let parcel = ctx.recv(0, 7);
//!         let sealed = parcel.items[0].clone().into_sealed();
//!         let chunk = ctx.decrypt(sealed).unwrap_or_else(|e| e.raise());
//!         chunk.data.rope().len()
//!     }
//! });
//! assert_eq!(report.outputs[1], 64);
//! assert_eq!(report.wiretap.frame_count(), 1); // one inter-node frame
//! ```

#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod error;
pub mod metrics;
pub mod payload;
mod pool;
pub mod sched;
pub mod session;
pub mod shared;
pub mod trace;
mod transport;
pub mod world;

pub use eag_crypto::{Aead, CipherSuite};
pub use eag_netsim::{Crash, FaultKind, FaultPlan};
pub use error::{CollectiveError, FailureCause, Fallible};
pub use metrics::Metrics;
pub use payload::{
    pattern_block, pattern_block_matches, pattern_block_pair, pattern_block_pair_matches, Chunk,
    Data, Item, Parcel, Sealed,
};
pub use sched::RunGate;
pub use session::{AdmitError, RetryBudget, Session, SessionConfig, SessionManager, SessionStats};
pub use shared::{NodeShared, SlotKey};
pub use trace::{BusyBreakdown, Event, EventKind, Trace};
pub use world::{
    quiet_expected_panics, run, run_crashable, try_run, try_run_crashable, CrashReport, DataMode,
    ProcCtx, RetryPolicy, RunReport, WorldSpec,
};
