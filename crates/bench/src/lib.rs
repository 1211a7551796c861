//! # eag-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (Section V)
//! on the virtual-time simulator, using the same algorithm implementations
//! the correctness tests exercise. One `eag paper <id>` per table/figure
//! ([`paper::print_experiment`]):
//!
//! | id | reproduces |
//! |---|---|
//! | `table1` | Table I (lower bounds) |
//! | `table2` | Table II (per-algorithm metrics, predicted vs measured) |
//! | `table3` | Table III (Noleland, p=128, N=8, block) |
//! | `table4` | Table IV (Noleland, cyclic) |
//! | `table5` | Table V (Noleland, p=91, N=7) |
//! | `table6` | Table VI (Bridges-2, p=1024, N=16) |
//! | `fig1`   | Figure 1 (encryption vs ping-pong throughput) |
//! | `fig5`–`fig8` | Figures 5–8 (latency curves) |
//! | `scaling`, `shape-check` | node-count scaling study; the paper's qualitative claims as PASS/FAIL |
//! | `all` | everything above but the last row, as Markdown |
//!
//! The wall-clock Criterion benches (`benches/`) measure the *real*
//! byte-moving, AES-encrypting runtime at laptop scale.

#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod calibrate;
pub mod figures;
pub mod fmt;
pub mod harness;
pub mod paper;
pub mod regress;
pub mod report;
pub mod sessions;
pub mod stats;
pub mod tables;

pub use harness::{simulate, SimConfig};
pub use report::BenchReport;
pub use stats::Stats;
