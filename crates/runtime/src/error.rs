//! Structured collective failures.
//!
//! When a rank cannot make progress — a peer died, every retry of a receive
//! timed out, or an encrypted frame failed authentication at its consumer —
//! the runtime raises a [`CollectiveError`] instead of hanging or aborting
//! with an opaque string. The error is carried as a panic payload through the
//! world's poison protocol (so every rank unwinds) and surfaced intact by
//! [`crate::world::try_run`], which downcasts it back out.

use eag_netsim::Rank;
use std::time::Duration;

/// Why a collective could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// A blocking receive exhausted its deadline (and, in chaos mode, its
    /// retry budget) without the expected message arriving.
    Timeout {
        /// Rank the message was expected from.
        src: Rank,
        /// Tag the receive was matching.
        tag: u64,
        /// Wall-clock time spent waiting.
        waited: Duration,
        /// Recovery attempts (NACKs) issued before giving up.
        attempts: u32,
    },
    /// The peer a receive was blocked on has already exited the world and
    /// will never send the awaited message.
    DeadPeer {
        /// The rank that exited.
        peer: Rank,
        /// Tag the receive was matching.
        tag: u64,
    },
    /// GCM authentication failed at the consumer of a sealed chunk: forged,
    /// corrupted, or relabeled ciphertext that the transport could not (or,
    /// for the unrecovered-adversary injection, must not) recover.
    AuthFailure {
        /// Human-readable detail from the crypto layer.
        detail: String,
    },
    /// A peer's process died mid-collective (its scheduler departure
    /// record says it crashed — seen at once for a soft crash, after the
    /// `suspect_after` grace period for a hard, silent one). Unlike
    /// [`DeadPeer`] — a *clean* early exit — this failure is recoverable:
    /// survivors can agree on the failed set, shrink the group, and re-run
    /// degraded (see `Collective::recover` in `eag-core`).
    ///
    /// [`DeadPeer`]: FailureCause::DeadPeer
    Crash {
        /// The rank that died.
        rank: Rank,
    },
    /// A rank left the world without producing an output or raising any
    /// failure of its own — the runner found its result slot empty at
    /// collection time. This should be unreachable through the public
    /// runners; it replaces what used to be an opaque expect-panic.
    SilentExit {
        /// The rank whose output is missing.
        rank: Rank,
    },
    /// A session's retry budget ran dry: every allowed attempt of the
    /// collective failed, or the budget's hard deadline passed. Raised by
    /// the session layer (`Session::run_with_budget` in `eag-runtime`)
    /// so an exhausted tenant sees a typed error instead of a hang.
    BudgetExhausted {
        /// Collective attempts made before giving up.
        attempts: u32,
        /// Wall-clock time spent across all attempts and backoffs.
        elapsed: Duration,
    },
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Timeout {
                src,
                tag,
                waited,
                attempts,
            } => write!(
                f,
                "receive from rank {src} (tag {tag}) timed out after {waited:?} \
                 and {attempts} recovery attempt(s)"
            ),
            FailureCause::DeadPeer { peer, tag } => write!(
                f,
                "peer rank {peer} exited the world before sending the awaited \
                 message (tag {tag})"
            ),
            FailureCause::AuthFailure { detail } => {
                write!(f, "GCM authentication failed: {detail}")
            }
            FailureCause::Crash { rank } => {
                write!(f, "peer rank {rank} crashed mid-collective")
            }
            FailureCause::SilentExit { rank } => {
                write!(f, "rank {rank} exited without producing an output")
            }
            FailureCause::BudgetExhausted { attempts, elapsed } => write!(
                f,
                "session retry budget exhausted after {attempts} attempt(s) \
                 in {elapsed:?}"
            ),
        }
    }
}

/// A structured, rank-attributed collective failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveError {
    /// The rank that detected the failure.
    pub rank: Rank,
    /// The collective phase in force when it failed (set via
    /// [`crate::world::ProcCtx::set_phase`], e.g. the algorithm name).
    pub phase: &'static str,
    /// What went wrong.
    pub cause: FailureCause,
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "collective failed on rank {} during {}: {}",
            self.rank, self.phase, self.cause
        )
    }
}

impl std::error::Error for CollectiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CollectiveError {
            rank: 3,
            phase: "o-ring",
            cause: FailureCause::DeadPeer { peer: 7, tag: 12 },
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("o-ring"));
        assert!(s.contains("rank 7"));

        let t = CollectiveError {
            rank: 0,
            phase: "collective",
            cause: FailureCause::Timeout {
                src: 1,
                tag: 9,
                waited: Duration::from_millis(250),
                attempts: 4,
            },
        }
        .to_string();
        assert!(t.contains("tag 9"));
        assert!(t.contains("4 recovery attempt"));

        let c = CollectiveError {
            rank: 2,
            phase: "O-Ring",
            cause: FailureCause::Crash { rank: 5 },
        }
        .to_string();
        assert!(c.contains("rank 5"));
        assert!(c.contains("crashed"));

        let b = CollectiveError {
            rank: 0,
            phase: "session-retry",
            cause: FailureCause::BudgetExhausted {
                attempts: 3,
                elapsed: Duration::from_millis(120),
            },
        }
        .to_string();
        assert!(b.contains("3 attempt"));
        assert!(b.contains("budget exhausted"));
    }

    #[test]
    fn error_round_trips_through_a_panic_payload() {
        let e = CollectiveError {
            rank: 1,
            phase: "test",
            cause: FailureCause::AuthFailure {
                detail: "tag mismatch".into(),
            },
        };
        let payload = std::panic::catch_unwind(|| {
            std::panic::panic_any(e.clone());
        })
        .unwrap_err();
        let back = payload
            .downcast_ref::<CollectiveError>()
            .expect("payload downcasts");
        assert_eq!(*back, e);
    }
}
