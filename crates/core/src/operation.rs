//! The one seam into `eag-core`: a [`Collective`] value names an
//! *operation × algorithm-variant* pair and is the only way to run it —
//! over the world, a sub-communicator or a survivor group, with fixed or
//! explicit per-rank block lengths — to predict its Table-I metric set, to
//! recover it through the multi-crash engine, and to verify its output.
//!
//! Everything is one general form, [`Collective::run_with`]`(ctx, members,
//! lens)`: the world is the member list `0..p`, a fixed-length operation is
//! the uniform-`lens` case. [`Collective::run`], [`Collective::run_group`]
//! and [`Collective::recover`] are its specialisations for a nominal block
//! size `m`. The all-gathers dispatch to the single kernel in
//! [`crate::algorithm`]; broadcast, (irregular) gather/scatter and
//! all-to-all to their kernels in [`crate::encrypted`]; all share the walks
//! in [`crate::collective`], the [`GatherOutput`] container
//! (expected-slot semantics differ per operation), and
//! [`crate::recovery::recover_collective`].
//!
//! ## Rooted operations under recovery
//!
//! Broadcast, gather, and scatter are rooted at global rank 0. If the root
//! itself is in the agreed failed set, the operation's data is lost — every
//! survivor deterministically returns an *empty-expectation* output
//! (trivially complete, canonically identical) rather than inventing
//! blocks. If the root survives, the re-run executes over the shrunk
//! member list with the root still at member position 0 (member lists are
//! sorted ascending).

use crate::algorithm::{allgather_over, Algorithm};
use crate::encrypted::{
    alltoall_bruck, alltoall_pairwise, bcast_binomial, bcast_pipelined, exchange_lengths,
    gather_binomial, gather_linear, scatter_binomial, scatter_linear,
};
use crate::group::Group;
use crate::output::{DegradedOutput, GatherOutput};
use crate::recovery::recover_collective;
use crate::tags::{self, PHASE_GATHER, PHASE_SCATTER};
use eag_netsim::Rank;
use eag_runtime::{Fallible, ProcCtx};

/// A collective operation, in the MPI sense: what the data movement
/// *means*, independent of the algorithm that realizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Every rank contributes one block; every rank ends with all blocks.
    Allgather,
    /// All-gather with variable per-rank block lengths.
    Allgatherv,
    /// The root's block reaches every rank.
    Broadcast,
    /// Every rank's block reaches the root.
    Gather,
    /// Gather with variable per-rank block lengths (Träff's irregular
    /// case; lengths travel through a sealed exchange prologue).
    Gatherv,
    /// The root holds one distinct block per rank; each rank gets its own.
    Scatter,
    /// Scatter with variable per-rank block lengths.
    Scatterv,
    /// Complete personalized exchange: every rank holds one distinct
    /// block per *destination*.
    Alltoall,
}

impl Operation {
    /// Every operation, in id order.
    pub fn all() -> &'static [Operation] {
        use Operation::*;
        &[
            Allgather, Allgatherv, Broadcast, Gather, Scatter, Alltoall, Gatherv, Scatterv,
        ]
    }

    /// Stable numeric label for [`eag_runtime::Metrics::operation`].
    pub fn id(&self) -> u64 {
        use Operation::*;
        match self {
            Allgather => 1,
            Allgatherv => 2,
            Broadcast => 3,
            Gather => 4,
            Scatter => 5,
            Alltoall => 6,
            Gatherv => 7,
            Scatterv => 8,
        }
    }

    /// Short name, as used in bench schemas and `eag run --op`.
    pub fn name(&self) -> &'static str {
        use Operation::*;
        match self {
            Allgather => "allgather",
            Allgatherv => "allgatherv",
            Broadcast => "bcast",
            Gather => "gather",
            Gatherv => "gatherv",
            Scatter => "scatter",
            Scatterv => "scatterv",
            Alltoall => "alltoall",
        }
    }

    /// Looks an operation up by [`Operation::name`] (case-insensitive).
    pub fn by_name(name: &str) -> Option<Operation> {
        let lower = name.to_ascii_lowercase();
        Operation::all().iter().copied().find(|o| o.name() == lower)
    }

    /// True for operations whose output is replicated at every rank
    /// (identical across survivors after recovery); false for rooted or
    /// personalized operations, whose per-rank outputs legitimately
    /// differ.
    pub fn is_replicated(&self) -> bool {
        use Operation::*;
        matches!(self, Allgather | Allgatherv | Broadcast)
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Broadcast algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastAlgo {
    /// Chain pipeline: the block is cut into `min(m, 4)` segments that
    /// stream down the member chain, decryption overlapped with
    /// forwarding.
    Pipelined,
    /// MPICH-style binomial tree; the root seals once and sealed subtree
    /// copies are forwarded as-is.
    Binomial,
}

impl BcastAlgo {
    /// Every variant.
    pub fn all() -> &'static [BcastAlgo] {
        &[BcastAlgo::Pipelined, BcastAlgo::Binomial]
    }

    /// Variant name.
    pub fn name(&self) -> &'static str {
        match self {
            BcastAlgo::Pipelined => "pipelined",
            BcastAlgo::Binomial => "binomial",
        }
    }
}

/// Gather/scatter algorithm variants (shared by the uniform and the
/// irregular operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootedAlgo {
    /// Direct: every non-root exchanges with the root, one edge per block.
    Linear,
    /// Binomial tree: `⌈lg q⌉` rounds, sealed blocks transiting
    /// intermediaries as-is.
    Binomial,
}

impl RootedAlgo {
    /// Every variant.
    pub fn all() -> &'static [RootedAlgo] {
        &[RootedAlgo::Linear, RootedAlgo::Binomial]
    }

    /// Variant name.
    pub fn name(&self) -> &'static str {
        match self {
            RootedAlgo::Linear => "linear",
            RootedAlgo::Binomial => "binomial",
        }
    }
}

/// All-to-all algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlgo {
    /// `q−1` pairwise sendrecv rounds; each block travels one edge.
    Pairwise,
    /// Bruck-style `⌈lg q⌉`-round store-and-forward with ciphertext
    /// forwarded as-is through intermediaries.
    Bruck,
}

impl AlltoallAlgo {
    /// Every variant.
    pub fn all() -> &'static [AlltoallAlgo] {
        &[AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck]
    }

    /// Variant name.
    pub fn name(&self) -> &'static str {
        match self {
            AlltoallAlgo::Pairwise => "pairwise",
            AlltoallAlgo::Bruck => "bruck",
        }
    }
}

/// The canonical per-rank length vector used whenever a `v`-operation is
/// driven by a single nominal size `m` (bench cells, `eag run`): lengths
/// cycle through `m/4, m/2, 3m/4, m` by rank, never below one byte. Every
/// layer derives the same vector from `(p, m)`, so no lengths need to be
/// carried in schemas or schedules.
pub fn varying_lens(p: usize, m: usize) -> Vec<usize> {
    (0..p).map(|r| ((m * (r % 4 + 1)) / 4).max(1)).collect()
}

/// An operation together with the algorithm variant that realizes it —
/// the unit the runtime traces, the bench schedules, and the recovery
/// engine restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// All-gather via one of the 19 registered [`Algorithm`]s.
    Allgather(Algorithm),
    /// Variable-length all-gather via a varying-capable [`Algorithm`].
    Allgatherv(Algorithm),
    /// Encrypted broadcast.
    Broadcast(BcastAlgo),
    /// Encrypted gather to rank 0.
    Gather(RootedAlgo),
    /// Encrypted irregular gather to rank 0.
    Gatherv(RootedAlgo),
    /// Encrypted scatter from rank 0.
    Scatter(RootedAlgo),
    /// Encrypted irregular scatter from rank 0.
    Scatterv(RootedAlgo),
    /// Encrypted all-to-all.
    Alltoall(AlltoallAlgo),
}

impl Collective {
    /// The operation this collective realizes.
    pub fn operation(&self) -> Operation {
        match self {
            Collective::Allgather(_) => Operation::Allgather,
            Collective::Allgatherv(_) => Operation::Allgatherv,
            Collective::Broadcast(_) => Operation::Broadcast,
            Collective::Gather(_) => Operation::Gather,
            Collective::Gatherv(_) => Operation::Gatherv,
            Collective::Scatter(_) => Operation::Scatter,
            Collective::Scatterv(_) => Operation::Scatterv,
            Collective::Alltoall(_) => Operation::Alltoall,
        }
    }

    /// The algorithm-variant name (the part after the `/` in
    /// [`Collective::name`]).
    pub fn variant_name(&self) -> &'static str {
        match self {
            Collective::Allgather(a) | Collective::Allgatherv(a) => a.name(),
            Collective::Broadcast(b) => b.name(),
            Collective::Gather(r)
            | Collective::Gatherv(r)
            | Collective::Scatter(r)
            | Collective::Scatterv(r) => r.name(),
            Collective::Alltoall(a) => a.name(),
        }
    }

    /// Full display name, `operation/variant` — e.g. `bcast/binomial`,
    /// `allgather/O-Ring`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.operation().name(), self.variant_name())
    }

    /// Builds a collective from an operation name and a variant name
    /// (both case-insensitive). For the all-gather operations the variant
    /// is an [`Algorithm`] paper name.
    pub fn by_names(op: &str, variant: &str) -> Option<Collective> {
        let lower = variant.to_ascii_lowercase();
        Some(match Operation::by_name(op)? {
            Operation::Allgather => Collective::Allgather(Algorithm::by_name(variant)?),
            Operation::Allgatherv => {
                let a = Algorithm::by_name(variant)?;
                if !a.supports_varying() {
                    return None;
                }
                Collective::Allgatherv(a)
            }
            Operation::Broadcast => Collective::Broadcast(
                BcastAlgo::all()
                    .iter()
                    .copied()
                    .find(|b| b.name() == lower)?,
            ),
            Operation::Gather | Operation::Gatherv | Operation::Scatter | Operation::Scatterv => {
                let r = RootedAlgo::all()
                    .iter()
                    .copied()
                    .find(|r| r.name() == lower)?;
                match Operation::by_name(op)? {
                    Operation::Gather => Collective::Gather(r),
                    Operation::Gatherv => Collective::Gatherv(r),
                    Operation::Scatter => Collective::Scatter(r),
                    _ => Collective::Scatterv(r),
                }
            }
            Operation::Alltoall => Collective::Alltoall(
                AlltoallAlgo::all()
                    .iter()
                    .copied()
                    .find(|a| a.name() == lower)?,
            ),
        })
    }

    /// Every encrypted collective of the *new* operations (everything but
    /// the all-gathers), one entry per operation × variant.
    pub fn new_operations_all() -> Vec<Collective> {
        let mut v = Vec::new();
        for &b in BcastAlgo::all() {
            v.push(Collective::Broadcast(b));
        }
        for &r in RootedAlgo::all() {
            v.push(Collective::Gather(r));
            v.push(Collective::Scatter(r));
            v.push(Collective::Gatherv(r));
            v.push(Collective::Scatterv(r));
        }
        for &a in AlltoallAlgo::all() {
            v.push(Collective::Alltoall(a));
        }
        v
    }

    /// The per-rank lengths a nominal block size `m` stands for: uniform
    /// for the fixed-size operations, [`varying_lens`] for the `v` ones.
    fn nominal_lens(&self, p: usize, m: usize) -> Vec<usize> {
        match self.operation() {
            Operation::Allgatherv | Operation::Gatherv | Operation::Scatterv => varying_lens(p, m),
            _ => vec![m; p],
        }
    }

    /// Runs the collective over the full world with nominal block size
    /// `m` (`v`-operations derive per-rank lengths via [`varying_lens`]).
    pub fn run(&self, ctx: &mut ProcCtx, m: usize) -> GatherOutput {
        let p = ctx.p();
        self.run_with(ctx, Group::world(p).members(), &self.nominal_lens(p, m))
    }

    /// Runs the collective among `members` only — a sub-communicator, or
    /// the survivor group of a degraded re-run — with nominal block size
    /// `m`. See [`Collective::run_with`] for the member-list contract.
    pub fn run_group(&self, ctx: &mut ProcCtx, members: &[Rank], m: usize) -> GatherOutput {
        self.run_with(ctx, members, &self.nominal_lens(ctx.p(), m))
    }

    /// The general form: runs the collective among `members`, rank `r`
    /// contributing `lens[r]` bytes (`lens` is indexed by *global* rank and,
    /// as in MPI, identical at every caller).
    ///
    /// Every member must call with the identical `members` list (like an
    /// MPI sub-communicator; ascending for the rooted operations, whose
    /// root is global rank 0); non-members must not call. `get(r)` on the
    /// returned output is keyed by global rank, and exactly the slots the
    /// operation delivers to this rank are filled. A rooted operation whose
    /// root is not in `members` returns an empty-expectation output — the
    /// data died with the root.
    ///
    /// Capability is checked here, once: an all-gather needs
    /// [`Algorithm::supports`] for the world shape, over anything but the
    /// whole world [`Algorithm::supports_groups`], and for varying
    /// lengths (or as [`Collective::Allgatherv`])
    /// [`Algorithm::supports_varying`]; broadcast sends `lens[0]` (the
    /// root's block) and all-to-all needs uniform `lens`. The irregular
    /// gatherv/scatterv read only the caller's own `lens` entry — the
    /// others are *not* global knowledge there and travel through the
    /// sealed length-exchange prologue.
    ///
    /// A structured failure inside (timeout, dead peer, authentication
    /// failure) carries the algorithm name (all-gathers) or the operation
    /// name (everything else) as its phase; this shell raises it.
    pub fn run_with(&self, ctx: &mut ProcCtx, members: &[Rank], lens: &[usize]) -> GatherOutput {
        self.try_run_with(ctx, members, lens)
            .unwrap_or_else(|e| e.raise())
    }

    /// [`Collective::run_with`], its failure returned as a value.
    pub(crate) fn try_run_with(
        &self,
        ctx: &mut ProcCtx,
        members: &[Rank],
        lens: &[usize],
    ) -> Fallible<GatherOutput> {
        let p = ctx.p();
        let me = ctx.rank();
        assert_eq!(lens.len(), p, "need one length per rank");
        assert!(
            members.contains(&me),
            "calling rank {me} is not in the group"
        );
        ctx.note_operation(self.operation().id());
        ctx.begin_collective();
        ctx.set_phase(match self {
            Collective::Allgather(a) | Collective::Allgatherv(a) => a.name(),
            _ => self.operation().name(),
        });
        let rooted = !matches!(
            self.operation(),
            Operation::Allgather | Operation::Allgatherv | Operation::Alltoall
        );
        if rooted && members.first() != Some(&0) {
            return Ok(GatherOutput::new(lens.to_vec(), &[]));
        }
        let out = match self {
            Collective::Allgather(a) | Collective::Allgatherv(a) => {
                assert!(
                    a.supports(p, ctx.topology().nodes()),
                    "{a} does not support this world shape"
                );
                assert!(
                    a.supports_groups() || members.iter().copied().eq(0..p),
                    "{a} does not support sub-communicator groups"
                );
                let varying = matches!(self, Collective::Allgatherv(_))
                    || members.iter().any(|&r| lens[r] != lens[me]);
                assert!(
                    !varying || a.supports_varying(),
                    "{a} does not support variable block lengths"
                );
                let mut out = GatherOutput::new(lens.to_vec(), members);
                allgather_over(ctx, *a, members, &mut out)?;
                out
            }
            Collective::Broadcast(BcastAlgo::Pipelined) => {
                bcast_pipelined(ctx, members, lens[0], tags::PHASE_BCAST)?
            }
            Collective::Broadcast(BcastAlgo::Binomial) => {
                bcast_binomial(ctx, members, lens[0], tags::PHASE_BCAST)?
            }
            Collective::Gather(r)
            | Collective::Gatherv(r)
            | Collective::Scatter(r)
            | Collective::Scatterv(r) => {
                // The irregular cases: members learn each other's lengths
                // through the sealed exchange prologue (re-run over the
                // survivor group after a shrink).
                let lens = match self {
                    Collective::Gatherv(_) | Collective::Scatterv(_) => {
                        exchange_lengths(ctx, members, lens[me], tags::PHASE_LEN_XCHG)?
                    }
                    _ => lens.to_vec(),
                };
                let gather = matches!(self, Collective::Gather(_) | Collective::Gatherv(_));
                let kernel = match (gather, r) {
                    (true, RootedAlgo::Linear) => gather_linear,
                    (true, RootedAlgo::Binomial) => gather_binomial,
                    (false, RootedAlgo::Linear) => scatter_linear,
                    (false, RootedAlgo::Binomial) => scatter_binomial,
                };
                let tag = if gather { PHASE_GATHER } else { PHASE_SCATTER };
                kernel(ctx, members, &lens, tag)?
            }
            Collective::Alltoall(variant) => {
                assert!(
                    lens.iter().all(|&l| l == lens[me]),
                    "all-to-all needs uniform block lengths"
                );
                let kernel = match variant {
                    AlltoallAlgo::Pairwise => alltoall_pairwise,
                    AlltoallAlgo::Bruck => alltoall_bruck,
                };
                kernel(ctx, members, lens[me], tags::PHASE_A2A)?
            }
        };
        assert!(out.is_complete(), "{self} left the output incomplete");
        Ok(out)
    }

    /// Runs the collective under the multi-crash recovery engine
    /// ([`recover_collective`]): attempt over the world, agree on
    /// failures, re-run over the survivor group — with the original
    /// per-rank lengths, so a degraded `v`-output is byte-identical to a
    /// from-scratch group run. An all-gather whose algorithm cannot run
    /// over a shrunk group re-runs as [`Algorithm::recovery_algorithm`].
    /// A failure the engine cannot recover from is raised here.
    pub fn recover(&self, ctx: &mut ProcCtx, m: usize) -> DegradedOutput {
        let lens = self.nominal_lens(ctx.p(), m);
        let rerun = match *self {
            Collective::Allgather(a) => Collective::Allgather(a.recovery_algorithm()),
            Collective::Allgatherv(a) => Collective::Allgatherv(a.recovery_algorithm()),
            other => other,
        };
        recover_collective(
            ctx,
            |ctx| self.try_run_with(ctx, Group::world(ctx.p()).members(), &lens),
            |ctx, members| rerun.try_run_with(ctx, members, &lens),
        )
        .unwrap_or_else(|e| e.raise())
    }

    /// Verifies `out` against the deterministic payload pattern for
    /// `seed`, from the point of view of rank `me`, **panicking on any
    /// mismatch** (harnesses detect corruption by catching the unwind).
    /// All-to-all outputs hold pair-keyed blocks; everything else holds
    /// origin-keyed blocks.
    pub fn verify(&self, me: Rank, out: &GatherOutput, seed: u64) {
        match self {
            Collective::Alltoall(_) => out.verify_pairwise(seed, me),
            _ => out.verify(seed),
        }
    }
}

impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, Metrics, WorldSpec};

    const SEED: u64 = 0x0905;

    fn world(p: usize, nodes: usize) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, Mapping::Block),
            profile::free(),
            DataMode::Real { seed: SEED },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn names_roundtrip() {
        for op in Operation::all() {
            assert_eq!(Operation::by_name(op.name()), Some(*op));
        }
        let mut all = vec![
            Collective::Allgather(Algorithm::ORing),
            Collective::Allgatherv(Algorithm::OBruck),
        ];
        all.extend(Collective::new_operations_all());
        for c in all {
            let joined = c.name();
            let (op, variant) = joined.split_once('/').unwrap();
            assert_eq!(Collective::by_names(op, variant), Some(c), "{joined}");
        }
        assert_eq!(Collective::by_names("bcast", "nope"), None);
        assert_eq!(Collective::by_names("allgatherv", "HS1"), None); // not varying-capable
        assert_eq!(Collective::by_names("nope", "binomial"), None);
    }

    #[test]
    fn operation_ids_are_distinct() {
        let mut ids: Vec<u64> = Operation::all().iter().map(Operation::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Operation::all().len());
    }

    #[test]
    fn every_new_collective_runs_and_labels_metrics() {
        let (p, m) = (8usize, 24usize);
        for c in Collective::new_operations_all() {
            let report = run(&world(p, 2), move |ctx| {
                let out = c.run(ctx, m);
                c.verify(ctx.rank(), &out, SEED);
            });
            assert!(
                !report.wiretap.saw_plaintext_frame(),
                "{c} leaked plaintext"
            );
            let max = Metrics::component_max(&report.metrics);
            assert_eq!(max.operation, c.operation().id(), "{c} mislabeled");
        }
    }

    #[test]
    fn predictions_match_measured_and_dominate_lower_bounds() {
        // The Table-I-style check for the new operations: wherever a
        // closed form exists, it must equal the measured component maxima
        // and weakly dominate the per-operation lower bounds.
        let (p, nodes, m) = (16usize, 4usize, 32usize);
        for c in Collective::new_operations_all() {
            let Some(pred) = c.predict(p, nodes, m) else {
                continue;
            };
            let report = run(&world(p, nodes), move |ctx| {
                let out = c.run(ctx, m);
                c.verify(ctx.rank(), &out, SEED);
            });
            let max = Metrics::component_max(&report.metrics);
            assert_eq!(max.comm_rounds, pred.rc, "{c} rc");
            assert_eq!(max.payload_sent.max(max.payload_recv), pred.sc, "{c} sc");
            assert_eq!(max.enc_rounds, pred.re, "{c} re");
            assert_eq!(max.enc_bytes, pred.se, "{c} se");
            assert_eq!(max.dec_rounds, pred.rd, "{c} rd");
            assert_eq!(max.dec_bytes, pred.sd, "{c} sd");

            let lb = c.operation().lower_bounds(p, nodes, m).unwrap();
            assert!(pred.rc >= lb.rc, "{c} rc < bound");
            assert!(pred.sc >= lb.sc, "{c} sc < bound");
            assert!(pred.re >= lb.re, "{c} re < bound");
            assert!(pred.se >= lb.se, "{c} se < bound");
            assert!(pred.rd >= lb.rd, "{c} rd < bound");
            assert!(pred.sd >= lb.sd, "{c} sd < bound");
        }
    }

    #[test]
    fn varying_lens_is_deterministic_and_positive() {
        let lens = varying_lens(8, 64);
        assert_eq!(lens, vec![16, 32, 48, 64, 16, 32, 48, 64]);
        assert!(varying_lens(5, 1).iter().all(|&l| l >= 1));
    }
}
