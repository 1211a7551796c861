//! The process world: runs one state machine per MPI-style rank on the
//! event-driven [`crate::sched::Scheduler`] and gives each a
//! [`ProcCtx`] with point-to-point messaging, shared memory, crypto, and a
//! virtual clock priced by the cost model.
//!
//! Each rank's state machine keeps its stack on a (cheap, almost always
//! parked) OS thread leased from the process-wide rank pool (`pool.rs`),
//! but whether it *runs* is a scheduler decision: at most
//! [`WorldSpec::workers`] ranks execute concurrently, messages land in
//! per-rank mailboxes, and every wait of a rank — a receive, a shared
//! segment fetch or barrier, the linger — runs through one loop
//! (`ProcCtx::wait`) that admits its mail and parks on what it waits for
//! until news of it, urgent mail (a NACK, a poison) or its earliest timer
//! wakes it. No rank ever spins a poll loop, which is what lets real-mode
//! worlds of p=256–1024 run on one machine.
//!
//! # Layers
//!
//! [`ProcCtx`] is glue. The reliability protocol lives in
//! `transport.rs` (a private, thread-free state machine: events in, actions
//! out); liveness lives in the scheduler's departure records
//! ([`crate::sched`]); everything the ranks of one world share lives in one
//! borrowed `World`. What is left here executes the transport's actions
//! against the scheduler and the virtual clock, books every occurrence
//! once through `ProcCtx::note` (folded into the rank's [`Metrics`],
//! retained on its [`Trace`] when tracing is on), prices each step with
//! the cost model, and owns the wall-clock timers (`Instant`s) the
//! transport never sees.
//!
//! # Reliable transport (chaos mode)
//!
//! When the spec's [`FaultPlan`] is enabled, every inter-node send is
//! framed for recovery by the transport (sequence numbers, checksum,
//! a retransmit log pruned by cumulative ACKs, NACK replay, dedup). Ranks
//! answer NACKs from whatever wait they are in, and ranks that finish
//! *linger* to answer late ones until every rank has finished.
//! Unrecoverable situations return a structured [`CollectiveError`]
//! instead of hanging: `Timeout` (retry budget or wall-clock watchdog
//! spent), `DeadPeer` (the awaited rank exited) or `AuthFailure` (at a
//! consumer). Recovery is invisible to the virtual-time cost model:
//! retransmissions advance no clock and are booked apart
//! (`Metrics::retransmit_bytes`), so the Table II traffic columns stay
//! fault-independent.
//!
//! # Crash tolerance
//!
//! A [`FaultPlan`] may also schedule seeded [`eag_netsim::Crash`] events,
//! each killing one rank's thread at a chosen send step of a chosen
//! membership epoch — recovery's own agreement rounds and re-runs
//! included. The runner records each death as a scheduler *departure*
//! (seen at once for a soft crash; suspected after
//! [`WorldSpec::suspect_after`] for a silent hard one), fails the rank's
//! node segment over to it, and keeps the world alive. A wait on a dead
//! peer or segment returns the recoverable `Crash { rank }` cause as a
//! value. Collective epochs are folded into every wire tag and
//! abandonments are serial-scoped, so an abandoned attempt never aliases
//! or bleeds into the agreement and re-runs after it (see
//! `Collective::recover` in `eag-core`). [`run_crashable`] and
//! [`try_run_crashable`] mark the crashed ranks' outputs.

use crate::error::{CollectiveError, FailureCause, Fallible};
use crate::metrics::Metrics;
use crate::payload::{Chunk, Data, Item, Parcel, Sealed};
use crate::pool;
use crate::sched::{Departure, RunGate, Scheduler, Watch};
use crate::shared::{Answer, NodeShared, Segment, SlotKey};
use crate::trace::{Event, EventKind, Trace};
use crate::transport::{Action, Frame, Message, Round, Transport, Wire};
use eag_crypto::{Aead, CipherSuite, Key, NonceSource, WIRE_OVERHEAD};
use eag_netsim::nic::NodeNic;
use eag_netsim::{
    ClusterProfile, CostModel, FaultKind, FaultPlan, FrameId, FrameKind, FrameRecord, LinkClass,
    Rank, Topology, Wiretap,
};
use std::ops::ControlFlow::{self, Break, Continue};
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether payloads carry real bytes or only lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Real bytes; real AES-128-GCM. Input blocks are the deterministic
    /// pattern `pattern_block(seed, rank, len)`.
    Real {
        /// Seed for the per-rank input patterns.
        seed: u64,
    },
    /// Length-only payloads; crypto and communication are priced but not
    /// performed. Needed for cluster-scale simulations.
    Phantom,
}

/// How a blocking receive retries before giving up (chaos mode).
///
/// Each receive gets `max_attempts` rounds; a round that elapses without the
/// expected frame arriving sends a NACK to the peer and starts the next
/// round with its timeout scaled by `backoff`. Exhausting the budget returns
/// a typed `Timeout` [`CollectiveError`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Wall-clock budget of the first receive round.
    pub attempt_timeout: Duration,
    /// Rounds before the receive fails with a typed timeout.
    pub max_attempts: u32,
    /// Multiplier applied to the round timeout after each round (≥ 1.0).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(50),
            max_attempts: 8,
            backoff: 1.6,
        }
    }
}

/// Configuration of one run.
#[derive(Clone)]
pub struct WorldSpec {
    /// Rank-to-node topology (p, N, mapping).
    pub topology: Topology,
    /// Cost model + metadata.
    pub profile: ClusterProfile,
    /// Real bytes or phantom lengths.
    pub mode: DataMode,
    /// The AEAD cipher suite every rank seals/opens under (real mode; in
    /// phantom mode it is priced but not performed). All suites share the
    /// 28-byte wire framing, so traffic metrics are suite-invariant.
    pub suite: CipherSuite,
    /// Serialize concurrent inter-node streams through each node's NIC.
    /// Disable for fully deterministic virtual times.
    pub nic_contention: bool,
    /// Record inter-node frames, bytes included, in the wiretap (needed by
    /// the security tests, costs memory). Off, the world records nothing
    /// and reading its tap panics.
    pub capture_wire: bool,
    /// Record per-rank virtual-time event traces.
    pub trace: bool,
    /// Deterministic fault injection. When the plan is
    /// [enabled](FaultPlan::enabled), the reliability framing described in
    /// the module docs is armed on every rank.
    pub faults: FaultPlan,
    /// Receive retry/backoff budget used while the fault plan is enabled.
    pub retry: RetryPolicy,
    /// Abort a blocking receive after this much *wall-clock* time with a
    /// typed `Timeout` error instead of hanging. `None` waits forever
    /// (dead peers are still detected and fail fast). Also bounds the
    /// post-collective linger of each rank in chaos mode.
    pub recv_timeout: Option<Duration>,
    /// Grace period of the failure detector for *hard* crashes, which
    /// depart silently: a peer whose departure record says it left without
    /// finishing, and that has stayed silent this long, is suspected
    /// crashed. Soft crashes are detected immediately from their departure
    /// record.
    /// Suspicion keys off the scheduler's departure records, never off
    /// wall-clock thread liveness, so a rank that is merely busy or
    /// descheduled (an oversubscribed world) cannot be falsely suspected
    /// however small the threshold. `None` (the default) disables
    /// suspicion.
    pub suspect_after: Option<Duration>,
    /// Width of the scheduler's worker gate: how many rank state machines
    /// may run concurrently. Parked and blocked ranks cost no worker.
    /// `Some(w)` builds a *private* gate of `w` permits for this world
    /// (cooperative-interleave tests rely on this). `None` (the default)
    /// shares the [process-global gate](RunGate::global), so concurrent
    /// worlds are together bounded by the host's parallelism instead of
    /// each bringing its own host-wide pool.
    pub workers: Option<usize>,
    /// Explicit run-permit gate, overriding both [`WorldSpec::workers`]
    /// and the process-global default. The session layer hands every
    /// tenant world the same `Arc` so total running ranks across all live
    /// sessions never exceed one configured width.
    pub gate: Option<Arc<RunGate>>,
    /// Physical per-node NICs shared with other worlds, one per logical
    /// node of this world (entries may alias the same physical NIC).
    /// `None` builds private NICs. Shared ledgers are scoped by
    /// [`WorldSpec::session_id`], so retiring one session's reservations
    /// leaves the others' intact.
    pub shared_nics: Option<Vec<Arc<NodeNic>>>,
    /// Owner id stamped on this world's NIC reservations (and surfaced in
    /// diagnostics). Distinct concurrent sessions sharing NICs must use
    /// distinct ids; the standalone default is 0.
    pub session_id: u64,
    /// Explicit AEAD key for real-mode sealing, e.g. a per-session key
    /// derived from a service master key. `None` (the standalone default)
    /// derives the key from the data seed as before.
    pub key: Option<Key>,
}

impl WorldSpec {
    /// A spec with contention on and wire capture off.
    pub fn new(topology: Topology, profile: ClusterProfile, mode: DataMode) -> Self {
        WorldSpec {
            topology,
            profile,
            mode,
            suite: CipherSuite::AesGcm128,
            nic_contention: true,
            capture_wire: false,
            trace: false,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            recv_timeout: Some(Duration::from_secs(300)),
            suspect_after: None,
            workers: None,
            gate: None,
            shared_nics: None,
            session_id: 0,
            key: None,
        }
    }
}

/// Wire tags carry the collective epoch in their upper bits so that frames
/// of an abandoned attempt can never be mistaken for frames of the
/// agreement round or the degraded re-run that reuse the same logical tag
/// bases in later epochs. Communicating ranks always agree on the epoch
/// (every collective bumps it once on every rank), so the mapping is
/// transparent to the algorithms.
const EPOCH_SHIFT: u32 = 40;
const LOGICAL_TAG_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

/// Strips the epoch bits back off a wire tag (for errors and traces).
fn logical_tag(wire_tag: u64) -> u64 {
    wire_tag & LOGICAL_TAG_MASK
}

/// Panic payload of an injected crash. Deliberately *not* a
/// [`CollectiveError`]: the runner intercepts it and records the death
/// instead of poisoning the world. Carries the hardness of the death so
/// the runner needs no fault-plan lookup (multi-crash schedules can kill
/// the same rank list in different ways).
struct RankCrash {
    hard: bool,
}

/// A wait step's answer to [`ProcCtx::wait`].
type Flow<R> = ControlFlow<R, Option<Instant>>;

/// Associated data binding a sealed chunk to its routing metadata. The
/// origins list and block length travel *outside* the ciphertext (receivers
/// need them to route and split), so an active adversary could otherwise
/// swap the metadata of two same-length ciphertexts and have blocks placed
/// under the wrong ranks without failing authentication. Deriving the AAD
/// from the metadata makes any such swap a GCM tag mismatch.
fn seal_aad_into(origins: &[Rank], block_len: usize, aad: &mut Vec<u8>) {
    aad.clear();
    aad.reserve(8 + 8 * origins.len() + 8);
    aad.extend_from_slice(&(origins.len() as u64).to_le_bytes());
    for &o in origins {
        aad.extend_from_slice(&(o as u64).to_le_bytes());
    }
    aad.extend_from_slice(&(block_len as u64).to_le_bytes());
}

/// Per-hop integrity check of a frame's sealed items: verifies each
/// authentication tag (without decrypting) against the AAD rebuilt from the
/// routing metadata. Catches adversarial tampering that recomputed the
/// transport checksum; the transport consults it only when the fault
/// plan's `adversarial_tamper` flag is set (it is a full AEAD pass over
/// every sealed byte at every hop). Plaintext items have no authenticator —
/// corruption of them under an adversarial tamper goes undetected here,
/// which is exactly the integrity gap the encrypted algorithms close.
fn hop_verify(aead: &dyn Aead, aad: &mut Vec<u8>, parcel: &Parcel) -> bool {
    parcel.items.iter().all(|item| {
        let Item::Sealed(s) = item else { return true };
        let Data::Real(wire) = &s.data else {
            return true;
        };
        seal_aad_into(&s.origins, s.block_len, aad);
        // Seals are built contiguous and forwarded whole, so the borrow
        // fast path always hits today; the materializing fallback keeps
        // this correct for any future fragmented frame.
        match wire.as_contiguous() {
            Some(flat) => eag_crypto::verify_message(aead, aad, flat).is_ok(),
            None => eag_crypto::verify_message(aead, aad, &wire.to_vec()).is_ok(),
        }
    })
}

/// Everything the ranks of one world share, built once by the runner and
/// borrowed by every [`ProcCtx`].
struct World<'s> {
    spec: &'s WorldSpec,
    /// Cached `spec.faults.enabled()`: reliability framing armed.
    chaos: bool,
    /// The data seed (0 in phantom mode).
    seed: u64,
    sched: Scheduler<Message>,
    aead: Box<dyn Aead>,
    nics: Vec<Arc<NodeNic>>,
    wiretap: Arc<Wiretap>,
    shared: Vec<Arc<NodeShared>>,
    /// Per-rank abandonment serials: the attempt serial the rank most
    /// recently abandoned (0 = never; set by the rank itself via
    /// [`ProcCtx::abort_attempt`]). Receives are attempt-scoped: a peer
    /// counts as aborted only if its abandoned serial reaches this rank's
    /// current serial, so stale abandonments from earlier membership
    /// epochs never leak into later attempts.
    aborted: Vec<AtomicU64>,
    /// Per-rank abort blame: the rank + 1 whose crash triggered that
    /// rank's most recent abandonment (0 = none). Lets a cascaded receive
    /// failure name the *new* crash of the current epoch.
    abort_blame: Vec<AtomicUsize>,
}

impl<'s> World<'s> {
    fn new(spec: &'s WorldSpec) -> Self {
        let p = spec.topology.p();
        let n_nodes = spec.topology.nodes();
        let model = &spec.profile.model;
        let seed = match spec.mode {
            DataMode::Real { seed } => seed,
            DataMode::Phantom => 0,
        };
        let key = spec.key.clone().unwrap_or_else(|| {
            let mut key_bytes = [0u8; 16];
            key_bytes[..8].copy_from_slice(&seed.to_le_bytes());
            key_bytes[8..].copy_from_slice(&(!seed).to_le_bytes());
            Key::from_bytes(key_bytes)
        });
        // Only the transport routes a listed Drop, Duplicate or Reorder.
        for (id, kind) in spec.faults.listed.iter().filter(|_| !spec.faults.enabled()) {
            let unrouted = matches!(kind, FaultKind::Tamper | FaultKind::Delay);
            assert!(unrouted, "listed {kind:?} of {id:?} needs an armed plan");
        }
        let nics = match &spec.shared_nics {
            Some(shared) => {
                assert_eq!(
                    shared.len(),
                    n_nodes,
                    "shared_nics must provide one NIC per logical node"
                );
                shared.clone()
            }
            None => (0..n_nodes)
                .map(|_| Arc::new(NodeNic::new(model.nic_bandwidth)))
                .collect(),
        };
        World {
            spec,
            chaos: spec.faults.enabled(),
            seed,
            sched: Scheduler::with_gate(p, resolve_gate(spec)),
            aead: spec.suite.aead_for_key(&key),
            nics,
            wiretap: Arc::new(if spec.capture_wire {
                Wiretap::new()
            } else {
                Wiretap::off()
            }),
            shared: (0..n_nodes)
                .map(|node| Arc::new(NodeShared::new(spec.topology.ranks_on_node(node).len())))
                .collect(),
            aborted: (0..p).map(|_| AtomicU64::new(0)).collect(),
            abort_blame: (0..p).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Mails `msg` to `dst`. A NACK (a peer waits on the answer) and a
    /// poison wake `dst` whatever it is parked on; other mail wakes it only
    /// if it is parked on the sender.
    fn mail(&self, dst: Rank, msg: Message) {
        let urgent = matches!(msg.wire, Wire::Nack { .. } | Wire::Poison);
        self.sched.send_from(dst, msg.src, urgent, msg);
    }

    /// Wakes the segment waiters of `rank`'s node to re-check the segment.
    fn segment_news(&self, rank: Rank) {
        let topo = &self.spec.topology;
        let siblings = (0..topo.procs_per_node()).map(|k| topo.peer_on_node(rank, k));
        self.sched.segment_event(topo.node_of(rank), siblings);
    }

    /// Records an inter-node frame in the wiretap, as it looks on the wire,
    /// if the world records its wire at all.
    fn capture(&self, src: Rank, dst: Rank, frame: &Frame) {
        if !self.spec.capture_wire {
            return;
        }
        let parcel = &frame.parcel;
        let real = |i: &Item| matches!(i, Item::Sealed(s) if s.data.is_real());
        let kind = if parcel.has_plain() {
            FrameKind::Plain
        } else if !parcel.items.is_empty() && parcel.items.iter().all(real) {
            FrameKind::Cipher
        } else {
            FrameKind::Phantom
        };
        // The tap records refcounted views of the payload ropes — an
        // observer, not a copier.
        let mut bytes = eag_rope::Rope::new();
        for item in &parcel.items {
            let data = match item {
                Item::Plain(c) => &c.data,
                Item::Sealed(s) => &s.data,
            };
            if let Data::Real(b) = data {
                bytes.append(b.clone());
            }
        }
        self.wiretap.capture(FrameRecord {
            src,
            dst,
            tag: frame.tag,
            seq: frame.seq,
            kind,
            len: parcel.wire_len(),
            bytes,
        });
    }
}

/// Everything a rank needs during a collective: identity, messaging, shared
/// memory, crypto, clock, and metrics.
pub struct ProcCtx<'w> {
    world: &'w World<'w>,
    rank: Rank,
    clock_us: f64,
    metrics: Metrics,
    /// Reused drain buffer for mailbox batches (allocation-free receives).
    inbox_scratch: Vec<Message>,
    /// The panicked rank whose poison this rank admitted.
    poisoned: Option<Rank>,
    /// Streams whose sender answered a NACK of this receive with `NackMiss`.
    missed: Vec<(Rank, u64)>,
    /// This rank's end of the reliable transport.
    transport: Transport,
    nonces: NonceSource,
    /// Reusable AAD buffer (the routing-metadata binding is rebuilt per
    /// chunk but never needs a fresh allocation).
    aad_scratch: Vec<u8>,
    epoch: u64,
    trace: Option<Trace>,
    /// Current collective phase, stamped into [`CollectiveError`]s.
    phase: &'static str,
    /// Count of this rank's peer-bound send steps since it entered the
    /// current membership epoch (the crash trigger).
    send_steps: u64,
    /// The membership epoch crash events arm against: 0 during the
    /// initial optimistic attempt, `e ≥ 1` during the e-th recovery
    /// iteration. Advanced by [`ProcCtx::enter_epoch`].
    membership_epoch: u64,
    /// Serial number of the current (or most recent) recoverable attempt,
    /// bumped by every [`ProcCtx::begin_attempt`]. Attempts are
    /// protocol-lockstep across ranks, so equal serials name the same
    /// attempt world-wide.
    attempt_serial: u64,
    /// Whether receives are currently scoped to a recoverable attempt.
    attempt_active: bool,
}

impl<'w> ProcCtx<'w> {
    /// A rank's context, its accounting window open at zero.
    fn new(world: &'w World<'w>, rank: Rank) -> Self {
        let spec = world.spec;
        let mut ctx = ProcCtx {
            world,
            rank,
            clock_us: 0.0,
            metrics: Metrics::default(),
            inbox_scratch: Vec::new(),
            poisoned: None,
            missed: Vec::new(),
            transport: Transport::new(rank, &spec.faults),
            // Fold the session id into the nonce seed so concurrent
            // sessions sharing a data seed never share nonce streams (a
            // no-op for the standalone session_id = 0).
            nonces: NonceSource::seeded(mix_rank_seed(
                world.seed ^ spec.session_id.wrapping_mul(0xD6E8_FEB8_6659_FD93),
                rank,
            )),
            aad_scratch: Vec::new(),
            epoch: 0,
            trace: spec.trace.then(Trace::new),
            phase: "collective",
            send_steps: 0,
            membership_epoch: 0,
            attempt_serial: 0,
            attempt_active: false,
        };
        ctx.reset_accounting();
        ctx
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Total number of processes p.
    pub fn p(&self) -> usize {
        self.world.spec.topology.p()
    }

    /// The topology in force.
    pub fn topology(&self) -> &Topology {
        &self.world.spec.topology
    }

    /// The node hosting this rank.
    pub fn node(&self) -> usize {
        self.world.spec.topology.node_of(self.rank)
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.world.spec.profile.model
    }

    /// Current virtual time in µs.
    pub fn clock_us(&self) -> f64 {
        self.clock_us
    }

    /// Metrics accumulated so far. The data-plane probe counters
    /// (`memcpy_bytes`, `buf_allocs`) are folded in from this rank thread's
    /// [`eag_rope::probe`] at read time, so they cover the same window as
    /// the rest of the metrics (since world start or the last
    /// [`ProcCtx::reset_accounting`]).
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics;
        let probe = eag_rope::probe::snapshot();
        m.memcpy_bytes += probe.copied_bytes;
        m.buf_allocs += probe.buffers;
        m
    }

    /// Resets clock, metrics and trace together (between repetitions
    /// inside one world), so the trace keeps covering exactly the window
    /// its metrics cover. Also opens a fresh rank's window: a leased
    /// thread still holds its previous world's probe counts.
    pub fn reset_accounting(&mut self) {
        self.clock_us = 0.0;
        self.metrics = Metrics::default();
        eag_rope::probe::reset();
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
        // A traced timeline opens with the suite marker so consumers can
        // attribute enc/dec intervals.
        let suite = self.world.spec.suite;
        self.note(0.0, EventKind::Suite { suite });
    }

    /// Names the collective phase now in force; structured failures met
    /// after this call carry the name (e.g. the algorithm being run).
    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    /// A structured failure of this rank, stamped with the phase in force.
    fn fail(&self, cause: FailureCause) -> CollectiveError {
        CollectiveError {
            rank: self.rank,
            phase: self.phase,
            cause,
        }
    }

    /// Starts a new collective epoch. Every collective invocation must call
    /// this once on every rank so that shared-memory slot keys (and any
    /// other epoch-scoped state) never collide with a previous invocation
    /// in the same world.
    pub fn begin_collective(&mut self) {
        self.epoch += 1;
    }

    /// A shared-memory slot key scoped to the current collective epoch.
    pub fn slot(&self, base: u64, idx: usize) -> SlotKey {
        debug_assert!(base < 1 << 32, "slot base must fit below the epoch bits");
        (base | (self.epoch << 32), idx)
    }

    /// Folds the current collective epoch into a logical tag, yielding the
    /// tag that actually travels on the wire (and keys every reliability
    /// structure). Frames of different epochs can never alias.
    fn wire_tag(&self, tag: u64) -> u64 {
        debug_assert!(tag <= LOGICAL_TAG_MASK, "tag collides with epoch bits");
        tag | (self.epoch << EPOCH_SHIFT)
    }

    /// Failure-detector verdict for the peer a receive is blocked on:
    /// `Some(rank)` when the peer can never satisfy the receive because
    /// `rank` crashed — the peer itself (a soft-crash departure, or a
    /// silent one past the grace period), or, for attempt-scoped receives
    /// from a peer that abandoned the attempt, the crash that triggered
    /// the abandonment.
    fn peer_dead(&self, src: Rank) -> Option<Rank> {
        let world = self.world;
        if src == self.rank {
            return None;
        }
        if world.sched.departure(src) == Some(Departure::SoftCrash) {
            return Some(src);
        }
        if self.attempt_active && world.aborted[src].load(Ordering::SeqCst) >= self.attempt_serial {
            // The peer abandoned this attempt (or a later one): it will
            // never send the awaited frame. Blame the crash that made it
            // abandon — published before the serial, so it is visible here.
            let blame = world.abort_blame[src].load(Ordering::SeqCst);
            return Some(if blame > 0 { blame - 1 } else { src });
        }
        // Hard crashes depart silently, but the scheduler still records the
        // departure (the runner observes every exit — the simulation
        // analogue of a node's OS seeing the process die). Suspicion means
        // "departed without finishing and stayed silent past the grace
        // period". A live rank that is merely busy or descheduled has not
        // departed and therefore can never be suspected, no matter how
        // oversubscribed the world.
        let suspected = self.suspect_deadline(src)?;
        (Instant::now() >= suspected).then_some(src)
    }

    /// The instant at which [`Self::peer_dead`] will start suspecting
    /// `src`, if a suspicion clock is running — a park deadline, so the
    /// detector fires on time instead of on the next unrelated wake.
    fn suspect_deadline(&self, src: Rank) -> Option<Instant> {
        let limit = self.world.spec.suspect_after?;
        let departed = self.world.sched.hard_departed_at(src)?;
        Some(departed + limit)
    }

    /// Kills this rank's thread per a fault-plan crash event. The unwind
    /// is intercepted by the runner, which records the death and keeps the
    /// world alive instead of poisoning it.
    fn die(&mut self, hard: bool) -> ! {
        self.note(self.clock_us, EventKind::Crash { rank: self.rank });
        panic_any(RankCrash { hard })
    }

    /// Enters membership epoch `epoch` and resets the per-epoch send-step
    /// counter, re-arming crash events scheduled for this epoch. Called by
    /// the recovery driver once per iteration (epoch 0 is the initial
    /// attempt and is entered implicitly at world start).
    pub fn enter_epoch(&mut self, epoch: u64) {
        self.membership_epoch = epoch;
        self.send_steps = 0;
    }

    /// The fault bound `f` of this world's crash schedule. The recovery
    /// engine sizes its agreement rounds from it.
    pub fn fault_bound(&self) -> usize {
        self.world.spec.faults.fault_bound()
    }

    /// Marks the start of a recoverable collective attempt (the initial
    /// optimistic run or a degraded re-run). While active, a receive
    /// blocked on a peer that abandoned its own attempt resolves through
    /// the failure detector (that peer will never send attempt frames
    /// again) instead of waiting out its deadline. Attempts are
    /// protocol-lockstep: every rank performs the same sequence of
    /// attempts, so the serial bumped here names the same attempt on
    /// every rank.
    pub fn begin_attempt(&mut self) {
        self.attempt_serial += 1;
        self.attempt_active = true;
    }

    /// Ends the recoverable attempt successfully (this rank produced the
    /// attempt's output and sent every frame the attempt asked of it).
    pub fn complete_attempt(&mut self) {
        self.attempt_active = false;
    }

    /// Abandons the recoverable attempt, blaming `blamed` (the crashed
    /// rank whose detection made this rank give up). Publishes the
    /// abandonment so peers still blocked on this rank inside their own
    /// attempts fail over to recovery promptly — the blame is published
    /// *before* the abandonment serial, so a cascading peer always sees
    /// which crash to pin its own failure on.
    pub fn abort_attempt(&mut self, blamed: Rank) {
        let world = self.world;
        self.attempt_active = false;
        world.abort_blame[self.rank].store(blamed + 1, Ordering::SeqCst);
        world.aborted[self.rank].store(self.attempt_serial, Ordering::SeqCst);
        // Peers parked on a receive from this rank must re-examine the
        // abort serial now, not on their next timer.
        world.sched.raise(self.rank);
        // Same-node siblings may be blocked in a barrier or on a shared
        // deposit this abandoned attempt will never serve. Fail our
        // node's segment over to the blamed crash so they cascade into
        // recovery too. (The segment stays dead afterwards: shared-memory
        // algorithms are unavailable post-crash, which the recovery
        // dispatcher respects by re-running over channels only.)
        world.shared[self.node()].crash_abort(blamed);
        world.segment_news(self.rank);
    }

    /// Records a completed shrink-and-recover on this rank (a `Recover`
    /// event). Called by the recovery driver (`Collective::recover` in
    /// `eag-core`) after the degraded re-run completes.
    pub fn note_recovery(&mut self, survivors: usize) {
        self.note(self.clock_us, EventKind::Recover { survivors });
    }

    /// Labels this rank's metrics with the collective operation being run
    /// (ids assigned by the collective layer in `eag-core`). Max-merged, so
    /// the label survives aggregation.
    pub fn note_operation(&mut self, id: u64) {
        self.metrics.label_operation(id);
    }

    /// Books a crash this rank's failure detector observed — through a
    /// departure record, an attempt abort, or the node-shared segment (a
    /// same-node sibling died while we were blocked on its deposit or
    /// barrier) — and returns it as the recoverable typed failure.
    fn note_crash(&mut self, dead: Rank) -> CollectiveError {
        self.note(self.clock_us, EventKind::Crash { rank: dead });
        self.fail(FailureCause::Crash { rank: dead })
    }

    /// Books one occurrence that started at `start_us` and ends now: folds
    /// it into the rank's metrics and, when tracing, retains it on the
    /// timeline. Markers pass `start_us == clock_us`.
    #[inline]
    fn note(&mut self, start_us: f64, kind: EventKind) {
        self.metrics.add(self.rank, &kind);
        if let Some(trace) = &mut self.trace {
            trace.push(Event {
                start_us,
                end_us: self.clock_us,
                kind,
            });
        }
    }

    /// This rank's own m-byte input block.
    pub fn my_block(&self, len: usize) -> Chunk {
        self.block_for(self.rank, len)
    }

    /// The m-byte input block of rank `origin`, synthesized locally. Only a
    /// rank that *owns* the data may call this (e.g. a scatter root, whose
    /// send buffer holds every destination's block); the pattern is the same
    /// one `origin` would generate with [`ProcCtx::my_block`], so the
    /// standard output verification applies unchanged.
    pub fn block_for(&self, origin: Rank, len: usize) -> Chunk {
        let data = match self.world.spec.mode {
            DataMode::Real { seed } => {
                Data::Real(crate::payload::pattern_block(seed, origin, len).into())
            }
            DataMode::Phantom => Data::Phantom(len),
        };
        Chunk::single(origin, data)
    }

    /// The *personalized* block this rank sends to `dst` in an all-to-all:
    /// pair-keyed pattern (`pattern_block_pair`), carried under this rank's
    /// origin so the receiver can identify the source from chunk metadata.
    pub fn my_block_for(&self, dst: Rank, len: usize) -> Chunk {
        let data = match self.world.spec.mode {
            DataMode::Real { seed } => {
                Data::Real(crate::payload::pattern_block_pair(seed, self.rank, dst, len).into())
            }
            DataMode::Phantom => Data::Phantom(len),
        };
        Chunk::single(self.rank, data)
    }

    // ----- point-to-point -------------------------------------------------

    /// Sends `parcel` to `dst` with `tag`. Advances this rank's clock by the
    /// transmission occupancy; the message arrives at
    /// `occupancy end + α(link)`. In chaos mode the frame additionally gets
    /// a stream sequence number, a transport checksum, and a retransmit-log
    /// entry. An inter-node frame may be perturbed per the world's
    /// [`FaultPlan`]: by its rates in chaos mode, by its list in any mode.
    pub fn send(&mut self, dst: Rank, tag: u64, parcel: Parcel) {
        let world = self.world;
        let (spec, model) = (world.spec, &world.spec.profile.model);
        let tag = self.wire_tag(tag);
        // `Some(hard)` when a crash event fires after this frame leaves.
        let mut crash_after_send = None;
        if dst != self.rank {
            // Crash events arm per membership epoch: the trigger is this
            // rank's send-step count *within* the epoch, so schedules can
            // kill ranks inside the recovery machinery itself (agreement
            // rounds and degraded re-runs run under epochs ≥ 1). Nothing
            // is suppressed — the epoch-versioned recovery loop restarts
            // agreement when a crash lands inside it.
            let hit = spec
                .faults
                .crashes
                .iter()
                .find(|c| {
                    c.rank == self.rank
                        && c.epoch == self.membership_epoch
                        && c.phase_step == self.send_steps
                })
                .copied();
            if let Some(c) = hit {
                if c.after_send {
                    crash_after_send = Some(c.hard);
                } else {
                    self.die(c.hard);
                }
            }
            self.send_steps += 1;
        }
        let t0 = self.clock_us;
        let (bytes, payload) = (parcel.wire_len(), parcel.payload_len());
        let link = spec.topology.link(self.rank, dst);
        let (done_us, mut arrive_us) = match link {
            LinkClass::SelfLoop => (self.clock_us, self.clock_us),
            LinkClass::Intra => {
                let done = self.clock_us + bytes as f64 / model.intra.bandwidth;
                (done, done + model.intra.alpha_us)
            }
            LinkClass::Inter => {
                let stream_done = self.clock_us + bytes as f64 / model.inter.bandwidth;
                let nic_done = if spec.nic_contention {
                    world.nics[self.node()].reserve_for(spec.session_id, self.clock_us, bytes)
                } else {
                    self.clock_us
                };
                let done = stream_done.max(nic_done);
                (done, done + model.inter.alpha_us)
            }
        };
        self.clock_us = done_us;
        // Faults are only ever injected on inter-node links, and a
        // `(src, dst)` pair's link class never changes — so intra-node and
        // self streams skip the framing (sequence numbers, checksum,
        // retransmit log) entirely, and their `checksum: None` frames
        // bypass the reliability admission at the receiver.
        let mut frame = if world.chaos && link == LinkClass::Inter {
            self.transport.frame(dst, tag, parcel)
        } else {
            Frame {
                tag,
                seq: 0,
                checksum: None,
                parcel,
            }
        };
        let mut fault = None;
        if link == LinkClass::Inter {
            if world.chaos {
                // Rate decisions hash the *logical* tag: a stream's fault
                // pattern at a given seed is a property of the collective's
                // structure, not of which epoch it runs in.
                fault = spec
                    .faults
                    .decide(self.rank, dst, logical_tag(tag), frame.seq, 0);
            }
            if !spec.faults.listed.is_empty() {
                let (src, seq) = (self.rank, frame.seq);
                let id = FrameId { src, dst, tag, seq };
                fault = spec.faults.listed_fault(id).or(fault);
            }
            self.transport
                .apply_fault(dst, &mut frame, &mut arrive_us, fault);
            world.capture(self.rank, dst, &frame);
        }
        let send = EventKind::Send {
            dst,
            bytes,
            payload,
            link,
        };
        self.note(t0, send);
        // An unframed world lists no routed fault, so `dispatch` sends its
        // frame straight to the mailbox.
        self.transport.dispatch(dst, frame, arrive_us, fault);
        self.execute();
        if let Some(hard) = crash_after_send {
            self.die(hard);
        }
    }

    /// Executes the actions the transport left behind its last event
    /// against the scheduler and the event stream.
    fn execute(&mut self) {
        if self.transport.out.is_empty() {
            return;
        }
        let mut out = std::mem::take(&mut self.transport.out);
        for action in out.drain(..) {
            match action {
                Action::Send(dst, msg) => self.world.mail(dst, msg),
                Action::Note(mut kind) => {
                    if let EventKind::Detect { tag, .. }
                    | EventKind::Nack { tag, .. }
                    | EventKind::Retransmit { tag, .. }
                    | EventKind::Duplicate { tag, .. } = &mut kind
                    {
                        *tag = logical_tag(*tag);
                    }
                    self.note(self.clock_us, kind);
                }
            }
        }
        self.transport.out = out;
    }

    /// [`Self::try_recv`] for hand-written rank bodies: a failure is raised
    /// ([`CollectiveError::raise`]), so the body fails loudly.
    pub fn recv(&mut self, src: Rank, tag: u64) -> Parcel {
        self.try_recv(src, tag).unwrap_or_else(|e| e.raise())
    }

    /// Receives the parcel tagged `tag` from `src`, blocking until it
    /// arrives. Advances the clock to the arrival time and counts one
    /// communication round. Duplicated and retransmitted frames are
    /// deduplicated before they reach the metrics, so the Table II traffic
    /// columns are fault-independent. A probe of a crashed rank returns a
    /// `Crash` failure, which survivor-agreement protocols carry on from.
    /// Each condition it waits for wakes its watch on `src`: mail from
    /// `src`, its departure or abort, or a timer (watchdog, retry round,
    /// suspicion) as the park deadline.
    pub fn try_recv(&mut self, src: Rank, tag: u64) -> Fallible<Parcel> {
        let (t0, tag, world) = (self.clock_us, self.wire_tag(tag), self.world);
        let retry = world.spec.retry;
        self.transport.flush_limbo(); // frames held back by a Reorder
        self.execute();
        self.missed.clear();
        let started = Instant::now();
        // The watchdog limit is an absolute deadline for this receive, not
        // a per-wake allowance: unrelated traffic draining through the
        // mailbox must not keep pushing the timeout out indefinitely.
        let watchdog = world.spec.recv_timeout.map(|limit| started + limit);
        let mut attempt = 0;
        let mut round_ends = world.chaos.then(|| started + retry.attempt_timeout);
        let timeout = |attempts| FailureCause::Timeout {
            src,
            tag: logical_tag(tag),
            waited: started.elapsed(),
            attempts,
        };
        let (parcel, arrive_us) = self.wait(Watch::Peer(src), |ctx| {
            if let Some(got) = ctx.transport.take_ready(src, tag) {
                return Break(Ok(got));
            }
            let now = Instant::now();
            if watchdog.is_some_and(|w| now >= w) {
                return Break(Err(ctx.fail(timeout(attempt))));
            }
            if round_ends.is_some_and(|a| now >= a) {
                attempt += 1;
                // Ask the peer to replay the stream from where we are.
                let round = ctx
                    .transport
                    .round_elapsed(src, tag, attempt, retry.max_attempts);
                if round == Round::Exhausted {
                    return Break(Err(ctx.fail(timeout(attempt))));
                }
                ctx.execute();
                let backoff = retry.backoff.powi(attempt as i32);
                round_ends = Some(now + retry.attempt_timeout.mul_f64(backoff));
            }
            let finished = world.sched.departure(src) == Some(Departure::Finished);
            let dead = ctx.peer_dead(src);
            if finished || dead.is_some() {
                // Everything a rank sends is pushed into our mailbox before
                // it departs, unwinds or publishes an attempt abort, so
                // after this drain an absent frame is *permanently* absent.
                ctx.drain();
                if let Some(got) = ctx.transport.take_ready(src, tag) {
                    return Break(Ok(got));
                }
                // A finished peer never sends again outside chaos mode; in
                // it, a lingering one may still replay — unless it answered
                // NackMiss, which proves it has nothing for this stream.
                if finished && (!world.chaos || ctx.missed.contains(&(src, tag))) {
                    let dead_peer = FailureCause::DeadPeer {
                        peer: src,
                        tag: logical_tag(tag),
                    };
                    return Break(Err(ctx.fail(dead_peer)));
                }
                // Failure detector: resolve now, not at the watchdog.
                if let Some(dead) = dead {
                    return Break(Err(ctx.note_crash(dead)));
                }
            }
            let timers = [watchdog, round_ends, ctx.suspect_deadline(src)];
            Continue(timers.into_iter().flatten().min())
        })?;
        self.clock_us = self.clock_us.max(arrive_us);
        let recv = EventKind::Recv {
            src,
            bytes: parcel.wire_len(),
            payload: parcel.payload_len(),
            link: self.topology().link(src, self.rank),
        };
        self.note(t0, recv);
        Ok(parcel)
    }

    /// The one wait of a rank: receives, shared-segment fetches and
    /// barriers, and the linger all block here. `step` answers
    /// `Break(outcome)` once the wait is over, else `Continue(deadline)`
    /// (`None`: no timer). A wait over at once touches neither the mailbox
    /// nor the gate. Otherwise the rank snapshots the event generation,
    /// drains its mailbox through the one [`Self::admit`] — so it answers
    /// NACKs whatever it waits on —, asks `step` again, and parks on
    /// `watch` with its permit handed back; news `watch` hears after the
    /// snapshot ends the park at once. Once poison is admitted, a wait that
    /// would park raises instead (the linger's step ends on it).
    fn wait<R>(&mut self, watch: Watch, mut step: impl FnMut(&mut Self) -> Flow<R>) -> R {
        if let Break(r) = step(self) {
            return r;
        }
        let sched = &self.world.sched;
        loop {
            let gen = sched.generation();
            self.drain();
            let deadline = match step(self) {
                Break(r) => return r,
                Continue(deadline) => deadline,
            };
            if let Some(src) = self.poisoned {
                panic!("rank {src} panicked; propagating");
            }
            sched.park_on(self.rank, watch, deadline, gen);
        }
    }

    /// Drains this rank's mailbox and admits every message.
    fn drain(&mut self) {
        let mut scratch = std::mem::take(&mut self.inbox_scratch);
        self.world.sched.drain_into(self.rank, &mut scratch);
        for msg in scratch.drain(..) {
            self.admit(msg);
        }
        self.inbox_scratch = scratch;
    }

    /// Processes one channel message, whatever the rank waits on: control
    /// frames act immediately, data frames go through the transport's
    /// admission, and a `NackMiss` (for the receive's dead-peer detection)
    /// and a poison (for [`Self::wait`]) are kept.
    fn admit(&mut self, msg: Message) {
        let src = msg.src;
        match msg.wire {
            Wire::Poison => _ = self.poisoned.get_or_insert(src),
            Wire::Nack { tag, seq } => self.service_nack(src, tag, seq),
            Wire::Ack { tag, seq } => self.transport.on_ack(src, tag, seq),
            Wire::NackMiss { tag } => self.missed.push((src, tag)),
            Wire::Data(frame) => {
                let (aead, aad) = (&*self.world.aead, &mut self.aad_scratch);
                let mut verify = |parcel: &Parcel| hop_verify(aead, aad, parcel);
                self.transport
                    .on_frame(src, frame, msg.arrive_us, &mut verify);
                self.execute();
            }
        }
    }

    /// Hands a NACK to the transport, which replays the logged frames (or
    /// answers `NackMiss`). Retransmissions are re-faulted per the plan, do
    /// not advance the virtual clock, and are accounted in
    /// `retransmit_bytes` rather than `bytes_sent`.
    fn service_nack(&mut self, from: Rank, tag: u64, from_seq: u64) {
        let (rank, faults) = (self.rank, &self.world.spec.faults);
        let finished = self.world.sched.departure(rank) == Some(Departure::Finished);
        let mut refault = |seq, attempt| faults.decide(rank, from, logical_tag(tag), seq, attempt);
        self.transport
            .on_nack(from, tag, from_seq, finished, self.clock_us, &mut refault);
        self.execute();
    }

    /// Post-collective service (chaos mode): a finished rank keeps
    /// answering NACKs (and pruning its log on ACKs) until every rank has
    /// departed, so a peer recovering a lost frame never finds its sender
    /// gone. Watches the departures; ends on the last one, on poison or at
    /// the spec's `recv_timeout` (`None` = unbounded).
    fn linger(&mut self) {
        let world = self.world;
        let deadline = world.spec.recv_timeout.map(|limit| Instant::now() + limit);
        self.wait(Watch::Departures, |ctx| {
            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
            if ctx.poisoned.is_some() || world.sched.departures() >= ctx.p() || timed_out {
                return Break(());
            }
            Continue(deadline)
        });
    }

    /// Send to `dst` and receive from `src` with the same tag — the classic
    /// exchange step of ring and recursive-doubling algorithms.
    pub fn sendrecv(&mut self, dst: Rank, src: Rank, tag: u64, parcel: Parcel) -> Fallible<Parcel> {
        self.send(dst, tag, parcel);
        self.try_recv(src, tag)
    }

    // ----- crypto ----------------------------------------------------------

    /// Encrypts a chunk: one encryption operation of `chunk.len()` bytes
    /// (`αe + βe·m` in the model).
    pub fn encrypt(&mut self, chunk: Chunk) -> Sealed {
        chunk.check();
        let t0 = self.clock_us;
        let plain_len = chunk.len();
        self.clock_us += self.model().crypto.enc_time(plain_len);
        self.note(t0, EventKind::Encrypt { bytes: plain_len });
        let Chunk {
            origins,
            block_len,
            data,
        } = chunk;
        let data = match data {
            Data::Real(bytes) => {
                seal_aad_into(&origins, block_len, &mut self.aad_scratch);
                // Gather the plaintext segments straight into the frame that
                // becomes the wire message: the frame buffer cannot be
                // recycled (the frozen rope keeps it alive for forwarding,
                // retransmit logs, and the receiver), so this gather is the
                // one unavoidable copy of the seal path.
                let mut wire = Vec::with_capacity(plain_len + WIRE_OVERHEAD);
                eag_crypto::seal_segments_into(
                    &*self.world.aead,
                    &mut self.nonces,
                    &self.aad_scratch,
                    bytes.segments(),
                    &mut wire,
                );
                eag_rope::probe::count_buffer();
                eag_rope::probe::count_copied(plain_len);
                Data::Real(wire.into())
            }
            Data::Phantom(_) => Data::Phantom(plain_len + WIRE_OVERHEAD),
        };
        Sealed {
            origins,
            block_len,
            plain_len,
            data,
        }
    }

    /// Decrypts a sealed chunk: one decryption operation of `plain_len`
    /// bytes (`αd + βd·m`). Returns a typed `AuthFailure`
    /// [`CollectiveError`] if authentication fails — an encrypted
    /// collective cannot proceed on forged data.
    pub fn decrypt(&mut self, sealed: Sealed) -> Fallible<Chunk> {
        let t0 = self.clock_us;
        self.clock_us += self.model().crypto.dec_time(sealed.plain_len);
        let bytes = sealed.plain_len;
        self.note(t0, EventKind::Decrypt { bytes });
        let Sealed {
            origins,
            block_len,
            plain_len,
            data,
        } = sealed;
        let data = match data {
            Data::Real(rope) => {
                seal_aad_into(&origins, block_len, &mut self.aad_scratch);
                // Thaw the frame: free when this rank is the frame's sole
                // owner (the common case — each seal reaches one decryptor),
                // a counted copy when a retransmit log or wiretap still
                // shares the buffer. GCM then decrypts in place and the
                // plaintext is re-frozen as a slice view — the `drain`
                // memmove of the old path is gone.
                let mut wire = rope.into_vec();
                let aead = &*self.world.aead;
                let pt = eag_crypto::open_frame_in_place(aead, &self.aad_scratch, &mut wire)
                    .map_err(|e| {
                        let detail = format!("{e:?}: forged, corrupted, or relabeled ciphertext");
                        self.fail(FailureCause::AuthFailure { detail })
                    })?;
                Data::Real(eag_rope::Rope::from(wire).slice(pt))
            }
            Data::Phantom(_) => Data::Phantom(plain_len),
        };
        let chunk = Chunk {
            origins,
            block_len,
            data,
        };
        chunk.check();
        Ok(chunk)
    }

    // ----- shared memory ----------------------------------------------------

    /// Charges one memory copy of `bytes` taking `time_us`.
    fn charge(&mut self, bytes: usize, time_us: f64) {
        let t0 = self.clock_us;
        self.clock_us += time_us;
        self.note(t0, EventKind::Copy { bytes });
    }

    /// Waits on this node's shared segment ([`Watch::Segment`]) until
    /// `ready` answers: a slot's item, a barrier's release clock. A
    /// same-node sibling's crash surfaces as the recoverable typed failure.
    fn on_segment<R>(&mut self, ready: impl Fn(&mut Segment) -> Answer<R>) -> Fallible<R> {
        let node = self.node();
        let seg = &*self.world.shared[node];
        let got = self.wait(Watch::Segment(node), |_| {
            seg.poll(&ready).transpose().map_or(Continue(None), Break)
        });
        got.map_err(|dead| self.note_crash(dead))
    }

    /// Deposits `item` into this node's shared segment, charging a memory
    /// copy. Visible to siblings once the copy completes.
    ///
    /// `consumers` declares how many [`Self::shared_fetch_free`] calls will
    /// read this slot; the slot self-removes after the last one, keeping
    /// the segment's map empty between collectives. A deposit with
    /// `consumers == 0` still charges the copy (the data is produced either
    /// way) but stores nothing.
    pub fn shared_deposit(&mut self, key: SlotKey, item: Item, consumers: usize) {
        self.charge_copy(item.wire_len());
        self.shared_deposit_free(key, item, consumers);
    }

    /// Deposits without charging a copy: models producing data directly
    /// into the shared buffer (e.g. decrypting into it). Consumer counting
    /// as in [`Self::shared_deposit`].
    pub fn shared_deposit_free(&mut self, key: SlotKey, item: Item, consumers: usize) {
        // Only a fetch that found its slot empty parks on the segment.
        if self.world.shared[self.node()].deposit(key, item, self.clock_us, consumers) {
            self.world.segment_news(self.rank);
        }
    }

    /// Fetches without charging a copy: models reading the shared buffer in
    /// place (e.g. encrypting or decrypting straight out of it); a caller
    /// that copies the data out adds [`Self::charge_copy`]. Waits (in
    /// virtual time) for the deposit to complete. The last (or sole)
    /// consumer holds the only `Arc` and gets the item back without
    /// copying — on HS1's decrypt path that removes an ℓ·m-byte memcpy per
    /// ciphertext; earlier consumers clone.
    pub fn shared_fetch_free(&mut self, key: SlotKey) -> Fallible<Item> {
        let (item, ready_us) = self.on_segment(|seg| seg.claim(key))?;
        self.clock_us = self.clock_us.max(ready_us);
        Ok(Arc::try_unwrap(item).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Number of live slots in this node's shared segment — 0 between
    /// correctly consumer-counted collectives (diagnostics/tests).
    pub fn shared_slots_len(&self) -> usize {
        self.world.shared[self.node()].len()
    }

    /// Charges a pure memory copy of `bytes` (e.g. user-buffer placement)
    /// without touching the shared segment.
    pub fn charge_copy(&mut self, bytes: usize) {
        self.charge(bytes, self.model().copy_time(bytes));
    }

    /// Charges a strided (cache-unfriendly) memory copy of `bytes` — the
    /// per-block rank-order rearrangement of HS1/HS2 under cyclic mapping.
    pub fn charge_strided_copy(&mut self, bytes: usize) {
        self.charge(bytes, self.model().strided_copy_time(bytes));
    }

    /// Node-local barrier synchronizing the virtual clocks of all processes
    /// on this node.
    pub fn node_barrier(&mut self) -> Fallible {
        let (t0, cost_us) = (self.clock_us, self.model().barrier_us);
        let arrival = self.world.shared[self.node()].arrive(t0, cost_us);
        if let Ok((_, true)) = arrival {
            // The last arrival released the barrier. It wakes the others
            // with its permit handed back: kept, each of them queues for
            // the gate (HS2 worlds on a width-2 gate ran 12–29 % slower).
            self.world.sched.exit();
            self.world.segment_news(self.rank);
            self.world.sched.enter();
        }
        self.clock_us = self.on_segment(|seg| {
            let (generation, _) = arrival?;
            seg.released(generation)
        })?;
        self.note(t0, EventKind::Barrier);
        Ok(())
    }

    /// Cooperative scheduling point at an algorithm step boundary: if other
    /// ranks are waiting for a run permit, hands this rank's permit over
    /// and re-acquires it; a no-op (one mutex probe) on an uncontended
    /// world. Purely a wall-clock fairness device — the virtual clock and
    /// the cost model are untouched.
    pub fn yield_now(&mut self) {
        self.world.sched.yield_now(self.rank);
    }
}

/// The result of one [`run`].
pub struct RunReport<T> {
    /// Per-rank closure outputs, indexed by rank.
    pub outputs: Vec<T>,
    /// Collective latency: max over ranks of the final virtual clock, µs.
    pub latency_us: f64,
    /// Final virtual clock per rank, µs.
    pub clocks_us: Vec<f64>,
    /// Metrics per rank.
    pub metrics: Vec<Metrics>,
    /// The inter-node traffic recorder.
    pub wiretap: Arc<Wiretap>,
    /// Per-rank virtual-time traces (empty unless `WorldSpec::trace`).
    pub traces: Vec<Trace>,
}

impl<T> RunReport<T> {
    /// Component-wise maximum of the per-rank metrics (the critical path
    /// values the paper's Table II reports).
    pub fn max_metrics(&self) -> Metrics {
        Metrics::component_max(&self.metrics)
    }
}

/// The result of one [`run_crashable`]: like [`RunReport`], but ranks killed
/// by an injected [`Crash`](eag_netsim::Crash) contribute `None` outputs
/// instead of aborting the world.
pub struct CrashReport<T> {
    /// Per-rank closure outputs, indexed by *original* rank. `None` for
    /// ranks that crashed mid-collective.
    pub outputs: Vec<Option<T>>,
    /// Ranks that crashed, in ascending order.
    pub crashed: Vec<Rank>,
    /// Collective latency: max over ranks of the final virtual clock, µs.
    pub latency_us: f64,
    /// Final virtual clock per rank, µs (a crashed rank's clock stops at
    /// its point of death).
    pub clocks_us: Vec<f64>,
    /// Metrics per rank.
    pub metrics: Vec<Metrics>,
    /// The inter-node traffic recorder.
    pub wiretap: Arc<Wiretap>,
    /// Per-rank virtual-time traces (empty unless `WorldSpec::trace`).
    pub traces: Vec<Trace>,
}

impl<T> CrashReport<T> {
    /// Component-wise maximum of the per-rank metrics.
    pub fn max_metrics(&self) -> Metrics {
        Metrics::component_max(&self.metrics)
    }

    /// The outputs of the ranks that survived, with their original ranks.
    pub fn survivor_outputs(&self) -> impl Iterator<Item = (Rank, &T)> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(rank, out)| out.as_ref().map(|o| (rank, o)))
    }
}

/// Derives the per-rank RNG seed from the world seed: splitmix64's
/// finalizer over the rank-salted seed. A full-avalanche bijection with no
/// identity point — the previous `seed ^ rank·FNV` left rank 0's nonce
/// stream seeded with the raw world seed, correlating it with every other
/// consumer of that seed.
fn mix_rank_seed(seed: u64, rank: Rank) -> u64 {
    eag_netsim::splitmix64(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run-permit gate for a spec: the explicit shared gate if one was
/// provided, else a private gate when the worker count is pinned
/// (cooperative tests), else the process-global gate — so concurrent
/// default-configured worlds contend for one host-wide pool instead of
/// each conjuring an `available_parallelism()`-wide pool of their own.
fn resolve_gate(spec: &WorldSpec) -> Arc<RunGate> {
    if let Some(gate) = &spec.gate {
        return Arc::clone(gate);
    }
    match spec.workers {
        Some(w) => Arc::new(RunGate::new(w)),
        None => RunGate::global(),
    }
}

/// What a rank thread leaves behind: its output (`None` if it crashed), final
/// clock, metrics and trace. Unwritten only if the thread exited silently.
type RankSlot<T> = Option<(Option<T>, f64, Metrics, Trace)>;

/// Runs `f` on every rank of the world — one rank state machine per rank on
/// the scheduler, at most [`WorldSpec::workers`] running at once — and
/// collects the report. Each rank's stack is an OS thread leased from one
/// process-wide pool of parked threads: the world leases p of them (spawning
/// only the shortfall, and panicking before any rank starts if it cannot),
/// and they go back to the pool when it ends.
///
/// A rank killed by an injected [`Crash`](eag_netsim::Crash) contributes a
/// `None` output (listed in [`CrashReport::crashed`]; its departure is
/// published to survivors instead of poisoning the world) and survivors'
/// outputs are returned as-is. Any other panic is broadcast as poison and
/// re-raised here once every rank has ended, preferring a structured
/// [`CollectiveError`] over secondary string panics, else the lowest rank's
/// panic.
pub fn run_crashable<T, F>(spec: &WorldSpec, f: F) -> CrashReport<T>
where
    T: Send,
    F: Fn(&mut ProcCtx) -> T + Sync,
{
    let p = spec.topology.p();
    let world = World::new(spec);
    let mut slots: Vec<RankSlot<T>> = (0..p).map(|_| None).collect();

    let (world, f) = (&world, &f);
    let bodies = slots
        .iter_mut()
        .enumerate()
        .map(|(rank, slot)| -> pool::Body<'_> {
            Box::new(move || {
                let mut ctx = ProcCtx::new(world, rank);
                // The state machine runs only while it holds a run
                // permit; every wait parks and hands it back.
                world.sched.enter();
                let out = match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                    Ok(out) => {
                        ctx.transport.flush_limbo();
                        ctx.execute();
                        // The departure event wakes the ranks parked on
                        // this one, which re-check its record; the last
                        // departure also ends every linger.
                        world.sched.depart(rank, Departure::Finished);
                        if world.chaos {
                            // Stay to answer late NACKs until every
                            // rank is done.
                            ctx.linger();
                        }
                        Some(out)
                    }
                    Err(payload) => match payload.downcast_ref::<RankCrash>() {
                        // An injected crash: the rank is dead, but the
                        // world survives. The payload says how the rank
                        // died — a schedule may kill several ranks,
                        // each its own way.
                        Some(crash) => {
                            // Even a hard crash is visible to the
                            // node's OS: wake same-node shared-segment
                            // waiters.
                            world.shared[ctx.node()].crash_abort(rank);
                            world.segment_news(rank);
                            // The departure record is all survivors
                            // get: a soft crash is seen at once, a hard
                            // one departs *silently* and is suspected
                            // only after the spec's grace period.
                            world.sched.depart(
                                rank,
                                if crash.hard {
                                    Departure::HardCrash
                                } else {
                                    Departure::SoftCrash
                                },
                            );
                            None
                        }
                        None => {
                            // Poison is urgent mail: it wakes every rank,
                            // whatever it waits on, before propagating.
                            for dst in 0..p {
                                world.mail(
                                    dst,
                                    Message {
                                        src: rank,
                                        arrive_us: 0.0,
                                        wire: Wire::Poison,
                                    },
                                );
                            }
                            world.sched.depart(rank, Departure::Poisoned);
                            world.sched.exit();
                            resume_unwind(payload);
                        }
                    },
                };
                let trace = ctx.trace.take().unwrap_or_default();
                *slot = Some((out, ctx.clock_us, ctx.metrics(), trace));
                world.sched.exit();
            })
        })
        .collect();
    // Prefer the structured root-cause error over the string panics of
    // ranks that merely got poisoned by it; else the lowest rank's panic.
    let mut panics: Vec<_> = pool::run_all(bodies).into_iter().flatten().collect();
    if !panics.is_empty() {
        let root = panics
            .iter()
            .position(|e| e.is::<CollectiveError>())
            .unwrap_or(0);
        resume_unwind(panics.swap_remove(root));
    }

    let mut report = CrashReport {
        outputs: Vec::with_capacity(p),
        crashed: Vec::new(),
        latency_us: 0.0,
        clocks_us: Vec::with_capacity(p),
        metrics: Vec::with_capacity(p),
        wiretap: Arc::clone(&world.wiretap),
        traces: Vec::with_capacity(p),
    };
    for (rank, slot) in slots.into_iter().enumerate() {
        // A rank that exited without writing its slot (and without raising
        // any panic the join loop would have re-thrown) is a typed failure,
        // not an opaque expect-panic.
        let (out, clock_us, metrics, trace) = slot.unwrap_or_else(|| {
            let (cause, phase) = (FailureCause::SilentExit { rank }, "collect");
            CollectiveError { rank, phase, cause }.raise()
        });
        if out.is_none() {
            report.crashed.push(rank);
        }
        report.outputs.push(out);
        report.latency_us = report.latency_us.max(clock_us);
        report.clocks_us.push(clock_us);
        report.metrics.push(metrics);
        report.traces.push(trace);
    }
    report
}

/// Like [`run_crashable`], for worlds that anticipate no crash: a rank
/// killed by an injected [`Crash`](eag_netsim::Crash) is the typed `Crash`
/// failure (raised as a panic here; [`try_run`] surfaces it as a value).
///
/// A panic on any rank is broadcast to all ranks (poisoning channels and
/// shared segments) so the world shuts down instead of deadlocking, and the
/// original panic is re-raised here; a structured [`CollectiveError`] is
/// preferred over secondary string panics when both occur.
pub fn run<T, F>(spec: &WorldSpec, f: F) -> RunReport<T>
where
    T: Send,
    F: Fn(&mut ProcCtx) -> T + Sync,
{
    let report = run_crashable(spec, f);
    let survived = |(rank, out): (Rank, Option<T>)| {
        out.unwrap_or_else(|| {
            let (cause, phase) = (FailureCause::Crash { rank }, "collect");
            CollectiveError { rank, phase, cause }.raise()
        })
    };
    let outputs = report.outputs.into_iter().enumerate().map(survived);
    RunReport {
        outputs: outputs.collect(),
        latency_us: report.latency_us,
        clocks_us: report.clocks_us,
        metrics: report.metrics,
        wiretap: report.wiretap,
        traces: report.traces,
    }
}

/// Surfaces a structured [`CollectiveError`] raised inside `run` (timeout,
/// dead peer, authentication failure, a survivor's failed recovery) as a
/// value. Plain string panics (algorithm bugs) still propagate as panics.
fn typed<R>(body: impl FnOnce() -> R) -> Result<R, CollectiveError> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| {
        match payload.downcast::<CollectiveError>() {
            Ok(e) => *e,
            Err(other) => resume_unwind(other),
        }
    })
}

/// Like [`run`], but returns a structured [`CollectiveError`] as a value
/// when a rank raised one (timeout, dead peer, authentication failure)
/// instead of panicking. Plain string panics (algorithm bugs) still
/// propagate as panics.
pub fn try_run<T, F>(spec: &WorldSpec, f: F) -> Result<RunReport<T>, CollectiveError>
where
    T: Send,
    F: Fn(&mut ProcCtx) -> T + Sync,
{
    typed(|| run(spec, f))
}

/// Installs a panic hook that suppresses the backtraces of *expected*
/// panics: the structured [`CollectiveError`]s and internal crash payloads
/// that the runners throw and catch as part of normal fault-tolerant
/// operation. Any other panic still reaches the previously installed hook.
///
/// Call once from harness binaries (chaos/crash sweeps) whose happy path
/// unwinds hundreds of rank threads — without it the logs drown in
/// backtraces of panics that were recovered by design.
pub fn quiet_expected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if payload.is::<CollectiveError>() || payload.is::<RankCrash>() {
            return;
        }
        prev(info);
    }));
}

/// Like [`run_crashable`], but returns a structured [`CollectiveError`] as
/// a value when a *survivor* raised one (e.g. its recovery path also failed)
/// instead of panicking. Plain string panics still propagate as panics.
pub fn try_run_crashable<T, F>(spec: &WorldSpec, f: F) -> Result<CrashReport<T>, CollectiveError>
where
    T: Send,
    F: Fn(&mut ProcCtx) -> T + Sync,
{
    typed(|| run_crashable(spec, f))
}

#[cfg(test)]
#[path = "world_tests.rs"]
mod tests;
