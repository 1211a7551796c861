//! Thread-free model of the survivor agreement: one [`Agreement`] per
//! rank, joined by per-destination FIFO mailboxes, explored exhaustively
//! for q ≤ 5 ranks and fault bounds f ≤ 3. No thread, clock, world or
//! cipher is involved — every action is executed and every event fed by
//! the fake glue below.
//!
//! A run chooses, off the tape: which ranks crashed before the first
//! instance, what each survivor knows of them on entry (every `E` with
//! `∅ ⊆ E ⊆ {ranks crashed before entry}`), whether each rank crashes
//! before each send a live rank could read, and how each stub re-run ends
//! (completed, or failed blaming a crashed member). Receives are
//! drain-then-fail: a set sent before its sender died is still delivered,
//! and `Dead` answers only a wait on a crashed sender with nothing left.
//!
//! Schedules: for q ≤ 3 the tape also picks which runnable rank moves next
//! whenever the running one blocks. Above that the lowest runnable rank
//! does. That loses little: two ranks' steps commute — a send only appends
//! to one FIFO, a receive only takes from its own, and `Dead` needs the
//! sender already crashed, which nothing undoes — so a schedule matters
//! only through the re-run stub, which may not complete once a member died
//! before reaching the re-run.

use super::*;
use crate::recovery::{agreement_stride, max_epochs};
use eag_netsim::Tape;
use std::collections::{BTreeMap, VecDeque};

/// A set in flight, tagged the way the glue tags it on the wire.
struct Frame {
    from: Rank,
    epoch: u64,
    tag: u64,
    members: BTreeSet<Rank>,
}

/// One rank: its machine plus what the checks need to know of it.
struct Node {
    machine: Agreement,
    /// The `Await` or `Rerun` the rank waits to have answered.
    blocked: Option<Action>,
    /// Frames sent to this rank, in send order.
    mailbox: VecDeque<Frame>,
    crashed: bool,
    returned: Option<(Vec<Rank>, u64)>,
    epoch: u64,
    /// Entered an instance that has not decided yet.
    deciding: bool,
    /// Rounds opened in the running instance.
    rounds: usize,
    /// The previous instance's decision.
    prev: Vec<Rank>,
    /// The epoch of the last re-run the rank reached.
    reran: u64,
    /// Everything the rank has been told failed: its next entry set.
    known: BTreeSet<Rank>,
}

/// One run of the model and what it observed.
struct Model {
    f: usize,
    /// Crashes a run may spend in all: `min(f, q − 1)`, so a rank survives.
    budget: usize,
    nodes: Vec<Node>,
    /// Ranks crashed before the first instance.
    entry_crashes: usize,
    crashes: usize,
    /// Each instance's decision (checked uniform as ranks reach it).
    decisions: BTreeMap<u64, Vec<Rank>>,
    /// Each rank's entry set of each instance it entered.
    entries: Vec<(u64, Rank, BTreeSet<Rank>)>,
    /// Sets sent per (epoch, round).
    frames: BTreeMap<(u64, u64), usize>,
}

impl Model {
    /// Crashes before the first instance, then each survivor's entry
    /// knowledge: every `E` with `∅ ⊆ E ⊆ {ranks crashed before entry}`.
    fn new(q: usize, f: usize, tape: &mut Tape) -> Model {
        let budget = f.min(q - 1);
        let mut dead = vec![false; q];
        let mut entry_crashes = 0;
        for d in dead.iter_mut() {
            if entry_crashes < budget && tape.pick(2) == 1 {
                *d = true;
                entry_crashes += 1;
            }
        }
        let nodes = (0..q)
            .map(|me| {
                let entry: BTreeSet<Rank> = if dead[me] {
                    BTreeSet::new()
                } else {
                    (0..q).filter(|&r| dead[r] && tape.pick(2) == 1).collect()
                };
                Node {
                    machine: Agreement::new(me, q, f, entry.clone()),
                    blocked: None,
                    mailbox: VecDeque::new(),
                    crashed: dead[me],
                    returned: None,
                    epoch: 0,
                    deciding: false,
                    rounds: 0,
                    prev: Vec::new(),
                    reran: 0,
                    known: entry,
                }
            })
            .collect();
        Model {
            f,
            budget,
            nodes,
            entry_crashes,
            crashes: entry_crashes,
            decisions: BTreeMap::new(),
            entries: Vec::new(),
            frames: BTreeMap::new(),
        }
    }

    fn q(&self) -> usize {
        self.nodes.len()
    }

    /// Whether rank `i` can take a step: alive, not returned, and not
    /// waiting on a set that is neither in its mailbox nor known lost
    /// (drain-then-fail: a frame sent before the sender died is still
    /// delivered).
    fn runnable(&self, i: Rank) -> bool {
        let n = &self.nodes[i];
        if n.crashed || n.returned.is_some() {
            return false;
        }
        match n.blocked {
            Some(Action::Await { from, tag }) => {
                self.nodes[from].crashed || n.find(from, tag).is_some()
            }
            _ => true,
        }
    }

    fn crash(&mut self, i: Rank) {
        assert!(self.crashes < self.budget);
        self.nodes[i].crashed = true;
        self.crashes += 1;
    }

    /// The stub re-run: it completes — unless a member died before it
    /// reached this re-run, so its block never comes — or fails blaming a
    /// member other than `me` that crashed, earlier or now, inside the
    /// re-run.
    fn rerun(&mut self, me: Rank, members: &[Rank], tape: &mut Tape) -> Event {
        let epoch = self.nodes[me].epoch;
        let absent = |n: &Node| n.crashed && n.reran < epoch;
        let completes = !members.iter().any(|&m| absent(&self.nodes[m]));
        let blamable: Vec<Rank> = members
            .iter()
            .copied()
            .filter(|&m| {
                let n = &self.nodes[m];
                m != me && (n.crashed || (n.returned.is_none() && self.crashes < self.budget))
            })
            .collect();
        let outcomes = blamable.len() + usize::from(completes);
        match tape.pick(outcomes) + usize::from(!completes) {
            0 => Event::Completed,
            k => {
                let blame = blamable[k - 1];
                if !self.nodes[blame].crashed {
                    self.crash(blame);
                }
                Event::Crashed { blame }
            }
        }
    }

    /// Records rank `i`'s decision of its running instance.
    fn decide(&mut self, i: Rank, decided: Vec<Rank>) {
        let n = &mut self.nodes[i];
        n.deciding = false;
        n.known.extend(&decided);
        n.prev = decided.clone();
        let epoch = n.epoch;
        let uniform = self
            .decisions
            .entry(epoch)
            .or_insert_with(|| decided.clone());
        assert_eq!(
            *uniform, decided,
            "rank {i} decided differently in epoch {epoch}"
        );
    }

    /// One step of rank `i`: answer what it waits on, or crash it, or
    /// execute its next action.
    fn step(&mut self, i: Rank, tape: &mut Tape) {
        let (q, f) = (self.q(), self.f);
        let stride = agreement_stride(q, f);
        if let Some(waited) = self.nodes[i].blocked.take() {
            let event = match waited {
                Action::Await { from, tag } => {
                    let n = &mut self.nodes[i];
                    match n.find(from, tag) {
                        Some(k) => {
                            let frame = n.mailbox.remove(k).expect("found");
                            Event::Set {
                                from,
                                members: frame.members,
                            }
                        }
                        None => Event::Dead(from),
                    }
                }
                Action::Rerun { members } => self.rerun(i, &members, tape),
                other => unreachable!("{other:?} waits for nothing"),
            };
            if let Event::Dead(r) | Event::Crashed { blame: r } = event {
                self.nodes[i].known.insert(r);
            }
            self.nodes[i].machine.on(event);
            return;
        }
        let action = self.nodes[i].machine.next();
        // A crash shows to peers only through the sends it prevents, so
        // the crash points that differ are the boundaries before each send
        // a live rank could read. The boundary after the last send differs
        // from not crashing only in which ranks count as survivors, and the
        // checks on fewer survivors are weaker.
        let readable = matches!(action, Action::Send { to, .. } if !self.nodes[to].crashed);
        if readable && self.crashes < self.budget && tape.pick(2) == 1 {
            self.crash(i);
            return;
        }
        match action {
            Action::Enter { epoch } => {
                assert!(epoch <= max_epochs(f), "instance {epoch} of f = {f}");
                let n = &mut self.nodes[i];
                assert_eq!(epoch, n.epoch + 1);
                assert!(!n.deciding);
                n.epoch = epoch;
                n.deciding = true;
                n.rounds = 0;
                self.entries.push((epoch, i, n.known.clone()));
            }
            Action::Round => {
                let n = &mut self.nodes[i];
                n.rounds += 1;
                let b = f - n.prev.len();
                assert!(
                    n.rounds <= b + 1,
                    "rank {i}: round {} with budget {b}",
                    n.rounds
                );
            }
            Action::Send { to, tag, members } => {
                assert!(tag < stride, "tag {tag} past stride {stride}");
                let epoch = self.nodes[i].epoch;
                *self.frames.entry((epoch, tag / 2)).or_default() += 1;
                self.nodes[to].mailbox.push_back(Frame {
                    from: i,
                    epoch,
                    tag,
                    members,
                });
            }
            Action::Await { tag, .. } => {
                assert!(tag < stride, "tag {tag} past stride {stride}");
                self.nodes[i].blocked = Some(action);
            }
            Action::Rerun { ref members } => {
                let decided = (0..q).filter(|r| !members.contains(r)).collect();
                self.decide(i, decided);
                self.nodes[i].reran = self.nodes[i].epoch;
                self.nodes[i].blocked = Some(action);
            }
            Action::Return { failed, epochs } => {
                if self.nodes[i].deciding {
                    self.decide(i, failed.clone());
                }
                self.nodes[i].returned = Some((failed, epochs));
            }
        }
    }

    /// The properties every run must end with.
    fn check(&self) {
        let q = self.q();
        let crashed: BTreeSet<Rank> = (0..q).filter(|&r| self.nodes[r].crashed).collect();
        // Termination: every rank that did not crash returned.
        let mut returns = Vec::new();
        for (r, n) in self.nodes.iter().enumerate() {
            match &n.returned {
                Some(ret) => returns.push(ret),
                None => assert!(n.crashed, "rank {r} is stuck in epoch {}", n.epoch),
            }
        }
        // Uniform return: the same failed set after the same re-runs.
        assert!(returns.windows(2).all(|w| w[0] == w[1]), "{returns:?}");
        // Validity: a decision names only crashed ranks and covers every
        // survivor's entry set.
        for (epoch, decided) in &self.decisions {
            assert!(decided.iter().all(|r| crashed.contains(r)), "epoch {epoch}");
        }
        for (epoch, r, entry) in &self.entries {
            if !crashed.contains(r) {
                let decided = &self.decisions[epoch];
                assert!(entry.iter().all(|x| decided.contains(x)), "epoch {epoch}");
            }
        }
        // With no death after entry, every round of a live coordinator
        // costs 2(q − 1) sets over the q live ranks.
        if self.crashes == self.entry_crashes {
            let live = q - self.entry_crashes;
            let mut prev: Vec<Rank> = Vec::new();
            for (&epoch, decided) in &self.decisions {
                let coordinators = (0..q).filter(|r| !prev.contains(r));
                let rounds = coordinators.take(self.f - prev.len() + 1);
                for (round, c) in rounds.enumerate() {
                    if !crashed.contains(&c) {
                        let sent = self.frames.get(&(epoch, round as u64)).copied();
                        let sent = sent.unwrap_or(0);
                        assert_eq!(sent, 2 * (live - 1), "epoch {epoch} round {round}");
                    }
                }
                prev = decided.clone();
            }
        }
    }
}

impl Node {
    /// Position of the set `from` sent on `tag` in this rank's epoch.
    fn find(&self, from: Rank, tag: u64) -> Option<usize> {
        let epoch = self.epoch;
        self.mailbox
            .iter()
            .position(|m| m.from == from && m.epoch == epoch && m.tag == tag)
    }
}

/// One run: entry crashes and knowledge, then ranks stepped until none
/// can move. A rank runs until it blocks; then, with `interleave`, the
/// tape picks which runnable rank goes next, else the lowest does.
/// Returns the instances the run needed.
fn run_model(q: usize, f: usize, interleave: bool, tape: &mut Tape) -> u64 {
    let mut model = Model::new(q, f, tape);
    let mut current = None;
    for _ in 0..100_000 {
        let next = match current.filter(|&c| model.runnable(c)) {
            Some(c) => c,
            None => {
                let ready: Vec<Rank> = (0..q).filter(|&r| model.runnable(r)).collect();
                match ready[..] {
                    [] => {
                        model.check();
                        return model.decisions.len() as u64;
                    }
                    _ if interleave => ready[tape.pick(ready.len())],
                    _ => ready[0],
                }
            }
        };
        current = Some(next);
        model.step(next, tape);
    }
    panic!("q = {q}, f = {f}: a run did not end within 100 000 steps");
}

/// Explores every tape of `run_model`; returns the number of runs and the
/// most instances any of them needed.
fn explore(q: usize, f: usize, interleave: bool) -> (u64, u64) {
    let mut tape = Tape::default();
    let (mut runs, mut worst) = (0u64, 0u64);
    loop {
        runs += 1;
        worst = worst.max(run_model(q, f, interleave, &mut tape));
        if !tape.advance() {
            return (runs, worst);
        }
    }
}

/// The recovery contract, explored rather than sampled. Every run must
/// end with: a uniform decision in every instance (ranks that crash after
/// deciding included) and one return at every survivor; each decision
/// naming only crashed ranks and covering every survivor's entry set; at
/// most `b + 1` rounds per instance; `2(q − 1)` sets per live
/// coordinator's round when no rank dies after entry; every tag below
/// `agreement_stride`; and at most `max_epochs(f) = f + 1` instances.
#[test]
fn every_crash_point_entry_knowledge_and_rerun_outcome_decides_uniformly() {
    let mut total = 0;
    for q in 2..=5 {
        for f in 0..=3 {
            let (runs, worst) = explore(q, f, q <= 3);
            // The deepest loop a q-rank world allows is reached: f
            // instances, or q when fewer than f crashes fit.
            assert_eq!(worst, f.min(q) as u64, "q = {q}, f = {f}");
            total += runs;
        }
    }
    // Guards the exploration itself against silently shrinking.
    assert!(total >= 150_000, "explored only {total} runs");
}
