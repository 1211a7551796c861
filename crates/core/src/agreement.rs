//! The survivor agreement of crash recovery, as an I/O-free state
//! machine.
//!
//! One [`Agreement`] per rank owns the whole recovery protocol — the
//! rotating-coordinator consensus on the failed set and the epoch loop
//! that decides or re-runs — and nothing else: it never seals, sends,
//! receives, runs a collective or reads a failure detector. The glue in
//! [`crate::recovery`] executes the **actions** [`Agreement::next`] asks
//! for and feeds the **events** they produce back through
//! [`Agreement::on`]:
//!
//! | action (machine → glue)  | executed as                                      | answered by               |
//! |--------------------------|--------------------------------------------------|---------------------------|
//! | [`Action::Enter`]        | `enter_epoch`: one agreement instance            | —                         |
//! | [`Action::Round`]        | `begin_collective` + `set_phase`, every round    | —                         |
//! | [`Action::Send`]         | seal the set as a bitmap, send it                | —                         |
//! | [`Action::Await`]        | receive and open a bitmap                        | [`Event::Set`] or [`Event::Dead`] |
//! | [`Action::Rerun`]        | re-run the collective over the survivors         | [`Event::Completed`] or [`Event::Crashed`] |
//! | [`Action::Return`]       | return the latest completed output               | —                         |
//!
//! Tags in [`Action::Send`] and [`Action::Await`] are instance-relative
//! (below `2·min(f + 1, p)`); the glue places them in the epoch's tag
//! window.
//!
//! **The instance.** Rotating-coordinator consensus for a perfect failure
//! detector (Chandra & Toueg), deciding on **entry values only**. It visits
//! coordinators c₁…c_{b+1}: the lowest `b + 1` ranks outside `prev`, the
//! previous instance's (uniform) decision, where `b = f − |prev|` is the
//! crash budget still unspent — so every survivor derives the same list.
//! In round r every live rank sends its estimate (initially its entry-time
//! failed set) to c_r; c_r unions what arrives and sends the union back to
//! each sender; each rank adopts it. A rank that already knows c_r is dead
//! skips the round, and one that finds c_r dead while waiting keeps its
//! estimate. That is `2(q − 1)` frames per round over `q` live ranks.
//! Crashes detected *during* the instance never enter an estimate: they
//! join the next instance's entry set.
//!
//! **The epoch loop.** An instance's decision either equals the failed set
//! the latest completed attempt covers — return that output — or every
//! survivor re-runs over the decided set's complement and a further
//! instance confirms the re-run. A completed attempt covering `f` ranks is
//! returned without one: no crash is left to happen.
//!
//! Uniform decision, validity (the decided set names only crashed ranks
//! and covers every survivor's entry set), at most `b + 1` rounds per
//! instance, `2(q − 1)` frames per round when no rank dies, and
//! termination within `f + 1` instances are explored rather than argued:
//! the model in the tests drives q ≤ 5 machines through every crash
//! point, entry knowledge and re-run outcome.

use crate::group::Group;
use eag_netsim::Rank;
use std::collections::{BTreeSet, VecDeque};

/// What the glue tells the machine, answering its last action.
#[derive(Debug)]
pub(crate) enum Event {
    /// The set `from` sent on the awaited tag arrived.
    Set { from: Rank, members: BTreeSet<Rank> },
    /// The awaited set will never arrive: the rank crashed.
    Dead(Rank),
    /// The re-run completed at this rank.
    Completed,
    /// The re-run was abandoned: this rank detected the crash of `blame`.
    Crashed { blame: Rank },
}

/// What the machine asks the glue to do.
#[derive(Debug)]
pub(crate) enum Action {
    /// Open membership epoch `epoch`: its agreement instance starts.
    Enter { epoch: u64 },
    /// Open one coordinator round, skipped or not.
    Round,
    /// Send `members` to `to` on instance tag `tag`.
    Send {
        to: Rank,
        tag: u64,
        members: BTreeSet<Rank>,
    },
    /// Receive the set `from` sends on instance tag `tag`.
    Await { from: Rank, tag: u64 },
    /// Re-run the collective over `members`.
    Rerun { members: Vec<Rank> },
    /// Return the latest completed output: it covers `failed`, after
    /// `epochs` re-runs.
    Return { failed: Vec<Rank>, epochs: u64 },
}

/// Where the machine stands once its queued actions are out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum At {
    /// Between instances: return, or open the next instance.
    #[default]
    Decide,
    /// About to open round `round`.
    Open,
    /// Coordinator: await the next unknown rank from this one on.
    Gather(Rank),
    /// Coordinator: waiting for the estimate of this rank.
    Gathering(Rank),
    /// Waiting for this coordinator's union.
    Adopting(Rank),
    /// Every round done: decide.
    Close,
    /// Waiting for the re-run's outcome.
    Rerunning,
    /// Returned.
    Done,
}

/// One rank's recovery protocol.
#[derive(Default)]
pub(crate) struct Agreement {
    me: Rank,
    p: usize,
    f: usize,
    /// Everything this rank knows failed: the next instance's entry set.
    failed: BTreeSet<Rank>,
    /// The previous instance's decision, ascending.
    decided: Vec<Rank>,
    /// The failed set the latest completed attempt covers (`None` while no
    /// usable output exists).
    covered: Option<Vec<Rank>>,
    epoch: u64,
    coordinators: Vec<Rank>,
    round: usize,
    /// Entry knowledge, changed only by adopting a coordinator's union.
    estimate: BTreeSet<Rank>,
    /// Mid-instance detections: the next instance's problem.
    fresh: BTreeSet<Rank>,
    /// Senders a coordinator heard from this round.
    heard: Vec<Rank>,
    /// Actions decided but not yet handed out, oldest first.
    out: VecDeque<Action>,
    at: At,
}

impl Agreement {
    /// The machine of rank `me` of `p` under fault bound `f`, after the
    /// optimistic attempt: `entry` names what that attempt detected failed
    /// (empty exactly when it completed).
    pub(crate) fn new(me: Rank, p: usize, f: usize, entry: BTreeSet<Rank>) -> Self {
        Agreement {
            me,
            p,
            f,
            covered: entry.is_empty().then(Vec::new),
            failed: entry,
            ..Agreement::default()
        }
    }

    /// Known dead in the running instance.
    fn known(&self, r: Rank) -> bool {
        self.estimate.contains(&r) || self.fresh.contains(&r)
    }

    /// Instance tag of this round's gather (the reply is one above).
    fn gather_tag(&self) -> u64 {
        2 * self.round as u64
    }

    /// The next action. After [`Action::Await`] or [`Action::Rerun`] the
    /// glue must answer with [`Agreement::on`] first; nothing follows
    /// [`Action::Return`].
    pub(crate) fn next(&mut self) -> Action {
        loop {
            if let Some(action) = self.out.pop_front() {
                return action;
            }
            match self.at {
                At::Decide => {
                    if let Some(done) = self.covered.take_if(|c| c.len() == self.f) {
                        self.at = At::Done;
                        return Action::Return {
                            failed: done,
                            epochs: self.epoch,
                        };
                    }
                    self.epoch += 1;
                    let budget = self.f.saturating_sub(self.decided.len());
                    self.coordinators = (0..self.p)
                        .filter(|r| !self.decided.contains(r))
                        .take(budget + 1)
                        .collect();
                    self.round = 0;
                    self.estimate = self.failed.clone();
                    self.fresh.clear();
                    self.at = At::Open;
                    return Action::Enter { epoch: self.epoch };
                }
                At::Open => {
                    let Some(&coord) = self.coordinators.get(self.round) else {
                        self.at = At::Close;
                        continue;
                    };
                    // Every rank opens every round, skipped or not, so the
                    // runtime's per-collective wire epochs stay in lockstep.
                    if self.known(coord) {
                        self.round += 1;
                    } else if coord == self.me {
                        self.heard.clear();
                        self.at = At::Gather(0);
                    } else {
                        let tag = self.gather_tag();
                        let members = self.estimate.clone();
                        self.out.push_back(Action::Send {
                            to: coord,
                            tag,
                            members,
                        });
                        let reply = Action::Await {
                            from: coord,
                            tag: tag + 1,
                        };
                        self.out.push_back(reply);
                        self.at = At::Adopting(coord);
                    }
                    return Action::Round;
                }
                At::Gather(from) => {
                    let me = self.me;
                    let tag = self.gather_tag();
                    if let Some(r) = (from..self.p).find(|&r| r != me && !self.known(r)) {
                        self.at = At::Gathering(r);
                        return Action::Await { from: r, tag };
                    }
                    for &to in &self.heard {
                        let members = self.estimate.clone();
                        self.out.push_back(Action::Send {
                            to,
                            tag: tag + 1,
                            members,
                        });
                    }
                    self.round += 1;
                    self.at = At::Open;
                }
                At::Close => {
                    let decided: Vec<Rank> = self.estimate.iter().copied().collect();
                    self.failed.extend(&self.estimate);
                    self.failed.extend(&self.fresh);
                    self.decided = decided.clone();
                    if self.covered.as_deref() == Some(&decided[..]) {
                        self.at = At::Done;
                        return Action::Return {
                            failed: decided,
                            epochs: self.epoch - 1,
                        };
                    }
                    // Every survivor re-runs — even one holding a completed
                    // (but now stale) output — so their outputs agree.
                    self.at = At::Rerunning;
                    let members = Group::world(self.p).shrink(&decided).members().to_vec();
                    return Action::Rerun { members };
                }
                At::Gathering(_) | At::Adopting(_) | At::Rerunning => {
                    panic!("the machine awaits an event")
                }
                At::Done => panic!("the recovery has returned"),
            }
        }
    }

    /// Feeds the answer to the last [`Action::Await`] or [`Action::Rerun`].
    pub(crate) fn on(&mut self, event: Event) {
        match (self.at, event) {
            (At::Gathering(r), Event::Set { from, members }) if from == r => {
                self.estimate.extend(members);
                self.heard.push(from);
                self.at = At::Gather(r + 1);
            }
            (At::Gathering(r), Event::Dead(dead)) => {
                self.fresh.insert(dead);
                self.at = At::Gather(r + 1);
            }
            (At::Adopting(c), Event::Set { from, members }) if from == c => {
                self.estimate = members;
                self.round += 1;
                self.at = At::Open;
            }
            (At::Adopting(_), Event::Dead(dead)) => {
                self.fresh.insert(dead);
                self.round += 1;
                self.at = At::Open;
            }
            (At::Rerunning, Event::Completed) => {
                self.covered = Some(self.decided.clone());
                self.at = At::Decide;
            }
            (At::Rerunning, Event::Crashed { blame }) => {
                // The stale output (if any) covers neither the old nor the
                // new failed set.
                self.failed.insert(blame);
                self.covered = None;
                self.at = At::Decide;
            }
            (at, event) => panic!("{event:?} does not answer the machine at {at:?}"),
        }
    }
}

#[cfg(test)]
#[path = "agreement_tests.rs"]
mod tests;
