//! The choice tape of a stateless depth-first explorer.
//!
//! A model run asks the tape for every nondeterministic choice it makes
//! (which fault, which rank next, crash here or not). The first run takes
//! alternative 0 everywhere; [`Tape::advance`] then bumps the deepest
//! choice that has an alternative left and drops everything after it, so
//! replaying the run from the front enumerates every distinct run exactly
//! once — no state is stored between runs, only the tape.
//!
//! ```
//! use eag_netsim::Tape;
//!
//! // Every pair (a, b) with a < 2 and b < 3, each visited once.
//! let mut tape = Tape::default();
//! let mut seen = Vec::new();
//! loop {
//!     seen.push((tape.pick(2), tape.pick(3)));
//!     if !tape.advance() {
//!         break;
//!     }
//! }
//! assert_eq!(seen.len(), 6);
//! ```

/// The nondeterministic choices of one run, replayed from the front.
#[derive(Debug, Default)]
pub struct Tape {
    picks: Vec<(usize, usize)>,
    pos: usize,
}

impl Tape {
    /// The next choice among `arity` alternatives. Panics if a replayed
    /// run asks for a different arity at the same position: the run is
    /// then not a function of its tape, and the search is unsound.
    pub fn pick(&mut self, arity: usize) -> usize {
        if self.pos == self.picks.len() {
            self.picks.push((0, arity));
        }
        let (choice, recorded) = self.picks[self.pos];
        assert_eq!(recorded, arity, "the run is not a function of its tape");
        self.pos += 1;
        choice
    }

    /// Moves to the next unexplored tape; `false` once all are done.
    pub fn advance(&mut self) -> bool {
        self.pos = 0;
        while let Some((choice, arity)) = self.picks.pop() {
            if choice + 1 < arity {
                self.picks.push((choice + 1, arity));
                return true;
            }
        }
        false
    }
}
