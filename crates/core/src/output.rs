//! Collective output assembly and verification.
//!
//! [`GatherOutput`] is the single output container for every collective in
//! the suite: a per-rank slot array with an *expected* mask. All-gather
//! expects every slot at every rank; broadcast expects only the root's slot
//! (at every rank); gather expects everything at the root and nothing
//! elsewhere; scatter expects only the caller's own slot; all-to-all
//! expects every slot, but filled with pair-keyed blocks verified by
//! [`GatherOutput::verify_pairwise`].

use eag_runtime::{pattern_block, pattern_block_pair, Chunk, Data, Item};

/// The assembled result of an all-gather at one process: one block per rank.
///
/// Supports both the uniform MPI_Allgather case (every rank contributes
/// `m` bytes) and the MPI_Allgatherv case (per-rank lengths).
#[derive(Debug, Clone)]
pub struct GatherOutput {
    lens: Vec<usize>,
    uniform: Option<usize>,
    blocks: Vec<Option<Chunk>>,
    /// Which rank slots this collective is expected to fill.
    expected: Vec<bool>,
}

impl GatherOutput {
    /// An empty output buffer: rank `r`'s block is `lens[r]` bytes, and
    /// exactly the `expected` origins (global ranks) must be filled for the
    /// output to be complete — every rank for a world all-gather, the
    /// member set for a group, the root alone for a broadcast.
    pub fn new(lens: Vec<usize>, expected: &[usize]) -> Self {
        let uniform = match lens.first() {
            Some(&first) if lens.iter().all(|&l| l == first) => Some(first),
            _ => None,
        };
        let mut mask = vec![false; lens.len()];
        for &r in expected {
            assert!(r < lens.len(), "expected rank {r} out of range");
            mask[r] = true;
        }
        GatherOutput {
            blocks: vec![None; lens.len()],
            lens,
            uniform,
            expected: mask,
        }
    }

    /// The common block length, when every rank contributes the same
    /// number of bytes; `None` for varying-length outputs (use
    /// [`GatherOutput::len_of`]).
    pub fn block_len(&self) -> Option<usize> {
        self.uniform
    }

    /// The expected block length of `origin`.
    pub fn len_of(&self, origin: usize) -> usize {
        self.lens[origin]
    }

    /// Number of rank slots.
    pub fn p(&self) -> usize {
        self.blocks.len()
    }

    /// Places a (possibly multi-origin) plaintext chunk. Chunks covering
    /// already-placed origins must carry identical data (this tolerates the
    /// benign duplicates of the general recursive-doubling fix-up steps).
    pub fn place(&mut self, chunk: Chunk) {
        chunk.check();
        let singles = if chunk.origins.len() == 1 {
            vec![chunk]
        } else {
            chunk.split()
        };
        for single in singles {
            let origin = single.origins[0];
            assert!(origin < self.blocks.len(), "origin {origin} out of range");
            assert_eq!(
                single.data.len(),
                self.lens[origin],
                "block for origin {origin} has the wrong length"
            );
            match &self.blocks[origin] {
                Some(existing) => {
                    assert_eq!(
                        existing, &single,
                        "conflicting data placed for origin {origin}"
                    );
                }
                None => self.blocks[origin] = Some(single),
            }
        }
    }

    /// Places every plaintext item in `items`; panics on sealed items.
    pub fn place_items(&mut self, items: Vec<Item>) {
        for item in items {
            self.place(item.into_plain());
        }
    }

    /// Expected origins still missing.
    pub fn missing(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .zip(self.expected.iter())
            .enumerate()
            .filter_map(|(i, (b, &exp))| (exp && b.is_none()).then_some(i))
            .collect()
    }

    /// True once every expected rank's block is present.
    pub fn is_complete(&self) -> bool {
        self.missing().is_empty()
    }

    /// True if the block for `origin` is already present.
    pub fn has(&self, origin: usize) -> bool {
        self.blocks[origin].is_some()
    }

    /// The block placed for `origin`, if any.
    pub fn get(&self, origin: usize) -> Option<&Chunk> {
        self.blocks[origin].as_ref()
    }

    /// Panics unless complete; returns the blocks ordered by rank
    /// (world collectives only — every slot must be expected).
    pub fn into_blocks(self) -> Vec<Chunk> {
        assert!(
            self.expected.iter().all(|&e| e),
            "into_blocks() requires a world collective; use get() for groups"
        );
        let missing = self.missing();
        assert!(
            missing.is_empty(),
            "all-gather incomplete: missing origins {missing:?}"
        );
        self.blocks.into_iter().map(Option::unwrap).collect()
    }

    /// Verifies a completed real-mode output against the deterministic input
    /// patterns (each rank's block must equal `pattern_block(seed, rank, m)`).
    /// For phantom outputs, verifies lengths only.
    pub fn verify(&self, seed: u64) {
        let missing = self.missing();
        assert!(
            missing.is_empty(),
            "all-gather incomplete: missing origins {missing:?}"
        );
        for (rank, block) in self
            .blocks
            .iter()
            .enumerate()
            .filter(|&(r, _)| self.expected[r])
        {
            let chunk = block.as_ref().unwrap();
            assert_eq!(chunk.data.len(), self.lens[rank]);
            if let Data::Real(bytes) = &chunk.data {
                let expect = pattern_block(seed, rank, self.lens[rank]);
                assert_eq!(bytes, &expect, "rank {rank}'s block corrupted in transit");
            }
        }
    }
    /// Verifies a completed group collective: exactly `members` are filled
    /// (bit-exact, like [`GatherOutput::verify`]) and no other slot is.
    pub fn verify_members(&self, seed: u64, members: &[usize]) {
        self.verify(seed);
        for (r, block) in self.blocks.iter().enumerate() {
            let should = members.contains(&r);
            assert_eq!(
                block.is_some(),
                should,
                "rank {r}: filled = {}, member = {should}",
                block.is_some()
            );
        }
    }

    /// Verifies a completed *personalized* output at rank `dst` (all-to-all):
    /// every expected slot `src` must hold `pattern_block_pair(seed, src,
    /// dst, len)`. Phantom outputs verify lengths only.
    pub fn verify_pairwise(&self, seed: u64, dst: usize) {
        let missing = self.missing();
        assert!(
            missing.is_empty(),
            "all-to-all incomplete at rank {dst}: missing sources {missing:?}"
        );
        for (src, block) in self
            .blocks
            .iter()
            .enumerate()
            .filter(|&(r, _)| self.expected[r])
        {
            let chunk = block.as_ref().unwrap();
            assert_eq!(chunk.data.len(), self.lens[src]);
            if let Data::Real(bytes) = &chunk.data {
                let expect = pattern_block_pair(seed, src, dst, self.lens[src]);
                assert_eq!(bytes, &expect, "block {src}->{dst} corrupted in transit");
            }
        }
    }
}

/// The result of a crash-tolerant collective ([`crate::Collective::recover`]):
/// the blocks of every *surviving* source rank, plus the agreed set of
/// failed ranks whose blocks are permanently missing.
///
/// `failed` empty means the collective completed cleanly — the output is a
/// full all-gather result. Otherwise the output is the degraded re-run over
/// the shrunk survivor group: complete over survivors, empty at every
/// failed slot.
#[derive(Debug, Clone)]
pub struct DegradedOutput {
    /// The agreed failed ranks, ascending. Identical at every survivor.
    pub failed: Vec<usize>,
    /// Recovery re-runs performed (completed or crashed out): 0 for a
    /// clean (or clean-confirmed) run, `e ≥ 1` when `e` shrunk-group
    /// re-runs ran. Protocol-lockstep, so identical at every survivor —
    /// it participates in [`DegradedOutput::canonical_bytes`] as a
    /// cross-survivor sanity check on the recovery engine itself.
    pub epochs: u64,
    /// The gathered blocks (sparse when `failed` is non-empty).
    pub output: GatherOutput,
}

impl DegradedOutput {
    /// True when no rank failed (the output is a complete all-gather).
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// The surviving source ranks, ascending.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.output.p())
            .filter(|r| !self.failed.contains(r))
            .collect()
    }

    /// Verifies the degraded contract: every survivor's block is present
    /// and bit-exact against the deterministic input pattern, and every
    /// failed slot is empty.
    pub fn verify(&self, seed: u64) {
        self.output.verify_members(seed, &self.survivors());
    }

    /// A canonical byte encoding of the recovery *decision* alone — epochs
    /// consumed and the agreed failed set. For replicated collectives
    /// (all-gather, broadcast) survivors additionally agree on every block,
    /// so [`DegradedOutput::canonical_bytes`] applies; for rooted or
    /// personalized collectives (gather, scatter, all-to-all) each rank
    /// legitimately holds different payload, and cross-survivor identity is
    /// asserted on this header plus a per-role bit-exact payload check.
    pub fn canonical_header(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&self.epochs.to_le_bytes());
        bytes.extend_from_slice(&(self.failed.len() as u64).to_le_bytes());
        for &f in &self.failed {
            bytes.extend_from_slice(&(f as u64).to_le_bytes());
        }
        bytes
    }

    /// A canonical byte encoding of the failed set and every present block,
    /// for cross-survivor byte-identity checks: two survivors agree on the
    /// degraded result iff their encodings are equal.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut bytes = self.canonical_header();
        for r in 0..self.output.p() {
            match self.output.get(r) {
                Some(chunk) => {
                    bytes.extend_from_slice(&(r as u64).to_le_bytes());
                    match &chunk.data {
                        Data::Real(b) => {
                            bytes.extend_from_slice(&(b.len() as u64).to_le_bytes());
                            b.copy_into(&mut bytes);
                        }
                        Data::Phantom(len) => {
                            bytes.extend_from_slice(&(*len as u64).to_le_bytes());
                        }
                    }
                }
                None => bytes.extend_from_slice(&u64::MAX.to_le_bytes()),
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world output: `p` expected blocks of `m` bytes.
    fn full(p: usize, m: usize) -> GatherOutput {
        GatherOutput::new(vec![m; p], &(0..p).collect::<Vec<_>>())
    }

    fn chunk(origin: usize, bytes: Vec<u8>) -> Chunk {
        Chunk::single(origin, Data::Real(bytes.into()))
    }

    #[test]
    fn place_and_complete() {
        let mut out = full(3, 2);
        out.place(chunk(0, vec![0, 1]));
        assert!(!out.is_complete());
        assert_eq!(out.missing(), vec![1, 2]);
        out.place(chunk(1, vec![2, 3]));
        out.place(chunk(2, vec![4, 5]));
        assert!(out.is_complete());
        let blocks = out.into_blocks();
        assert_eq!(blocks[2].data.to_vec(), vec![4, 5]);
    }

    #[test]
    fn multi_origin_chunks_are_split() {
        let mut out = full(2, 2);
        let merged = Chunk {
            origins: vec![0, 1],
            block_len: 2,
            data: Data::Real(vec![9, 8, 7, 6].into()),
        };
        out.place(merged);
        assert!(out.is_complete());
        let blocks = out.into_blocks();
        assert_eq!(blocks[0].data.to_vec(), vec![9, 8]);
        assert_eq!(blocks[1].data.to_vec(), vec![7, 6]);
    }

    #[test]
    fn identical_duplicates_are_tolerated() {
        let mut out = full(1, 2);
        out.place(chunk(0, vec![1, 2]));
        out.place(chunk(0, vec![1, 2]));
        assert!(out.is_complete());
    }

    #[test]
    #[should_panic(expected = "conflicting data")]
    fn conflicting_duplicates_panic() {
        let mut out = full(1, 2);
        out.place(chunk(0, vec![1, 2]));
        out.place(chunk(0, vec![3, 4]));
    }

    #[test]
    fn verify_checks_patterns() {
        let seed = 11;
        let mut out = full(2, 8);
        out.place(Chunk::single(
            0,
            Data::Real(pattern_block(seed, 0, 8).into()),
        ));
        out.place(Chunk::single(
            1,
            Data::Real(pattern_block(seed, 1, 8).into()),
        ));
        out.verify(seed);
    }

    #[test]
    #[should_panic(expected = "corrupted")]
    fn verify_rejects_wrong_bytes() {
        let mut out = full(1, 8);
        out.place(Chunk::single(0, Data::Real(vec![0; 8].into())));
        out.verify(11);
    }

    #[test]
    fn degraded_output_contract() {
        let seed = 11;
        let mut out = GatherOutput::new(vec![8; 3], &[0, 2]);
        out.place(Chunk::single(
            0,
            Data::Real(pattern_block(seed, 0, 8).into()),
        ));
        out.place(Chunk::single(
            2,
            Data::Real(pattern_block(seed, 2, 8).into()),
        ));
        let d = DegradedOutput {
            failed: vec![1],
            epochs: 1,
            output: out,
        };
        assert!(!d.is_complete());
        assert_eq!(d.survivors(), vec![0, 2]);
        d.verify(seed);
        // Canonical bytes are a pure function of (epochs, failed, blocks):
        // a clone matches, a different failed set or epoch count does not.
        assert_eq!(d.canonical_bytes(), d.clone().canonical_bytes());
        let other = DegradedOutput {
            failed: vec![],
            epochs: 1,
            output: d.output.clone(),
        };
        assert_ne!(d.canonical_bytes(), other.canonical_bytes());
        let later_epoch = DegradedOutput {
            failed: d.failed.clone(),
            epochs: 2,
            output: d.output.clone(),
        };
        assert_ne!(d.canonical_bytes(), later_epoch.canonical_bytes());
    }

    #[test]
    fn phantom_blocks_verify_lengths_only() {
        let mut out = full(2, 16);
        out.place(Chunk::single(0, Data::Phantom(16)));
        out.place(Chunk::single(1, Data::Phantom(16)));
        out.verify(0);
    }
}
