//! The data plane: plaintext chunks, sealed (encrypted) chunks, and parcels.
//!
//! Algorithms are written once against these types and run in two modes:
//!
//! - **Real** — [`Data::Real`] carries actual bytes in a refcounted segment
//!   [`Rope`]; encryption is real AES-128-GCM. Used by correctness/security
//!   tests, examples, and the wall-clock benchmarks.
//! - **Phantom** — [`Data::Phantom`] carries only a length. Used by the
//!   cluster-scale virtual-time simulations (e.g. p = 1024 with 512 KB
//!   blocks, where real buffers would need hundreds of gigabytes).
//!
//! Both modes track *origins*: which ranks' blocks a chunk contains, in
//! order. Even a phantom simulation therefore proves the all-gather
//! postcondition (every rank ends with every origin exactly once).
//!
//! Real payloads are rope-backed end to end: clone/slice/concat are
//! refcount and pointer operations, so forwarding a chunk, logging a frame
//! for retransmission, or fanning a block out to node peers never copies
//! payload bytes. Bytes move only at the seal gather, at a GCM open over a
//! shared or fragmented frame, and at explicit materialization points — all
//! counted by [`eag_rope::probe`].

use eag_netsim::Rank;
use eag_rope::Rope;

/// Payload bytes, real or phantom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Data {
    /// Actual bytes, as a refcounted segment rope. Equality is over the
    /// logical byte string, independent of segmentation.
    Real(Rope),
    /// Length-only placeholder for cost simulation.
    Phantom(usize),
}

impl Data {
    /// Length in bytes (plaintext length for chunks, wire length for seals).
    pub fn len(&self) -> usize {
        match self {
            Data::Real(b) => b.len(),
            Data::Phantom(n) => *n,
        }
    }

    /// True when the length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for [`Data::Real`].
    pub fn is_real(&self) -> bool {
        matches!(self, Data::Real(_))
    }

    /// Borrows the real payload rope; panics on phantom data.
    pub fn rope(&self) -> &Rope {
        match self {
            Data::Real(b) => b,
            Data::Phantom(_) => panic!("phantom data has no bytes"),
        }
    }

    /// Materializes the real bytes into a fresh contiguous `Vec` (a counted
    /// copy); panics on phantom data.
    pub fn to_vec(&self) -> Vec<u8> {
        self.rope().to_vec()
    }
}

/// A plaintext fragment: the blocks of `origins` (each `block_len` bytes),
/// concatenated in `origins` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Ranks whose blocks this chunk carries, in data order.
    pub origins: Vec<Rank>,
    /// Per-origin block length in bytes.
    pub block_len: usize,
    /// The concatenated block bytes (real or phantom).
    pub data: Data,
}

impl Chunk {
    /// A chunk holding a single origin's block.
    pub fn single(origin: Rank, data: Data) -> Self {
        let block_len = data.len();
        Chunk {
            origins: vec![origin],
            block_len,
            data,
        }
    }

    /// Total plaintext length.
    pub fn len(&self) -> usize {
        self.origins.len() * self.block_len
    }

    /// True when the chunk carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenates several chunks into one (origins order preserved).
    /// All inputs must agree on `block_len` and data mode.
    ///
    /// Chunk clones are refcount bumps, so the borrowing variant simply
    /// delegates to the owned rope-append implementation — no payload byte
    /// is copied either way.
    pub fn concat(chunks: &[Chunk]) -> Chunk {
        assert!(!chunks.is_empty(), "cannot concat zero chunks");
        Chunk::concat_owned(chunks.to_vec())
    }

    /// Concatenates owned chunks into one by appending their ropes —
    /// O(total segments) pointer operations, no payload byte is copied.
    pub fn concat_owned(chunks: Vec<Chunk>) -> Chunk {
        assert!(!chunks.is_empty(), "cannot concat zero chunks");
        let mut iter = chunks.into_iter();
        let mut acc = iter.next().expect("non-empty checked above");
        let phantom = !acc.data.is_real();
        let mut total = acc.data.len();
        for c in iter {
            assert_eq!(c.block_len, acc.block_len, "mixed block lengths");
            assert_eq!(!c.data.is_real(), phantom, "mixed data modes");
            total += c.data.len();
            acc.origins.extend_from_slice(&c.origins);
            if let (Data::Real(rope), Data::Real(more)) = (&mut acc.data, c.data) {
                rope.append(more);
            }
        }
        if phantom {
            acc.data = Data::Phantom(total);
        }
        acc
    }

    /// Splits the chunk into one single-origin chunk per origin. Real parts
    /// are rope slices sharing the parent's buffers — no byte is copied.
    pub fn split(&self) -> Vec<Chunk> {
        let m = self.block_len;
        self.origins
            .iter()
            .enumerate()
            .map(|(i, &origin)| Chunk {
                origins: vec![origin],
                block_len: m,
                data: match &self.data {
                    Data::Real(b) => Data::Real(b.slice(i * m..(i + 1) * m)),
                    Data::Phantom(_) => Data::Phantom(m),
                },
            })
            .collect()
    }

    /// Internal consistency: data length equals `origins.len() * block_len`.
    pub fn check(&self) {
        assert_eq!(
            self.data.len(),
            self.origins.len() * self.block_len,
            "chunk data length does not match origins"
        );
    }
}

/// An encrypted fragment: GCM-sealed bytes of a [`Chunk`], plus the metadata
/// needed to route and account for it. Wire layout (real mode):
/// `nonce(12) ‖ ciphertext(plain_len) ‖ tag(16)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Ranks whose blocks the underlying plaintext carries, in order.
    pub origins: Vec<Rank>,
    /// Per-origin block length of the underlying plaintext.
    pub block_len: usize,
    /// Underlying plaintext length in bytes.
    pub plain_len: usize,
    /// The wire bytes (real) or wire length (phantom).
    pub data: Data,
}

impl Sealed {
    /// Wire length: plaintext + 28 bytes of nonce/tag framing.
    pub fn wire_len(&self) -> usize {
        self.plain_len + eag_crypto::WIRE_OVERHEAD
    }
}

/// One item inside a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// Plaintext (allowed on intra-node links only, by convention).
    Plain(Chunk),
    /// Encrypted.
    Sealed(Sealed),
}

impl Item {
    /// Bytes this item occupies on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            Item::Plain(c) => c.len(),
            Item::Sealed(s) => s.wire_len(),
        }
    }

    /// Payload bytes: wire bytes without the GCM framing.
    pub fn payload_len(&self) -> usize {
        match self {
            Item::Plain(c) => c.len(),
            Item::Sealed(s) => s.plain_len,
        }
    }

    /// Origins covered by this item.
    pub fn origins(&self) -> &[Rank] {
        match self {
            Item::Plain(c) => &c.origins,
            Item::Sealed(s) => &s.origins,
        }
    }

    /// Unwraps a plaintext chunk; panics on sealed items.
    pub fn into_plain(self) -> Chunk {
        match self {
            Item::Plain(c) => c,
            Item::Sealed(_) => panic!("expected plaintext item, found sealed"),
        }
    }

    /// Unwraps a sealed chunk; panics on plaintext items.
    pub fn into_sealed(self) -> Sealed {
        match self {
            Item::Plain(_) => panic!("expected sealed item, found plaintext"),
            Item::Sealed(s) => s,
        }
    }
}

/// One point-to-point message: a batch of items sent together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Parcel {
    /// The items, in sender-chosen order.
    pub items: Vec<Item>,
}

const MIX_M: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX_LANE_SEEDS: [u64; 4] = [
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
    0x5899_65CC_7537_4CC3,
];

#[inline]
fn mix_lanes(h: u64) -> [u64; 4] {
    [
        h ^ MIX_LANE_SEEDS[0],
        h ^ MIX_LANE_SEEDS[1],
        h ^ MIX_LANE_SEEDS[2],
        h ^ MIX_LANE_SEEDS[3],
    ]
}

/// One 32-byte stride: eight bytes into each of the four lanes.
#[inline]
fn mix_stride(lanes: &mut [u64; 4], c: &[u8]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
        *lane = (*lane ^ w).wrapping_mul(MIX_M);
    }
}

/// Folds the lanes back into `h` and absorbs the final sub-stride bytes
/// (`rest.len() < 32`).
#[inline]
fn mix_fold(h: u64, lanes: [u64; 4], rest: &[u8]) -> u64 {
    debug_assert!(rest.len() < 32);
    let mut h = lanes
        .into_iter()
        .fold(h, |acc, l| (acc ^ l.rotate_left(23)).wrapping_mul(MIX_M));
    let mut tail = rest.chunks_exact(8);
    for w in &mut tail {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    let last = tail.remainder();
    if !last.is_empty() {
        let mut buf = [0u8; 8];
        buf[..last.len()].copy_from_slice(last);
        // Fold the tail length in so "ab" and "ab\0" differ.
        h ^= u64::from_le_bytes(buf) ^ ((last.len() as u64) << 56);
        h = (h ^ (h >> 29)).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h
}

/// Word-stride digest of `bytes` keyed by `h`. Four independent lanes over
/// 32-byte strides keep the hash throughput-bound instead of
/// chained-multiply latency-bound.
fn mix(h: u64, bytes: &[u8]) -> u64 {
    let mut lanes = mix_lanes(h);
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        mix_stride(&mut lanes, c);
    }
    mix_fold(h, lanes, chunks.remainder())
}

/// [`mix`] over a rope's logical bytes without flattening it: a 32-byte
/// carry buffer stitches strides across segment boundaries, so the digest
/// equals `mix(h, flattened_bytes)` for every segmentation of the same byte
/// string. Contiguous ropes (the common case for wire frames) take the
/// slice fast path.
fn mix_rope(h: u64, rope: &Rope) -> u64 {
    if let Some(flat) = rope.as_contiguous() {
        return mix(h, flat);
    }
    let mut lanes = mix_lanes(h);
    let mut carry = [0u8; 32];
    let mut fill = 0usize;
    for mut seg in rope.segments() {
        if fill > 0 {
            let take = seg.len().min(32 - fill);
            carry[fill..fill + take].copy_from_slice(&seg[..take]);
            fill += take;
            seg = &seg[take..];
            if fill < 32 {
                continue;
            }
            mix_stride(&mut lanes, &carry);
        }
        let mut chunks = seg.chunks_exact(32);
        for c in &mut chunks {
            mix_stride(&mut lanes, c);
        }
        let rest = chunks.remainder();
        carry[..rest.len()].copy_from_slice(rest);
        fill = rest.len();
    }
    mix_fold(h, lanes, &carry[..fill])
}

impl Parcel {
    /// An empty parcel.
    pub fn new() -> Self {
        Parcel { items: Vec::new() }
    }

    /// A parcel with one item.
    pub fn one(item: Item) -> Self {
        Parcel { items: vec![item] }
    }

    /// Total wire bytes.
    pub fn wire_len(&self) -> usize {
        self.items.iter().map(Item::wire_len).sum()
    }

    /// Total payload bytes (framing excluded).
    pub fn payload_len(&self) -> usize {
        self.items.iter().map(Item::payload_len).sum()
    }

    /// True if any item is plaintext.
    pub fn has_plain(&self) -> bool {
        self.items.iter().any(|i| matches!(i, Item::Plain(_)))
    }

    /// Word-stride digest over the parcel's full wire representation — item
    /// kinds, routing metadata, and payload bytes (length for phantom
    /// data). This models the link-layer CRC of a real fabric: the sender
    /// stamps it before transmission, so random in-flight corruption is
    /// caught at the next hop without touching the cryptographic layer.
    /// It is **not** adversarially secure — that is GCM's job. Payload
    /// bytes are folded eight at a time (with a distinct-per-position tail)
    /// so that stamping and verifying cost ~1/8th of a byte-at-a-time FNV —
    /// this digest runs twice per frame on the chaos hot path. Rope payloads
    /// are digested segment by segment (`mix_rope`); the value depends
    /// only on the logical bytes, never on segmentation.
    pub fn checksum(&self) -> u64 {
        let mut h = mix(
            0xCBF2_9CE4_8422_2325,
            &(self.items.len() as u64).to_le_bytes(),
        );
        for item in &self.items {
            let (kind, origins, block_len, extra, data) = match item {
                Item::Plain(c) => (0u8, &c.origins, c.block_len, 0usize, &c.data),
                Item::Sealed(s) => (1u8, &s.origins, s.block_len, s.plain_len, &s.data),
            };
            h = mix(h, &[kind]);
            h = mix(h, &(origins.len() as u64).to_le_bytes());
            for &o in origins {
                h = mix(h, &(o as u64).to_le_bytes());
            }
            h = mix(h, &(block_len as u64).to_le_bytes());
            h = mix(h, &(extra as u64).to_le_bytes());
            h = match data {
                Data::Real(bytes) => mix_rope(mix(h, &[1]), bytes),
                Data::Phantom(n) => mix(mix(h, &[0]), &(*n as u64).to_le_bytes()),
            };
        }
        h
    }
}

/// Deterministic test pattern for rank `origin`'s block: high-entropy-looking
/// but reproducible, so receivers can verify content without communication.
pub fn pattern_block(seed: u64, origin: Rank, len: usize) -> Vec<u8> {
    // splitmix64 stream keyed by (seed, origin).
    splitmix_stream(
        seed ^ (origin as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        len,
    )
}

/// Deterministic test pattern for the *personalized* block rank `src` sends
/// to rank `dst` (all-to-all traffic): keyed by the ordered pair, so the
/// (0→1) block differs from (1→0) and from either rank's `pattern_block`.
pub fn pattern_block_pair(seed: u64, src: Rank, dst: Rank, len: usize) -> Vec<u8> {
    let key = seed
        ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dst as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix_stream(key, len)
}

fn splitmix_stream(key: u64, len: usize) -> Vec<u8> {
    let mut state = key;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let bytes = z.to_le_bytes();
        let take = bytes.len().min(len - out.len());
        out.extend_from_slice(&bytes[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(bytes: Vec<u8>) -> Data {
        Data::Real(bytes.into())
    }

    #[test]
    fn chunk_concat_and_split_roundtrip() {
        let a = Chunk::single(0, real(vec![1, 2, 3]));
        let b = Chunk::single(5, real(vec![4, 5, 6]));
        let c = Chunk::concat(&[a.clone(), b.clone()]);
        assert_eq!(c.origins, vec![0, 5]);
        assert_eq!(c.len(), 6);
        c.check();
        let parts = c.split();
        assert_eq!(parts, vec![a, b]);
    }

    #[test]
    fn concat_owned_matches_concat() {
        let parts = vec![
            Chunk::single(0, real(vec![1, 2, 3])),
            Chunk::single(5, real(vec![4, 5, 6])),
            Chunk::single(2, real(vec![7, 8, 9])),
        ];
        assert_eq!(Chunk::concat(&parts), Chunk::concat_owned(parts.clone()));

        let phantoms = vec![
            Chunk::single(1, Data::Phantom(100)),
            Chunk::single(2, Data::Phantom(100)),
        ];
        assert_eq!(
            Chunk::concat(&phantoms),
            Chunk::concat_owned(phantoms.clone())
        );
    }

    #[test]
    fn concat_and_split_copy_no_payload_bytes() {
        let parts = vec![
            Chunk::single(0, real(vec![1u8; 256])),
            Chunk::single(1, real(vec![2u8; 256])),
            Chunk::single(2, real(vec![3u8; 256])),
        ];
        eag_rope::probe::reset();
        let merged = Chunk::concat(&parts);
        let back = merged.split();
        assert_eq!(eag_rope::probe::snapshot().copied_bytes, 0);
        assert_eq!(back, parts);
        assert_eq!(merged.data.rope().segment_count(), 3);
    }

    #[test]
    fn phantom_concat_tracks_lengths_and_origins() {
        let a = Chunk::single(1, Data::Phantom(100));
        let b = Chunk::single(2, Data::Phantom(100));
        let c = Chunk::concat(&[a, b]);
        assert_eq!(c.data.len(), 200);
        assert_eq!(c.origins, vec![1, 2]);
        let parts = c.split();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].data, Data::Phantom(100));
    }

    #[test]
    #[should_panic(expected = "mixed data modes")]
    fn concat_rejects_mixed_modes() {
        let a = Chunk::single(0, real(vec![0; 4]));
        let b = Chunk::single(1, Data::Phantom(4));
        let _ = Chunk::concat(&[a, b]);
    }

    #[test]
    fn sealed_wire_len_adds_28() {
        let s = Sealed {
            origins: vec![3],
            block_len: 100,
            plain_len: 100,
            data: Data::Phantom(128),
        };
        assert_eq!(s.wire_len(), 128);
    }

    #[test]
    fn parcel_wire_len_sums_items() {
        let p = Parcel {
            items: vec![
                Item::Plain(Chunk::single(0, Data::Phantom(10))),
                Item::Sealed(Sealed {
                    origins: vec![1],
                    block_len: 10,
                    plain_len: 10,
                    data: Data::Phantom(38),
                }),
            ],
        };
        assert_eq!(p.wire_len(), 48);
        assert!(p.has_plain());
    }

    #[test]
    fn checksum_detects_any_single_byte_flip() {
        let mut p = Parcel {
            items: vec![
                Item::Plain(Chunk::single(0, real(vec![1, 2, 3, 4]))),
                Item::Sealed(Sealed {
                    origins: vec![1, 2],
                    block_len: 3,
                    plain_len: 6,
                    data: real(vec![9; 34]),
                }),
            ],
        };
        let base = p.checksum();
        assert_eq!(base, p.checksum(), "checksum must be deterministic");
        fn flip(p: &mut Parcel, item_idx: usize, i: usize) {
            let data = match &mut p.items[item_idx] {
                Item::Plain(c) => &mut c.data,
                Item::Sealed(s) => &mut s.data,
            };
            if let Data::Real(bytes) = data {
                bytes.xor_byte(i, 0x80);
            }
        }
        for item_idx in 0..p.items.len() {
            let len = match &p.items[item_idx] {
                Item::Plain(c) => c.data.len(),
                Item::Sealed(s) => s.data.len(),
            };
            for i in 0..len {
                flip(&mut p, item_idx, i);
                assert_ne!(p.checksum(), base, "flip undetected at {item_idx}/{i}");
                flip(&mut p, item_idx, i);
            }
        }
        assert_eq!(p.checksum(), base);
    }

    #[test]
    fn checksum_is_segmentation_independent() {
        // The wire digest must not change when the same logical payload is
        // carried by differently fragmented ropes (forwarded vs rebuilt
        // frames), across every stride/tail boundary of the mixer.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 200] {
            let bytes = pattern_block(3, 1, len);
            let flat = Parcel::one(Item::Plain(Chunk::single(0, real(bytes.clone()))));
            let base = flat.checksum();
            for split in [0, 1, len / 3, len / 2, len.saturating_sub(1), len] {
                if split > len {
                    continue;
                }
                let mut rope = Rope::from(bytes[..split].to_vec());
                rope.append(Rope::from(bytes[split..].to_vec()));
                let mut three = Rope::from(bytes[..split].to_vec());
                let mid = split + (len - split) / 2;
                three.append(Rope::from(bytes[split..mid].to_vec()));
                three.append(Rope::from(bytes[mid..].to_vec()));
                for r in [rope, three] {
                    let seg = Parcel::one(Item::Plain(Chunk {
                        origins: vec![0],
                        block_len: len,
                        data: Data::Real(r),
                    }));
                    assert_eq!(seg.checksum(), base, "len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn checksum_covers_metadata_and_phantom_lengths() {
        let a = Parcel::one(Item::Plain(Chunk::single(0, Data::Phantom(10))));
        let b = Parcel::one(Item::Plain(Chunk::single(0, Data::Phantom(11))));
        let c = Parcel::one(Item::Plain(Chunk::single(1, Data::Phantom(10))));
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
        assert_ne!(Parcel::new().checksum(), a.checksum());
    }

    #[test]
    fn pattern_block_is_deterministic_and_distinct() {
        let a = pattern_block(7, 0, 64);
        let b = pattern_block(7, 0, 64);
        let c = pattern_block(7, 1, 64);
        let d = pattern_block(8, 0, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(pattern_block(7, 0, 5).len(), 5);
    }
}
