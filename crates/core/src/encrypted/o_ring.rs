//! The Opportunistic Ring (O-Ring) algorithm, and the encrypted ring
//! sub-gather used by C-Ring.
//!
//! The ring pattern is unchanged from the ordinary algorithm; the
//! opportunistic rule decides the representation of every hop:
//!
//! - **intra-node hop**: send plaintext (decrypting first if the data is
//!   currently held as ciphertext — the "entry process" role);
//! - **inter-node hop**: send ciphertext. Plaintext holdings are freshly
//!   encrypted (the "exit process" role); ciphertext received from the
//!   previous hop is *forwarded as-is*, with a decryption done only for this
//!   process's own output. Forward-as-is is what keeps `re = 1` in the
//!   Concurrent sub-gathers, where every hop is inter-node.

use crate::output::GatherOutput;
use eag_netsim::{LinkClass, Rank};
use eag_runtime::{Chunk, Item, Parcel, ProcCtx};

/// Runs an opportunistic ring all-gather of `my_chunk` over `members`
/// (visited in list order); places every member's plaintext into `out`.
pub fn o_ring_over(
    ctx: &mut ProcCtx,
    members: &[Rank],
    my_chunk: Chunk,
    out: &mut GatherOutput,
    tag_base: u64,
) {
    let q = members.len();
    let k = members
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("calling rank not in member list");
    let succ = members[(k + 1) % q];
    let pred = members[(k + q - 1) % q];

    out.place(my_chunk.clone());
    let mut cur = Item::Plain(my_chunk);
    // A ciphertext we forward untouched still has to be opened for our own
    // output — but *after* the forward, so the decryption overlaps with the
    // wait for the next arrival instead of delaying the whole downstream
    // pipeline (the paper's communication/computation overlap).
    let mut pending: Option<eag_runtime::Sealed> = None;
    // The successor never changes, so neither does the outbound link class.
    let link = ctx.topology().link(ctx.rank(), succ);

    for step in 0..q.saturating_sub(1) {
        // Round boundary: a natural scheduling point on a contended world.
        ctx.yield_now();
        let tag = tag_base + step as u64;
        // `cur` is rebuilt from the arrival below, so the match can consume
        // it: the sealed plaintext's buffer is recycled by the rank's
        // encrypt scratch instead of being cloned every round.
        let to_send = match (cur, link) {
            // Plaintext over the network: seal it (exit-process role).
            (Item::Plain(c), LinkClass::Inter) => Item::Sealed(ctx.encrypt(c)),
            // Anything else is already in the right representation:
            // plaintext stays plaintext intra-node; ciphertext is forwarded
            // as-is inter-node; sealed-over-intra cannot occur because
            // receives convert to plaintext when the next hop is intra.
            (item, _) => item,
        };
        ctx.send(succ, tag, Parcel::one(to_send));

        // The forward is on the wire; now open last round's ciphertext for
        // our own output, hidden under the wait for this round's arrival.
        if let Some(s) = pending.take() {
            let c = ctx.decrypt(s);
            out.place(c);
        }

        let received = ctx.recv(pred, tag).items.remove(0);
        cur = match received {
            Item::Plain(c) => {
                out.place(c.clone());
                Item::Plain(c)
            }
            Item::Sealed(s) => {
                if link == LinkClass::Inter && step + 1 < q - 1 {
                    // Forward the ciphertext untouched next round.
                    pending = Some(s.clone());
                    Item::Sealed(s)
                } else {
                    // The next hop (or our output) needs the plaintext now
                    // (entry-process role).
                    let c = ctx.decrypt(s);
                    out.place(c.clone());
                    Item::Plain(c)
                }
            }
        };
    }

    if let Some(s) = pending {
        let c = ctx.decrypt(s);
        out.place(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Collective};
    use eag_netsim::{profile, Mapping, Topology};
    use eag_runtime::{run, DataMode, WorldSpec};

    fn world(p: usize, nodes: usize, mapping: Mapping) -> WorldSpec {
        let mut s = WorldSpec::new(
            Topology::new(p, nodes, mapping),
            profile::free(),
            DataMode::Real { seed: 5 },
        );
        s.capture_wire = true;
        s
    }

    #[test]
    fn o_ring_correct_block_and_cyclic() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for (p, nodes) in [(8, 2), (9, 3), (6, 6)] {
                let report = run(&world(p, nodes, mapping), |ctx| {
                    let out = Collective::Allgather(Algorithm::ORing).run(ctx, 24);
                    out.verify(5);
                });
                assert!(!report.wiretap.saw_plaintext_frame());
            }
        }
    }

    #[test]
    fn o_ring_metrics_match_table_2_block_order() {
        // p = 9, N = 3, block order: the paper's Figure 3 setting.
        // rc = p−1, re = rd = p−1 (exit/entry processes), se = sd = (p−1)m.
        let (p, m) = (9usize, 16usize);
        let report = run(&world(p, 3, Mapping::Block), |ctx| {
            Collective::Allgather(Algorithm::ORing)
                .run(ctx, m)
                .verify(5);
        });
        let max = report.max_metrics();
        assert_eq!(max.comm_rounds, (p - 1) as u64);
        assert_eq!(max.enc_rounds, (p - 1) as u64);
        assert_eq!(max.enc_bytes, ((p - 1) * m) as u64);
        assert_eq!(max.dec_rounds, (p - 1) as u64);
        assert_eq!(max.dec_bytes, ((p - 1) * m) as u64);
        assert_eq!(max.bytes_sent, ((p - 1) * (m + 28)) as u64);
    }

    #[test]
    fn sub_ring_over_one_rank_per_node_encrypts_once() {
        // One member per node (the C-Ring sub-gather): every hop is
        // inter-node, ciphertexts are forwarded as-is, so re = 1 per rank.
        let report = run(&world(4, 4, Mapping::Block), |ctx| {
            let members: Vec<Rank> = (0..4).collect();
            let mut out = GatherOutput::new(vec![8; 4], &members);
            let mine = ctx.my_block(8);
            o_ring_over(ctx, &members, mine, &mut out, 500);
            out.verify(5);
        });
        for m in &report.metrics {
            assert_eq!(m.enc_rounds, 1);
            assert_eq!(m.enc_bytes, 8);
            assert_eq!(m.dec_rounds, 3);
            assert_eq!(m.dec_bytes, 24);
        }
        assert!(!report.wiretap.saw_plaintext_frame());
    }
}
