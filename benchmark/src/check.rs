//! Correctness gates the harness adds to the library's checkers.
//!
//! `DeliveryLog::check_partial_order` is quadratic in the messages two
//! learners share ("intended for tests") — minutes on a 250 k-command
//! run — so the partitioned workloads use the linear equivalent below,
//! which a unit test pins against the library's on small logs.

use std::collections::{HashMap, HashSet};

use abcast::{DeliveryLog, MsgId};
use simnet::prelude::*;

/// Uniform partial order (§2.2.4) in linear time: for every pair of
/// learners, the messages both delivered appear in the same relative
/// order. Walking learner `a`'s sequence, the positions of the shared
/// messages in learner `b`'s sequence must strictly increase.
pub fn partial_order(log: &DeliveryLog) -> Result<(), String> {
    let n = log.learners();
    let positions: Vec<HashMap<MsgId, usize>> = (0..n)
        .map(|l| log.sequence(l).iter().enumerate().map(|(i, &m)| (m, i)).collect())
        .collect();
    for a in 0..n {
        for (b, positions_b) in positions.iter().enumerate().skip(a + 1) {
            let mut last: Option<(usize, MsgId)> = None;
            for &m in log.sequence(a) {
                let Some(&pos) = positions_b.get(&m) else { continue };
                if let Some((prev_pos, prev)) = last {
                    if pos < prev_pos {
                        return Err(format!(
                            "partial order: learners {a} and {b} disagree on {prev:?} / {m:?}"
                        ));
                    }
                }
                last = Some((pos, m));
            }
        }
    }
    Ok(())
}

/// Integrity without a broadcast set: no learner delivers a message
/// twice, and every delivered id was minted by one of `origins` (ids
/// carry their proposer's node in the bits above 40). The session
/// tables mint slab-slot ids that cannot be enumerated from outside,
/// so the phantom check is by origin for the smr workloads; the ring
/// workloads use `DeliveryLog::check_integrity` with the exact set.
pub fn integrity_by_origin(log: &DeliveryLog, origins: &[NodeId]) -> Result<(), String> {
    for l in 0..log.learners() {
        let seq = log.sequence(l);
        let mut seen = HashSet::with_capacity(seq.len());
        for &m in seq {
            if !seen.insert(m) {
                return Err(format!("integrity: learner {l} delivered {m:?} twice"));
            }
            if !origins.iter().any(|o| o.0 as u64 == m.0 >> 40) {
                return Err(format!(
                    "integrity: learner {l} delivered {m:?} from no known proposer"
                ));
            }
        }
    }
    Ok(())
}

/// The ids `proposers` broadcast so far: ring proposers stamp
/// `node << 40 | seq` with a dense per-proposer `seq`, counted by
/// `rp.proposed`.
pub fn ring_broadcast_set(sim: &Sim, proposers: &[NodeId]) -> HashSet<MsgId> {
    let mut out = HashSet::new();
    for &p in proposers {
        for seq in 0..sim.metrics().counter(p, abcast::metric::PROPOSED) {
            out.insert(MsgId(((p.0 as u64) << 40) | seq));
        }
    }
    out
}

/// FNV-1a over every non-zero counter in `(node, name)` order. Two runs
/// of one seed — traced or not — must agree on it.
pub fn counter_checksum(sim: &Sim) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    sim.metrics().for_each_counter(|node, name, value| {
        eat(&(node.0 as u64).to_le_bytes());
        eat(name.as_bytes());
        eat(&value.to_le_bytes());
    });
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(seqs: &[&[u64]]) -> DeliveryLog {
        let mut log = DeliveryLog::new(seqs.len());
        for (l, seq) in seqs.iter().enumerate() {
            for &m in *seq {
                log.deliver(l, MsgId(m));
            }
        }
        log
    }

    #[test]
    fn linear_partial_order_agrees_with_the_library() {
        let cases: [&[&[u64]]; 5] = [
            &[&[1, 2, 3, 4], &[2, 4], &[1, 3, 5]],
            &[&[1, 2, 3], &[3, 1]],
            &[&[1, 2, 3, 4, 5], &[5, 4]],
            &[&[], &[1, 2]],
            &[&[7, 1, 9, 2], &[1, 7, 2], &[9, 2, 7]],
        ];
        for seqs in cases {
            let log = log_of(seqs);
            assert_eq!(
                partial_order(&log).is_ok(),
                log.check_partial_order().is_ok(),
                "disagreement on {seqs:?}"
            );
        }
    }

    #[test]
    fn linear_partial_order_matches_on_random_interleavings() {
        // A tiny LCG keeps the test free of the rand stand-in.
        let mut x = 12345u64;
        let mut next = move |m: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for _ in 0..200 {
            let mut log = DeliveryLog::new(3);
            for l in 0..3 {
                let mut seq: Vec<u64> = (0..8).filter(|_| next(3) > 0).collect();
                if next(3) == 0 && seq.len() >= 2 {
                    let i = next(seq.len() as u64 - 1) as usize;
                    seq.swap(i, i + 1);
                }
                for m in seq {
                    log.deliver(l, MsgId(m));
                }
            }
            assert_eq!(partial_order(&log).is_ok(), log.check_partial_order().is_ok());
        }
    }

    #[test]
    fn integrity_by_origin_catches_duplicates_and_strangers() {
        let id = |node: u64, seq: u64| (node << 40) | seq;
        let ok = log_of(&[&[id(3, 0), id(4, 0), id(3, 1)]]);
        assert!(integrity_by_origin(&ok, &[NodeId(3), NodeId(4)]).is_ok());
        assert!(integrity_by_origin(&ok, &[NodeId(3)]).is_err());
        let dup = log_of(&[&[id(3, 0), id(3, 0)]]);
        assert!(integrity_by_origin(&dup, &[NodeId(3)]).is_err());
    }
}
