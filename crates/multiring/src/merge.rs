//! Deterministic merge of per-ring instance streams (ch. 5, §5.2.1).
//!
//! A learner subscribed to groups `g_{l1} < g_{l2} < …` delivers `M`
//! logical consensus instances from each group in round-robin order.
//! Skip instances count with their weight but deliver nothing, so a slow
//! ring never stalls a learner for long (provided its coordinator keeps
//! proposing skips).

use ringpaxos::Batch;
use std::collections::VecDeque;

/// One entry of a ring's in-order stream: a decided batch plus the number
/// of logical instances it stands for (`1` for a normal batch, the skip
/// weight for a skip batch).
#[derive(Clone, Debug)]
pub struct MergeEntry {
    /// Decided batch (empty for skips).
    pub batch: Batch,
    /// Logical instances this entry consumes in the merge.
    pub weight: u64,
}

/// Deterministic round-robin merge across subscribed rings.
#[derive(Debug)]
pub struct DeterministicMerge {
    m: u64,
    queues: Vec<VecDeque<MergeEntry>>,
    /// Ring currently being drained and its remaining credit.
    current: usize,
    credit: u64,
}

impl DeterministicMerge {
    /// Creates a merge over `rings` subscribed rings delivering `m`
    /// consecutive logical instances per ring per turn.
    ///
    /// # Panics
    /// Panics if `rings == 0` or `m == 0`.
    pub fn new(rings: usize, m: u64) -> DeterministicMerge {
        assert!(rings > 0 && m > 0, "merge needs at least one ring and m >= 1");
        DeterministicMerge {
            m,
            queues: (0..rings).map(|_| VecDeque::new()).collect(),
            current: 0,
            credit: m,
        }
    }

    /// Appends the next in-order entry of ring `ring`.
    pub fn push(&mut self, ring: usize, entry: MergeEntry) {
        self.queues[ring].push_back(entry);
    }

    /// Pops the next deliverable batch in merge order, consuming skips
    /// silently. Returns `None` when the merge is blocked waiting for the
    /// current ring.
    pub fn pop(&mut self) -> Option<(usize, Batch)> {
        loop {
            let ring = self.current;
            let credit = self.credit;
            let q = &mut self.queues[ring];
            let front = q.front_mut()?;
            if front.weight <= credit {
                let entry = q.pop_front().expect("front checked");
                self.credit -= entry.weight;
                if self.credit == 0 {
                    self.advance();
                }
                if entry.batch.is_empty() {
                    continue; // a pure skip: nothing to deliver
                }
                return Some((ring, entry.batch));
            }
            // A heavy skip spanning several turns: consume this turn's
            // credit and move on.
            front.weight -= credit;
            self.advance();
        }
    }

    fn advance(&mut self) {
        self.current = (self.current + 1) % self.queues.len();
        self.credit = self.m;
    }

    /// Entries buffered for one ring and not yet merged (the
    /// back-pressure signal).
    pub fn buffered_in(&self, ring: usize) -> usize {
        self.queues[ring].len()
    }

    /// The ring the merge is waiting on (the head-of-line blocker when
    /// [`DeterministicMerge::pop`] returns `None`).
    pub fn waiting_on(&self) -> usize {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(weight: u64, vals: usize) -> MergeEntry {
        let v = (0..vals)
            .map(|i| ringpaxos::Value {
                id: abcast::MsgId(i as u64),
                proposer: simnet::ids::NodeId(0),
                seq: i as u64,
                bytes: 10,
                submitted: simnet::time::Time::ZERO,
                mask: ringpaxos::value::ALL_PARTITIONS,
            })
            .collect::<Vec<_>>();
        MergeEntry { batch: ringpaxos::BatchData::new(v), weight }
    }

    #[test]
    fn round_robin_with_m_1() {
        let mut m = DeterministicMerge::new(2, 1);
        m.push(0, entry(1, 1));
        m.push(0, entry(1, 1));
        m.push(1, entry(1, 1));
        m.push(1, entry(1, 1));
        let order: Vec<usize> = std::iter::from_fn(|| m.pop().map(|(r, _)| r)).collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn m_2_takes_two_per_turn() {
        let mut m = DeterministicMerge::new(2, 2);
        for _ in 0..4 {
            m.push(0, entry(1, 1));
            m.push(1, entry(1, 1));
        }
        let order: Vec<usize> = std::iter::from_fn(|| m.pop().map(|(r, _)| r)).collect();
        assert_eq!(order, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn blocks_on_missing_ring() {
        let mut m = DeterministicMerge::new(2, 1);
        m.push(0, entry(1, 1));
        assert!(m.pop().is_some());
        // Now waiting on ring 1, which has nothing.
        m.push(0, entry(1, 1));
        assert!(m.pop().is_none());
        assert_eq!(m.waiting_on(), 1);
        assert_eq!(m.buffered_in(0), 1);
        m.push(1, entry(1, 1));
        assert_eq!(m.pop().map(|(r, _)| r), Some(1));
        assert_eq!(m.pop().map(|(r, _)| r), Some(0));
    }

    #[test]
    fn skips_consume_without_delivering() {
        let mut m = DeterministicMerge::new(2, 1);
        m.push(0, entry(1, 1));
        m.push(1, MergeEntry { batch: ringpaxos::BatchData::empty(), weight: 1 });
        m.push(0, entry(1, 1));
        m.push(1, MergeEntry { batch: ringpaxos::BatchData::empty(), weight: 1 });
        let order: Vec<usize> = std::iter::from_fn(|| m.pop().map(|(r, _)| r)).collect();
        // Only ring 0's batches surface; ring 1's skips pass silently.
        assert_eq!(order, vec![0, 0]);
    }

    #[test]
    fn heavy_skip_spans_multiple_turns() {
        let mut m = DeterministicMerge::new(2, 1);
        // Ring 1 has a skip worth 3 turns.
        m.push(1, MergeEntry { batch: ringpaxos::BatchData::empty(), weight: 3 });
        for _ in 0..4 {
            m.push(0, entry(1, 1));
        }
        let order: Vec<usize> = std::iter::from_fn(|| m.pop().map(|(r, _)| r)).collect();
        // All four of ring 0's batches deliver; the heavy skip absorbs
        // ring 1's turns in between without blocking.
        assert_eq!(order, vec![0, 0, 0, 0]);
    }

    #[test]
    fn deterministic_across_push_orders() {
        // The merge result depends only on per-ring sequences, not on the
        // interleaving of pushes.
        let seq = |push_zero_first: bool| {
            let mut m = DeterministicMerge::new(2, 1);
            if push_zero_first {
                for i in 0..3 {
                    m.push(0, entry(1, i + 1));
                }
                for i in 0..3 {
                    m.push(1, entry(1, i + 1));
                }
            } else {
                for i in 0..3 {
                    m.push(1, entry(1, i + 1));
                }
                for i in 0..3 {
                    m.push(0, entry(1, i + 1));
                }
            }
            std::iter::from_fn(|| m.pop().map(|(r, b)| (r, b.len()))).collect::<Vec<_>>()
        };
        assert_eq!(seq(true), seq(false));
    }

    #[test]
    #[should_panic(expected = "at least one ring")]
    fn zero_rings_rejected() {
        let _ = DeterministicMerge::new(0, 1);
    }
}
