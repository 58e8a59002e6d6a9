//! The acceptor role (Tasks 2 and 4 of Algorithm 1).
//!
//! An acceptor maintains `rnd` — the highest round it has *heard of*,
//! shared across instances (§3.3.7) — and, per instance, `v-rnd`/`v-val`,
//! the round and value of its latest vote.

use crate::msg::{InstanceId, PaxosMsg, Round};
use crate::window::Window;

/// Vote state an acceptor stores for one instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Vote<V> {
    /// Round in which the vote was cast.
    pub v_rnd: Round,
    /// Voted value.
    pub v_val: V,
}

/// A Paxos acceptor.
///
/// Vote storage is a dense sliding [`Window`]: instances are proposed
/// contiguously and garbage-collected from below (§3.3.7), so
/// `window[instance - base]` makes the per-packet operations
/// ([`Acceptor::vote`], [`Acceptor::receive_2a`]) plain array indexing
/// instead of tree searches. The rare vote below the window (a
/// retransmission older than the GC watermark) falls back to the
/// window's side map, preserving the exact semantics of the previous
/// `BTreeMap` storage.
#[derive(Clone, Debug, Default)]
pub struct Acceptor<V> {
    rnd: Round,
    votes: Window<Vote<V>>,
}

impl<V: Clone> Acceptor<V> {
    /// Creates a fresh acceptor.
    pub fn new() -> Acceptor<V> {
        Acceptor { rnd: Round::ZERO, votes: Window::new() }
    }

    /// The highest round this acceptor has promised.
    pub fn rnd(&self) -> Round {
        self.rnd
    }

    /// The acceptor's vote in `instance`, if it has cast one.
    #[inline]
    pub fn vote(&self, instance: InstanceId) -> Option<&Vote<V>> {
        self.votes.get(instance)
    }

    /// Handles a Phase 1A message. Returns the Phase 1B reply if the round
    /// is higher than anything promised so far, `None` otherwise (stale).
    pub fn receive_1a(&mut self, round: Round) -> Option<PaxosMsg<V>> {
        if round > self.rnd {
            self.rnd = round;
            let votes: Vec<(InstanceId, Round, V)> =
                self.votes.iter().map(|(i, v)| (i, v.v_rnd, v.v_val.clone())).collect();
            Some(PaxosMsg::Phase1b { round: self.rnd, votes })
        } else {
            None
        }
    }

    /// Handles a Phase 2A message: votes for `value` unless a higher round
    /// has been promised. Returns the Phase 2B reply on success.
    pub fn receive_2a(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: V,
    ) -> Option<PaxosMsg<V>> {
        if round >= self.rnd {
            self.rnd = round;
            self.votes.insert(instance, Vote { v_rnd: round, v_val: value });
            Some(PaxosMsg::Phase2b { instance, round })
        } else {
            None
        }
    }

    /// Rebuilds an acceptor from durable state (the recovery subsystem's
    /// write-ahead log): the promised round and stored votes are
    /// installed verbatim. Replaying through [`Acceptor::receive_2a`]
    /// would be wrong — recovered state legitimately holds votes whose
    /// `v-rnd` is below the shared promised round.
    pub fn restore(
        promised: Round,
        votes: impl IntoIterator<Item = (InstanceId, Round, V)>,
    ) -> Acceptor<V> {
        let mut a = Acceptor::new();
        let votes: Vec<(InstanceId, Round, V)> = votes.into_iter().collect();
        // A trimmed log starts at the checkpoint watermark, which in a
        // long run is far above zero: base the dense window there
        // instead of allocating (and asserting about) every slot since
        // instance 0.
        if let Some(first) = votes.iter().map(|&(i, _, _)| i).min() {
            a.votes.advance_base(first);
        }
        let mut max_rnd = promised;
        for (instance, v_rnd, v_val) in votes {
            max_rnd = max_rnd.max(v_rnd);
            a.votes.insert(instance, Vote { v_rnd, v_val });
        }
        a.rnd = max_rnd;
        a
    }

    /// Discards vote state for all instances strictly below `instance`
    /// (garbage collection, §3.3.7). The shared `rnd` is retained.
    pub fn gc_below(&mut self, instance: InstanceId) {
        self.votes.advance_base(instance);
    }

    /// The garbage-collection watermark: the lowest instance whose vote
    /// state is still retained in the dense window ([`Acceptor::gc_below`]).
    pub fn gc_base(&self) -> InstanceId {
        self.votes.base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(c: u64) -> Round {
        Round::new(c, 0)
    }

    #[test]
    fn promises_only_higher_rounds() {
        let mut a: Acceptor<u32> = Acceptor::new();
        assert!(a.receive_1a(r(2)).is_some());
        assert!(a.receive_1a(r(2)).is_none(), "same round refused");
        assert!(a.receive_1a(r(1)).is_none(), "lower round refused");
        assert!(a.receive_1a(r(3)).is_some());
        assert_eq!(a.rnd(), r(3));
    }

    #[test]
    fn votes_at_or_above_promise() {
        let mut a: Acceptor<u32> = Acceptor::new();
        a.receive_1a(r(5));
        // Vote in the promised round succeeds.
        assert!(a.receive_2a(InstanceId(0), r(5), 42).is_some());
        // A lower round is rejected.
        assert!(a.receive_2a(InstanceId(0), r(4), 43).is_none());
        // A higher round succeeds and bumps rnd.
        assert!(a.receive_2a(InstanceId(0), r(6), 44).is_some());
        assert_eq!(a.rnd(), r(6));
        assert_eq!(a.vote(InstanceId(0)).unwrap().v_val, 44);
    }

    #[test]
    fn phase1b_reports_prior_votes() {
        let mut a: Acceptor<u32> = Acceptor::new();
        a.receive_2a(InstanceId(3), r(1), 7);
        a.receive_2a(InstanceId(5), r(1), 9);
        match a.receive_1a(r(2)).unwrap() {
            PaxosMsg::Phase1b { round, votes } => {
                assert_eq!(round, r(2));
                assert_eq!(votes, vec![(InstanceId(3), r(1), 7), (InstanceId(5), r(1), 9)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vote_does_not_regress_after_new_promise() {
        let mut a: Acceptor<u32> = Acceptor::new();
        a.receive_2a(InstanceId(0), r(1), 7);
        a.receive_1a(r(3));
        // The old vote survives the new promise.
        assert_eq!(a.vote(InstanceId(0)).unwrap().v_val, 7);
        assert_eq!(a.vote(InstanceId(0)).unwrap().v_rnd, r(1));
        // Voting in round 2 is now refused (promised 3).
        assert!(a.receive_2a(InstanceId(0), r(2), 8).is_none());
    }

    #[test]
    fn restore_installs_state_verbatim_and_bases_the_window_high() {
        // A trimmed log starting far above instance 0 (e.g. 2^25, past
        // the window's jump guard) must not allocate slots from zero.
        let base = 1u64 << 25;
        let votes = vec![(InstanceId(base), r(1), 7u32), (InstanceId(base + 3), r(2), 8)];
        let a = Acceptor::restore(r(2), votes);
        assert_eq!(a.rnd(), r(2));
        assert_eq!(a.vote(InstanceId(base)).unwrap().v_val, 7);
        assert_eq!(a.vote(InstanceId(base)).unwrap().v_rnd, r(1), "old v-rnd kept");
        assert_eq!(a.vote(InstanceId(base + 3)).unwrap().v_val, 8);
        // A higher durable vote round wins over the logged promise.
        let b = Acceptor::restore(r(1), vec![(InstanceId(0), r(4), 9u32)]);
        assert_eq!(b.rnd(), r(4));
    }

    #[test]
    fn gc_discards_old_instances_only() {
        let mut a: Acceptor<u32> = Acceptor::new();
        for i in 0..10 {
            a.receive_2a(InstanceId(i), r(1), i as u32);
        }
        a.gc_below(InstanceId(7));
        assert!(a.vote(InstanceId(6)).is_none());
        assert!(a.vote(InstanceId(7)).is_some());
        assert_eq!(a.rnd(), r(1), "shared rnd survives gc");
    }

    #[test]
    fn late_vote_below_gc_watermark_is_stored() {
        // A retransmitted 2A older than the GC watermark must still be
        // voteable, exactly as with the previous map storage.
        let mut a: Acceptor<u32> = Acceptor::new();
        a.receive_2a(InstanceId(8), r(1), 1);
        a.gc_below(InstanceId(5));
        assert!(a.receive_2a(InstanceId(2), r(1), 9).is_some());
        assert_eq!(a.vote(InstanceId(2)).unwrap().v_val, 9);
        // Phase 1B reports it, in ascending instance order.
        match a.receive_1a(r(2)).unwrap() {
            PaxosMsg::Phase1b { votes, .. } => {
                let keys: Vec<u64> = votes.iter().map(|(i, _, _)| i.0).collect();
                assert_eq!(keys, vec![2, 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
