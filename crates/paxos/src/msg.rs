//! Message and identifier types for Basic Paxos (thesis Algorithm 1).

use std::fmt;

/// A round (ballot) number. Rounds are totally ordered and unique per
/// coordinator: the pair `(counter, proposer)` compares lexicographically,
/// so two coordinators can never produce the same round.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round {
    /// Monotone counter chosen by the coordinator.
    pub counter: u64,
    /// Index of the coordinator that owns this round.
    pub owner: u32,
}

impl Round {
    /// The zero round: no coordinator has started anything yet.
    pub const ZERO: Round = Round { counter: 0, owner: 0 };

    /// Creates a round owned by `owner`.
    pub fn new(counter: u64, owner: u32) -> Round {
        Round { counter, owner }
    }

    /// The smallest round owned by `owner` that is greater than `self`.
    pub fn next_for(self, owner: u32) -> Round {
        Round { counter: self.counter + 1, owner }
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.counter, self.owner)
    }
}

/// Index of a consensus instance in the replicated log.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u64);

impl InstanceId {
    /// The next instance in the log.
    pub fn next(self) -> InstanceId {
        InstanceId(self.0 + 1)
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Majority quorum size for `n` acceptors: `ceil((n + 1) / 2)`.
pub fn quorum(n_acceptors: usize) -> usize {
    n_acceptors / 2 + 1
}

/// The Paxos messages of Algorithm 1, generic over the proposed value type.
#[derive(Clone, Debug, PartialEq)]
pub enum PaxosMsg<V> {
    /// Phase 1A: the coordinator asks acceptors to join `round`.
    Phase1a {
        /// Round being started.
        round: Round,
    },
    /// Phase 1B: an acceptor promises `round` and reports its vote state
    /// for every instance it has voted in.
    Phase1b {
        /// Round the acceptor is promising.
        round: Round,
        /// `(instance, v-rnd, v-val)` for instances with a cast vote.
        votes: Vec<(InstanceId, Round, V)>,
    },
    /// Phase 2A: the coordinator proposes `value` in `instance` at `round`.
    Phase2a {
        /// Target instance.
        instance: InstanceId,
        /// Proposing round.
        round: Round,
        /// Proposed value.
        value: V,
    },
    /// Phase 2B: an acceptor's vote for `instance` at `round`.
    Phase2b {
        /// Voted instance.
        instance: InstanceId,
        /// Voted round.
        round: Round,
    },
    /// The decision notification for learners.
    Decision {
        /// Decided instance.
        instance: InstanceId,
        /// Decided value.
        value: V,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_order_lexicographically() {
        assert!(Round::new(1, 0) < Round::new(1, 1));
        assert!(Round::new(1, 9) < Round::new(2, 0));
        assert!(Round::ZERO < Round::new(0, 1));
    }

    #[test]
    fn next_for_is_strictly_greater() {
        let r = Round::new(3, 2);
        assert!(r.next_for(0) > r);
        assert!(r.next_for(7) > r);
    }

    #[test]
    fn quorum_sizes() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 3);
    }

    #[test]
    fn instance_next() {
        assert_eq!(InstanceId(4).next(), InstanceId(5));
    }
}
