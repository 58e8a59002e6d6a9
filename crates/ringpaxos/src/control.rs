//! Control-plane state U-Ring and M-Ring share: a takeover's promise
//! collector ([`Phase1`]), the coordinator's ring-liveness probe
//! ([`RingProbe`]), the durable promise ([`persist_promise`]) and what
//! recovery demands of the vote log ([`assert_writes_ahead`]). They
//! decide; the rings send and arm timers. (The learner side is
//! `recovery::LearnerRecovery`, the vote writes `recovery::VoteLog`.)
//! What stays per ring, the protocols differing:
//!
//! * **stagger** — U-Ring position `k` suspects after `max(k, 1)`
//!   timeouts, M-Ring's after `k + 1` (its coordinator sits last);
//! * **who is asked** — U-Ring its fixed membership over TCP, M-Ring the
//!   current ring and spares over UDP;
//! * **layout** — U-Ring: candidate first, promisers, the rest, and every
//!   layout a new round; M-Ring: the old ring less its coordinator, spares
//!   up to an m-quorum, candidate last, and a repair keeps the round;
//! * **1b's "decided"** — U-Ring acceptors learn, so a delivery watermark
//!   (`db_min` / `db_max`); M-Ring's do not, so the decisions they saw;
//! * **announce** — U-Ring unicasts `NewRing` to every process, heartbeats
//!   carrying the layout; M-Ring multicasts it on the group;
//! * **rejoin** — a spliced-out U-Ring process asks (`JoinReq`); an
//!   excluded M-Ring acceptor turns spare and answers a later probe.

use std::collections::{BTreeMap, BTreeSet};

use paxos::acceptor::Acceptor;
use paxos::msg::{quorum, InstanceId, PaxosMsg, Round};
use recovery::{StableHandle, StorageMode};
use simnet::prelude::*;

use crate::value::Batch;

/// An acceptor's revealed votes: `(instance, v-rnd, batch)`.
pub type Votes = Vec<(InstanceId, Round, Batch)>;

/// Phase 1 of a takeover; only [`Phase1::promise`] writes its sets.
pub struct Phase1 {
    /// The round being acquired.
    pub round: Round,
    /// When this attempt started (a stalled one is retried).
    pub started: Time,
    /// The acceptors that promised.
    pub promises: BTreeSet<NodeId>,
    /// The highest-round vote revealed per instance: what to re-propose.
    pub votes: BTreeMap<InstanceId, (Round, Batch)>,
}

impl Phase1 {
    /// Starts collecting promises for `round`.
    pub fn new(round: Round, started: Time) -> Phase1 {
        Phase1 { round, started, promises: BTreeSet::new(), votes: BTreeMap::new() }
    }

    /// Counts `from`'s promise and merges its votes: per instance the
    /// highest round wins, the first seen on a tie. False, and nothing
    /// merged, for another round or a sender already counted.
    pub fn promise(&mut self, round: Round, from: NodeId, votes: Votes) -> bool {
        if round != self.round || !self.promises.insert(from) {
            return false;
        }
        for (i, vr, b) in votes {
            if self.votes.get(&i).is_none_or(|(prev, _)| *prev < vr) {
                self.votes.insert(i, (vr, b));
            }
        }
        true
    }

    /// Whether a quorum of `n_acceptors` has promised.
    pub fn has_quorum(&self, n_acceptors: usize) -> bool {
        self.promises.len() >= quorum(n_acceptors)
    }

    /// The 1b side: `acceptor` promises `round` and reveals its votes in
    /// the instances the candidate can need — none is still a promise.
    pub fn reveal(
        acceptor: &mut Acceptor<Batch>,
        round: Round,
        needed: impl Fn(InstanceId) -> bool,
    ) -> Votes {
        let Some(PaxosMsg::Phase1b { votes, .. }) = acceptor.receive_1a(round) else {
            return Votes::new();
        };
        votes.into_iter().filter(|(i, _, _)| needed(*i)).collect()
    }
}

/// What [`RingProbe::check`] asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeStep {
    /// The ring moves, idles, or a probe is still collecting.
    Nothing,
    /// Nothing completed for a full timeout: a probe began, ping everyone.
    Probe,
    /// The probe ran half a timeout: re-form the ring from who answered.
    Reform(BTreeSet<NodeId>),
}

/// Coordinator-side ring liveness: open instances must keep completing.
#[derive(Debug)]
pub struct RingProbe {
    last_progress: Time,
    /// Responders and start of the probe in flight.
    probe: Option<(BTreeSet<NodeId>, Time)>,
}

impl RingProbe {
    /// A ring that last made progress at `now`.
    pub fn new(now: Time) -> RingProbe {
        RingProbe { last_progress: now, probe: None }
    }

    /// An open instance completed.
    pub fn progress(&mut self, now: Time) {
        self.last_progress = now;
    }

    /// The coordinator `me`'s periodic check. Idling (nothing `open`)
    /// counts as progress, and a finished probe restarts the stall clock.
    pub fn check(&mut self, me: NodeId, now: Time, timeout: Dur, open: bool) -> ProbeStep {
        match self.probe.take() {
            Some((responders, at)) if now.saturating_since(at) >= timeout / 2 => {
                self.last_progress = now;
                return ProbeStep::Reform(responders);
            }
            None if open && now.saturating_since(self.last_progress) > timeout => {
                self.probe = Some((BTreeSet::from([me]), now));
                return ProbeStep::Probe;
            }
            None if !open => self.last_progress = now,
            collecting => self.probe = collecting,
        }
        ProbeStep::Nothing
    }

    /// `from` answered the probe in flight, if any.
    pub fn pong(&mut self, from: NodeId) {
        if let Some((responders, _)) = self.probe.as_mut() {
            responders.insert(from);
        }
    }
}

/// Records a promised or adopted round in an acceptor's stable store
/// (`None`: no such role, or no recovery): a respawned acceptor must not
/// vote in a round it promised away. Control-sized and rare, so
/// `recovery::stable` folds the disk time into the next vote flush.
pub fn persist_promise(store: Option<&StableHandle<Batch>>, round: Round) {
    if let Some(store) = store {
        store.lock().expect("stable store").log_promise(round);
    }
}

/// Recovery replays the vote log into a respawned acceptor, so every
/// vote it counted must be in the log before it left.
pub(crate) fn assert_writes_ahead(storage: StorageMode) {
    assert!(
        storage == StorageMode::SyncDisk,
        "recovery needs the vote log (SyncDisk), not {storage:?}: \
         a respawned acceptor would forget votes a quorum counted"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BatchData;
    use std::rc::Rc;

    const I: InstanceId = InstanceId(7);

    fn r(counter: u64) -> Round {
        Round::new(counter, 0)
    }

    #[test]
    fn a_promise_counts_once_per_sender_and_only_in_its_round() {
        let mut p = Phase1::new(r(2), Time::ZERO);
        assert!(!p.promise(r(3), NodeId(1), vec![(I, r(1), BatchData::empty())]), "other round");
        assert!(p.promise(r(2), NodeId(1), vec![]));
        assert!(!p.promise(r(2), NodeId(1), vec![(I, r(1), BatchData::empty())]), "repeated");
        assert!(p.votes.is_empty(), "an uncounted promise merges nothing");
        assert_eq!(p.promises.len(), 1);
    }

    #[test]
    fn the_highest_round_vote_wins_and_a_tie_keeps_the_first() {
        let (high, tie) = (BatchData::empty(), BatchData::empty());
        let mut p = Phase1::new(r(9), Time::ZERO);
        p.promise(r(9), NodeId(1), vec![(I, r(1), BatchData::empty())]);
        p.promise(r(9), NodeId(2), vec![(I, r(3), high.clone())]);
        p.promise(r(9), NodeId(3), vec![(I, r(3), tie), (InstanceId(8), r(2), BatchData::empty())]);
        let (round, batch) = &p.votes[&I];
        assert!(*round == r(3) && Rc::ptr_eq(batch, &high));
        assert_eq!(p.votes.len(), 2);
    }

    #[test]
    fn quorum_is_two_of_three_and_three_of_five() {
        for (n, need) in [(3, 2), (5, 3)] {
            let mut p = Phase1::new(r(2), Time::ZERO);
            for k in 0..need {
                assert!(!p.has_quorum(n), "{k} of {n}");
                p.promise(r(2), NodeId(k), vec![]);
            }
            assert!(p.has_quorum(n), "{need} of {n}");
        }
    }

    #[test]
    fn reveal_filters_and_still_promises() {
        let mut a: Acceptor<Batch> = Acceptor::new();
        for i in 0..4 {
            a.receive_2a(InstanceId(i), r(1), BatchData::empty());
        }
        let votes = Phase1::reveal(&mut a, r(2), |i| i >= InstanceId(2));
        assert_eq!(votes.iter().map(|v| v.0 .0).collect::<Vec<_>>(), [2, 3]);
        assert!(Phase1::reveal(&mut a, r(3), |_| false).is_empty());
        assert_eq!(a.rnd(), r(3), "revealing nothing is still a promise");
        assert!(Phase1::reveal(&mut a, r(3), |_| true).is_empty(), "stale round");
    }

    #[test]
    fn probe_after_a_full_timeout_of_open_instances_and_reform_half_a_timeout_later() {
        let (me, t, timeout) = (NodeId(0), Time::from_millis, Dur::millis(40));
        let mut p = RingProbe::new(t(0));
        assert_eq!(p.check(me, t(100), timeout, false), ProbeStep::Nothing, "idle is no stall");
        assert_eq!(p.check(me, t(140), timeout, true), ProbeStep::Nothing, "one timeout exactly");
        assert_eq!(p.check(me, t(141), timeout, true), ProbeStep::Probe);
        p.pong(NodeId(2));
        assert_eq!(p.check(me, t(160), timeout, true), ProbeStep::Nothing, "still collecting");
        let answered = BTreeSet::from([me, NodeId(2)]);
        assert_eq!(p.check(me, t(161), timeout, true), ProbeStep::Reform(answered));
        p.pong(NodeId(3)); // late: no probe in flight
        assert_eq!(p.check(me, t(201), timeout, true), ProbeStep::Nothing, "the clock restarted");
        p.progress(t(230));
        assert_eq!(p.check(me, t(270), timeout, true), ProbeStep::Nothing);
        assert_eq!(p.check(me, t(271), timeout, true), ProbeStep::Probe);
    }
}
