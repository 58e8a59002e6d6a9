//! The control-plane pieces U-Ring and M-Ring share: the Phase 1
//! promise collector of a coordinator takeover ([`Phase1`]), the
//! coordinator's ring-liveness probe ([`RingProbe`]) and the durable
//! promise ([`persist_promise`]). Plain state with methods that return
//! what to do; the rings own every send and timer. The learner side of
//! recovery (checkpoints, catch-up) is `recovery::LearnerRecovery`.
//!
//! What stays in `uring.rs` / `mring.rs`, because the protocols differ:
//!
//! * **Suspicion stagger** — U-Ring position `k` waits `max(k, 1)` timeouts
//!   (position 0 is the coordinator), M-Ring position `k` waits `k + 1`
//!   (its coordinator is last), and M-Ring re-arms by timer, not by tick.
//! * **Who is asked, over what** — U-Ring sends `Phase1a` / `Ping` over
//!   TCP to its fixed deployment membership; M-Ring over UDP to the
//!   current ring plus spares.
//! * **Layout policy** — U-Ring puts the new coordinator first, then the
//!   promising acceptors, then the other members, and a layout always
//!   bumps the round; M-Ring keeps the old ring minus its coordinator,
//!   pulls spares up to an m-quorum, puts itself last, and a repair keeps
//!   the round.
//! * **Phase 1b's "decided"** — U-Ring acceptors learn, so one delivery
//!   watermark says it (`db_min` / `db_max` in `UTakeover`); M-Ring
//!   acceptors do not, so they list the decisions they saw (`decided`).
//! * **Announce** — U-Ring unicasts `NewRing` to every deployed process
//!   and heartbeats carry the layout; M-Ring multicasts it on the group.
//! * **Rejoin** — a spliced-out U-Ring process asks (`JoinReq`); an
//!   excluded M-Ring acceptor becomes a spare and rejoins by answering a
//!   later probe.

use std::collections::{BTreeMap, BTreeSet};

use paxos::acceptor::Acceptor;
use paxos::msg::{quorum, InstanceId, PaxosMsg, Round};
use recovery::StableHandle;
use simnet::prelude::*;

use crate::value::Batch;

/// An acceptor's revealed votes: `(instance, v-rnd, batch)`.
pub type Votes = Vec<(InstanceId, Round, Batch)>;

/// Phase 1 of a takeover under one round: who promised, and the
/// highest-round vote revealed per instance.
pub struct Phase1 {
    /// The round being acquired.
    pub round: Round,
    /// When this attempt started (a stalled attempt is retried).
    pub started: Time,
    promises: BTreeSet<NodeId>,
    votes: BTreeMap<InstanceId, (Round, Batch)>,
}

impl Phase1 {
    /// Starts collecting promises for `round`.
    pub fn new(round: Round, started: Time) -> Phase1 {
        Phase1 { round, started, promises: BTreeSet::new(), votes: BTreeMap::new() }
    }

    /// Counts `from`'s promise and merges its votes (the highest round
    /// per instance wins, the first seen on a tie). False, and nothing
    /// merged, for another round's promise or a sender already counted.
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

    /// The acceptors that promised.
    pub fn promisers(&self) -> &BTreeSet<NodeId> {
        &self.promises
    }

    /// The value to re-propose per instance some promiser voted in.
    pub fn votes(&self) -> &BTreeMap<InstanceId, (Round, Batch)> {
        &self.votes
    }

    /// The Phase 1b side: `acceptor` promises `round` and reveals its
    /// votes in the instances the candidate can `need`. Empty when the
    /// round is stale — or when nothing is needed, which still promises.
    pub fn reveal(
        acceptor: &mut Acceptor<Batch>,
        round: Round,
        needed: impl Fn(InstanceId) -> bool,
    ) -> Votes {
        match acceptor.receive_1a(round) {
            Some(PaxosMsg::Phase1b { votes, .. }) => {
                votes.into_iter().filter(|(i, _, _)| needed(*i)).collect()
            }
            _ => Votes::new(),
        }
    }
}

/// What the coordinator's liveness check asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeStep {
    /// The ring is moving, idle, or a probe is still collecting.
    Nothing,
    /// Nothing completed for a full timeout: ping the members.
    Probe,
    /// The probe ran half a timeout: lay out a ring from the responders.
    Reform,
}

/// Coordinator-side ring liveness: while instances are outstanding they
/// should keep completing; when none does for a suspicion timeout the
/// coordinator pings the members and re-forms the ring from whoever
/// answered within half a timeout.
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

    /// An outstanding instance completed.
    pub fn progress(&mut self, now: Time) {
        self.last_progress = now;
    }

    /// The periodic check. An idle ring (nothing `outstanding`) counts as
    /// progress, so a stall is only ever measured over open instances.
    pub fn check(&mut self, now: Time, timeout: Dur, outstanding: bool) -> ProbeStep {
        match &self.probe {
            Some((_, started)) if now.saturating_since(*started) >= timeout / 2 => {
                ProbeStep::Reform
            }
            Some(_) => ProbeStep::Nothing,
            None if !outstanding => {
                self.last_progress = now;
                ProbeStep::Nothing
            }
            None if now.saturating_since(self.last_progress) > timeout => ProbeStep::Probe,
            None => ProbeStep::Nothing,
        }
    }

    /// Starts a probe; the coordinator `me` counts as a responder.
    pub fn start(&mut self, me: NodeId, now: Time) {
        self.probe = Some((BTreeSet::from([me]), now));
    }

    /// `from` answered the probe in flight, if any.
    pub fn pong(&mut self, from: NodeId) {
        if let Some((responders, _)) = self.probe.as_mut() {
            responders.insert(from);
        }
    }

    /// Ends the probe: its responders, with the stall clock restarted.
    pub fn finish(&mut self, now: Time) -> Option<BTreeSet<NodeId>> {
        let (responders, _) = self.probe.take()?;
        self.last_progress = now;
        Some(responders)
    }
}

/// Records a promised or adopted round in an acceptor's stable store
/// (`None`: not an acceptor, or no recovery) so a respawned acceptor
/// never votes in a round it promised away. Promise writes are
/// control-sized and rare; `recovery::stable` folds their disk time
/// into the next vote flush.
pub fn persist_promise(store: Option<&StableHandle<Batch>>, round: Round) {
    if let Some(store) = store {
        store.lock().expect("stable store").log_promise(round);
    }
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
        assert!(p.votes().is_empty(), "an uncounted promise merges nothing");
        assert_eq!(p.promisers().len(), 1);
    }

    #[test]
    fn the_highest_round_vote_wins_and_a_tie_keeps_the_first() {
        let (high, tie) = (BatchData::empty(), BatchData::empty());
        let mut p = Phase1::new(r(9), Time::ZERO);
        p.promise(r(9), NodeId(1), vec![(I, r(1), BatchData::empty())]);
        p.promise(r(9), NodeId(2), vec![(I, r(3), high.clone())]);
        p.promise(r(9), NodeId(3), vec![(I, r(3), tie), (InstanceId(8), r(2), BatchData::empty())]);
        let (round, batch) = &p.votes()[&I];
        assert!(*round == r(3) && Rc::ptr_eq(batch, &high));
        assert_eq!(p.votes().len(), 2);
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
        let (t, timeout) = (Time::from_millis, Dur::millis(40));
        let mut p = RingProbe::new(t(0));
        assert_eq!(p.check(t(100), timeout, false), ProbeStep::Nothing, "idle is not a stall");
        assert_eq!(p.check(t(140), timeout, true), ProbeStep::Nothing, "one timeout exactly");
        assert_eq!(p.check(t(141), timeout, true), ProbeStep::Probe);
        p.start(NodeId(0), t(141));
        p.pong(NodeId(2));
        assert_eq!(p.check(t(160), timeout, true), ProbeStep::Nothing, "still collecting");
        assert_eq!(p.check(t(161), timeout, true), ProbeStep::Reform);
        assert_eq!(p.finish(t(161)), Some(BTreeSet::from([NodeId(0), NodeId(2)])));
        p.pong(NodeId(3)); // late: no probe in flight
        assert_eq!(p.check(t(201), timeout, true), ProbeStep::Nothing, "finish restarts the clock");
        p.progress(t(230));
        assert_eq!(p.check(t(270), timeout, true), ProbeStep::Nothing);
        assert_eq!(p.finish(t(270)), None);
    }
}
