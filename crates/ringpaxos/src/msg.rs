//! Wire messages of the Ring Paxos protocols.

use std::rc::Rc;

use paxos::msg::{InstanceId, Round};
use simnet::ids::NodeId;

use crate::value::{Batch, Command, Value};

/// Wire size of a control-only message on either ring (a 2B, a decision,
/// a repair request's base); the floor of every payload message's.
pub const CTL_BYTES: u32 = 32;

/// The links of a partitioned ring's 2A (`mring` module docs,
/// "Partitioned rings"): for each learner mask the batch touches, the
/// first instance after the previous one the coordinator proposed for
/// it. Shared by every copy and record of the 2A; `None` on a classic
/// ring.
pub type Links = Option<Rc<[(u32, InstanceId)]>>;

/// Messages exchanged by M-Ring Paxos processes (Algorithm 2 plus the
/// engineering machinery of §3.3.4–§3.3.7).
#[derive(Clone, Debug)]
pub enum MMsg {
    /// Proposer submits a value to the coordinator, with its command on
    /// a ring that orders a service's commands (`value` module docs,
    /// "Commands ride in the batch").
    Propose(Value, Option<Command>),
    /// Coordinator ip-multicasts a proposal; decisions of earlier
    /// instances and the GC watermark ride along (§3.3.2 optimization).
    Phase2a {
        /// Consensus instance of this batch.
        instance: InstanceId,
        /// Coordinator's round.
        round: Round,
        /// The proposed batch: its values, partition mask and skip
        /// weight (`value` module docs, "The instance's shape").
        batch: Batch,
        /// Instances decided since the last packet, with each instance's
        /// partition mask (piggybacked DECISION).
        decisions: Rc<Vec<(InstanceId, u32)>>,
        /// Acceptors may discard state below this instance (§3.3.7).
        gc_upto: InstanceId,
        /// Every instance below this is decided (the coordinator's lowest
        /// outstanding instance). Lets acceptors answer retransmission
        /// requests authoritatively even if an individual decision
        /// notification was lost.
        decided_below: InstanceId,
        /// What a partitioned ring's learners pass over before this
        /// instance ([`Links`]).
        links: Links,
    },
    /// Vote relayed along the ring; reaching the coordinator completes the
    /// quorum. A partitioned ring's last acceptor multicasts it on the
    /// batch's groups, and every receiver but the coordinator takes it
    /// as the decision (`mring` module docs, "Partitioned rings").
    Phase2b {
        /// Voted instance.
        instance: InstanceId,
        /// Voted round.
        round: Round,
        /// The sender's vote floor: it has sent this successor a 2B at
        /// `round` for every instance below this since the link's
        /// first; 0 where it cannot vouch (`mring` module docs, "Loss
        /// recovery").
        through: InstanceId,
    },
    /// Standalone decision notification (when there is no 2A to piggyback
    /// on; on a partitioned ring, only what a takeover revealed decided).
    Decision {
        /// Newly decided instances with their partition masks.
        instances: Rc<Vec<(InstanceId, u32)>>,
        /// Round in which these instances were decided — learners match
        /// it against the round of their buffered payload, the moral
        /// equivalent of the paper's consensus-on-value-ids (`c-vid`).
        round: Round,
        /// GC watermark.
        gc_upto: InstanceId,
        /// Every instance below this is decided.
        decided_below: InstanceId,
    },
    /// Learner → acceptor → … → coordinator: slow down (§3.3.6).
    SlowDown,
    /// A learner asks its preferential acceptor, an acceptor a ring
    /// neighbour (the first acceptor its successor, a mid-ring acceptor
    /// its predecessor), for lost instances (§3.3.4).
    RetransReq {
        /// Requesting process.
        from: NodeId,
        /// Instances that cannot be delivered, each with whether the
        /// payload is needed. `false`: the requester holds the payload
        /// and lacks only the decision, which is all it is sent
        /// ([`MMsg::RetransDecided`]) — if the acceptor knows one.
        instances: Vec<(InstanceId, bool)>,
    },
    /// Retransmission of one instance, payload included.
    RetransRep {
        /// The instance.
        instance: InstanceId,
        /// Its batch (the acceptor's stored vote), shape included.
        batch: Batch,
        /// Whether the acceptor knows it decided.
        decided: bool,
        /// Round of the acceptor's stored vote.
        round: Round,
        /// The links the acceptor recorded with its vote, at its round.
        links: Links,
    },
    /// Retransmission of one instance's decision alone (control-sized):
    /// to a learner that holds the payload, or whose partition the
    /// instance does not touch.
    RetransDecided {
        /// The instance.
        instance: InstanceId,
        /// Round of the acceptor's stored (decided) vote.
        round: Round,
        /// Partition mask of the batch.
        mask: u32,
    },
    /// Learner reports its applied version for garbage collection.
    Version {
        /// Reporting learner.
        learner: NodeId,
        /// Highest instance applied, plus one.
        applied: InstanceId,
    },
    /// Failover: candidate coordinator starts a higher round.
    Phase1a {
        /// New round.
        round: Round,
        /// Candidate node.
        from: NodeId,
    },
    /// Failover: acceptor's promise with its vote state.
    Phase1b {
        /// Promised round.
        round: Round,
        /// Promising acceptor.
        from: NodeId,
        /// Votes: `(instance, v-rnd, batch)`. The batch carries the
        /// instance's mask and skip weight, so the candidate re-proposes
        /// it on its own partitions, at its own weight.
        votes: Vec<(InstanceId, Round, Batch)>,
        /// Instances the acceptor knows are decided.
        decided: Vec<InstanceId>,
    },
    /// New coordinator announces itself and the reformed ring.
    NewRing {
        /// The new round.
        round: Round,
        /// The new coordinator.
        coord: NodeId,
        /// Acceptors in new ring order (coordinator last).
        ring: Vec<NodeId>,
    },
    /// Ring repair (§3.3.4/§3.3.5): the coordinator probes the acceptors
    /// when the 2B relay stalls, before laying out a new ring that
    /// excludes the silent process.
    Ping {
        /// The probing coordinator.
        from: NodeId,
    },
    /// An acceptor's liveness reply to a [`MMsg::Ping`].
    Pong {
        /// The responding acceptor.
        from: NodeId,
    },
    /// Keep-alive multicast by an idle coordinator. Carries the ring
    /// layout so processes that missed a `NewRing` (e.g., restarted after
    /// a pause) resynchronize.
    Heartbeat {
        /// Coordinator's round.
        round: Round,
        /// The coordinator.
        coord: NodeId,
        /// Current ring layout.
        ring: Vec<NodeId>,
    },
    /// Recovery: a restarted learner asks its preferential acceptor for
    /// the decided suffix from `next` in bulk, over TCP (the per-loss
    /// UDP retransmission path is too slow for a whole outage).
    CatchupReq {
        /// The recovering learner.
        from: NodeId,
        /// First instance it is missing.
        next: InstanceId,
    },
    /// Recovery: a chunk of decided instances from the acceptor's
    /// stored votes, `(instance, batch, vote round)`.
    CatchupRep {
        /// Contiguous decided instances from the requested point.
        batches: Vec<(InstanceId, Batch, Round)>,
        /// One past the highest instance the acceptor knows decided.
        upto: InstanceId,
        /// Lowest instance the acceptor can still serve (its GC
        /// watermark). When this is above the requested point, the
        /// requester has fallen behind the ring's §3.3.7 collection and
        /// must fetch a peer learner's checkpoint first ([`MMsg::SnapReq`]).
        available_from: InstanceId,
    },
    /// Recovery: a learner that fell below the acceptors' GC watermark
    /// asks a peer learner for its durable checkpoint (the paper's
    /// "state transfer from a peer with a sufficiently recent version",
    /// §3.3.7). Over TCP.
    SnapReq {
        /// The requesting learner.
        from: NodeId,
    },
    /// Recovery: a peer learner's durable checkpoint; `state_bytes` are
    /// charged on the wire.
    SnapRep {
        /// The checkpoint (absent when the peer has none yet).
        snap: Option<recovery::Checkpoint>,
    },
}

/// Messages of U-Ring Paxos (Algorithm 3). All travel over TCP between
/// ring neighbours.
#[derive(Clone, Debug)]
pub enum UMsg {
    /// A value forwarded along the ring towards the coordinator (Task 1).
    Forward(Value),
    /// Combined Phase 2A/2B travelling down the acceptor segment: the 2A
    /// carrying the vote of every acceptor up to the sender.
    Phase2ab {
        /// Consensus instance.
        instance: InstanceId,
        /// Round.
        round: Round,
        /// Proposed batch.
        batch: Batch,
    },
    /// A 2A relayed ahead of the sender's vote, which is not durable yet
    /// (or whose predecessor's vote is still to come): the vote follows
    /// as a [`UMsg::Phase2b`] (`uring` module docs, "Durable votes").
    Phase2a {
        /// Consensus instance.
        instance: InstanceId,
        /// Round.
        round: Round,
        /// Proposed batch.
        batch: Batch,
    },
    /// The sender's vote, sent once it is durable and every acceptor
    /// before it has voted — so it stands for all of them. Control-sized.
    Phase2b {
        /// Voted instance.
        instance: InstanceId,
        /// Voted round.
        round: Round,
    },
    /// Decision circulating the ring (Task 5). The batch object rides
    /// along for delivery, but each value's bytes are only charged on the
    /// wire until the hop before its proposer — every payload crosses
    /// every link exactly once, which is what makes U-Ring Paxos ~90%
    /// efficient (Table 3.2).
    Decision {
        /// Decided instance.
        instance: InstanceId,
        /// The decided batch.
        batch: Batch,
        /// How many more hops the decision id must travel.
        id_hops_left: u32,
        /// Configuration round the forwarder was in. Delivery is always
        /// safe (a decision is a decision), but a process only keeps
        /// *forwarding* it around a ring layout it still agrees on.
        round: Round,
    },
    /// Failover: candidate coordinator starts a higher round (epoch).
    Phase1a {
        /// New round.
        round: Round,
        /// Candidate node.
        from: NodeId,
    },
    /// Failover: acceptor's promise with its accepted-vote state, from
    /// which the new coordinator reconstructs instance allocation.
    Phase1b {
        /// Promised round.
        round: Round,
        /// Promising acceptor.
        from: NodeId,
        /// Votes above the acceptor's delivery watermark:
        /// `(instance, v-rnd, batch)`.
        votes: Vec<(InstanceId, Round, Batch)>,
        /// The acceptor has delivered (hence knows decided) everything
        /// below this instance.
        decided_below: InstanceId,
    },
    /// New coordinator (or a repairing one) announces the new epoch and
    /// ring layout. Position 0 of `ring` is the coordinator; acceptors
    /// stay contiguous from position 0.
    NewRing {
        /// The new round.
        round: Round,
        /// The new coordinator (`ring[0]`).
        coord: NodeId,
        /// Every process of the new ring, in ring order.
        ring: Vec<NodeId>,
    },
    /// Keep-alive from the coordinator. Carries round and layout so
    /// processes that missed a `NewRing` (paused, respawned, excluded)
    /// resynchronize; its absence drives suspicion.
    Heartbeat {
        /// Coordinator's round.
        round: Round,
        /// The coordinator.
        coord: NodeId,
        /// Current ring layout (`ring[0]` = coordinator).
        ring: Vec<NodeId>,
    },
    /// Ring repair: the coordinator probes all members when the 2ab/ack
    /// flow stalls, before splicing silent processes out of the ring.
    Ping {
        /// The probing coordinator.
        from: NodeId,
    },
    /// A member's liveness reply to a [`UMsg::Ping`].
    Pong {
        /// The responding member.
        from: NodeId,
    },
    /// A process that finds itself outside the current ring layout (it
    /// was spliced out while crashed, or respawned) asks the coordinator
    /// to splice it back in.
    JoinReq {
        /// The joining process.
        from: NodeId,
    },
    /// A restarted learner asks `from` for the decided suffix starting
    /// at `next` (its recovered checkpoint watermark). Travels over the
    /// reliable channel, outside the ring flow.
    CatchupReq {
        /// The recovering learner.
        from: NodeId,
        /// First instance it is missing.
        next: InstanceId,
    },
    /// A chunk of the decided suffix (recovery catch-up). When the
    /// requester had fallen below the responder's trim point, `snap`
    /// carries the responder's checkpoint first — a state transfer whose
    /// `state_bytes` are charged on the wire along with the batches.
    CatchupRep {
        /// Checkpoint to restore before applying `batches` (state
        /// transfer), when the requester was behind the trim point.
        snap: Option<recovery::Checkpoint>,
        /// Contiguous decided instances from the requested point.
        batches: Vec<(InstanceId, Batch)>,
        /// One past the responder's highest decided instance — when the
        /// requester reaches it, catch-up is complete.
        upto: InstanceId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::MsgId;
    use simnet::time::Time;

    #[test]
    fn messages_are_cheap_to_clone() {
        let batch: Batch = crate::value::BatchData::new(vec![Value {
            id: MsgId(1),
            proposer: NodeId(0),
            seq: 0,
            bytes: 8192,
            submitted: Time::ZERO,
            mask: crate::value::ALL_PARTITIONS,
        }]);
        let m = MMsg::Phase2a {
            instance: InstanceId(0),
            round: Round::ZERO,
            batch: batch.clone(),
            decisions: Rc::new(vec![]),
            gc_upto: InstanceId(0),
            decided_below: InstanceId(0),
            links: None,
        };
        let m2 = m.clone();
        assert!(matches!(m2, MMsg::Phase2a { .. }));
        assert_eq!(Rc::strong_count(&batch), 3);
    }
}
