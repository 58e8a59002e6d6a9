//! Multicast-based Ring Paxos (M-Ring Paxos, thesis Algorithm 2).
//!
//! One [`MRingProcess`] actor runs per node; a process can combine the
//! proposer, acceptor/coordinator, and learner roles, exactly as in the
//! paper's deployments. The steady-state message flow is:
//!
//! 1. proposers send values to the coordinator (UDP);
//! 2. the coordinator batches values, assigns the next consensus instance,
//!    and ip-multicasts `Phase2a` to the ring acceptors and all learners,
//!    piggybacking decisions of earlier instances;
//! 3. the first ring acceptor votes on ip-delivery and unicasts `Phase2b`
//!    to its successor; each acceptor votes and forwards;
//! 4. when the `Phase2b` reaches the coordinator (the last ring process)
//!    the quorum is complete: the instance is decided and announced on the
//!    next multicast;
//! 5. learners deliver a batch once they hold its payload *and* decision,
//!    in instance order.
//!
//! The module also implements the paper's engineering machinery: message
//! loss recovery through preferential acceptors (§3.3.4), coordinator
//! failover (§3.3.5), window-based flow control with learner back-pressure
//! (§3.3.6), and version-vector garbage collection (§3.3.7). A takeover's
//! promise collector, the ring probe and the learner's checkpoint /
//! catch-up state machine are U-Ring's too: [`crate::control`] (which
//! says what stays per ring, and why) and `recovery::LearnerRecovery`.
//!
//! # Durable votes
//!
//! Where an acceptor writes its vote (`cfg.storage` is `SyncDisk`;
//! always under `with_recovery`), it casts the vote on the 2A and
//! appends it to a `recovery::VoteLog`, as U-Ring's acceptors do. Its 2B
//! leaves once the vote is durable — `VoteLog::on_token` hands it back
//! at the round its write carried, and `VoteLog::holds` answers for a
//! 2B that arrives later — and is held in `early_2b` until then. The
//! coordinator's own vote is not written ahead: `propose`,
//! `propose_skip` and `become_coordinator` cast it directly, as U-Ring's
//! `send_2ab` does (ROADMAP item 4).
//!
//! # Loss recovery
//!
//! Ip-multicast and UDP lose datagrams, and delivery is in instance
//! order, so one hole parks every later message behind it. A loss is
//! found by *order* — something later got through — not by elapsed
//! time, and each role repairs what it can prove from what it already
//! observes. No signal can fire on a loss-free run: datagrams between
//! one sender and one receiver arrive in send order there.
//!
//! A ring-level loss is found on the link that lost it and repaired
//! from the ring itself. Each ring link carries one sender's datagrams
//! in instance order, and its receiver keeps how far the link has come
//! (`LinkOrder`, keyed by sender and round, so a takeover or a ring
//! reform starts it afresh).
//!
//! * **2B on any hop** — every `Phase2b` carries `through`, its sender's
//!   vote floor (`VoteFloor`): below it, the sender has sent this
//!   successor a 2B at this round for every instance since the link's
//!   first. The receiver takes each instance between the sender's
//!   previous floor and this one that has not come — at the coordinator
//!   one still outstanding, at a mid-ring acceptor one it neither sent
//!   nor holds — as if its 2B had (`rp.floor_2b`): a lost 2B is
//!   repaired by the next 2B on its hop, with no message. A floor
//!   passes only 2Bs sent, never one held for its 2A or its write.
//!   Where it cannot vouch for the link — an older round, a second
//!   successor at one round, a respawned acceptor at a round it had
//!   promised, a floor the GC passed — it is 0, which covers nothing.
//! * **2A → an acceptor** — a 2A that overtakes others on the link from
//!   the coordinator shows them lost. The acceptor asks a ring neighbour
//!   (`RetransReq`) for each it has neither voted on nor asked for — the
//!   first acceptor its successor, a mid-ring acceptor its predecessor;
//!   not the coordinator, whose uplink is the ring's busiest — and votes
//!   on the `RetransRep` like the 2A it replaces. At a mid-ring acceptor
//!   a 2B (or a floor) for an instance it has not voted on can show the
//!   loss first: it proves the sender holds the value, so the acceptor
//!   holds the 2B (`early_2b`) and asks the sender, unless it asked
//!   already (asking again would send most repairs twice). A neighbour
//!   that lost the 2A as well has nothing to send; the re-2A below
//!   brings it.
//! * **Coordinator, second line** — 2Bs complete the ring in instance
//!   order, so a decision for instance `j` while an `i < j` is still
//!   outstanding shows `i` was overtaken. Reordering and the link
//!   repairs above (one control hop and at most one payload transfer)
//!   overtake it too, so the allowance is the ring trip `j` just
//!   measured: once `j`, proposed at least that long after `i`, is
//!   decided, `i` has been out for two ring trips and its relay broke
//!   — a repair was lost as well, or the lost 2B was the last of a
//!   burst, which no later floor covers. The coordinator re-multicasts
//!   the 2A once ("duplicate 2A restarts the vote relay" in
//!   `vote_2a`). No constant: the allowance stretches with the ring's
//!   queues, so overload does not turn into repair load. Backstop: the
//!   `FLOW_TICK` sweep re-multicasts whatever is still undecided
//!   `RE2A_OVERDUE` after its last 2A.
//! * **Learner** — an instance decided for its mask that it cannot
//!   deliver: the rule, and the `SWEEP_TICK` sweep behind it, are
//!   [`crate::mlearner`]'s ("What is asked for"), shared with the
//!   Multi-Ring learner; this file sends the lists to the preferential
//!   acceptor. The acceptor's half stays here (`on_retrans_req`): it
//!   answers a held payload with the control-sized decision alone, or
//!   not at all while it knows none.
//! * **Proposer** — a proposal lost before the coordinator had it is
//!   in no instance, so none of the above can see it. A paced proposer
//!   that learns resends its oldest unacknowledged proposal once it was
//!   sent `PROPOSAL_RESEND_AFTER` ago and one sent after it was
//!   delivered (`ProposerState::take_resend` has the exact rule).
//!
//! Repairs count under `rp.retrans` (per reply to a `RetransReq`),
//! `rp.re2a` (per re-multicast) and `rp.resubmit` (per proposal
//! resend); `rp.floor_2b` counts 2Bs a floor stood in for;
//! `rp.repair_spurious` counts fast repairs whose 2A then arrived by
//! multicast anyway (reordered, or a coordinator re-multicast racing an
//! acceptor's repair).
//!
//! # Flow control
//!
//! Three loops, each keeping one queue from overflowing, each closed by
//! what the stage after it reports (§3.3.6, §3.5.2):
//!
//! * **Proposer byte window → the coordinator's port and pending
//!   buffer.** A paced proposer that learns keeps at most
//!   `flow.initial_window × packet_bytes` bytes sent and unacknowledged
//!   — a source cannot usefully have more packets in flight than the
//!   coordinator may have instances open, and every proposer's window
//!   together stays far under a switch port's buffer. The pacer makes a
//!   message *due* on schedule regardless (`seq`, `submitted` and
//!   `abcast.proposed` are stamped then, so open-loop latency counts
//!   the wait); one that finds the window full waits in a FIFO at the
//!   proposer (`rp.window_held`) and leaves the moment an
//!   acknowledgement makes room, so past the knee the source clocks
//!   itself to what the ring delivers and the coordinator's downlink
//!   carries nothing it cannot order yet. The FIFO is the paper's
//!   160 MB buffer moved to where the load originates
//!   (`pending_cap_bytes`; past it the newest is shed,
//!   `rp.proposer_shed`). The acknowledgement is *delivery at the
//!   proposer's own learner*: the one signal that exists without a new
//!   message, and the one that covers every queue on the way — a value
//!   accepted by the coordinator but not yet ordered, or ordered but
//!   stuck behind a hole, still occupies the ring. Bytes, not messages:
//!   a stream of 200-byte values runs hundreds in flight. External
//!   injectors (session tables, psmr clients) bring their own bound and
//!   never pass through here.
//! * **Coordinator instance window → the ring.** At most `window`
//!   instances are open (proposed, undecided); the rest wait in the
//!   pending queues, which is what makes batches fill under load.
//! * **Learner `SlowDown` → learner buffers.** A learner whose
//!   decided-but-unprocessed backlog (`MLearner::buffered`; what the
//!   learner holds and when it lets go is [`crate::mlearner`]'s) passes
//!   `flow.learner_threshold` tells the ring; the coordinator halves its
//!   window and grows it back after `RECOVERY_QUIET` (500 ms) of silence.

use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use abcast::{metric, MsgId, Pacer, SharedLog};
use paxos::acceptor::Acceptor;
use paxos::msg::{quorum, InstanceId, Round};
use paxos::window::Window;
use recovery::{
    stable, CatchupStep, LearnerRecovery, RecoveredApp, StableHandle, VoteLog, CATCHUP_CHUNK,
    CATCHUP_RETRY,
};
use simnet::prelude::*;

use crate::config::{MRingConfig, StorageMode};
use crate::control::{assert_writes_ahead, persist_promise, Phase1, ProbeStep, RingProbe, Votes};
use crate::mlearner::{MLearner, REPAIR_BATCH, SWEEP_TICK};
use crate::msg::{MMsg, CTL_BYTES};
use crate::value::{batch_bytes, Batch, BatchData, Value, ALL_PARTITIONS};

// Timer tokens: kind in the top byte, payload (instance) below.
const T_BATCH: u64 = 1 << 56;
const T_PACE: u64 = 2 << 56;
const T_GC: u64 = 3 << 56;
const T_FLOW: u64 = 4 << 56;
const T_DELIVER: u64 = 5 << 56;
const T_RETRANS: u64 = 6 << 56;
const T_SUSPECT: u64 = 7 << 56;
const T_HEARTBEAT: u64 = 8 << 56;
const T_WAL: u64 = 9 << 56;
const T_SKIP: u64 = 11 << 56;
const T_CKPT: u64 = 13 << 56;
const T_CATCHUP: u64 = 14 << 56;
const T_HOLD: u64 = 15 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Liveness of the partial-batch hold: a queue whose head has waited
/// this many `batch_timeout`s is proposed at the next batch tick even
/// if core 0 never drained. With the tick period that bounds a value's
/// stay in the pending queues by `(HOLD_TICKS + 1) * batch_timeout`
/// whenever the instance window is open.
const HOLD_TICKS: u64 = 4;
/// Period of the coordinator's flow tick (window growth, the re-2A
/// sweep, ring-repair check). For loss recovery a backstop, as above.
const FLOW_TICK: Dur = Dur::millis(100);
/// The flow tick re-multicasts an instance still undecided this long
/// after its last 2A. A backstop, as above.
const RE2A_OVERDUE: Dur = Dur::millis(50);
/// How long ago the oldest unacknowledged proposal must have been sent
/// before its proposer resends it (`ProposerState::take_resend`):
/// several times a repaired delivery (2–3 ms), and short enough that
/// what parks behind the hole in the learners' dedup windows stays far
/// under their bound at any rate the ring sustains.
const PROPOSAL_RESEND_AFTER: Dur = Dur::millis(20);
/// How long without slow-down notifications before the coordinator
/// starts growing its window again (module docs, "Flow control").
const RECOVERY_QUIET: Dur = Dur::millis(500);
/// CPU the coordinator spends assembling one batch (buffer and
/// bookkeeping overhead measured in the paper's prototype).
const BATCH_OVERHEAD: Dur = Dur::micros(19);

fn token_kind(t: TimerToken) -> u64 {
    t.0 & KIND_MASK
}

fn token_payload(t: TimerToken) -> u64 {
    t.0 & !KIND_MASK
}

/// Unproposed values of one partition mask, oldest first, each with
/// the instant the coordinator accepted it.
#[derive(Debug)]
struct MaskQueue {
    mask: u32,
    vals: VecDeque<(Time, Value)>,
    bytes: u64,
}

/// A proposed, still undecided instance at the coordinator.
#[derive(Debug)]
struct Outstanding {
    batch: Batch,
    /// Its last 2A multicast.
    sent: Time,
    mask: u32,
    /// Its 2A was multicast again: the order-triggered repair is spent
    /// (one per instance; the flow tick is the retry).
    resent: bool,
}

/// Coordinator-only state.
#[derive(Debug)]
struct CoordState {
    /// Pending values, one FIFO per distinct partition mask (batches
    /// are single-mask, §4.2.2, so a batch drains one queue). Classic
    /// broadcast has the one `ALL_PARTITIONS` queue. Emptied queues
    /// stay: a deployment has few distinct masks.
    queues: Vec<MaskQueue>,
    /// Bytes over all queues (bounded by `pending_cap_bytes`).
    pending_bytes: u64,
    /// A `T_HOLD` timer is in flight (partial batches wait for core 0).
    hold_armed: bool,
    next_instance: InstanceId,
    /// Proposed but undecided.
    outstanding: BTreeMap<InstanceId, Outstanding>,
    /// Decided instances (with masks) not yet announced to the group.
    decided_unsent: Vec<(InstanceId, u32)>,
    window: u32,
    last_slowdown: Time,
    last_mcast: Time,
    /// Applied version reported by each learner (for GC).
    versions: HashMap<NodeId, InstanceId>,
    gc_watermark: InstanceId,
    /// Logical instances produced so far (normal batches count 1, skip
    /// batches count their weight) — Multi-Ring Paxos rate accounting.
    logical_count: u64,
    /// Logical target accumulated from `lambda * delta` per interval.
    logical_target: u64,
    /// Ring liveness (§3.3.5): progress is an outstanding instance
    /// completing its 2B relay.
    probe: RingProbe,
}

impl CoordState {
    /// A coordinator that starts at `now`, proposing from `next_instance`.
    fn new(window: u32, next_instance: InstanceId, now: Time) -> CoordState {
        CoordState {
            queues: Vec::new(),
            pending_bytes: 0,
            hold_armed: false,
            next_instance,
            outstanding: BTreeMap::new(),
            decided_unsent: Vec::new(),
            window,
            last_slowdown: Time::ZERO,
            last_mcast: now,
            versions: HashMap::new(),
            gc_watermark: InstanceId(0),
            logical_count: 0,
            logical_target: 0,
            probe: RingProbe::new(now),
        }
    }
}

/// Acceptor-only state.
///
/// `decided` and `early_2b` are touched on the per-packet 2A/2B paths, so
/// both use the dense sliding [`Window`] (GC advances the base; the rare
/// write below the watermark falls back to the window's side map, exactly
/// matching the `BTreeSet`/`BTreeMap` they replace).
struct AccState {
    paxos: Acceptor<Batch>,
    /// Instances known decided (dense window over the undecided range).
    decided: Window<()>,
    /// Skip weight per instance (only non-zero entries stored).
    skip_weights: BTreeMap<InstanceId, u64>,
    /// Partition mask per instance (only non-ALL entries stored).
    masks: BTreeMap<InstanceId, u32>,
    /// Watermark from the coordinator: every instance below is decided.
    decided_below: InstanceId,
    /// Phase 2B held until the matching 2A (or its repair) is voted on.
    early_2b: Window<Round>,
    /// Instances whose 2A this acceptor asked a ring neighbour for
    /// (module docs, "Loss recovery"); trimmed by GC.
    asked: BTreeSet<InstanceId>,
    /// How far the link the 2As come in on, from the coordinator, has
    /// come.
    from_coord: LinkOrder,
    /// The last vote floor on the link the 2Bs come in on, from the ring
    /// predecessor (at the coordinator, from the last acceptor).
    pred_floor: LinkOrder,
    /// The 2Bs this acceptor sent its successor, and its vote floor.
    floor: VoteFloor,
    /// The vote log (module docs, "Durable votes"): over the node's
    /// stable store under `with_recovery`, over a throw-away one
    /// otherwise, none where votes live in memory.
    wal: Option<VoteLog<Batch>>,
    last_coord_activity: Time,
}

impl AccState {
    /// Whether this acceptor's vote for `instance` at `round`, once
    /// cast, may leave: votes live in memory, or the log holds it.
    fn released(&self, instance: InstanceId, round: Round) -> bool {
        self.wal.as_ref().is_none_or(|w| w.holds(instance, round))
    }

    /// Records what a 2A says about its instance besides the value: a
    /// non-zero skip weight, a partition mask other than all.
    fn note_shape(&mut self, instance: InstanceId, skip: u64, mask: u32) {
        if skip > 0 {
            self.skip_weights.insert(instance, skip);
        }
        if mask != ALL_PARTITIONS {
            self.masks.insert(instance, mask);
        }
    }

    /// Whether this acceptor knows `instance` decided.
    fn known_decided(&self, instance: InstanceId) -> bool {
        instance < self.decided_below || self.decided.contains(instance)
    }
}

/// How far one ring link has come: its sender and round, and the
/// instance below which the sender has sent everything on it — on the
/// 2A link the one after the last 2A, on a 2B link the last floor.
#[derive(Debug, Default)]
struct LinkOrder(Option<(NodeId, Round, InstanceId)>);

impl LinkOrder {
    /// Notes that `from` at `round` has sent everything below `upto`;
    /// returns the instances that adds. A new sender or round (takeover,
    /// ring reform) starts the link afresh and adds nothing.
    fn advance(
        &mut self,
        from: NodeId,
        round: Round,
        upto: InstanceId,
    ) -> impl Iterator<Item = InstanceId> {
        let known = match self.0 {
            Some((f, r, known)) if f == from && r == round => known,
            _ => upto,
        };
        self.0 = Some((from, round, known.max(upto)));
        (known.0..upto.0).map(InstanceId)
    }
}

/// The 2Bs an acceptor sent on its ring link (module docs, "Loss
/// recovery"): the link's successor, round and first 2B; every 2B from
/// that one to `floor` was sent, and those in `ahead` above it. Up to
/// round `silent` the floor vouches for nothing.
#[derive(Debug, Default)]
struct VoteFloor {
    link: Option<(NodeId, Round, InstanceId)>,
    floor: InstanceId,
    ahead: BTreeSet<InstanceId>,
    silent: Round,
}

impl VoteFloor {
    /// Notes a 2B of `instance` sent to `to` at `round`, and returns the
    /// floor it carries: 0 where the floor cannot vouch for the link.
    fn sent(&mut self, to: NodeId, round: Round, instance: InstanceId) -> InstanceId {
        match self.link {
            _ if round <= self.silent => return InstanceId(0),
            Some((t, r, _)) if r == round && t != to => {
                // A ring reform: the new successor may hold an old floor.
                self.silence(round);
                return InstanceId(0);
            }
            Some((_, r, _)) if r > round => return InstanceId(0),
            Some((_, r, _)) if r == round => {}
            _ => {
                self.link = Some((to, round, instance));
                self.floor = instance;
                self.ahead.clear();
            }
        }
        if instance == self.floor {
            self.floor = instance.next();
            while self.ahead.remove(&self.floor) {
                self.floor = self.floor.next();
            }
        } else if instance > self.floor {
            self.ahead.insert(instance);
        }
        self.floor
    }

    /// Whether a 2B of `instance` was sent to `to` at `round`, as far as
    /// the floor knows.
    fn has_sent(&self, to: NodeId, round: Round, instance: InstanceId) -> bool {
        match self.link {
            Some((t, r, first)) if (t, r) == (to, round) => {
                (first..self.floor).contains(&instance) || self.ahead.contains(&instance)
            }
            _ => false,
        }
    }

    /// The GC collected below `upto`: a floor under it waits for a 2B
    /// never sent (decided in an older round); silent for the round.
    fn collect_below(&mut self, upto: InstanceId) {
        if let Some((_, round, _)) = self.link.filter(|_| self.floor < upto) {
            self.silence(round);
        }
    }

    fn silence(&mut self, round: Round) {
        self.silent = self.silent.max(round);
        self.link = None;
        self.ahead.clear();
    }
}

/// Proposer-only state.
struct ProposerState {
    pacer: Option<Pacer>,
    next_seq: u64,
    coordinator: NodeId,
    /// Sent but not yet seen delivered, each with the instant it was
    /// last sent to a coordinator (resent on failover). Never more than
    /// `window_bytes` plus one message: `pace` and `send_held` send only
    /// while `unacked_bytes` is under it.
    unacked: BTreeMap<u64, (Value, Time)>,
    /// Payload bytes in `unacked`.
    unacked_bytes: u64,
    /// The window: `flow.initial_window × packet_bytes`, what the
    /// coordinator may have open at the start (module docs, "Flow
    /// control").
    window_bytes: u64,
    /// Due but not yet sent, oldest first: what the pacer produced while
    /// the window was full. Every seq in here is above every seq in
    /// `unacked`. Bounded by `pending_cap_bytes`.
    held: VecDeque<Value>,
    /// Payload bytes in `held`.
    held_bytes: u64,
    /// The last timed resend: which proposal (`seq`), when, and how
    /// many times it has been resent.
    resent: (u64, Time, u32),
    /// Only proposers that are also learners see acknowledgements; the
    /// others track nothing and the window never binds.
    track_acks: bool,
}

impl ProposerState {
    /// Puts `v` on the wire and, where acknowledgements can be seen,
    /// into the window.
    fn send(&mut self, v: Value, ctx: &mut Ctx) {
        if self.track_acks {
            self.unacked.insert(v.seq, (v, ctx.now()));
            self.unacked_bytes += v.bytes as u64;
        }
        ctx.udp_send(self.coordinator, MMsg::Propose(v), v.bytes);
    }

    /// Sends held proposals, oldest first, while the window has room.
    fn send_held(&mut self, ctx: &mut Ctx) {
        while self.unacked_bytes < self.window_bytes {
            let Some(v) = self.held.pop_front() else { return };
            self.held_bytes -= v.bytes as u64;
            self.send(v, ctx);
        }
    }

    /// Acknowledges `seq`: delivered, or a duplicate of something that
    /// will never be delivered again.
    fn ack(&mut self, seq: u64) {
        if let Some((v, _)) = self.unacked.remove(&seq) {
            self.unacked_bytes -= v.bytes as u64;
        }
    }

    /// The proposal to resend at `now`, if one is due. A proposal the
    /// network lost before the coordinator had it is in no instance, so
    /// no role downstream can show the loss; the proposer goes by what
    /// it sees delivered:
    ///
    /// * only the oldest unacknowledged proposal (every lost one gets
    ///   to be the oldest), and only once a proposal *sent* after it
    ///   was delivered — the coordinator queues a proposer's values in
    ///   order, so this one was overtaken: lost, or refused by a full
    ///   coordinator — or none is in flight behind it (the last before
    ///   a pause). What waits in `held` has overtaken nothing;
    /// * once it is [`PROPOSAL_RESEND_AFTER`] past the instant it was
    ///   sent — not the instant it became due: a proposal the window
    ///   held back is old the moment it leaves — doubling per resend of
    ///   the same proposal, so a copy queued at a backlogged
    ///   coordinator is not sent over and over;
    /// * at most one resend per bound. The window keeps what is sent
    ///   within what the ring has room for, so a sent proposal is old
    ///   only if something happened to it; the rate limit is for the
    ///   coordinator that refuses anyway (external clients filled it).
    ///
    /// Learner dedup drops the copy if the first made it after all.
    fn take_resend(&mut self, now: Time) -> Option<Value> {
        let (&seq, &(v, sent)) = self.unacked.first_key_value()?;
        let in_flight = self.unacked.len();
        let sent_below = self.held.front().map_or(self.next_seq, |h| h.seq);
        let overtaken = (sent_below - seq) as usize > in_flight;
        let (last_seq, last_at, tries) = self.resent;
        let tries = if last_seq == seq { tries } else { 0 };
        let sent = if tries > 0 { last_at } else { sent };
        let due = (overtaken || in_flight == 1)
            && now.saturating_since(sent) >= PROPOSAL_RESEND_AFTER * (1 << tries.min(6))
            && now.saturating_since(last_at) >= PROPOSAL_RESEND_AFTER;
        due.then(|| {
            self.resent = (seq, now, tries + 1);
            v
        })
    }
}

/// Failover (new coordinator election) state: Phase 1, plus the
/// decisions the promisers listed (M-Ring's form of "decided").
struct Takeover {
    p1: Phase1,
    decided: BTreeSet<InstanceId>,
}

/// Recovery configuration for one M-Ring process: the vote log over the
/// node's stable store (its storage mode must write ahead), learner
/// checkpoints, and bulk TCP catch-up from the preferential acceptor on
/// restart.
pub struct MRecovery {
    /// The node's stable store, shared across process incarnations.
    pub store: StableHandle<Batch>,
    /// Checkpoint every this many delivered instances (0 = never).
    pub checkpoint_interval: u64,
    /// The replicated service hook snapshotted by checkpoints.
    pub app: Option<Box<dyn RecoveredApp>>,
    /// Whether this incarnation replaces a crashed one (respawn).
    pub resumed: bool,
}

/// One M-Ring Paxos process; roles derive from its position in the
/// configuration.
pub struct MRingProcess {
    cfg: MRingConfig,
    me: NodeId,
    round: Round,
    coord: Option<CoordState>,
    acc: Option<AccState>,
    /// What the learner buffers, releases and asks for ([`MLearner`]);
    /// the effects stay here.
    lrn: Option<MLearner>,
    /// This learner's place in `cfg.learners`: its delivery-log row and
    /// its preferential acceptor. 0 on a process that does not learn.
    lrn_index: usize,
    /// A `SlowDown` went out and the backlog has not halved since.
    slowdown_active: bool,
    prop: Option<ProposerState>,
    log: Option<SharedLog>,
    takeover: Option<Takeover>,
    total_acceptors: usize,
    /// Live control of the proposer's offered rate (bits/s); experiment
    /// drivers flip it mid-run (Fig. 5.9/5.10 oscillating workloads).
    rate_ctl: Option<Arc<AtomicU64>>,
    /// Live control of the learner's per-batch processing cost
    /// (Fig. 3.14's slow-learner trace).
    cost_ctl: Option<Arc<Mutex<Dur>>>,
    /// Highest GC watermark already applied; re-announcements of the same
    /// watermark (it rides on every 2A) skip the tree-splitting work.
    gc_applied: InstanceId,
    /// The learner recovery state machine both rings share; M-Ring adds
    /// no state to it (it serves catch-up from the acceptor's votes).
    rec: Option<LearnerRecovery<Batch>>,
}

impl MRingProcess {
    /// Creates the process for node `me` under `cfg`. `proposer_rate`
    /// (bits/s) and `proposer_msg_bytes` configure an open-loop proposer
    /// role; `learner_log` enables the learner role and records deliveries.
    pub fn new(
        cfg: MRingConfig,
        me: NodeId,
        proposer: Option<Pacer>,
        learner_log: Option<SharedLog>,
    ) -> MRingProcess {
        // Phase 1 is pre-executed at deployment (§3.2 optimization): all
        // processes start in round 1 owned by the initial coordinator.
        let coord_idx = cfg.ring.len() as u32 - 1;
        let round = Round::new(1, coord_idx);
        let is_coord = cfg.coordinator() == me;
        let in_ring = cfg.ring.contains(&me);
        let is_spare = cfg.spares.contains(&me);
        let learner_index = cfg.learners.iter().position(|&n| n == me);
        let total_acceptors = cfg.ring.len() + cfg.spares.len();

        let coord =
            is_coord.then(|| CoordState::new(cfg.flow.initial_window, InstanceId(0), Time::ZERO));
        let acc = (in_ring || is_spare).then(|| {
            let mut paxos = Acceptor::new();
            // Pre-promised round 1 (pre-executed Phase 1).
            let _ = paxos.receive_1a(round);
            AccState {
                paxos,
                decided: Window::new(),
                skip_weights: BTreeMap::new(),
                masks: BTreeMap::new(),
                decided_below: InstanceId(0),
                early_2b: Window::new(),
                asked: BTreeSet::new(),
                from_coord: LinkOrder::default(),
                pred_floor: LinkOrder::default(),
                floor: VoteFloor::default(),
                wal: (cfg.storage != StorageMode::InMemory).then(|| VoteLog::new(stable(), T_WAL)),
                last_coord_activity: Time::ZERO,
            }
        });
        let lrn = learner_index.map(|index| MLearner::new(cfg.learner_mask(index)));
        let track_acks = learner_index.is_some();
        let prop = proposer.map(|pacer| ProposerState {
            pacer: Some(pacer),
            next_seq: 0,
            coordinator: cfg.coordinator(),
            unacked: BTreeMap::new(),
            unacked_bytes: 0,
            window_bytes: cfg.flow.initial_window as u64 * cfg.packet_bytes as u64,
            held: VecDeque::new(),
            held_bytes: 0,
            resent: (u64::MAX, Time::ZERO, 0),
            track_acks,
        });
        MRingProcess {
            cfg,
            me,
            round,
            coord,
            acc,
            lrn,
            lrn_index: learner_index.unwrap_or(0),
            slowdown_active: false,
            prop,
            log: learner_log,
            takeover: None,
            total_acceptors,
            rate_ctl: None,
            cost_ctl: None,
            gc_applied: InstanceId(0),
            rec: None,
        }
    }

    /// Attaches the recovery subsystem (see [`MRecovery`]). Must be
    /// called before the process is installed. When `rec.resumed`, the
    /// acceptor replays its durable votes and the learner restores its
    /// checkpoint here; catch-up starts in `on_start`. The proposer role
    /// is not resumed (its sequence numbers are not logged).
    pub fn with_recovery(mut self, rec: MRecovery) -> MRingProcess {
        assert_writes_ahead(self.cfg.storage);
        if let Some(a) = self.acc.as_mut() {
            let wal = VoteLog::new(rec.store.clone(), T_WAL);
            if rec.resumed {
                let (promised, votes) = wal.replay();
                a.paxos = Acceptor::restore(promised.max(self.round), votes);
                // The successor may hold a floor of the previous
                // incarnation's at any round it had promised.
                a.floor.silent = promised.max(self.round);
            }
            a.wal = Some(wal);
        }
        let mut state = LearnerRecovery::new(rec.store, rec.checkpoint_interval, T_CKPT, rec.app);
        if rec.resumed {
            if let Some(l) = self.lrn.as_mut() {
                let cp = state.resume();
                l.restore(cp.watermark, cp.marks, cp.parked);
                if let Some(log) = self.log.as_ref() {
                    log.lock().unwrap().mark_restart(self.lrn_index, cp.log_pos as usize);
                }
            }
        }
        self.rec = Some(state);
        self
    }

    /// Attaches a live rate control for this proposer (bits per second;
    /// `0` pauses proposing).
    pub fn with_rate_control(mut self, ctl: Arc<AtomicU64>) -> MRingProcess {
        self.rate_ctl = Some(ctl);
        self
    }

    /// Attaches a live control for the learner's per-batch cost.
    pub fn with_cost_control(mut self, ctl: Arc<Mutex<Dur>>) -> MRingProcess {
        self.cost_ctl = Some(ctl);
        self
    }

    /// The configuration this process runs under.
    pub fn config(&self) -> &MRingConfig {
        &self.cfg
    }

    /// The learner's delivery watermark: every instance below it has been
    /// delivered here, or skipped as another partition's. Instance 0 on a
    /// process that does not learn.
    pub fn next_deliver(&self) -> InstanceId {
        self.lrn.as_ref().map_or(InstanceId(0), MLearner::next_deliver)
    }

    /// The acceptor this learner asks for repairs and reports to.
    fn preferential(&self) -> NodeId {
        self.cfg.preferential_acceptor(self.lrn_index)
    }

    fn ring_pos(&self) -> Option<usize> {
        self.cfg.ring.iter().position(|&n| n == self.me)
    }

    fn is_coordinator(&self) -> bool {
        self.coord.is_some()
    }

    // ------------------------------------------------------------------
    // Proposer
    // ------------------------------------------------------------------

    /// One pacer tick: a timed resend if one is due, then every message
    /// the schedule makes due now. A message is stamped (`seq`,
    /// `submitted`, `abcast.proposed`) the instant it is due and goes on
    /// the wire while the window has room; past that it waits in `held`,
    /// and `try_deliver` sends it the moment an acknowledgement makes
    /// room.
    fn pace(&mut self, ctx: &mut Ctx) {
        let ctl_rate = self.rate_ctl.as_ref().map(|c| c.load(AtomicOrdering::Relaxed));
        let held_cap = self.cfg.pending_cap_bytes;
        let Some(p) = self.prop.as_mut() else { return };
        if let Some(v) = p.take_resend(ctx.now()) {
            ctx.udp_send(p.coordinator, MMsg::Propose(v), v.bytes);
            ctx.counter_add("rp.resubmit", 1);
        }
        let Some(pacer) = p.pacer.as_mut() else { return };
        if let Some(rate) = ctl_rate {
            if rate == 0 {
                // Paused: consume missed slots and re-check shortly.
                let _ = pacer.due(ctx.now());
                ctx.set_timer(Dur::millis(1), TimerToken(T_PACE));
                return;
            }
            pacer.set_rate(rate);
        }
        let due = pacer.due(ctx.now());
        let bytes = pacer.msg_bytes();
        let interval = pacer.interval();
        for _ in 0..due {
            ctx.counter_add_id(metric::id::PROPOSED, 1);
            if p.held_bytes + bytes as u64 > held_cap {
                // Shed before a `seq` is spent: learners' dedup windows
                // count on a proposer's sequence being dense.
                ctx.counter_add("rp.proposer_shed", 1);
                continue;
            }
            let seq = p.next_seq;
            p.next_seq += 1;
            let v = Value {
                id: MsgId(((self.me.0 as u64) << 40) | seq),
                proposer: self.me,
                seq,
                bytes,
                submitted: ctx.now(),
                mask: ALL_PARTITIONS,
            };
            if p.held.is_empty() && p.unacked_bytes < p.window_bytes {
                p.send(v, ctx);
            } else {
                p.held.push_back(v);
                p.held_bytes += bytes as u64;
                ctx.counter_add("rp.window_held", 1);
            }
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }

    // ------------------------------------------------------------------
    // Coordinator
    // ------------------------------------------------------------------

    fn on_propose(&mut self, v: Value, src: NodeId, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else {
            // Not (or no longer) the coordinator. Ring proposers redirect
            // themselves after `NewRing`, but an *external* client (the
            // psmr crate's) only knows the deployment-time coordinator —
            // relay its proposal to the coordinator of the view we hold,
            // so any live member a client guesses is a valid submission
            // point after failover. Proposals relayed by a fellow ring
            // member are dropped instead of re-relayed, so disagreeing
            // views cannot bounce a value around in a loop.
            let coord = self.cfg.coordinator();
            if coord != self.me && !self.cfg.ring.contains(&src) {
                ctx.counter_add("rp.fwd_propose", 1);
                ctx.udp_send(coord, MMsg::Propose(v), v.bytes);
            }
            return;
        };
        if c.pending_bytes + v.bytes as u64 > self.cfg.pending_cap_bytes {
            ctx.counter_add("rp.drop", 1);
            ctx.counter_add("rp.drop_bytes", v.bytes as u64);
            return;
        }
        let q = match c.queues.iter().position(|q| q.mask == v.mask) {
            Some(i) => &mut c.queues[i],
            None => {
                c.queues.push(MaskQueue { mask: v.mask, vals: VecDeque::new(), bytes: 0 });
                c.queues.last_mut().expect("just pushed")
            }
        };
        q.vals.push_back((ctx.now(), v));
        q.bytes += v.bytes as u64;
        c.pending_bytes += v.bytes as u64;
        self.try_flush(ctx, None);
    }

    /// Proposes batches while the window allows, oldest queue head
    /// first: every queue holding a full packet, and — given `min_age`
    /// — also every sub-packet queue whose head has waited that long.
    fn try_flush(&mut self, ctx: &mut Ctx, min_age: Option<Dur>) {
        let packet = self.cfg.packet_bytes as u64;
        let now = ctx.now();
        loop {
            let Some(c) = self.coord.as_mut() else { return };
            if c.outstanding.len() as u32 >= c.window {
                return;
            }
            let due = |q: &MaskQueue| {
                let &(at, _) = q.vals.front()?;
                let aged = min_age.is_some_and(|d| now.saturating_since(at) >= d);
                (q.bytes >= packet || aged).then_some(at)
            };
            let oldest = c.queues.iter_mut().filter_map(|q| Some((due(q)?, q)));
            let Some((_, q)) = oldest.min_by_key(|&(at, _)| at) else { return };
            // Everything pending under this mask, up to one packet (a
            // single oversized value still goes, alone).
            let mut vals = Vec::new();
            let mut bytes = 0u64;
            while let Some(&(_, v)) = q.vals.front() {
                if !vals.is_empty() && bytes + v.bytes as u64 > packet {
                    break;
                }
                q.vals.pop_front();
                bytes += v.bytes as u64;
                vals.push(v);
            }
            q.bytes -= bytes;
            c.pending_bytes -= bytes;
            let mask = q.mask;
            self.propose(vals, bytes, mask, ctx);
        }
    }

    /// Proposes the sub-packet batches, CPU-clocked: a partial batch
    /// leaves at the later of its `batch_timeout` tick and the instant
    /// core 0 drains (`T_HOLD`, re-armed while the core stays busy). Its
    /// 2A could not leave before the core frees anyway, so holding it
    /// costs no latency and lets it absorb what arrives meanwhile —
    /// under load the coordinator pays the per-instance cost once per
    /// mask per busy period, not once per value. Liveness: on an idle
    /// coordinator every value leaves at its first tick (within one
    /// `batch_timeout`); if core 0 never drains, a `tick` still proposes
    /// every queue whose head has waited `HOLD_TICKS` ticks (see
    /// [`HOLD_TICKS`] for the bound).
    fn flush_partials(&mut self, ctx: &mut Ctx, tick: bool) {
        let now = ctx.now();
        let free_at = ctx.core_free_at(0);
        if free_at <= now {
            return self.try_flush(ctx, Some(Dur::ZERO));
        }
        self.try_flush(ctx, tick.then(|| self.cfg.batch_timeout * HOLD_TICKS));
        let packet = self.cfg.packet_bytes as u64;
        let Some(c) = self.coord.as_mut() else { return };
        let held = c.queues.iter().any(|q| !q.vals.is_empty() && q.bytes < packet);
        if held && !c.hold_armed {
            c.hold_armed = true;
            ctx.set_timer(free_at.since(now), TimerToken(T_HOLD));
        }
    }

    /// Runs one consensus instance on `vals` (one mask, `bytes` of
    /// payload): assigns the instance, votes, and multicasts the 2A.
    fn propose(&mut self, vals: Vec<Value>, bytes: u64, mask: u32, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else { return };
        // Probe stamp: a PROPOSE span opens at the earliest client
        // submission in the batch (captured before `BatchData::new`
        // consumes the values).
        let first_submitted =
            if ctx.probes_enabled() { vals.iter().map(|v| v.submitted).min() } else { None };
        let batch: Batch = BatchData::new(vals);
        let instance = c.next_instance;
        c.next_instance = instance.next();
        let sent = ctx.now();
        c.outstanding
            .insert(instance, Outstanding { batch: batch.clone(), sent, mask, resent: false });
        c.logical_count += 1;
        let partitioned = self.cfg.partitions.is_some();
        let decisions = if partitioned {
            Rc::new(Vec::new()) // no piggybacking in partitioned mode
        } else {
            Rc::new(std::mem::take(&mut c.decided_unsent))
        };
        let gc_upto = c.gc_watermark;
        c.last_mcast = ctx.now();
        let decided_below = c.outstanding.keys().next().copied().unwrap_or(instance);
        // The coordinator votes for its own proposal (it is the last
        // acceptor in the ring).
        if let Some(a) = self.acc.as_mut() {
            let _ = a.paxos.receive_2a(instance, self.round, batch.clone());
            if mask != ALL_PARTITIONS {
                a.masks.insert(instance, mask);
            }
        }
        ctx.charge_cpu(0, BATCH_OVERHEAD);
        let wire = (bytes.min(u32::MAX as u64) as u32).max(CTL_BYTES);
        let msg = MMsg::Phase2a {
            instance,
            round: self.round,
            batch: batch.clone(),
            decisions: decisions.clone(),
            gc_upto,
            skip: 0,
            mask,
            decided_below,
        };
        if let Some(at) = first_submitted {
            let key = probe::span_key(self.cfg.group.0 as u32, instance.0);
            ctx.probe_at(probe::code::PROPOSE, key, at);
            ctx.probe(probe::code::PHASE2A, key);
        }
        self.mcast_2a(msg, mask, wire, ctx);
        // Local loop-back when the coordinator is also a learner
        // (multicast does not echo to the sender).
        let round = self.round;
        if let Some(l) = self.lrn.as_mut() {
            l.store(instance, &batch, 0, mask, round);
        }
        self.learner_decide(&decisions, round);
        self.try_deliver(ctx);
    }

    /// Multicasts a Phase 2A: once on the classic group, or once per
    /// accessed partition group in partitioned mode (§4.2.2 — acceptors
    /// subscribe to all groups and deduplicate).
    fn mcast_2a(&mut self, msg: MMsg, mask: u32, wire: u32, ctx: &mut Ctx) {
        match self.cfg.partitions.as_ref() {
            None => ctx.mcast(self.cfg.group, msg, wire),
            Some(p) => {
                let payload = Payload::new(msg);
                for (i, &g) in p.groups.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        ctx.mcast_forward(g, payload.clone(), wire);
                    }
                }
            }
        }
    }

    /// A 2B for `instance` arrived from `from`, carrying its vote floor
    /// `through`: takes it, and in instance order with it each 2B the
    /// floor newly covers that has not come (module docs, "Loss
    /// recovery") — at the coordinator an outstanding one, at a
    /// mid-ring acceptor one it has neither sent nor holds.
    fn on_phase2b(
        &mut self,
        instance: InstanceId,
        round: Round,
        through: InstanceId,
        from: NodeId,
        ctx: &mut Ctx,
    ) {
        if round != self.round {
            return;
        }
        let succ = self.cfg.successor(self.me);
        let coord = self.coord.as_ref();
        let Some(a) = self.acc.as_mut() else { return };
        let lost: Vec<InstanceId> = a
            .pred_floor
            .advance(from, round, through)
            .filter(|&k| match coord {
                _ if k == instance => false,
                Some(c) => c.outstanding.contains_key(&k),
                None => {
                    !succ.is_some_and(|s| a.floor.has_sent(s, round, k))
                        && a.early_2b.get(k) != Some(&round)
                }
            })
            .collect();
        if !lost.is_empty() {
            ctx.counter_add("rp.floor_2b", lost.len() as u64);
        }
        let (below, above) = lost.split_at(lost.partition_point(|&k| k < instance));
        for &k in below.iter().chain(&[instance]).chain(above) {
            if self.is_coordinator() {
                self.decide(k, ctx);
            } else {
                self.relay_2b(k, round, from, ctx);
            }
        }
    }

    /// The 2B of the outstanding `instance` reached the coordinator: the
    /// quorum is complete (every ring acceptor voted, plus ourselves).
    fn decide(&mut self, instance: InstanceId, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else { return };
        let Some(Outstanding { mask, sent, resent, .. }) = c.outstanding.remove(&instance) else {
            return;
        };
        c.probe.progress(ctx.now());
        c.decided_unsent.push((instance, mask));
        // 2Bs complete the ring in instance order: an older instance
        // still out when one proposed a whole ring trip after it is
        // decided lost a 2A or 2B on the ring that its link's repair did
        // not bring (module docs, "Loss recovery", second line). The
        // range is empty unless a datagram was lost. An instance that was
        // itself re-multicast measures no ring trip (which 2A did this 2B
        // answer?) and proves nothing.
        let trip = ctx.now().saturating_since(sent);
        let lost: Vec<InstanceId> = c
            .outstanding
            .range(..instance)
            .filter(|(_, o)| !resent && !o.resent && o.sent + trip <= sent)
            .map(|(&i, _)| i)
            .collect();
        if let Some(a) = self.acc.as_mut() {
            a.decided.insert(instance, ());
        }
        ctx.counter_add_id(metric::id::INSTANCES, 1);
        if ctx.probes_enabled() {
            let key = probe::span_key(self.cfg.group.0 as u32, instance.0);
            ctx.probe(probe::code::DECIDE, key);
        }
        let round = self.round;
        self.learner_decide(&[(instance, mask)], round);
        self.try_deliver(ctx);
        for i in lost {
            self.re_2a(i, ctx);
        }
        // Classic mode: decisions ride on the next 2A (or the batch timer
        // flushes them). Partitioned mode: decisions go out promptly on
        // the decision group.
        if self.cfg.partitions.is_some() {
            self.flush_decisions(ctx);
        } else {
            self.try_flush(ctx, None);
        }
    }

    /// Re-multicasts the 2A of the outstanding `instance`: the duplicate
    /// makes the first acceptor restart the vote relay, and acceptors
    /// and learners that missed the original take it as the original.
    /// In classic mode it carries the unannounced decisions like any
    /// 2A: its `decided_below` watermark covers them, and a learner
    /// shown an instance decided without the decision asks for it.
    fn re_2a(&mut self, instance: InstanceId, ctx: &mut Ctx) {
        let classic = self.cfg.partitions.is_none();
        let Some(c) = self.coord.as_mut() else { return };
        let Some(o) = c.outstanding.get_mut(&instance) else { return };
        o.sent = ctx.now();
        o.resent = true;
        let (batch, mask) = (o.batch.clone(), o.mask);
        let decisions = if classic { std::mem::take(&mut c.decided_unsent) } else { Vec::new() };
        let wire = (batch_bytes(&batch).min(u32::MAX as u64) as u32).max(CTL_BYTES);
        ctx.counter_add("rp.re2a", 1);
        let msg = MMsg::Phase2a {
            instance,
            round: self.round,
            batch,
            decisions: Rc::new(decisions),
            gc_upto: InstanceId(0),
            // The instance's original skip weight: learners feed it to
            // the deterministic merge, and a weight that differs from
            // the original 2A's would desynchronize the merge turn
            // structure across replicas.
            skip: self.skip_weight_of(instance),
            mask,
            decided_below: self.decided_below(),
        };
        self.mcast_2a(msg, mask, wire, ctx);
    }

    /// Announces every decision not yet sent, without waiting for a 2A
    /// to carry it: on the decision group in partitioned mode, on the
    /// ring's group otherwise.
    fn flush_decisions(&mut self, ctx: &mut Ctx) {
        let group = self.cfg.partitions.as_ref().map_or(self.cfg.group, |p| p.decision_group);
        let Some(c) = self.coord.as_mut() else { return };
        if c.decided_unsent.is_empty() {
            return;
        }
        let decisions = Rc::new(std::mem::take(&mut c.decided_unsent));
        let gc_upto = c.gc_watermark;
        c.last_mcast = ctx.now();
        let round = self.round;
        let decided_below = self.decided_below();
        let msg = MMsg::Decision { instances: decisions.clone(), round, gc_upto, decided_below };
        ctx.mcast(group, msg, CTL_BYTES);
        self.learner_decide(&decisions, round);
        self.try_deliver(ctx);
    }

    // ------------------------------------------------------------------
    // Acceptor
    // ------------------------------------------------------------------

    fn on_phase2a(
        &mut self,
        instance: InstanceId,
        round: Round,
        batch: Batch,
        src: NodeId,
        ctx: &mut Ctx,
    ) {
        if round > self.round {
            // A higher-round coordinator exists: adopt the round and step
            // down if we (stale, e.g. restarted after a pause) still
            // believe we coordinate.
            self.adopt_round(round);
            self.coord = None;
            self.takeover = None;
        }
        // A lost 2A is asked of the first acceptor's successor, of a
        // mid-ring acceptor's predecessor.
        let neighbour = match self.ring_pos() {
            Some(0) => self.cfg.successor(self.me),
            pos => pos.map(|p| self.cfg.ring[p - 1]),
        };
        let Some(a) = self.acc.as_mut() else { return };
        a.last_coord_activity = ctx.now();
        if round != self.round || self.cfg.coordinator() == self.me {
            return;
        }
        if a.asked.remove(&instance) {
            // The 2A this acceptor asked for came by multicast after all.
            ctx.counter_add("rp.repair_spurious", 1);
        }
        let overtaken = a.from_coord.advance(src, round, instance.next());
        if let Some(to) = neighbour {
            // Ask for each 2A this one overtook (module docs, "Loss
            // recovery") that the acceptor has neither voted on nor
            // asked for.
            let mut lost: Vec<(InstanceId, bool)> = overtaken
                .filter(|&k| k != instance && a.paxos.vote(k).is_none() && !a.known_decided(k))
                .map(|k| (k, true))
                .collect();
            lost.retain(|&(k, _)| a.asked.insert(k));
            if !lost.is_empty() {
                self.send_retrans_req(to, lost, ctx);
            }
        }
        self.vote_2a(instance, round, batch, ctx);
    }

    /// Votes on a 2A — ip-delivered, or retransmitted by a ring
    /// neighbour in its place — and starts or resumes the 2B relay.
    fn vote_2a(&mut self, instance: InstanceId, round: Round, batch: Batch, ctx: &mut Ctx) {
        let is_first = self.ring_pos() == Some(0);
        let Some(a) = self.acc.as_mut() else { return };
        // Partitioned mode replicates one 2A onto several groups; an
        // acceptor subscribed to all of them deduplicates (§4.2.2). A
        // duplicate can also be the coordinator *retransmitting* after a
        // lost Phase 2B — the first acceptor must restart the vote relay.
        if a.paxos.vote(instance).is_some_and(|v| v.v_rnd == round) {
            if is_first && a.released(instance, round) {
                self.send_2b_to_successor(instance, round, ctx);
            }
            return;
        }
        let bytes = batch_bytes(&batch).min(u32::MAX as u64) as u32;
        if a.paxos.receive_2a(instance, round, batch).is_none() {
            return;
        }
        let Some(wal) = a.wal.as_mut() else {
            self.vote_released(instance, round, ctx);
            return;
        };
        let batch = a.paxos.vote(instance).expect("just cast").v_val.clone();
        wal.append(instance, round, batch, bytes, ctx); // `on_token` hands it back
    }

    /// This acceptor's vote for `instance` at `round` may leave (module
    /// docs, "Durable votes"): the first acceptor starts the 2B relay;
    /// the others release a 2B held for that round.
    fn vote_released(&mut self, instance: InstanceId, round: Round, ctx: &mut Ctx) {
        if self.ring_pos() == Some(0) {
            self.send_2b_to_successor(instance, round, ctx);
            return;
        }
        let Some(a) = self.acc.as_mut() else { return };
        if let Some(r) = a.early_2b.remove(instance) {
            if r == round {
                self.send_2b_to_successor(instance, round, ctx);
            }
        }
    }

    /// Handles a 2B from the ring predecessor (or one its floor stood in
    /// for) at a mid-ring acceptor: forward only if we have voted on the
    /// corresponding 2A — the heart of Task 5 in Algorithm 2.
    fn relay_2b(&mut self, instance: InstanceId, round: Round, from: NodeId, ctx: &mut Ctx) {
        let Some(a) = self.acc.as_mut() else { return };
        let voted = a.paxos.vote(instance).is_some_and(|v| v.v_rnd == round);
        if voted && a.released(instance, round) {
            self.send_2b_to_successor(instance, round, ctx);
            return;
        }
        a.early_2b.insert(instance, round);
        if !voted && a.asked.insert(instance) {
            // `from` voted in `round`, so it holds the value, and the 2A
            // was multicast before that vote: this acceptor's copy is
            // lost (module docs, "Loss recovery"). Ask `from` for it.
            self.send_retrans_req(from, vec![(instance, true)], ctx);
        }
    }

    /// The answer to a request for a lost 2A (`on_phase2a`'s or
    /// `relay_2b`'s, to a ring neighbour): vote on it as on the lost 2A,
    /// which starts the relay or releases the held 2B.
    fn on_2a_repair(
        &mut self,
        instance: InstanceId,
        round: Round,
        batch: Batch,
        skip: u64,
        mask: u32,
        ctx: &mut Ctx,
    ) {
        let Some(a) = self.acc.as_mut() else { return };
        if round != self.round || !a.asked.contains(&instance) {
            return; // not (or no longer) waiting for that 2A
        }
        a.note_shape(instance, skip, mask);
        self.vote_2a(instance, round, batch, ctx);
    }

    /// Asks `to` for `instances`, each with whether its payload is
    /// needed or only its decision (the flag rides in the instance's
    /// eight bytes).
    fn send_retrans_req(&mut self, to: NodeId, instances: Vec<(InstanceId, bool)>, ctx: &mut Ctx) {
        let wire = CTL_BYTES + 8 * instances.len() as u32;
        ctx.udp_send(to, MMsg::RetransReq { from: self.me, instances }, wire);
    }

    fn send_2b_to_successor(&mut self, instance: InstanceId, round: Round, ctx: &mut Ctx) {
        if ctx.probes_enabled() {
            ctx.probe(probe::code::PHASE2B, probe::span_key(self.cfg.group.0 as u32, instance.0));
        }
        let (Some(succ), Some(a)) = (self.cfg.successor(self.me), self.acc.as_mut()) else {
            return;
        };
        let through = a.floor.sent(succ, round, instance);
        ctx.udp_send(succ, MMsg::Phase2b { instance, round, through }, CTL_BYTES);
    }

    /// Answers a repair request with what each instance is missing and
    /// nothing else: the stored batch where the payload is needed, the
    /// control-sized decision where the requester holds the payload (or
    /// is a learner of a partition the batch does not touch, and will
    /// skip it) — and nothing where that decision is not known here.
    fn on_retrans_req(&mut self, from: NodeId, instances: &[(InstanceId, bool)], ctx: &mut Ctx) {
        let Some(a) = self.acc.as_ref() else { return };
        let learner = self.cfg.learners.iter().position(|&n| n == from);
        let their_mask = learner.map_or(ALL_PARTITIONS, |i| self.cfg.learner_mask(i));
        for &(instance, need_payload) in instances {
            let Some(vote) = a.paxos.vote(instance) else { continue };
            let skip = a.skip_weights.get(&instance).copied().unwrap_or(0);
            let mask = a.masks.get(&instance).copied().unwrap_or(ALL_PARTITIONS);
            let decided = a.decided.contains(instance) || instance < a.decided_below;
            let round = vote.v_rnd;
            let (msg, wire) = if need_payload && mask & their_mask != 0 {
                let batch = vote.v_val.clone();
                let wire = batch_bytes(&batch).min(u32::MAX as u64) as u32;
                let msg = MMsg::RetransRep { instance, batch, decided, round, skip, mask };
                (msg, wire.max(CTL_BYTES))
            } else if decided {
                (MMsg::RetransDecided { instance, round, mask }, CTL_BYTES)
            } else {
                continue;
            };
            ctx.counter_add("rp.retrans", 1);
            ctx.udp_send(from, msg, wire);
        }
    }

    // ------------------------------------------------------------------
    // Learner
    // ------------------------------------------------------------------

    /// Records announced decisions. Returns how many of them the
    /// learner had already asked its preferential acceptor for.
    fn learner_decide(&mut self, instances: &[(InstanceId, u32)], round: Round) -> u64 {
        self.lrn.as_mut().map_or(0, |l| l.decide(instances, round))
    }

    /// After a multicast from the coordinator: takes its `decided_below`
    /// watermark, delivers what became deliverable, and sends the
    /// preferential acceptor the learner's order-triggered repair list
    /// (`mlearner`, "What is asked for").
    fn learner_progress(&mut self, decided_below: InstanceId, ctx: &mut Ctx) {
        if let Some(l) = self.lrn.as_mut() {
            l.watermark(decided_below);
        }
        self.try_deliver(ctx);
        let Some(l) = self.lrn.as_mut() else { return };
        if self.rec.as_ref().is_some_and(|r| r.catching_up()) {
            return l.forget_named(); // bulk catch-up (TCP) is fetching the backlog
        }
        let missing = l.incomplete();
        if !missing.is_empty() {
            self.send_retrans_req(self.preferential(), missing, ctx);
        }
    }

    /// Takes what every multicast from the coordinator carries: the
    /// decisions announced at `round` and the GC and decided-below
    /// watermarks. `spurious` counts what the learner had asked for and
    /// came by multicast after all (was not lost).
    fn on_announced(
        &mut self,
        decisions: &[(InstanceId, u32)],
        round: Round,
        gc_upto: InstanceId,
        decided_below: InstanceId,
        spurious: u64,
        ctx: &mut Ctx,
    ) {
        if let Some(a) = self.acc.as_mut() {
            for &(d, _) in decisions {
                a.decided.insert(d, ());
            }
            a.decided_below = a.decided_below.max(decided_below);
        }
        let spurious = spurious + self.learner_decide(decisions, round);
        if spurious > 0 {
            ctx.counter_add("rp.repair_spurious", spurious);
        }
        if gc_upto > InstanceId(0) && !self.is_coordinator() {
            self.apply_gc(gc_upto);
        }
        self.learner_progress(decided_below, ctx);
    }

    /// Hands the application every instance the learner can release, as
    /// fast as core 1 takes them.
    fn try_deliver(&mut self, ctx: &mut Ctx) {
        let batch_cost = self
            .cost_ctl
            .as_ref()
            .map(|c| *c.lock().unwrap())
            .unwrap_or(self.cfg.learner_batch_cost);
        loop {
            let Some(l) = self.lrn.as_mut() else { return };
            if !l.front_ready() {
                break;
            }
            if batch_cost > Dur::ZERO {
                // Application processing runs on core 1 (a pinned thread);
                // if it falls far behind, pause and resume by timer so the
                // buffer build-up is observable (flow control, §3.3.6).
                let backlog = ctx.core_free_at(1).saturating_since(ctx.now());
                if backlog > Dur::millis(5) {
                    ctx.set_timer(backlog - Dur::millis(4), TimerToken(T_DELIVER));
                    break;
                }
                ctx.charge_cpu(1, batch_cost);
            }
            if ctx.probes_enabled() {
                let key = probe::span_key(self.cfg.group.0 as u32, l.next_deliver().0);
                ctx.probe(probe::code::DELIVER, key);
            }
            let released = l.release();
            if let Some(p) = self.prop.as_mut() {
                // A duplicate (resend, failover resubmission) of a value
                // the dedup window may have evicted unseen: either way
                // it will never be delivered again.
                for v in released.duplicate.iter().filter(|v| v.proposer == self.me) {
                    p.ack(v.seq);
                }
            }
            if released.evicted > 0 {
                // The dedup window overflowed: a late first copy below
                // the collapsed watermark will be dropped as a duplicate.
                ctx.counter_add("rp.dedup_evict", released.evicted);
            }
            if let Some(log) = self.log.as_ref() {
                let mut log = log.lock().unwrap();
                for v in &released.fresh {
                    log.deliver(self.lrn_index, v.id);
                }
            }
            if let Some(rec) = self.rec.as_mut() {
                for v in &released.fresh {
                    rec.delivered(v.proposer.0 as u64, v.seq, v.bytes);
                }
            }
            for v in &released.fresh {
                ctx.counter_add_id(metric::id::DELIVERED_BYTES, v.bytes as u64);
                ctx.counter_add_id(metric::id::DELIVERED_MSGS, 1);
                if v.proposer == self.me {
                    // Delivery strictly follows submission; `since`
                    // debug-asserts that instead of masking inversions.
                    ctx.record_latency(metric::LATENCY, ctx.now().since(v.submitted));
                    if let Some(p) = self.prop.as_mut() {
                        p.ack(v.seq);
                    }
                }
            }
        }
        // Every acknowledgement above made room in the proposer's
        // window: what it held back goes now, not at the next pace tick.
        if let Some(p) = self.prop.as_mut() {
            p.send_held(ctx);
        }
        if let (Some(rec), Some(l)) = (self.rec.as_mut(), self.lrn.as_ref()) {
            rec.maybe_checkpoint(l.next_deliver(), || l.export_delivered(), ctx);
        }
        self.flow_check(ctx);
    }

    /// Serves a recovery catch-up request from the acceptor's stored
    /// votes: contiguous decided instances from `next`, over TCP. When
    /// `next` has fallen below this acceptor's GC watermark, the reply's
    /// `available_from` tells the requester to fetch a peer learner's
    /// checkpoint first.
    fn serve_catchup(&mut self, from: NodeId, next: InstanceId, ctx: &mut Ctx) {
        let Some(a) = self.acc.as_ref() else { return };
        let horizon = a
            .decided
            .iter()
            .map(|(i, _)| i.next())
            .last()
            .unwrap_or(InstanceId(0))
            .max(a.decided_below);
        let available_from = a.paxos.gc_base().max(next);
        let mut batches = Vec::new();
        let mut wire = CTL_BYTES as u64;
        let mut i = available_from;
        while batches.len() < CATCHUP_CHUNK && i < horizon {
            let decided = a.decided.contains(i) || i < a.decided_below;
            let Some(vote) = a.paxos.vote(i) else { break };
            if !decided {
                break;
            }
            let skip = a.skip_weights.get(&i).copied().unwrap_or(0);
            let mask = a.masks.get(&i).copied().unwrap_or(ALL_PARTITIONS);
            wire += batch_bytes(&vote.v_val);
            batches.push((i, vote.v_val.clone(), vote.v_rnd, skip, mask));
            i = i.next();
        }
        ctx.counter_add("rec.catchup_served", batches.len() as u64);
        ctx.tcp_send(
            from,
            MMsg::CatchupRep { batches, upto: horizon, available_from },
            wire.min(u32::MAX as u64) as u32,
        );
    }

    /// A peer learner in this deployment other than `me` (the state
    /// transfer source when acceptors have GC'd past a straggler).
    fn snap_peer(&self) -> Option<NodeId> {
        self.cfg.learners.iter().copied().find(|&n| n != self.me)
    }

    /// Ingests a recovery catch-up chunk at a restarted learner.
    fn on_catchup_rep(
        &mut self,
        batches: Vec<(InstanceId, Batch, Round, u64, u32)>,
        upto: InstanceId,
        available_from: InstanceId,
        ctx: &mut Ctx,
    ) {
        if !self.rec.as_ref().is_some_and(|r| r.catching_up()) {
            return; // a retry's duplicate reply after completion
        }
        let next_now = self.next_deliver();
        if available_from > next_now {
            // The acceptors collected past us (§3.3.7): only a peer
            // learner's checkpoint can close the gap. Stay catching up;
            // re-request once the transfer lands (or on the retry tick).
            if let Some(peer) = self.snap_peer() {
                let me = self.me;
                ctx.counter_add("rec.snap_reqs", 1);
                ctx.tcp_send(peer, MMsg::SnapReq { from: me }, CTL_BYTES);
            }
            return;
        }
        let got = batches.len() as u64;
        ctx.counter_add("rec.catchup_instances", got);
        if let Some(l) = self.lrn.as_mut() {
            for (instance, batch, round, skip, mask) in batches {
                l.authoritative(instance, &batch, skip, mask, round);
            }
        }
        self.try_deliver(ctx);
        let next = self.lrn.as_ref().map_or(upto, MLearner::next_deliver);
        // Wait: the acceptor could not serve contiguously (e.g. mid-GC).
        let rec = self.rec.as_mut().expect("checked above");
        let step = rec.chunk_applied(got, next, upto);
        self.catchup_step(step, next, ctx);
    }

    /// Does what the learner state machine says after a reply or a tick.
    fn catchup_step(&mut self, step: CatchupStep, next: InstanceId, ctx: &mut Ctx) {
        match step {
            CatchupStep::Wait => return,
            CatchupStep::Done(since) => {
                return ctx.record_latency("rec.ttr", ctx.now().since(since));
            }
            CatchupStep::Reenter => ctx.counter_add("rec.gap_catchups", 1),
            CatchupStep::Ask => {}
        }
        self.ask_catchup(next, ctx);
    }

    /// Asks the preferential acceptor for the decided suffix from `next`
    /// (bulk, over TCP).
    fn ask_catchup(&mut self, next: InstanceId, ctx: &mut Ctx) {
        let req = MMsg::CatchupReq { from: self.me, next };
        ctx.tcp_send(self.preferential(), req, CTL_BYTES);
    }

    /// Adopts a peer learner's checkpoint (state transfer): jump the
    /// delivery window to its watermark and resume catch-up from there.
    fn on_snap_rep(&mut self, snap: Option<recovery::Checkpoint>, ctx: &mut Ctx) {
        let (Some(cp), Some(rec), Some(l)) = (snap, self.rec.as_mut(), self.lrn.as_mut()) else {
            return;
        };
        if !rec.adopt(&cp, l.next_deliver()) {
            return; // a duplicate, or the peer is not ahead (yet): the retry tick re-asks
        }
        l.restore(cp.watermark, cp.marks, cp.parked);
        if let Some(log) = self.log.as_ref() {
            log.lock().unwrap().mark_state_transfer(self.lrn_index, cp.log_pos as usize);
        }
        ctx.counter_add("rec.state_transfers", 1);
        ctx.counter_add("rec.transfer_bytes", cp.state_bytes);
        self.ask_catchup(cp.watermark, ctx);
        self.try_deliver(ctx);
    }

    /// `SlowDown` when the decided-but-unprocessed backlog passes the
    /// threshold, once until it has halved.
    fn flow_check(&mut self, ctx: &mut Ctx) {
        let Some(l) = self.lrn.as_ref() else { return };
        let threshold = self.cfg.flow.learner_threshold;
        // Counted to just past the threshold: which side is all that matters.
        let buffered = l.buffered(threshold.saturating_mul(2).max(16));
        if buffered > threshold && !self.slowdown_active {
            self.slowdown_active = true;
            ctx.counter_add("rp.slowdown", 1);
            ctx.udp_send(self.preferential(), MMsg::SlowDown, CTL_BYTES);
        } else if buffered < threshold / 2 {
            self.slowdown_active = false;
        }
    }

    fn gc_report(&mut self, ctx: &mut Ctx) {
        let Some(l) = self.lrn.as_mut() else { return };
        if let Some(applied) = l.unreported() {
            let version = MMsg::Version { learner: self.me, applied };
            ctx.udp_send(self.preferential(), version, CTL_BYTES);
        }
        ctx.set_timer(self.cfg.gc_interval, TimerToken(T_GC));
    }

    /// The learner's backstop sweep, to its preferential acceptor.
    fn retrans_check(&mut self, ctx: &mut Ctx) {
        let Some(l) = self.lrn.as_mut() else { return };
        let missing = l.sweep();
        if !missing.is_empty() {
            self.send_retrans_req(self.preferential(), missing, ctx);
        }
        ctx.set_timer(SWEEP_TICK, TimerToken(T_RETRANS));
    }

    // ------------------------------------------------------------------
    // Garbage collection (coordinator side)
    // ------------------------------------------------------------------

    fn on_version(&mut self, learner: NodeId, applied: InstanceId, ctx: &mut Ctx) {
        if self.is_coordinator() {
            let n_learners = self.cfg.learners.len();
            let f_plus_1 = quorum(self.total_acceptors).min(n_learners.max(1));
            let Some(c) = self.coord.as_mut() else { return };
            let e = c.versions.entry(learner).or_insert(InstanceId(0));
            *e = (*e).max(applied);
            if c.versions.len() >= f_plus_1 {
                let mut versions: Vec<InstanceId> = c.versions.values().copied().collect();
                versions.sort_unstable();
                // The f+1-th highest version is safe to collect below —
                // minus a retention window so learners lagging behind
                // that quorum keep a retransmission source (§3.3.7's
                // catch-up from "a sufficiently recent" peer).
                let idx = versions.len() - f_plus_1;
                let watermark = InstanceId(versions[idx].0.saturating_sub(self.cfg.gc_retention));
                if watermark > c.gc_watermark {
                    let delta = watermark.0 - c.gc_watermark.0;
                    c.gc_watermark = watermark;
                    ctx.counter_add("rp.gc_advanced", delta);
                    self.apply_gc(watermark);
                }
            }
        } else if self.acc.is_some() {
            // Forward along the ring towards the coordinator.
            if let Some(succ) = self.cfg.successor(self.me) {
                ctx.udp_send(succ, MMsg::Version { learner, applied }, CTL_BYTES);
            }
        }
    }

    fn apply_gc(&mut self, upto: InstanceId) {
        // The watermark rides on every 2A; splitting the trees again for
        // an unchanged watermark is pure waste on the per-packet path.
        if upto <= self.gc_applied {
            return;
        }
        self.gc_applied = upto;
        if let Some(a) = self.acc.as_mut() {
            a.paxos.gc_below(upto);
            a.decided.advance_base(upto);
            a.early_2b.advance_base(upto);
            a.floor.collect_below(upto);
            a.asked = a.asked.split_off(&upto);
            a.skip_weights = a.skip_weights.split_off(&upto);
            a.masks = a.masks.split_off(&upto);
            // The durable vote log rides the same watermark: f+1
            // learners applied these instances (§3.3.7), so a restarted
            // acceptor never needs them either — without this trim the
            // stable store grows with run length.
            if let Some(wal) = a.wal.as_ref() {
                wal.trim_below(upto);
            }
        }
    }

    // ------------------------------------------------------------------
    // Ring repair (§3.3.4/§3.3.5): the coordinator suspects a broken 2B
    // relay, probes the acceptors, and lays out a new ring from the
    // responders, pulling in spares to restore the m-quorum.
    // ------------------------------------------------------------------

    fn ring_repair_check(&mut self, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else { return };
        let open = !c.outstanding.is_empty();
        match c.probe.check(self.me, ctx.now(), self.cfg.suspicion_timeout, open) {
            ProbeStep::Nothing => {}
            ProbeStep::Probe => self.start_ring_probe(ctx),
            ProbeStep::Reform(responders) => self.reform_ring(responders, ctx),
        }
    }

    fn start_ring_probe(&mut self, ctx: &mut Ctx) {
        ctx.counter_add("rp.ring_probe", 1);
        self.to_other_acceptors(MMsg::Ping { from: self.me }, ctx);
    }

    /// Sends a control message to every other acceptor, ring or spare.
    fn to_other_acceptors(&self, msg: MMsg, ctx: &mut Ctx) {
        for &n in self.cfg.ring.iter().chain(&self.cfg.spares).filter(|&&n| n != self.me) {
            ctx.udp_send(n, msg.clone(), CTL_BYTES);
        }
    }

    fn reform_ring(&mut self, responders: BTreeSet<NodeId>, ctx: &mut Ctx) {
        let me = self.me;
        // Keep the surviving ring segment in order, then pull in live
        // spares until the ring again holds an m-quorum (§3.3.5).
        let mut ring: Vec<NodeId> =
            self.cfg.ring.iter().copied().filter(|&n| n != me && responders.contains(&n)).collect();
        let target = quorum(self.total_acceptors).saturating_sub(1);
        for s in self.cfg.spares.clone() {
            if ring.len() >= target {
                break;
            }
            if s != me && responders.contains(&s) && !ring.contains(&s) {
                ring.push(s);
            }
        }
        ring.push(me);
        if ring == self.cfg.ring {
            return; // nothing to exclude — the stall was transient
        }
        if ring.len() < quorum(self.total_acceptors) {
            // Cannot gather an m-quorum: keep the old ring, retry later.
            ctx.counter_add("rp.repair_short", 1);
            return;
        }
        // Demote excluded members to spares (a restarted acceptor can
        // answer a later probe and rejoin).
        for &old in &self.cfg.ring.clone() {
            if !ring.contains(&old) && !self.cfg.spares.contains(&old) {
                self.cfg.spares.push(old);
            }
        }
        self.cfg.spares.retain(|s| !ring.contains(s));
        self.cfg.ring = ring.clone();
        ctx.counter_add("rp.ring_repair", 1);
        let round = self.round;
        ctx.mcast(self.cfg.group, MMsg::NewRing { round, coord: me, ring }, CTL_BYTES);
        // Restart the 2B relay for everything in flight: re-multicast the
        // outstanding 2As — the duplicate-2A path makes the new first
        // acceptor restart the vote relay.
        let outstanding: Vec<InstanceId> =
            self.coord.iter().flat_map(|c| c.outstanding.keys().copied()).collect();
        for instance in outstanding {
            self.re_2a(instance, ctx);
        }
    }

    /// The skip weight this (coordinator-)acceptor recorded for
    /// `instance` (0 for normal batches) — retransmitted 2As must repeat
    /// it verbatim so every learner's merge sees identical weights.
    fn skip_weight_of(&self, instance: InstanceId) -> u64 {
        self.acc.as_ref().and_then(|a| a.skip_weights.get(&instance)).copied().unwrap_or(0)
    }

    fn suspect_check(&mut self, ctx: &mut Ctx) {
        let timeout = self.cfg.suspicion_timeout;
        let Some(pos) = self.ring_pos() else { return };
        if self.is_coordinator() || self.takeover.is_some() {
            return;
        }
        let silent = {
            let Some(a) = self.acc.as_ref() else { return };
            ctx.now().saturating_since(a.last_coord_activity)
        };
        // Staggered takeover: ring position 0 reacts first, position 1
        // after another timeout, and so on — avoids duelling candidates.
        let my_delay = timeout + timeout * pos as u64;
        if silent > my_delay {
            self.start_takeover(ctx);
        } else {
            ctx.set_timer(timeout, TimerToken(T_SUSPECT));
        }
    }

    fn start_takeover(&mut self, ctx: &mut Ctx) {
        let pos = self.ring_pos().unwrap_or(0) as u32;
        let round = self.round.next_for(pos);
        self.adopt_round(round);
        self.takeover =
            Some(Takeover { p1: Phase1::new(round, ctx.now()), decided: BTreeSet::new() });
        ctx.counter_add("rp.takeover", 1);
        let me = self.me;
        // Phase 1A to every acceptor (ring + spares), including ourselves.
        self.to_other_acceptors(MMsg::Phase1a { round, from: me }, ctx);
        // Self-promise.
        let self_votes = self.collect_own_votes(round);
        self.on_phase1b(round, me, self_votes.0, self_votes.1, ctx);
        // Retry suspicion in case the takeover stalls (lost messages).
        ctx.set_timer(self.cfg.suspicion_timeout * 4, TimerToken(T_SUSPECT));
    }

    /// Moves to `round`, durably if this process is an acceptor with a
    /// stable store: a restarted acceptor must not vote in a round it
    /// promised away.
    fn adopt_round(&mut self, round: Round) {
        self.round = round;
        persist_promise(self.acc.as_ref().and(self.rec.as_ref()).map(|r| &r.store), round);
    }

    /// This acceptor's Phase 1B payload for `round`: the instances it
    /// knows decided, and its votes in the others — the only ones the
    /// candidate can need (it never re-proposes an instance the list
    /// closes). The whole vote log is up to `gc_retention` packets, and
    /// a quorum of those in one datagram each overflows the candidate's
    /// switch port: the takeover would never complete.
    fn collect_own_votes(&mut self, round: Round) -> (Votes, Vec<InstanceId>) {
        let Some(a) = self.acc.as_mut() else { return (Vec::new(), Vec::new()) };
        let (below, known) = (a.decided_below, &a.decided);
        let votes = Phase1::reveal(&mut a.paxos, round, |i| i >= below && !known.contains(i));
        let mut decided: Vec<InstanceId> = known.iter().map(|(i, _)| i).collect();
        // The watermark's last instance stands for all under it: the
        // candidate resumes above every vote withheld here even if this
        // acceptor never saw that instance's decision announced.
        if let Some(last) = below.0.checked_sub(1).map(InstanceId) {
            if !known.contains(last) {
                decided.push(last);
            }
        }
        (votes, decided)
    }

    fn on_phase1a(&mut self, round: Round, from: NodeId, ctx: &mut Ctx) {
        if round > self.round {
            self.adopt_round(round);
            // Abandon any personal takeover attempt against a higher round.
            if self.takeover.as_ref().is_some_and(|t| t.p1.round < round) {
                self.takeover = None;
            }
            // Deposed coordinator stops proposing.
            if self.coord.is_some() && self.cfg.coordinator() == self.me {
                self.coord = None;
            }
            let (votes, decided) = self.collect_own_votes(round);
            let me = self.me;
            let wire = CTL_BYTES + votes.iter().map(|(_, _, b)| batch_bytes(b) as u32).sum::<u32>();
            ctx.udp_send(from, MMsg::Phase1b { round, from: me, votes, decided }, wire);
        }
    }

    fn on_phase1b(
        &mut self,
        round: Round,
        from: NodeId,
        votes: Votes,
        decided: Vec<InstanceId>,
        ctx: &mut Ctx,
    ) {
        let Some(t) = self.takeover.as_mut() else { return };
        if !t.p1.promise(round, from, votes) {
            return;
        }
        t.decided.extend(decided);
        if t.p1.has_quorum(self.total_acceptors) {
            self.become_coordinator(ctx);
        }
    }

    fn become_coordinator(&mut self, ctx: &mut Ctx) {
        let t = self.takeover.take().expect("takeover in progress");
        // Reform the ring: alive members we can't verify, so keep the old
        // ring minus the old coordinator, with ourselves last.
        let old_coord = self.cfg.coordinator();
        let mut ring: Vec<NodeId> =
            self.cfg.ring.iter().copied().filter(|&n| n != old_coord && n != self.me).collect();
        // Keep the ring at quorum size by pulling in spares (they have
        // been receiving 2As all along — Cheap Paxos style, §3.3.2).
        let needed = quorum(self.total_acceptors).saturating_sub(1);
        for &s in &self.cfg.spares {
            if ring.len() >= needed {
                break;
            }
            if !ring.contains(&s) && s != self.me {
                ring.push(s);
            }
        }
        ring.push(self.me);
        self.cfg.ring = ring.clone();
        self.cfg.spares.retain(|s| !ring.contains(s));
        let round = t.p1.round;
        self.round = round;

        // Resume after the highest instance seen anywhere.
        let max_seen =
            t.p1.votes
                .keys()
                .next_back()
                .copied()
                .max(t.decided.iter().next_back().copied())
                .map(|i| i.next())
                .unwrap_or(InstanceId(0));

        let mut cs = CoordState::new(self.cfg.flow.initial_window, max_seen, ctx.now());
        cs.decided_unsent = t.decided.iter().map(|&i| (i, ALL_PARTITIONS)).collect();

        // Re-propose undecided revealed votes (value pick rule).
        let mut repropose: Vec<(InstanceId, Batch)> = Vec::new();
        for (i, (_r, b)) in &t.p1.votes {
            if !t.decided.contains(i) {
                repropose.push((*i, b.clone()));
            }
        }

        for (instance, batch) in &repropose {
            let (batch, sent, mask) = (batch.clone(), ctx.now(), ALL_PARTITIONS);
            cs.outstanding.insert(*instance, Outstanding { batch, sent, mask, resent: false });
        }
        self.coord = Some(cs);

        ctx.counter_add("rp.became_coord", 1);
        ctx.mcast(self.cfg.group, MMsg::NewRing { round, coord: self.me, ring }, CTL_BYTES);
        // Re-run Phase 2 for the re-proposed instances.
        for (instance, batch) in repropose {
            if let Some(a) = self.acc.as_mut() {
                let _ = a.paxos.receive_2a(instance, round, batch.clone());
            }
            let wire = batch_bytes(&batch).min(u32::MAX as u64) as u32;
            ctx.mcast(
                self.cfg.group,
                MMsg::Phase2a {
                    instance,
                    round,
                    batch,
                    decisions: Rc::new(Vec::new()),
                    gc_upto: InstanceId(0),
                    skip: 0,
                    mask: ALL_PARTITIONS,
                    decided_below: InstanceId(0),
                },
                wire.max(CTL_BYTES),
            );
        }
        // Start coordinator timers.
        ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
        ctx.set_timer(FLOW_TICK, TimerToken(T_FLOW));
        ctx.set_timer(self.cfg.suspicion_timeout / 2, TimerToken(T_HEARTBEAT));
        if let Some(skip) = self.cfg.skip {
            ctx.set_timer(skip.delta, TimerToken(T_SKIP));
        }
    }

    fn on_new_ring(&mut self, round: Round, coord: NodeId, ring: Vec<NodeId>, ctx: &mut Ctx) {
        if round < self.round {
            return;
        }
        self.adopt_round(round);
        self.cfg.ring = ring;
        if coord != self.me {
            self.coord = None;
            self.takeover = None;
        }
        if let Some(a) = self.acc.as_mut() {
            a.last_coord_activity = ctx.now();
        }
        // Proposers redirect and resend what is unacknowledged — at most
        // a window of it, so in one go; what became due during the
        // outage waits in `held` and follows at the new ring's pace.
        if let Some(p) = self.prop.as_mut() {
            p.coordinator = coord;
            for (v, sent) in p.unacked.values_mut() {
                *sent = ctx.now();
                ctx.udp_send(coord, MMsg::Propose(*v), v.bytes);
                ctx.counter_add("rp.resubmit", 1);
            }
        }
    }
    /// Lowest instance the coordinator has not yet decided: everything
    /// below it is decided.
    fn decided_below(&self) -> InstanceId {
        self.coord
            .as_ref()
            .map(|c| c.outstanding.keys().next().copied().unwrap_or(c.next_instance))
            .unwrap_or(InstanceId(0))
    }

    /// Proposes one consensus instance that stands for `weight` skipped
    /// logical instances (Multi-Ring Paxos, ch. 5). Many skips cost one
    /// consensus execution and a ~`CTL_BYTES` message.
    fn propose_skip(&mut self, weight: u64, ctx: &mut Ctx) {
        let round = self.round;
        let Some(c) = self.coord.as_mut() else { return };
        let instance = c.next_instance;
        c.next_instance = instance.next();
        let batch: Batch = BatchData::empty();
        let (sent, mask) = (ctx.now(), ALL_PARTITIONS);
        c.outstanding
            .insert(instance, Outstanding { batch: batch.clone(), sent, mask, resent: false });
        c.logical_count += weight;
        let decisions = Rc::new(std::mem::take(&mut c.decided_unsent));
        let gc_upto = c.gc_watermark;
        c.last_mcast = ctx.now();
        if let Some(a) = self.acc.as_mut() {
            let _ = a.paxos.receive_2a(instance, round, batch.clone());
            a.skip_weights.insert(instance, weight);
        }
        ctx.counter_add("rp.skips", weight);
        let decided_below = self.decided_below();
        ctx.mcast(
            self.cfg.group,
            MMsg::Phase2a {
                instance,
                round,
                batch: batch.clone(),
                decisions: decisions.clone(),
                gc_upto,
                skip: weight,
                mask: ALL_PARTITIONS,
                decided_below,
            },
            CTL_BYTES,
        );
        let r = self.round;
        if let Some(l) = self.lrn.as_mut() {
            l.store(instance, &batch, weight, ALL_PARTITIONS, r);
        }
        self.learner_decide(&decisions, r);
        self.try_deliver(ctx);
    }
}

impl Actor for MRingProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.is_coordinator() {
            ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
            ctx.set_timer(FLOW_TICK, TimerToken(T_FLOW));
            ctx.set_timer(self.cfg.suspicion_timeout / 2, TimerToken(T_HEARTBEAT));
            if let Some(skip) = self.cfg.skip {
                ctx.set_timer(skip.delta, TimerToken(T_SKIP));
            }
        }
        if self.prop.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.lrn.is_some() {
            ctx.set_timer(self.cfg.gc_interval, TimerToken(T_GC));
            ctx.set_timer(SWEEP_TICK, TimerToken(T_RETRANS));
        }
        if self.acc.is_some() && !self.is_coordinator() {
            ctx.set_timer(self.cfg.suspicion_timeout, TimerToken(T_SUSPECT));
        }
        if self.rec.is_some() && self.lrn.is_some() {
            // Persistent tick: drives catch-up retries while recovering
            // and re-enters catch-up if a delivery gap gets stuck later.
            ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
        }
        if self.rec.as_mut().is_some_and(|r| r.start(ctx.now())) {
            ctx.counter_add("rec.restarts", 1);
            self.ask_catchup(self.next_deliver(), ctx);
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<MMsg>() else { return };
        match *msg {
            MMsg::Propose(v) => self.on_propose(v, env.src, ctx),
            MMsg::Phase2a {
                instance,
                round,
                ref batch,
                ref decisions,
                gc_upto,
                skip,
                mask,
                decided_below,
            } => {
                // Acceptor path.
                self.on_phase2a(instance, round, batch.clone(), env.src, ctx);
                if let Some(a) = self.acc.as_mut() {
                    a.note_shape(instance, skip, mask);
                }
                // Learner path: the payload (had the learner asked its
                // acceptor for it?), then what every multicast carries.
                let lrn = self.lrn.as_mut();
                let spurious = lrn.is_some_and(|l| l.store(instance, batch, skip, mask, round));
                self.on_announced(decisions, round, gc_upto, decided_below, spurious as u64, ctx);
            }
            MMsg::Phase2b { instance, round, through } => {
                self.on_phase2b(instance, round, through, env.src, ctx)
            }
            MMsg::Ping { from } => {
                // Any live acceptor (ring member or spare) answers.
                if self.acc.is_some() {
                    ctx.udp_send(from, MMsg::Pong { from: self.me }, CTL_BYTES);
                }
            }
            MMsg::Pong { from } => {
                if let Some(c) = self.coord.as_mut() {
                    c.probe.pong(from);
                }
            }
            MMsg::Decision { ref instances, round, gc_upto, decided_below } => {
                if let Some(a) = self.acc.as_mut() {
                    a.last_coord_activity = ctx.now();
                }
                self.on_announced(instances, round, gc_upto, decided_below, 0, ctx);
            }
            MMsg::SlowDown => {
                if self.is_coordinator() {
                    let min = self.cfg.flow.min_window;
                    let Some(c) = self.coord.as_mut() else { return };
                    c.window = (c.window / 2).max(min);
                    c.last_slowdown = ctx.now();
                } else if self.acc.is_some() {
                    if let Some(succ) = self.cfg.successor(self.me) {
                        ctx.udp_send(succ, MMsg::SlowDown, CTL_BYTES);
                    }
                }
            }
            MMsg::RetransReq { from, ref instances } => self.on_retrans_req(from, instances, ctx),
            MMsg::RetransRep { instance, ref batch, decided, round, skip, mask } => {
                self.on_2a_repair(instance, round, batch.clone(), skip, mask, ctx);
                if let Some(l) = self.lrn.as_mut() {
                    if decided {
                        l.authoritative(instance, batch, skip, mask, round);
                    } else {
                        l.store(instance, batch, skip, mask, round);
                    }
                }
                self.try_deliver(ctx);
            }
            MMsg::RetransDecided { instance, round, mask } => {
                // The answer to this learner's own request: not counted
                // against it as a repair that proved unnecessary.
                let _ = self.learner_decide(&[(instance, mask)], round);
                self.try_deliver(ctx);
            }
            MMsg::Version { learner, applied } => self.on_version(learner, applied, ctx),
            MMsg::Phase1a { round, from } => self.on_phase1a(round, from, ctx),
            MMsg::Phase1b { round, from, ref votes, ref decided } => {
                self.on_phase1b(round, from, votes.clone(), decided.clone(), ctx)
            }
            MMsg::NewRing { round, coord, ref ring } => {
                self.on_new_ring(round, coord, ring.clone(), ctx)
            }
            MMsg::CatchupReq { from, next } => self.serve_catchup(from, next, ctx),
            MMsg::CatchupRep { ref batches, upto, available_from } => {
                self.on_catchup_rep(batches.clone(), upto, available_from, ctx)
            }
            MMsg::SnapReq { from } => {
                if let Some(rec) = self.rec.as_ref() {
                    let snap = rec.store.lock().unwrap().checkpoint.clone();
                    let wire = (CTL_BYTES as u64
                        + snap.as_ref().map(|c| c.state_bytes).unwrap_or(0))
                    .min(u32::MAX as u64) as u32;
                    ctx.tcp_send(from, MMsg::SnapRep { snap }, wire);
                }
            }
            MMsg::SnapRep { ref snap } => self.on_snap_rep(snap.clone(), ctx),
            MMsg::Heartbeat { round, coord, ref ring } => {
                if round > self.round {
                    // Missed the NewRing (restart after pause): resync.
                    self.on_new_ring(round, coord, ring.clone(), ctx);
                } else if round == self.round {
                    if let Some(a) = self.acc.as_mut() {
                        a.last_coord_activity = ctx.now();
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token_kind(token) {
            T_BATCH => {
                if self.is_coordinator() {
                    self.flush_partials(ctx, true);
                    // Classic mode piggybacks decisions on 2As: announce
                    // them alone only when no batch is left to carry them.
                    let idle = self
                        .coord
                        .as_ref()
                        .is_some_and(|c| c.queues.iter().all(|q| q.vals.is_empty()));
                    if idle || self.cfg.partitions.is_some() {
                        self.flush_decisions(ctx);
                    }
                    ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
                }
            }
            T_HOLD => {
                if let Some(c) = self.coord.as_mut() {
                    c.hold_armed = false;
                    self.flush_partials(ctx, false);
                }
            }
            T_PACE => self.pace(ctx),
            T_GC => self.gc_report(ctx),
            T_FLOW => {
                if self.is_coordinator() {
                    let max_window = self.cfg.flow.max_window;
                    let Some(c) = self.coord.as_mut() else { return };
                    if ctx.now().saturating_since(c.last_slowdown) > RECOVERY_QUIET {
                        c.window = (c.window + (c.window / 4).max(1)).min(max_window);
                    }
                    // Retransmit 2As whose decision is overdue (a lost
                    // multicast would otherwise stall the ring, §3.3.4).
                    let now = ctx.now();
                    let overdue: Vec<InstanceId> = c
                        .outstanding
                        .iter()
                        .filter(|(_, o)| now.saturating_since(o.sent) > RE2A_OVERDUE)
                        .take(REPAIR_BATCH)
                        .map(|(&i, _)| i)
                        .collect();
                    for instance in overdue {
                        self.re_2a(instance, ctx);
                    }
                    self.try_flush(ctx, None);
                    self.ring_repair_check(ctx);
                    ctx.set_timer(FLOW_TICK, TimerToken(T_FLOW));
                }
            }
            T_DELIVER => self.try_deliver(ctx),
            T_RETRANS => self.retrans_check(ctx),
            T_SUSPECT => self.suspect_check(ctx),
            T_HEARTBEAT => {
                if self.is_coordinator() {
                    let quiet = {
                        let c = self.coord.as_ref().expect("coordinator");
                        ctx.now().saturating_since(c.last_mcast)
                    };
                    if quiet >= self.cfg.suspicion_timeout / 2 {
                        let round = self.round;
                        let coord = self.me;
                        let ring = self.cfg.ring.clone();
                        ctx.mcast(
                            self.cfg.group,
                            MMsg::Heartbeat { round, coord, ring },
                            CTL_BYTES,
                        );
                        if let Some(c) = self.coord.as_mut() {
                            c.last_mcast = ctx.now();
                        }
                    }
                    ctx.set_timer(self.cfg.suspicion_timeout / 2, TimerToken(T_HEARTBEAT));
                }
            }
            T_WAL => {
                let wal = self.acc.as_mut().and_then(|a| a.wal.as_mut());
                let released = wal.map(|w| w.on_token(token_payload(token), ctx));
                for (instance, round, _) in released.unwrap_or_default() {
                    self.vote_released(instance, round, ctx);
                }
            }
            T_CKPT => {
                let payload = token_payload(token);
                if let Some(rec) = self.rec.as_mut() {
                    if rec.on_ckpt_token(payload).is_some() {
                        // Acceptor-side trimming stays with the ring's
                        // version-vector GC (§3.3.7); the checkpoint
                        // already trimmed this node's durable vote log.
                        ctx.counter_add("rec.checkpoints", 1);
                    }
                }
            }
            T_CATCHUP => {
                let (Some(l), Some(rec)) = (self.lrn.as_ref(), self.rec.as_mut()) else { return };
                let (next, stuck) = (l.next_deliver(), l.stuck());
                // A gap the 20 ms retransmission machinery did not close
                // within a full tick (e.g. the acceptors GC'd the
                // instance) goes back to catch-up, which can escalate
                // to a peer state transfer.
                let step = rec.tick(next, stuck, ctx.now());
                self.catchup_step(step, next, ctx);
                ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
            }
            T_SKIP => {
                if let (true, Some(skip)) = (self.is_coordinator(), self.cfg.skip) {
                    let target_inc = skip.lambda_per_sec * skip.delta.as_nanos() / 1_000_000_000;
                    let deficit = {
                        let Some(c) = self.coord.as_mut() else { return };
                        c.logical_target += target_inc;
                        c.logical_target.saturating_sub(c.logical_count)
                    };
                    if deficit > 0 {
                        self.propose_skip(deficit, ctx);
                    }
                    ctx.set_timer(skip.delta, TimerToken(T_SKIP));
                }
            }
            _ => {}
        }
    }
}
