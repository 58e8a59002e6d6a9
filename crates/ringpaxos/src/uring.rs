//! Unicast-based Ring Paxos (U-Ring Paxos, thesis Algorithm 3).
//!
//! All processes — proposers, acceptors (the coordinator first), and
//! learners — sit on one logical directed ring connected by TCP links.
//! Values travel the ring to the coordinator (Task 1); the coordinator
//! emits combined `Phase2a/2b` messages that accumulate votes down the
//! acceptor segment; the *last* acceptor detects the decision (Task 4) and
//! the decision circulates the rest of the ring, carrying the chosen batch
//! to the processes that have not seen it (Task 5).
//!
//! Flow control is inherent: TCP back-pressure between neighbours plus a
//! bounded window of outstanding consensus instances (§3.3.6).
//!
//! A partial batch waits for the `batch_timeout` tick, but a value of at
//! least half a packet goes when it heads the queue (`try_flush`): no more
//! than one other value could share its packet. A tick-less flush would
//! cost Fig 3.11's saturated small-message rows 5–13 %.
//!
//! # Durable votes
//!
//! Where an acceptor writes its vote (`cfg.storage` is `SyncDisk`;
//! always under `with_recovery`), it appends it to a
//! `recovery::VoteLog`, as M-Ring's acceptors do, and the log hands it
//! back once it is durable. Unlike Algorithm 3, which forwards the 2A
//! only with the vote on it, the acceptor relays the 2A on arrival
//! (`UMsg::Phase2a`, same `hop_bytes`, so each payload still crosses
//! each link once). Its vote follows as a control-sized `UMsg::Phase2b`
//! once it is durable *and* its predecessor's 2B has arrived; the last
//! acceptor decides on the same two conditions. So the segment's
//! acceptors write in parallel, and a vote counts only once it is
//! durable at its acceptor and every acceptor upstream. A
//! vote that needs no write (an in-memory ring, or a re-proposal already
//! durable at that round) rides on the 2A as `UMsg::Phase2ab`, exactly
//! as in Algorithm 3. What an acceptor owes its successor — including a
//! 2B that overtook its 2A (rare under TCP's per-link order) — is an
//! `OwedVote` per instance, until the vote leaves, the decision passes
//! by, or the round changes. The coordinator's own vote is not written
//! ahead: it rides on the 2A it sends (ROADMAP item 4).
//!
//! # Recovery (`with_recovery`)
//!
//! A plain U-Ring deployment stalls forever when a ring process dies
//! (ch. 7's U-Ring lesson, Fig. 7.5) and loses all acceptor and learner
//! state on a process restart. [`URecovery`] attaches the durability
//! subsystem from the `recovery` crate:
//!
//! * acceptors log votes write-ahead (group commit clocked by the
//!   device, `recovery::wal`) through the simulated disk into a stable
//!   store that survives `replace_actor`, and replay it on restart;
//! * learners checkpoint periodically (delivery watermark, dedup marks,
//!   and the service snapshot via [`recovery::RecoveredApp`]), trimming
//!   the vote log and decided cache below the durable watermark;
//! * a respawned learner resumes from its checkpoint and fetches the
//!   decided suffix from a peer's [`recovery::DecidedCache`] over TCP
//!   (`CatchupReq`/`CatchupRep`), falling back to a full state transfer
//!   of the peer's checkpoint when it has fallen below the peer's trim
//!   point — recovery is checkpoint + suffix, never a full replay;
//! * the ring heals itself after the outage: the coordinator re-proposes
//!   outstanding instances whose 2A/2B-or-decision circulation died at
//!   the crashed process, and proposers re-send values that never got
//!   delivered (both idempotent: acceptors re-vote in place and learners
//!   deduplicate by `(proposer, seq)`).
//!
//! Restarted processes do not resume the proposer role — a proposer's
//! sequence numbers are not logged, and reusing them would make the
//! dedup layer discard its fresh values.
//!
//! # Failover (`cfg.suspicion_timeout`)
//!
//! Setting [`URingConfig::suspicion_timeout`] arms the self-healing
//! subsystem that ch. 7 identifies as U-Ring's missing piece (Fig. 7.5:
//! a single crash otherwise stalls the ring for the whole outage):
//!
//! * **Epoch takeover.** Non-coordinator acceptors suspect a silent
//!   coordinator on a staggered schedule (position *k* waits *k*× the
//!   timeout, so the first surviving acceptor usually wins uncontested)
//!   and run Phase 1 under a higher round. A quorum of promises carries
//!   the acceptors' vote state, from which the new coordinator
//!   reconstructs the instance allocation — re-proposing undecided
//!   instances with the highest-round revealed value and closing
//!   revealed gaps with empty batches. The round acts as a
//!   configuration epoch: `Phase2ab`/`Decision` traffic from a deposed
//!   coordinator fails the round fence at every receiver.
//! * **Ring repair.** The coordinator probes all members when decisions
//!   stop circulating, splices silent processes out of the ring (a new
//!   layout always bumps the round, so layout is a function of the
//!   round), and splices them back in when they ask to rejoin
//!   (`JoinReq`, sent by a process that finds itself outside the layout
//!   carried by `NewRing`/`Heartbeat`).
//! * The coordinator *can* be respawned over its stable store on a
//!   failover-enabled ring: it comes back demoted and re-acquires
//!   leadership (if at all) only through a takeover whose promise
//!   quorum reconstructs the allocation — lifting the restriction the
//!   recovery subsystem alone had to impose.
//!
//! With `suspicion_timeout: None` (the default) none of these timers
//! exist and the historical single-epoch behaviour — including the
//! golden traces — is preserved bit for bit. The promise collector, the
//! ring probe and the learner's checkpoint / catch-up state machine are
//! M-Ring's too: [`crate::control`] (which says what stays per ring, and
//! why) and `recovery::LearnerRecovery`.

use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};

use abcast::{metric, MsgId, Pacer, SharedLog};

use crate::dedup::DeliveredTracker;
use paxos::acceptor::Acceptor;
use paxos::learner::Learner;
use paxos::msg::{quorum, InstanceId, Round};
use recovery::{
    stable, CatchupStep, Checkpoint, DecidedCache, LearnerRecovery, RecoveredApp, StableHandle,
    VoteLog, CATCHUP_CHUNK, CATCHUP_RETRY,
};
use simnet::prelude::*;

use crate::config::{StorageMode, URingConfig};
use crate::control::{assert_writes_ahead, persist_promise, Phase1, ProbeStep, RingProbe, Votes};
use crate::msg::{UMsg, CTL_BYTES};
use crate::value::{batch_bytes, Batch, BatchData, Value};

const T_BATCH: u64 = 1 << 56;
const T_PACE: u64 = 2 << 56;
const T_WAL: u64 = 3 << 56;
const T_CKPT: u64 = 4 << 56;
const T_CATCHUP: u64 = 5 << 56;
const T_REPROP: u64 = 6 << 56;
const T_SUSPECT: u64 = 7 << 56;
const T_HEARTBEAT: u64 = 8 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Scan period of the re-proposal timers (recovery-enabled rings).
const REPROP_INTERVAL: Dur = Dur::millis(50);
/// Age beyond which an outstanding instance / undelivered value is
/// re-sent. Comfortably above one loaded ring round-trip, far below the
/// experiment's outage scale.
const REPROP_AGE: Dur = Dur::millis(150);

/// Recovery configuration for one U-Ring process (see the module docs).
pub struct URecovery {
    /// The node's stable store, shared across process incarnations.
    pub store: StableHandle<Batch>,
    /// Checkpoint every this many delivered instances (0 = never).
    pub checkpoint_interval: u64,
    /// The replicated service hook snapshotted by checkpoints.
    pub app: Option<Box<dyn RecoveredApp>>,
    /// Decided instances retained in the catch-up cache *below* the
    /// checkpoint watermark. A peer whose outage is shorter than this
    /// slack catches up from the suffix alone; one that fell further
    /// behind gets a state transfer of the whole checkpoint.
    pub catchup_retention: u64,
    /// Whether this incarnation replaces a crashed one (respawn): it
    /// restores from the stable store and catches up from the last
    /// acceptor (the decision origin), or the coordinator when this
    /// process *is* it.
    pub resumed: bool,
}

/// Live recovery state of one process: the learner state machine both
/// rings share, plus what only U-Ring has.
struct RecState {
    lr: LearnerRecovery<Batch>,
    cache: DecidedCache<Batch>,
    peer: NodeId,
    retention: u64,
    /// When the periodic catch-up tick last ran. A node brought back up
    /// with its state preserved lost every timer that expired while it
    /// was down — including this chain — and on a failover-enabled ring
    /// the others kept deciding around it, so the gap-detection tick is
    /// exactly what it needs. Heartbeat receipt re-arms a chain whose
    /// last tick is implausibly old (see `on_heartbeat`).
    last_tick: Time,
}

/// Coordinator-only state.
struct UCoord {
    pending: VecDeque<Value>,
    pending_bytes: u64,
    next_instance: InstanceId,
    outstanding: BTreeSet<InstanceId>,
    /// Batches of outstanding instances with their last-send time, kept
    /// on recovery- or failover-enabled rings for the re-proposal timer.
    outstanding_batches: BTreeMap<InstanceId, (Batch, Time)>,
    /// Ring liveness: progress is a decision circulating back.
    probe: RingProbe,
}

/// An in-progress coordinator takeover: Phase 1, plus the promisers'
/// delivery watermarks (U-Ring's form of "decided").
struct UTakeover {
    p1: Phase1,
    /// Lowest delivery watermark among the promising acceptors — the
    /// re-proposal window starts here.
    db_min: InstanceId,
    /// Highest delivery watermark among the promising acceptors —
    /// instances past it with no revealed vote are provably undecided
    /// (see `become_coordinator`) and get empty gap-fills.
    db_max: InstanceId,
}

/// One U-Ring Paxos process.
pub struct URingProcess {
    cfg: URingConfig,
    me: NodeId,
    pos: usize,
    round: Round,
    coord: Option<UCoord>,
    acceptor: Option<Acceptor<Batch>>,
    /// Learner state (every process learns): buffered decisions waiting
    /// for in-order delivery.
    learner: ULearner,
    prop: Option<UProposer>,
    log: Option<SharedLog>,
    /// The acceptor's vote log: over the node's stable store under
    /// `with_recovery`, over a throw-away one otherwise, none where
    /// votes live in memory.
    wal: Option<VoteLog<Batch>>,
    /// Votes this acceptor owes its successor (module docs, "Durable
    /// votes").
    owed: BTreeMap<InstanceId, OwedVote>,
    rec: Option<RecState>,
    /// Original full membership (deployment order). Reformed rings draw
    /// from it, and `NewRing`/`Heartbeat`/`Ping` reach all of it, so
    /// spliced-out or respawned processes resynchronize.
    all_nodes: Vec<NodeId>,
    /// Nodes holding the acceptor role — fixed at deployment; promise
    /// quorums are counted over this set regardless of who is currently
    /// spliced into the ring.
    acceptor_nodes: Vec<NodeId>,
    /// Whether this process is currently outside the ring layout (it
    /// was spliced out while unreachable). Excluded processes still
    /// deliver decisions and answer probes, but stop relaying.
    excluded: bool,
    /// Last time coordinator traffic in the current round was seen.
    last_coord_activity: Time,
    takeover: Option<UTakeover>,
}

/// A vote that could not ride on its 2A: the acceptor relayed the 2A
/// ahead of it and sends it as a `Phase2b` once both flags hold.
struct OwedVote {
    round: Round,
    /// The 2A's batch; `None` while only the predecessor's 2B has come.
    batch: Option<Batch>,
    /// The vote log handed this acceptor's vote back, and it is cast.
    durable: bool,
    /// Every acceptor upstream has voted: the 2A came as a `Phase2ab`,
    /// or the predecessor's `Phase2b` arrived.
    upstream: bool,
}

struct ULearner {
    /// This learner's index in the delivery log: its deployment position
    /// (`pos` moves with the ring layout).
    index: usize,
    /// Decided batches, handed on in instance order.
    order: Learner<Batch>,
    /// Exactly-once filter over delivered values, bounded by per-proposer
    /// watermarks instead of an ever-growing id set.
    delivered: DeliveredTracker,
}

struct UProposer {
    pacer: Pacer,
    next_seq: u64,
    /// Values proposed but not yet observed delivered locally.
    inflight: u32,
    /// Undelivered values with their last-send time, for re-proposal on
    /// recovery-enabled rings (a crashed ring member black-holes the
    /// `Forward` hop; without re-sending, these slots leak forever).
    unacked: BTreeMap<u64, (Value, Time)>,
    /// Whether `unacked` is maintained (recovery-enabled rings only).
    track: bool,
}

impl URingProcess {
    /// Creates the process at ring position `pos` (must host node `me`).
    pub fn new(
        cfg: URingConfig,
        pos: usize,
        proposer: Option<Pacer>,
        learner_log: Option<SharedLog>,
    ) -> URingProcess {
        let me = cfg.ring[pos];
        // Phase 1 pre-executed at deployment: round 1 owned by position 0.
        let round = Round::new(1, 0);
        let failover = cfg.suspicion_timeout.is_some();
        let is_coord = pos == 0;
        let is_acceptor = cfg.acceptor_positions.contains(&pos);
        let coord = is_coord.then(|| UCoord {
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_instance: InstanceId(0),
            outstanding: BTreeSet::new(),
            outstanding_batches: BTreeMap::new(),
            probe: RingProbe::new(Time::ZERO),
        });
        let acceptor = is_acceptor.then(|| {
            let mut a = Acceptor::new();
            let _ = a.receive_1a(round);
            a
        });
        let learner =
            ULearner { index: pos, order: Learner::new(), delivered: DeliveredTracker::new() };
        let wal = (is_acceptor && cfg.storage != StorageMode::InMemory)
            .then(|| VoteLog::new(stable(), T_WAL));
        let all_nodes = cfg.ring.clone();
        let acceptor_nodes: Vec<NodeId> =
            cfg.acceptor_positions.iter().map(|&p| cfg.ring[p]).collect();
        URingProcess {
            cfg,
            me,
            pos,
            round,
            coord,
            acceptor,
            learner,
            prop: proposer.map(|pacer| UProposer {
                pacer,
                next_seq: 0,
                inflight: 0,
                unacked: BTreeMap::new(),
                // Failover implies a crashed member can black-hole the
                // `Forward` hop: track undelivered values for re-send.
                track: failover,
            }),
            log: learner_log,
            wal,
            owed: BTreeMap::new(),
            rec: None,
            all_nodes,
            acceptor_nodes,
            excluded: false,
            last_coord_activity: Time::ZERO,
            takeover: None,
        }
    }

    /// Attaches the recovery subsystem (see the module docs). Must be
    /// called before the process is installed. When `rec.resumed`, the
    /// process restores acceptor votes and the learner checkpoint from
    /// the stable store here, and starts catch-up in `on_start`.
    pub fn with_recovery(mut self, rec: URecovery) -> URingProcess {
        assert_writes_ahead(self.cfg.storage);
        let last = self.cfg.last_acceptor_pos();
        let peer = self.cfg.ring[if self.pos == last { 0 } else { last }];
        if self.acceptor.is_some() {
            let wal = VoteLog::new(rec.store.clone(), T_WAL);
            if rec.resumed {
                // Replay the durable vote log. The promised round also
                // fences this process: stale pre-crash epochs fail the
                // round check until a NewRing/Heartbeat resyncs us.
                let (promised, votes) = wal.replay();
                self.round = promised.max(self.round);
                self.acceptor = Some(Acceptor::restore(self.round, votes));
            }
            self.wal = Some(wal);
        }
        let mut state = RecState {
            lr: LearnerRecovery::new(rec.store, rec.checkpoint_interval, T_CKPT, rec.app),
            cache: DecidedCache::new(),
            peer,
            retention: rec.catchup_retention,
            last_tick: Time::ZERO,
        };
        if rec.resumed {
            if self.coord.is_some() {
                assert!(
                    self.failover_on(),
                    "the U-Ring coordinator can only be respawned on a failover-enabled \
                     ring (set cfg.suspicion_timeout): its instance allocation is not \
                     logged, so a fresh incarnation must re-acquire it through an epoch \
                     takeover (see the module docs)"
                );
                // Come back demoted: a peer has taken (or will take)
                // over; failing that, this node's own suspicion timer
                // drives a takeover whose promise quorum reconstructs
                // the allocation.
                self.coord = None;
            }
            // Learner role: restore the durable checkpoint.
            let l = &mut self.learner;
            let cp = state.lr.resume();
            l.order.resume_at(cp.watermark);
            l.delivered = DeliveredTracker::restore(cp.marks, cp.parked);
            state.cache.trim_below(cp.watermark);
            if let Some(log) = self.log.as_ref() {
                log.lock().unwrap().mark_restart(l.index, cp.log_pos as usize);
            }
        }
        if let Some(p) = self.prop.as_mut() {
            p.track = true;
        }
        self.rec = Some(state);
        self
    }

    /// The instance this process resumes delivering from (tests).
    pub fn next_deliver(&self) -> InstanceId {
        self.learner.order.next_instance()
    }

    fn successor(&self) -> NodeId {
        self.cfg.successor_of(self.pos)
    }

    /// Wire bytes charged for carrying `batch` on the hop into ring
    /// position `next_pos`. A value's payload is omitted once the
    /// receiving process has already seen it: it proposed the value, it
    /// relayed the value towards the coordinator (Task 1), it is the
    /// coordinator, or — for decision hops — it already received the
    /// payload in the Phase 2A/2B segment. This realizes the paper's rule
    /// that chosen-value forwarding ends at the predecessor of the
    /// proposer (Task 5): each payload crosses each link exactly once,
    /// which is what makes U-Ring Paxos ~90% efficient (Table 3.2).
    fn hop_bytes(&self, batch: &Batch, next_pos: usize, decision_hop: bool) -> u32 {
        // No payload when the receiver has seen it all: the coordinator
        // assembled the batch, and the acceptor segment got the payload
        // in Phase 2A/2B before a decision hop reaches it.
        let seen_all = next_pos == 0 || (decision_hop && next_pos <= self.cfg.last_acceptor_pos());
        let bytes = if seen_all {
            0
        } else {
            // Payloads the receiver has not yet seen: proposed at or past
            // its position (it relayed earlier proposers' values on their
            // way to the coordinator), plus coordinator/off-ring values —
            // all precomputed at pack time (one table read).
            batch.bytes_needed_beyond(next_pos)
        };
        (bytes.min(u32::MAX as u64) as u32).max(CTL_BYTES)
    }

    fn next_pos(&self) -> usize {
        (self.pos + 1) % self.cfg.ring.len()
    }

    fn pace(&mut self, ctx: &mut Ctx) {
        // TCP back-pressure: a real proposer blocks in `send` when the
        // socket buffer to its successor is full (§3.3.6). We shed the
        // tick instead (the pacer self-clocks to the sustainable rate).
        // Values a proposer may have in flight (proposed, not yet seen
        // delivered): the paper's per-proposer circular buffer; when it
        // is full the proposer blocks, self-clocking to what the ring
        // sustains. Sized by the deployed membership.
        let budget = (6 * self.all_nodes.len() as u32).max(32);
        let full_buffer = self.prop.as_ref().is_some_and(|p| p.inflight >= budget);
        // A spliced-out process has no live successor: shed until the
        // coordinator splices us back in (JoinReq).
        let blocked = self.excluded
            || full_buffer
            || if self.coord.is_some() {
                self.coord.as_ref().is_some_and(|c| c.pending_bytes > 4 * 1024 * 1024)
            } else {
                ctx.tcp_backlog(self.successor()) > 4 * 1024 * 1024
            };
        if blocked {
            ctx.counter_add("rp.shed", 1);
            let interval = self.prop.as_ref().map(|p| p.pacer.interval()).unwrap_or(Dur::millis(1));
            // Consume the missed slots so load does not pile up.
            if let Some(p) = self.prop.as_mut() {
                let _ = p.pacer.due(ctx.now());
            }
            ctx.set_timer(interval, TimerToken(T_PACE));
            return;
        }
        let Some(p) = self.prop.as_mut() else { return };
        let due = p.pacer.due(ctx.now());
        let bytes = p.pacer.msg_bytes();
        let interval = p.pacer.interval();
        let track = p.track;
        let mut new_values = Vec::new();
        for _ in 0..due {
            let seq = p.next_seq;
            p.next_seq += 1;
            new_values.push(Value {
                id: MsgId(((self.me.0 as u64) << 40) | seq),
                proposer: self.me,
                seq,
                bytes,
                submitted: ctx.now(),
                mask: crate::value::ALL_PARTITIONS,
            });
        }
        for v in new_values {
            ctx.counter_add_id(metric::id::PROPOSED, 1);
            if let Some(p) = self.prop.as_mut() {
                p.inflight += 1;
                if track {
                    p.unacked.insert(v.seq, (v, ctx.now()));
                }
            }
            if self.coord.is_some() {
                self.enqueue(v, ctx);
            } else {
                ctx.tcp_send(self.successor(), UMsg::Forward(v), v.bytes);
            }
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }

    fn enqueue(&mut self, v: Value, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else { return };
        c.pending.push_back(v);
        c.pending_bytes += v.bytes as u64;
        self.try_flush(ctx, false);
    }

    fn try_flush(&mut self, ctx: &mut Ctx, force: bool) {
        let keep_batches = self.rec.is_some() || self.failover_on();
        let packet = self.cfg.packet_bytes as u64;
        loop {
            let Some(c) = self.coord.as_mut() else { return };
            let window_open = (c.outstanding.len() as u32) < self.cfg.window;
            let full = c.pending_bytes >= packet
                || c.pending.front().is_some_and(|v| 2 * v.bytes as u64 >= packet);
            let partial = force && !c.pending.is_empty();
            if !(window_open && (full || partial)) {
                return;
            }
            let mut vals = Vec::new();
            let mut bytes = 0u64;
            while let Some(v) = c.pending.front() {
                if !vals.is_empty() && bytes + v.bytes as u64 > packet {
                    break;
                }
                let v = c.pending.pop_front().expect("front checked");
                c.pending_bytes -= v.bytes as u64;
                bytes += v.bytes as u64;
                vals.push(v);
            }
            // Probe stamp: a PROPOSE span opens at the earliest client
            // submission the batch covers (captured before `pack`
            // consumes the values).
            let first_submitted =
                if ctx.probes_enabled() { vals.iter().map(|v| v.submitted).min() } else { None };
            let batch: Batch = BatchData::pack(vals, &self.cfg.ring);
            let instance = c.next_instance;
            c.next_instance = instance.next();
            c.outstanding.insert(instance);
            if keep_batches {
                c.outstanding_batches.insert(instance, (batch.clone(), ctx.now()));
            }
            ctx.counter_add_id(metric::id::INSTANCES, 1);
            if let Some(at) = first_submitted {
                ctx.probe_at(probe::code::PROPOSE, probe::span_key(0, instance.0), at);
            }
            self.send_2ab(instance, batch, ctx);
        }
    }

    /// Emits the combined 2A/2B chain for `instance` under the current
    /// round: local vote first (the coordinator is the first acceptor),
    /// then down the ring — or an immediate decision on the degenerate
    /// single-acceptor layout. Also used to re-drive outstanding
    /// instances through a reformed ring and to re-propose the takeover
    /// window under a new epoch.
    fn send_2ab(&mut self, instance: InstanceId, batch: Batch, ctx: &mut Ctx) {
        if ctx.probes_enabled() {
            ctx.probe(probe::code::PHASE2A, probe::span_key(0, instance.0));
        }
        // The coordinator is the first acceptor: vote locally.
        if let Some(a) = self.acceptor.as_mut() {
            let _ = a.receive_2a(instance, self.round, batch.clone());
        }
        let round = self.round;
        let wire = self.hop_bytes(&batch, self.next_pos(), false);
        let succ = self.successor();
        if self.cfg.last_acceptor_pos() == 0 {
            // Degenerate single-acceptor ring: the coordinator is also
            // the last acceptor and decides immediately.
            let ring_len = self.cfg.ring.len() as u32;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DECIDE, probe::span_key(0, instance.0));
            }
            self.learner_ready(instance, &batch, ctx);
            if ring_len > 1 {
                ctx.tcp_send(
                    succ,
                    UMsg::Decision { instance, batch, id_hops_left: ring_len - 1, round },
                    wire,
                );
            }
            // The originator will not see its own decision circulate
            // back (it stops at the predecessor): close it here.
            if let Some(c) = self.coord.as_mut() {
                c.outstanding.remove(&instance);
                c.outstanding_batches.remove(&instance);
            }
            return;
        }
        ctx.tcp_send(succ, UMsg::Phase2ab { instance, round, batch }, wire);
    }

    /// The epoch fence: 2A/2B traffic from a deposed coordinator (or a
    /// stale ring layout) dies here. A vote under a stale layout could
    /// otherwise complete a "decision" at the old last acceptor without a
    /// true quorum.
    fn fenced(&self, round: Round, ctx: &mut Ctx) -> bool {
        if round != self.round {
            ctx.counter_add("rp.stale_2ab", 1);
        }
        round != self.round
    }

    /// A 2A arrives: as a `Phase2ab` when every acceptor before this one
    /// has voted (`upstream`), as a `Phase2a` when a 2B is still to
    /// follow. See the module docs, "Durable votes".
    fn on_2a(
        &mut self,
        instance: InstanceId,
        round: Round,
        batch: Batch,
        upstream: bool,
        ctx: &mut Ctx,
    ) {
        if self.fenced(round, ctx) {
            return;
        }
        self.last_coord_activity = ctx.now();
        if self.excluded {
            return;
        }
        if self.acceptor.is_none() {
            // Not an acceptor (non-contiguous layout): just relay.
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            let msg = if upstream {
                UMsg::Phase2ab { instance, round, batch }
            } else {
                UMsg::Phase2a { instance, round, batch }
            };
            ctx.tcp_send(self.successor(), msg, wire);
            return;
        }
        let needs_write = self.wal.as_ref().is_some_and(|w| !w.holds(instance, round));
        let held_2b = self.owed.get(&instance).is_some_and(|o| o.upstream);
        if !needs_write && (upstream || held_2b) {
            // The vote rides on the 2A, as in Algorithm 3.
            self.owed.remove(&instance);
            if self.cast(instance, round, &batch) {
                self.vote_leaves(instance, round, batch, true, ctx);
            }
            return;
        }
        // The vote cannot ride: the 2A goes ahead of it.
        if self.pos != self.cfg.last_acceptor_pos() {
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            let relay = UMsg::Phase2a { instance, round, batch: batch.clone() };
            ctx.tcp_send(self.successor(), relay, wire);
        }
        let o = self.owed.entry(instance).or_insert(OwedVote {
            round,
            batch: None,
            durable: false,
            upstream: false,
        });
        o.upstream |= upstream;
        o.batch = Some(batch.clone());
        if needs_write {
            // Also on a repeated 2A while a write is pending: a crash can
            // lose that write's completion (`VoteLog::on_token`).
            let bytes = (batch_bytes(&batch).min(u32::MAX as u64) as u32).max(1);
            let wal = self.wal.as_mut().expect("a write needs the log");
            wal.append(instance, round, batch, bytes, ctx); // `on_token` hands it back
        } else {
            // Nothing to write: only the predecessor's 2B is missing.
            self.on_durable(instance, round, batch, ctx);
        }
    }

    /// The predecessor's vote arrives — and with it, every vote before it.
    fn on_2b(&mut self, instance: InstanceId, round: Round, ctx: &mut Ctx) {
        if self.fenced(round, ctx) || self.excluded {
            return;
        }
        let Some(a) = self.acceptor.as_ref() else {
            ctx.tcp_send(self.successor(), UMsg::Phase2b { instance, round }, CTL_BYTES);
            return;
        };
        let voted = a.vote(instance).is_some_and(|v| v.v_rnd == round);
        match self.owed.get_mut(&instance) {
            Some(o) if o.durable => {
                let batch = o.batch.take().expect("a durable vote has its 2A");
                self.owed.remove(&instance);
                self.vote_leaves(instance, round, batch, false, ctx);
            }
            Some(o) => o.upstream = true,
            // Nothing owed but a vote cast at this round: it has left.
            None if voted => {}
            // The 2B overtook its 2A: hold it.
            None => {
                let held = OwedVote { round, batch: None, durable: false, upstream: true };
                self.owed.insert(instance, held);
            }
        }
    }

    /// The vote may leave: the vote log handed it back, or the 2A's vote
    /// needs no write.
    fn on_durable(&mut self, instance: InstanceId, round: Round, batch: Batch, ctx: &mut Ctx) {
        let Some(o) = self.owed.get_mut(&instance) else { return };
        if o.round != round || o.durable {
            return; // decided, superseded, or a second write of one vote
        }
        o.durable = true;
        let upstream = o.upstream;
        if !self.cast(instance, round, &batch) {
            self.owed.remove(&instance);
        } else if upstream {
            self.owed.remove(&instance);
            self.vote_leaves(instance, round, batch, false, ctx);
        }
    }

    /// Casts this acceptor's vote; `false` when it promised a higher round.
    fn cast(&mut self, instance: InstanceId, round: Round, batch: &Batch) -> bool {
        self.acceptor
            .as_mut()
            .is_some_and(|a| a.receive_2a(instance, round, batch.clone()).is_some())
    }

    /// This acceptor's vote leaves. The last acceptor decides (Task 4)
    /// and starts the decision around the ring with the chosen batch;
    /// any other sends the vote on — on the 2A when it `rides`, alone
    /// when the 2A went ahead.
    fn vote_leaves(
        &mut self,
        instance: InstanceId,
        round: Round,
        batch: Batch,
        rides: bool,
        ctx: &mut Ctx,
    ) {
        if ctx.probes_enabled() {
            ctx.probe(probe::code::PHASE2B, probe::span_key(0, instance.0));
        }
        if self.pos == self.cfg.last_acceptor_pos() {
            let id_hops = self.cfg.ring.len() as u32 - 1;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DECIDE, probe::span_key(0, instance.0));
            }
            self.learner_ready(instance, &batch, ctx);
            let wire = self.hop_bytes(&batch, self.next_pos(), true);
            ctx.tcp_send(
                self.successor(),
                UMsg::Decision { instance, batch, id_hops_left: id_hops, round },
                wire,
            );
        } else if rides {
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            ctx.tcp_send(self.successor(), UMsg::Phase2ab { instance, round, batch }, wire);
        } else {
            ctx.tcp_send(self.successor(), UMsg::Phase2b { instance, round }, CTL_BYTES);
        }
    }

    fn on_decision(
        &mut self,
        instance: InstanceId,
        batch: Batch,
        id_hops_left: u32,
        round: Round,
        ctx: &mut Ctx,
    ) {
        // Delivery is unconditionally safe — a decision is a decision,
        // whatever epoch we are in — and a decided vote is owed nobody.
        self.owed.remove(&instance);
        self.learner_ready(instance, &batch, ctx);
        if self.coord.is_some() {
            let now = ctx.now();
            if let Some(c) = self.coord.as_mut() {
                c.outstanding.remove(&instance);
                c.outstanding_batches.remove(&instance);
                c.probe.progress(now);
            }
            self.try_flush(ctx, false);
        }
        // Forwarding follows the ring layout, so it needs the epoch to
        // match (and this process to still be part of the layout).
        if id_hops_left > 1 && round == self.round && !self.excluded {
            let wire = self.hop_bytes(&batch, self.next_pos(), true);
            ctx.tcp_send(
                self.successor(),
                UMsg::Decision { instance, batch, id_hops_left: id_hops_left - 1, round },
                wire,
            );
        }
    }

    fn learner_ready(&mut self, instance: InstanceId, batch: &Batch, ctx: &mut Ctx) {
        let l = &mut self.learner;
        l.order.on_decision(instance, batch.clone());
        // U-Ring Paxos lets a learner process a decision before forwarding
        // it (§3.3.6) — delivery happens inline, in instance order.
        while let Some((delivered_instance, b)) = l.order.deliver_next() {
            let index = l.index;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DELIVER, probe::span_key(0, delivered_instance.0));
            }
            let mut fresh = Vec::new();
            for v in b.iter() {
                if l.delivered.fresh(v.proposer, v.seq) {
                    fresh.push(*v);
                }
            }
            if let Some(rec) = self.rec.as_mut() {
                rec.cache.record(delivered_instance, b.clone());
                for v in &fresh {
                    rec.lr.delivered(v.proposer.0 as u64, v.seq, v.bytes);
                }
            }
            if let Some(log) = self.log.as_ref() {
                let mut log = log.lock().unwrap();
                for v in &fresh {
                    log.deliver(index, v.id);
                }
            }
            for v in &fresh {
                ctx.counter_add_id(metric::id::DELIVERED_BYTES, v.bytes as u64);
                ctx.counter_add_id(metric::id::DELIVERED_MSGS, 1);
                if v.proposer == self.me {
                    // `since`, not `saturating_since`: delivery strictly
                    // follows submission, so a clamped-to-zero sample
                    // here would be masking an engine ordering bug.
                    ctx.record_latency(metric::LATENCY, ctx.now().since(v.submitted));
                    if let Some(p) = self.prop.as_mut() {
                        p.inflight = p.inflight.saturating_sub(1);
                        p.unacked.remove(&v.seq);
                    }
                }
            }
        }
        if let Some(rec) = self.rec.as_mut() {
            let l = &self.learner;
            rec.lr.maybe_checkpoint(l.order.next_instance(), || l.delivered.export(), ctx);
        }
    }

    /// Serves a catch-up request from a recovering peer: the decided
    /// suffix from `next`, preceded by this node's checkpoint when the
    /// peer has fallen below the cache's trim point (state transfer).
    fn serve_catchup(&mut self, from: NodeId, next: InstanceId, ctx: &mut Ctx) {
        let Some(rec) = self.rec.as_ref() else { return };
        let mut wire = CTL_BYTES as u64;
        let mut eff = next;
        let snap = if next < rec.cache.base() {
            let cp = rec.lr.store.lock().unwrap().checkpoint.clone();
            if let Some(cp) = cp.as_ref() {
                eff = cp.watermark;
                wire += cp.state_bytes;
            }
            cp
        } else {
            None
        };
        let batches = rec.cache.serve(eff, CATCHUP_CHUNK);
        for (_, b) in &batches {
            wire += batch_bytes(b);
        }
        let upto = rec.cache.horizon();
        ctx.tcp_send(
            from,
            UMsg::CatchupRep { snap, batches, upto },
            wire.min(u32::MAX as u64) as u32,
        );
    }

    fn on_catchup_rep(
        &mut self,
        snap: Option<Checkpoint>,
        batches: Vec<(InstanceId, Batch)>,
        upto: InstanceId,
        ctx: &mut Ctx,
    ) {
        {
            let Some(rec) = self.rec.as_mut() else { return };
            if !rec.lr.catching_up() {
                return; // a retry's duplicate reply after completion
            }
            if let Some(cp) = snap {
                let l = &mut self.learner;
                if rec.lr.adopt(&cp, l.order.next_instance()) {
                    // State transfer: adopt the peer's checkpoint.
                    l.order.resume_at(cp.watermark);
                    l.delivered = DeliveredTracker::restore(cp.marks, cp.parked);
                    rec.cache.trim_below(cp.watermark);
                    if let Some(log) = self.log.as_ref() {
                        log.lock().unwrap().mark_state_transfer(l.index, cp.log_pos as usize);
                    }
                    ctx.counter_add("rec.state_transfers", 1);
                    ctx.counter_add("rec.transfer_bytes", cp.state_bytes);
                }
            }
        }
        let got = batches.len() as u64;
        ctx.counter_add("rec.catchup_instances", got);
        for (i, b) in batches {
            // `id_hops_left: 1` delivers locally without forwarding:
            // catch-up traffic must not re-enter the ring circulation.
            let round = self.round;
            self.on_decision(i, b, 1, round, ctx);
        }
        let next = self.learner.order.next_instance();
        // Done: caught up to the responder's horizon, and the live ring
        // flow (buffered in `ready` during catch-up) takes over. Wait:
        // the responder could not serve (e.g. it is itself recovering).
        let step = self.rec.as_mut().expect("checked above").lr.chunk_applied(got, next, upto);
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

    /// Asks the catch-up peer for the decided suffix from `next`.
    fn ask_catchup(&mut self, next: InstanceId, ctx: &mut Ctx) {
        if let Some(rec) = self.rec.as_ref() {
            ctx.tcp_send(rec.peer, UMsg::CatchupReq { from: self.me, next }, CTL_BYTES);
        }
    }

    /// Periodic re-send scan (recovery- or failover-enabled rings): the
    /// coordinator re-proposes outstanding instances whose circulation
    /// stalled, and proposers re-send undelivered values. Both paths are
    /// idempotent.
    fn repropose_check(&mut self, ctx: &mut Ctx) {
        if self.rec.is_none() && !self.failover_on() {
            return;
        }
        if self.excluded {
            // No live successor; re-sends resume after the splice-in.
            ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
            return;
        }
        let now = ctx.now();
        // Coordinator: re-send the 2A/2B chain for stalled instances.
        let mut resend: Vec<(InstanceId, Batch)> = Vec::new();
        if let Some(c) = self.coord.as_mut() {
            for (&i, (batch, sent)) in c.outstanding_batches.iter_mut() {
                if now.saturating_since(*sent) >= REPROP_AGE {
                    *sent = now;
                    resend.push((i, batch.clone()));
                }
            }
        }
        let round = self.round;
        for (instance, batch) in resend {
            ctx.counter_add("rec.reproposals", 1);
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            ctx.tcp_send(self.successor(), UMsg::Phase2ab { instance, round, batch }, wire);
        }
        // Proposer: re-send values nobody delivered.
        let succ = self.successor();
        let am_coord = self.coord.is_some();
        let mut requeue: Vec<Value> = Vec::new();
        if let Some(p) = self.prop.as_mut() {
            for (v, sent) in p.unacked.values_mut() {
                if now.saturating_since(*sent) >= REPROP_AGE {
                    *sent = now;
                    requeue.push(*v);
                }
            }
        }
        for v in requeue {
            ctx.counter_add("rec.value_resends", 1);
            if am_coord {
                self.enqueue(v, ctx);
            } else {
                ctx.tcp_send(succ, UMsg::Forward(v), v.bytes);
            }
        }
        ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
    }

    // ------------------------------------------------------------------
    // Failover: epoch takeover and ring repair (see the module docs).
    // ------------------------------------------------------------------

    fn failover_on(&self) -> bool {
        self.cfg.suspicion_timeout.is_some()
    }

    fn suspicion_timeout(&self) -> Dur {
        self.cfg.suspicion_timeout.unwrap_or(Dur::millis(200))
    }

    /// This process's delivery watermark (everything below is decided
    /// and delivered here).
    fn decided_below_here(&self) -> InstanceId {
        self.learner.order.next_instance()
    }

    /// Moves to `round`, durably if this process is an acceptor with a
    /// stable store: a respawned acceptor must not regress below it.
    /// Votes owed under the old round are dropped; the fence would stop
    /// them anyway.
    fn adopt_round(&mut self, round: Round) {
        if round != self.round {
            self.owed.clear();
        }
        self.round = round;
        let store = self.acceptor.as_ref().and(self.rec.as_ref()).map(|r| &r.lr.store);
        persist_promise(store, round);
    }

    /// This acceptor's Phase 1B payload for `round`: its accepted votes
    /// from its own delivery watermark up (anything below it has been
    /// delivered here, so the new coordinator never needs it from us),
    /// plus that watermark.
    fn own_votes(&mut self, round: Round) -> (Votes, InstanceId) {
        let decided_below = self.decided_below_here();
        let votes = self
            .acceptor
            .as_mut()
            .map(|a| Phase1::reveal(a, round, |i| i >= decided_below))
            .unwrap_or_default();
        (votes, decided_below)
    }

    /// Adopts `ring` as the current layout: rewrites the ring, recomputes
    /// the acceptor positions (the acceptor *role* follows the node and
    /// is fixed at deployment) and this process's position. A process
    /// absent from the layout marks itself excluded.
    fn adopt_layout(&mut self, ring: &[NodeId]) {
        self.cfg.ring = ring.to_vec();
        self.cfg.acceptor_positions = ring
            .iter()
            .enumerate()
            .filter(|(_, n)| self.acceptor_nodes.contains(n))
            .map(|(p, _)| p)
            .collect();
        match ring.iter().position(|&n| n == self.me) {
            Some(p) => {
                self.pos = p;
                self.excluded = false;
            }
            None => self.excluded = true,
        }
    }

    /// Records the configuration epoch in the delivery log so the
    /// checker can verify per-learner epoch monotonicity.
    fn mark_epoch(&mut self) {
        if let Some(log) = self.log.as_ref() {
            let epoch = (self.round.counter << 32) | self.round.owner as u64;
            log.lock().unwrap().mark_epoch(self.learner.index, epoch);
        }
    }

    /// Announces the current round + layout to the full membership (not
    /// just the current ring: spliced-out processes must learn they can
    /// rejoin, and stale coordinators that they are deposed).
    fn broadcast_ring(&mut self, ctx: &mut Ctx) {
        let msg = UMsg::NewRing { round: self.round, coord: self.me, ring: self.cfg.ring.clone() };
        for &n in &self.all_nodes {
            if n != self.me {
                ctx.tcp_send(n, msg.clone(), CTL_BYTES);
            }
        }
    }

    /// T_SUSPECT tick: a non-coordinator acceptor that has heard nothing
    /// from the coordinator for its staggered delay starts a takeover.
    /// Position `k` waits `k`× the timeout, so the first surviving
    /// acceptor usually wins uncontested; a contested (higher) round
    /// simply deposes the lower one.
    fn suspect_check(&mut self, ctx: &mut Ctx) {
        if !self.failover_on() || self.coord.is_some() {
            return; // chain ends; coordinators run the heartbeat chain
        }
        let timeout = self.suspicion_timeout();
        let now = ctx.now();
        if let Some(t) = self.takeover.as_ref() {
            // Takeover in flight but the promise quorum never arrived
            // (another acceptor died too, or our Phase 1A raced a
            // partition): bump the round and try again.
            if now.saturating_since(t.p1.started) > timeout * 4 {
                self.start_takeover(ctx);
            }
            ctx.set_timer(timeout, TimerToken(T_SUSPECT));
            return;
        }
        if self.acceptor.is_some() && !self.excluded {
            let my_delay = timeout * (self.pos.max(1) as u64);
            if now.saturating_since(self.last_coord_activity) > my_delay {
                self.start_takeover(ctx);
            }
        }
        ctx.set_timer(timeout, TimerToken(T_SUSPECT));
    }

    /// Phase 1 under a fresh round owned by this node: collect promises
    /// (with accepted votes) from the fixed acceptor set; a quorum makes
    /// this node the coordinator of the new epoch.
    fn start_takeover(&mut self, ctx: &mut Ctx) {
        let round = self.round.next_for(self.me.0 as u32);
        self.adopt_round(round);
        self.takeover = Some(UTakeover {
            p1: Phase1::new(round, ctx.now()),
            db_min: InstanceId(u64::MAX),
            db_max: InstanceId(0),
        });
        ctx.counter_add("rp.takeover", 1);
        let msg = UMsg::Phase1a { round, from: self.me };
        for &n in &self.acceptor_nodes.clone() {
            if n != self.me {
                ctx.tcp_send(n, msg.clone(), CTL_BYTES);
            }
        }
        // Self-promise with this acceptor's own vote state.
        let (votes, decided_below) = self.own_votes(round);
        self.on_phase1b(round, self.me, votes, decided_below, ctx);
    }

    fn on_phase1a(&mut self, round: Round, from: NodeId, ctx: &mut Ctx) {
        if !self.failover_on() || round <= self.round {
            return; // stale candidate; it will adopt our NewRing
        }
        self.adopt_round(round);
        // A lower-round takeover of our own has lost.
        if self.takeover.as_ref().is_some_and(|t| t.p1.round < round) {
            self.takeover = None;
        }
        // If we were the coordinator, the higher round deposes us.
        self.depose(ctx);
        if self.acceptor.is_none() {
            return;
        }
        let (votes, decided_below) = self.own_votes(round);
        let wire = (CTL_BYTES as u64 + votes.iter().map(|(_, _, b)| batch_bytes(b)).sum::<u64>())
            .min(u32::MAX as u64) as u32;
        ctx.tcp_send(from, UMsg::Phase1b { round, from: self.me, votes, decided_below }, wire);
    }

    fn on_phase1b(
        &mut self,
        round: Round,
        from: NodeId,
        votes: Votes,
        decided_below: InstanceId,
        ctx: &mut Ctx,
    ) {
        let Some(t) = self.takeover.as_mut() else { return };
        if !t.p1.promise(round, from, votes) {
            return;
        }
        t.db_min = t.db_min.min(decided_below);
        t.db_max = t.db_max.max(decided_below);
        if t.p1.has_quorum(self.acceptor_nodes.len()) {
            self.become_coordinator(ctx);
        }
    }

    /// Promise quorum reached: reconstruct the instance allocation from
    /// the revealed votes, lay out a new ring, and resume proposing
    /// under the new epoch.
    ///
    /// Safety of the window repair: a U-Ring decision requires votes
    /// from *every* acceptor of its ring layout (≥ a quorum of the
    /// deployment's acceptors), and the promise quorum intersects any
    /// such set — so every instance decided above a promiser's delivery
    /// watermark has a revealed vote, and the highest-round revealed
    /// value is the (only possibly) chosen one. An instance above every
    /// promiser's watermark with no revealed vote is provably undecided
    /// and is closed with an empty batch. Revealed gaps *below* some
    /// promiser's watermark were decided and delivered somewhere while
    /// this quorum's votes no longer cover them (checkpoint GC); they
    /// are left to the recovery catch-up path rather than guessed at.
    fn become_coordinator(&mut self, ctx: &mut Ctx) {
        let t = self.takeover.take().expect("quorum implies a takeover");
        self.round = t.p1.round;
        // New layout: me first (the coordinator is the first acceptor),
        // then the other promising acceptors, then the remaining current
        // members. Live processes spliced out here rejoin via JoinReq.
        let mut ring = vec![self.me];
        for &n in &self.all_nodes {
            if n != self.me && t.p1.promises.contains(&n) {
                ring.push(n);
            }
        }
        let old_ring = self.cfg.ring.clone();
        for &n in &old_ring {
            if !ring.contains(&n) && !self.acceptor_nodes.contains(&n) {
                ring.push(n);
            }
        }
        let start = if t.db_min == InstanceId(u64::MAX) {
            self.decided_below_here()
        } else {
            t.db_min.min(self.decided_below_here())
        };
        let mut next = start.max(t.db_max);
        if let Some((&hi, _)) = t.p1.votes.iter().next_back() {
            next = next.max(hi.next());
        }
        let now = ctx.now();
        let mut c = UCoord {
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_instance: next,
            outstanding: BTreeSet::new(),
            outstanding_batches: BTreeMap::new(),
            probe: RingProbe::new(now),
        };
        let mut reprops: Vec<(InstanceId, Batch)> = Vec::new();
        let mut i = start;
        while i < next {
            let batch = match t.p1.votes.get(&i) {
                Some((_, b)) => b.clone(),
                None if i >= t.db_max => BatchData::empty(),
                None => {
                    i = i.next();
                    continue; // decided+delivered elsewhere; catch-up heals
                }
            };
            c.outstanding.insert(i);
            c.outstanding_batches.insert(i, (batch.clone(), now));
            reprops.push((i, batch));
            i = i.next();
        }
        self.coord = Some(c);
        self.adopt_layout(&ring);
        self.mark_epoch();
        ctx.counter_add("rp.became_coord", 1);
        self.broadcast_ring(ctx);
        for (i, b) in reprops {
            ctx.counter_add("rp.epoch_reproposals", 1);
            self.send_2ab(i, b, ctx);
        }
        ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
        ctx.set_timer(self.suspicion_timeout() / 2, TimerToken(T_HEARTBEAT));
    }

    /// Drops the coordinator role (a higher round exists elsewhere).
    /// Pending and outstanding values are abandoned: proposers track
    /// undelivered values and re-send them to the new coordinator.
    fn depose(&mut self, ctx: &mut Ctx) {
        if self.coord.take().is_some() {
            ctx.counter_add("rp.deposed", 1);
            if self.failover_on() && self.acceptor.is_some() {
                ctx.set_timer(self.suspicion_timeout(), TimerToken(T_SUSPECT));
            }
        }
    }

    fn on_new_ring(&mut self, round: Round, coord: NodeId, ring: Vec<NodeId>, ctx: &mut Ctx) {
        if !self.failover_on() || round < self.round || coord == self.me {
            return;
        }
        self.adopt_round(round);
        self.takeover = None;
        self.depose(ctx);
        self.adopt_layout(&ring);
        self.mark_epoch();
        self.last_coord_activity = ctx.now();
        if self.excluded {
            ctx.tcp_send(coord, UMsg::JoinReq { from: self.me }, CTL_BYTES);
        }
    }

    fn on_heartbeat(&mut self, round: Round, coord: NodeId, ring: Vec<NodeId>, ctx: &mut Ctx) {
        if !self.failover_on() || round < self.round || coord == self.me {
            return;
        }
        if round > self.round || self.cfg.ring != ring {
            // A respawned process still holds its pre-crash layout under
            // its restored (promised) round: resync from the heartbeat.
            self.on_new_ring(round, coord, ring, ctx);
            return;
        }
        self.last_coord_activity = ctx.now();
        if self.excluded {
            ctx.tcp_send(coord, UMsg::JoinReq { from: self.me }, CTL_BYTES);
        }
        self.revive_catchup_chain(ctx);
    }

    /// A process brought back up with its state preserved lost every
    /// timer that expired while it was down, the periodic catch-up tick
    /// included — and on a failover-enabled ring the others kept
    /// deciding around it, so gap detection is exactly what it needs.
    /// Heartbeats are the one signal such a process is guaranteed to
    /// receive: re-arm the chain when its last tick is implausibly old
    /// (a live chain ticks every `CATCHUP_RETRY`).
    fn revive_catchup_chain(&mut self, ctx: &mut Ctx) {
        let Some(rec) = self.rec.as_mut() else { return };
        if ctx.now().saturating_since(rec.last_tick) > CATCHUP_RETRY * 4 {
            rec.last_tick = ctx.now();
            ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
        }
    }

    /// T_HEARTBEAT tick (coordinator only): keep-alives to the full
    /// membership, plus the ring-liveness check.
    fn heartbeat_tick(&mut self, ctx: &mut Ctx) {
        if !self.failover_on() || self.coord.is_none() {
            return; // deposed: the chain dies
        }
        let msg =
            UMsg::Heartbeat { round: self.round, coord: self.me, ring: self.cfg.ring.clone() };
        for &n in &self.all_nodes.clone() {
            if n != self.me {
                ctx.tcp_send(n, msg.clone(), CTL_BYTES);
            }
        }
        self.ring_repair_check(ctx);
        ctx.set_timer(self.suspicion_timeout() / 2, TimerToken(T_HEARTBEAT));
    }

    /// Coordinator-side ring liveness: while instances are outstanding,
    /// decisions should keep circulating back. If none arrive for a
    /// full suspicion timeout, probe every member and splice out the
    /// silent ones (Fig. 7.5's fix: throughput resumes after one probe
    /// round instead of staying down for the whole outage).
    fn ring_repair_check(&mut self, ctx: &mut Ctx) {
        let timeout = self.suspicion_timeout();
        let Some(c) = self.coord.as_mut() else { return };
        match c.probe.check(self.me, ctx.now(), timeout, !c.outstanding.is_empty()) {
            ProbeStep::Nothing => {}
            ProbeStep::Probe => self.start_ring_probe(ctx),
            ProbeStep::Reform(responders) => self.finish_ring_repair(responders, ctx),
        }
    }

    fn start_ring_probe(&mut self, ctx: &mut Ctx) {
        ctx.counter_add("rp.ring_probe", 1);
        for &n in &self.all_nodes.clone() {
            if n != self.me {
                ctx.tcp_send(n, UMsg::Ping { from: self.me }, CTL_BYTES);
            }
        }
    }

    fn finish_ring_repair(&mut self, responders: BTreeSet<NodeId>, ctx: &mut Ctx) {
        // Keep responding members (acceptors contiguous first); silent
        // ones are spliced out and rejoin via JoinReq once they recover.
        let mut ring = vec![self.me];
        for &n in &self.all_nodes.clone() {
            if n != self.me && responders.contains(&n) && self.acceptor_nodes.contains(&n) {
                ring.push(n);
            }
        }
        let live_acceptors = ring.len();
        for &n in &self.all_nodes.clone() {
            if n != self.me && responders.contains(&n) && !self.acceptor_nodes.contains(&n) {
                ring.push(n);
            }
        }
        if live_acceptors < quorum(self.acceptor_nodes.len()) {
            // Too few live acceptors to decide anything: stay put and
            // keep probing (no layout can make progress without a
            // quorum anyway).
            ctx.counter_add("rp.repair_short", 1);
            return;
        }
        if ring == self.cfg.ring {
            return; // everyone answered: the stall is load, not a crash
        }
        self.reform_to(ring, ctx);
    }

    /// Splices the ring to `ring` under a bumped round (layout is a
    /// function of the round, so stale-layout traffic fails the fence)
    /// and re-drives every outstanding instance through the new layout.
    fn reform_to(&mut self, ring: Vec<NodeId>, ctx: &mut Ctx) {
        self.adopt_round(self.round.next_for(self.me.0 as u32));
        self.adopt_layout(&ring);
        self.mark_epoch();
        ctx.counter_add("rp.ring_repair", 1);
        self.broadcast_ring(ctx);
        let now = ctx.now();
        let resend: Vec<(InstanceId, Batch)> = self
            .coord
            .as_mut()
            .map(|c| {
                c.outstanding_batches
                    .iter_mut()
                    .map(|(&i, (b, sent))| {
                        *sent = now;
                        (i, b.clone())
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (i, b) in resend {
            self.send_2ab(i, b, ctx);
        }
    }

    /// A process outside the current layout asks to be spliced back in
    /// (it recovered, or was wrongly suspected). Acceptors go back into
    /// the acceptor segment; others are appended.
    fn on_join_req(&mut self, from: NodeId, ctx: &mut Ctx) {
        if !self.failover_on() || self.coord.is_none() {
            return;
        }
        if self.cfg.ring.contains(&from) || !self.all_nodes.contains(&from) {
            return;
        }
        let mut ring = self.cfg.ring.clone();
        if self.acceptor_nodes.contains(&from) {
            ring.insert(self.cfg.last_acceptor_pos() + 1, from);
        } else {
            ring.push(from);
        }
        ctx.counter_add("rp.joins", 1);
        self.reform_to(ring, ctx);
    }
}

impl Actor for URingProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.last_coord_activity = ctx.now();
        if self.coord.is_some() {
            ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
            if self.failover_on() {
                ctx.set_timer(self.suspicion_timeout() / 2, TimerToken(T_HEARTBEAT));
            }
        } else if self.failover_on() && self.acceptor.is_some() {
            ctx.set_timer(self.suspicion_timeout(), TimerToken(T_SUSPECT));
        }
        if self.prop.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.rec.is_none() && self.failover_on() {
            ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
        }
        if let Some(rec) = self.rec.as_mut() {
            ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
            // Persistent tick: drives catch-up retries while recovering
            // and re-enters catch-up if a delivery gap gets stuck later.
            ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
            if rec.lr.start(ctx.now()) {
                ctx.counter_add("rec.restarts", 1);
                self.ask_catchup(self.decided_below_here(), ctx);
            }
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<UMsg>() else { return };
        match msg {
            UMsg::Forward(v) => {
                let v = *v;
                if self.excluded {
                    // No live successor; the origin proposer re-sends.
                    return;
                }
                if self.coord.is_some() {
                    self.enqueue(v, ctx);
                } else {
                    ctx.tcp_send(self.successor(), UMsg::Forward(v), v.bytes);
                }
            }
            UMsg::Phase2ab { instance, round, batch } => {
                self.on_2a(*instance, *round, batch.clone(), true, ctx);
            }
            UMsg::Phase2a { instance, round, batch } => {
                self.on_2a(*instance, *round, batch.clone(), false, ctx);
            }
            UMsg::Phase2b { instance, round } => self.on_2b(*instance, *round, ctx),
            UMsg::Decision { instance, batch, id_hops_left, round } => {
                let (instance, ih, round) = (*instance, *id_hops_left, *round);
                let batch = batch.clone();
                self.on_decision(instance, batch, ih, round, ctx);
            }
            UMsg::Phase1a { round, from } => {
                let (round, from) = (*round, *from);
                self.on_phase1a(round, from, ctx);
            }
            UMsg::Phase1b { round, from, votes, decided_below } => {
                let (round, from, decided_below) = (*round, *from, *decided_below);
                let votes = votes.clone();
                self.on_phase1b(round, from, votes, decided_below, ctx);
            }
            UMsg::NewRing { round, coord, ring } => {
                let (round, coord) = (*round, *coord);
                let ring = ring.clone();
                self.on_new_ring(round, coord, ring, ctx);
            }
            UMsg::Heartbeat { round, coord, ring } => {
                let (round, coord) = (*round, *coord);
                let ring = ring.clone();
                self.on_heartbeat(round, coord, ring, ctx);
            }
            UMsg::Ping { from } => {
                let from = *from;
                ctx.tcp_send(from, UMsg::Pong { from: self.me }, CTL_BYTES);
            }
            UMsg::Pong { from } => {
                if let Some(c) = self.coord.as_mut() {
                    c.probe.pong(*from);
                }
            }
            UMsg::JoinReq { from } => {
                let from = *from;
                self.on_join_req(from, ctx);
            }
            UMsg::CatchupReq { from, next } => {
                let (from, next) = (*from, *next);
                self.serve_catchup(from, next, ctx);
            }
            UMsg::CatchupRep { snap, batches, upto } => {
                let (snap, batches, upto) = (snap.clone(), batches.clone(), *upto);
                self.on_catchup_rep(snap, batches, upto, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 & KIND_MASK {
            T_BATCH => {
                if self.coord.is_some() {
                    self.try_flush(ctx, true);
                    ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
                }
            }
            T_PACE => self.pace(ctx),
            T_WAL => {
                let payload = token.0 & !KIND_MASK;
                let durable = match self.wal.as_mut() {
                    Some(wal) => wal.on_token(payload, ctx),
                    None => Vec::new(),
                };
                for (instance, round, batch) in durable {
                    self.on_durable(instance, round, batch, ctx);
                }
            }
            T_CKPT => {
                let payload = token.0 & !KIND_MASK;
                if let Some(rec) = self.rec.as_mut() {
                    if let Some(w) = rec.lr.on_ckpt_token(payload) {
                        // The retention slack keeps a suffix below the
                        // watermark so peers with short outages avoid a
                        // full state transfer.
                        let keep = InstanceId(w.0.saturating_sub(rec.retention));
                        rec.cache.trim_below(keep);
                        if let Some(a) = self.acceptor.as_mut() {
                            a.gc_below(w);
                        }
                        ctx.counter_add("rec.checkpoints", 1);
                    }
                }
            }
            T_CATCHUP => {
                let l = &self.learner;
                let next = l.order.next_instance();
                // Decisions buffered above an undelivered gap mean the
                // live flow skipped instances this learner is missing.
                let stuck = l.order.buffered() > 0 && !l.order.knows(next);
                let Some(rec) = self.rec.as_mut() else { return };
                rec.last_tick = ctx.now();
                // Re-proposal normally closes small gaps within a tick.
                let step = rec.lr.tick(next, stuck, ctx.now());
                self.catchup_step(step, next, ctx);
                ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
            }
            T_REPROP => self.repropose_check(ctx),
            T_SUSPECT => self.suspect_check(ctx),
            T_HEARTBEAT => self.heartbeat_tick(ctx),
            _ => {}
        }
    }
}
