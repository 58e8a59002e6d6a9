//! The Multi-Ring Paxos learner: follows several M-Ring Paxos rings and
//! delivers their decided batches through the deterministic merge.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::sync::Mutex;

use abcast::{MsgId, SharedLog};
use paxos::msg::{InstanceId, Round};
use ringpaxos::msg::MMsg;
use ringpaxos::{Batch, MRingConfig};
use simnet::prelude::*;

use crate::merge::{DeterministicMerge, MergeEntry};

/// Delivery latency recorded by Multi-Ring Paxos learners (kept apart
/// from the per-ring `abcast.latency` recorded by ring-local proposers).
pub const MRP_LATENCY: &str = "mrp.latency";
/// Entries a learner holds buffered in its merge (sampled as a counter of
/// peak occupancy increments for test observability).
pub const MRP_STALLS: &str = "mrp.stalls";

/// A ring-tagged delivery sequence: `(ring index, message)` in merge
/// order. P-SMR (ch. 6) consumes this to route each delivery to the
/// worker thread subscribed to the originating group.
pub type RingSink = Arc<Mutex<Vec<(u8, MsgId)>>>;

/// Creates an empty [`RingSink`].
pub fn ring_sink() -> RingSink {
    Arc::new(Mutex::new(Vec::new()))
}

const T_RETRANS: u64 = 6 << 56;
const T_GC: u64 = 3 << 56;
const T_FLOW: u64 = 4 << 56;

/// Per-ring in-order stream reassembly (payloads + decisions + gaps).
struct Follower {
    cfg: MRingConfig,
    payloads: BTreeMap<InstanceId, (Round, Batch, u64)>,
    decided: BTreeMap<InstanceId, Round>,
    next: InstanceId,
    prev_horizon: InstanceId,
    applied_reported: InstanceId,
    slowdown_active: bool,
}

impl Follower {
    fn new(cfg: MRingConfig) -> Follower {
        Follower {
            cfg,
            payloads: BTreeMap::new(),
            decided: BTreeMap::new(),
            next: InstanceId(0),
            prev_horizon: InstanceId(0),
            applied_reported: InstanceId(0),
            slowdown_active: false,
        }
    }

    fn store(&mut self, instance: InstanceId, batch: &Batch, weight: u64, round: Round) {
        if instance >= self.next {
            match self.payloads.entry(instance) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((round, batch.clone(), weight));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if round > e.get().0 {
                        e.insert((round, batch.clone(), weight));
                    }
                }
            }
        }
    }

    fn decide(&mut self, instances: &[(InstanceId, u32)], round: Round) {
        for &(i, _mask) in instances {
            if i >= self.next {
                let e = self.decided.entry(i).or_insert(round);
                *e = (*e).max(round);
            }
        }
    }

    /// Authoritative payload+decision from an acceptor's decided vote.
    fn authoritative(&mut self, instance: InstanceId, batch: &Batch, weight: u64, round: Round) {
        if instance >= self.next {
            self.payloads.insert(instance, (round, batch.clone(), weight));
            self.decided.insert(instance, round);
        }
    }

    /// Pops the next consecutive ready entry, if any.
    fn pop_ready(&mut self) -> Option<MergeEntry> {
        let i = self.next;
        let ready = match (self.decided.get(&i), self.payloads.get(&i)) {
            (Some(dr), Some((pr, _, _))) => dr == pr,
            _ => false,
        };
        if !ready {
            return None;
        }
        let (_, batch, weight) = self.payloads.remove(&i).expect("payload checked");
        self.decided.remove(&i);
        self.next = i.next();
        Some(MergeEntry { batch, weight })
    }

    /// Instances that cannot be delivered and were already visible at
    /// the previous sweep, each with whether its payload is needed or
    /// only its decision.
    fn missing(&mut self) -> Vec<(InstanceId, bool)> {
        let horizon = self
            .payloads
            .iter()
            .next_back()
            .map(|(&i, _)| i)
            .max(self.decided.iter().next_back().map(|(&i, _)| i))
            .unwrap_or(self.next);
        let stale = self.prev_horizon.min(horizon);
        let mut out = Vec::new();
        for i in self.next.0..stale.0 {
            let i = InstanceId(i);
            let (ready, need_payload) = match (self.decided.get(&i), self.payloads.get(&i)) {
                (Some(dr), Some((pr, _, _))) => (dr == pr, true),
                (None, Some(_)) => (false, false),
                (_, None) => (false, true),
            };
            if !ready {
                out.push((i, need_payload));
                if out.len() >= 64 {
                    break;
                }
            }
        }
        self.prev_horizon = horizon;
        out
    }
}

/// A learner subscribed to one or more rings (groups), delivering through
/// the deterministic merge of ch. 5.
pub struct MultiRingLearner {
    me: NodeId,
    index: usize,
    /// Followers in group-id order (the merge order).
    followers: Vec<Follower>,
    group_to_ring: HashMap<GroupId, usize>,
    node_to_ring: HashMap<NodeId, usize>,
    merge: DeterministicMerge,
    log: Option<SharedLog>,
    ring_sink: Option<RingSink>,
    /// Merge entries buffered beyond which the learner asks its rings to
    /// slow down.
    flow_threshold: usize,
}

impl MultiRingLearner {
    /// Creates a learner at `me` (log index `index`) subscribed to the
    /// given ring configurations (must be sorted by group id), delivering
    /// `m` logical instances per ring per merge turn.
    pub fn new(
        me: NodeId,
        index: usize,
        rings: Vec<MRingConfig>,
        m: u64,
        log: Option<SharedLog>,
    ) -> MultiRingLearner {
        let mut group_to_ring = HashMap::new();
        let mut node_to_ring = HashMap::new();
        for (i, cfg) in rings.iter().enumerate() {
            group_to_ring.insert(cfg.group, i);
            for &a in cfg.ring.iter().chain(&cfg.spares) {
                node_to_ring.insert(a, i);
            }
        }
        let merge = DeterministicMerge::new(rings.len(), m);
        MultiRingLearner {
            me,
            index,
            followers: rings.into_iter().map(Follower::new).collect(),
            group_to_ring,
            node_to_ring,
            merge,
            log,
            ring_sink: None,
            flow_threshold: 4096,
        }
    }

    /// Overrides the merge-buffer flow-control threshold.
    pub fn with_flow_threshold(mut self, entries: usize) -> MultiRingLearner {
        self.flow_threshold = entries;
        self
    }

    /// Additionally records deliveries as `(ring, message)` pairs in
    /// merge order (the stream P-SMR worker threads consume).
    pub fn with_ring_sink(mut self, sink: RingSink) -> MultiRingLearner {
        self.ring_sink = Some(sink);
        self
    }

    fn ring_of(&self, env: &Envelope) -> Option<usize> {
        match env.transport {
            Transport::Multicast(g) => self.group_to_ring.get(&g).copied(),
            _ => self.node_to_ring.get(&env.src).copied(),
        }
    }

    /// Files one message into its ring's follower without draining the
    /// merge. Returns whether follower state changed in a way that can
    /// make merge progress (the caller then runs [`Self::pump`]).
    fn ingest(&mut self, env: &Envelope) -> bool {
        let Some(msg) = env.payload.downcast_ref::<MMsg>() else { return false };
        let Some(ring) = self.ring_of(env) else { return false };
        match msg {
            MMsg::Phase2a { instance, round, batch, decisions, skip, .. } => {
                let weight = (*skip).max(1);
                self.followers[ring].store(*instance, batch, weight, *round);
                self.followers[ring].decide(decisions, *round);
                true
            }
            MMsg::Decision { instances, round, .. } => {
                self.followers[ring].decide(instances, *round);
                true
            }
            MMsg::RetransRep { instance, batch, decided, round, skip, .. } => {
                let weight = (*skip).max(1);
                if *decided {
                    self.followers[ring].authoritative(*instance, batch, weight, *round);
                } else {
                    self.followers[ring].store(*instance, batch, weight, *round);
                }
                true
            }
            MMsg::RetransDecided { instance, round, mask } => {
                self.followers[ring].decide(&[(*instance, *mask)], *round);
                true
            }
            MMsg::NewRing { ring: new_ring, .. } => {
                // Track ring membership changes for retransmission targets.
                for &a in new_ring {
                    self.node_to_ring.insert(a, ring);
                }
                self.followers[ring].cfg.ring = new_ring.clone();
                false
            }
            _ => false,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        // Feed every ring's consecutive ready entries into the merge.
        for ring in 0..self.followers.len() {
            while let Some(entry) = self.followers[ring].pop_ready() {
                self.merge.push(ring, entry);
            }
        }
        // Drain the merge in deterministic order.
        while let Some((ring, batch)) = self.merge.pop() {
            if ctx.probes_enabled() {
                // One merge-release event per popped batch: the ring's
                // group id in the high word, the batch size in the low —
                // the Perfetto track of the cross-ring merge order.
                let group = self.followers[ring].cfg.group.0 as u64;
                ctx.probe(probe::code::MERGE_DELIVER, (group << 32) | batch.values().len() as u64);
            }
            for v in batch.iter() {
                if let Some(log) = self.log.as_ref() {
                    log.lock().unwrap().deliver(self.index, v.id);
                }
                if let Some(sink) = self.ring_sink.as_ref() {
                    sink.lock().unwrap().push((ring as u8, v.id));
                }
                ctx.counter_add(abcast::metric::DELIVERED_BYTES, v.bytes as u64);
                ctx.counter_add(abcast::metric::DELIVERED_MSGS, 1);
                // Merge delivery strictly follows submission; `since`
                // debug-asserts that instead of masking inversions.
                ctx.record_latency(MRP_LATENCY, ctx.now().since(v.submitted));
            }
        }
        if self.merge.buffered() > self.flow_threshold {
            ctx.counter_add(MRP_STALLS, 1);
        }

        // Per-ring back-pressure towards the ring that floods us.
        for ring in 0..self.followers.len() {
            let over = self.merge.buffered_in(ring) > self.flow_threshold;
            let f = &mut self.followers[ring];
            if over && !f.slowdown_active {
                f.slowdown_active = true;
                let pref = f.cfg.preferential_acceptor(self.index);
                ctx.udp_send(pref, MMsg::SlowDown, f.cfg.ctl_bytes);
            } else if !over {
                f.slowdown_active = false;
            }
        }
    }
}

impl Actor for MultiRingLearner {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Dur::millis(20), TimerToken(T_RETRANS));
        ctx.set_timer(Dur::millis(100), TimerToken(T_GC));
        ctx.set_timer(Dur::millis(10), TimerToken(T_FLOW));
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if self.ingest(env) {
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 {
            t if t == T_RETRANS => {
                let me = self.me;
                let index = self.index;
                for f in &mut self.followers {
                    let missing = f.missing();
                    if !missing.is_empty() {
                        let pref = f.cfg.preferential_acceptor(index);
                        ctx.udp_send(
                            pref,
                            MMsg::RetransReq { from: me, instances: missing },
                            f.cfg.ctl_bytes,
                        );
                    }
                }
                ctx.set_timer(Dur::millis(20), TimerToken(T_RETRANS));
            }
            t if t == T_GC => {
                let me = self.me;
                let index = self.index;
                for f in &mut self.followers {
                    if f.next > f.applied_reported {
                        f.applied_reported = f.next;
                        let pref = f.cfg.preferential_acceptor(index);
                        ctx.udp_send(
                            pref,
                            MMsg::Version { learner: me, applied: f.next },
                            f.cfg.ctl_bytes,
                        );
                    }
                }
                ctx.set_timer(Dur::millis(100), TimerToken(T_GC));
            }
            t if t == T_FLOW => {
                self.pump(ctx);
                ctx.set_timer(Dur::millis(10), TimerToken(T_FLOW));
            }
            _ => {}
        }
    }
}
