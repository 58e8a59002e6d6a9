//! The Multi-Ring Paxos learner: one M-Ring learner per subscribed ring
//! ([`MLearner`] — what is buffered, released and asked for is its
//! rule, the one `MRingProcess` follows), their releases interleaved by
//! the deterministic merge.

use std::collections::HashMap;

use abcast::SharedLog;
use paxos::msg::InstanceId;
use ringpaxos::mlearner::{MLearner, SWEEP_TICK};
use ringpaxos::msg::{MMsg, CTL_BYTES};
use ringpaxos::value::ALL_PARTITIONS;
use ringpaxos::{Batch, MRingConfig};
use simnet::prelude::*;

use crate::merge::{DeterministicMerge, MergeEntry};

/// Delivery latency recorded by Multi-Ring Paxos learners (kept apart
/// from the per-ring `abcast.latency` recorded by ring-local proposers).
pub const MRP_LATENCY: &str = "mrp.latency";

const T_RETRANS: u64 = 6 << 56;
const T_GC: u64 = 3 << 56;
/// Period of the version reports that let a ring collect garbage.
const GC_TICK: Dur = Dur::millis(100);
/// Merge entries buffered from one ring beyond which the learner asks
/// that ring to slow down.
const FLOW_THRESHOLD: usize = 4096;

/// One subscribed ring: its current layout, its learner, and whether it
/// has been told to slow down.
struct Ring {
    cfg: MRingConfig,
    lrn: MLearner,
    slowdown_active: bool,
}

/// A learner subscribed to one or more rings (groups), delivering through
/// the deterministic merge of ch. 5.
pub struct MultiRingLearner {
    me: NodeId,
    index: usize,
    /// The subscribed rings in group-id order (the merge order).
    rings: Vec<Ring>,
    group_to_ring: HashMap<GroupId, usize>,
    node_to_ring: HashMap<NodeId, usize>,
    merge: DeterministicMerge,
    log: Option<SharedLog>,
    /// Merged batches that carry commands, each with its ring, for the
    /// service wrapping this learner ([`MultiRingLearner::take_delivered`]).
    outbox: Vec<(u8, Batch)>,
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
        let ring = |cfg| Ring { cfg, lrn: MLearner::new(ALL_PARTITIONS), slowdown_active: false };
        MultiRingLearner {
            me,
            index,
            rings: rings.into_iter().map(ring).collect(),
            group_to_ring,
            node_to_ring,
            merge,
            log,
            outbox: Vec::new(),
        }
    }

    /// Hands over every merged batch that carries commands, in merge
    /// order, with the index of the ring that ordered it (`ringpaxos`'s
    /// `value` module docs, "Commands ride in the batch"). The service
    /// wrapping this learner takes them after each event it passes in.
    pub fn take_delivered(&mut self) -> std::vec::Drain<'_, (u8, Batch)> {
        self.outbox.drain(..)
    }

    fn ring_of(&self, env: &Envelope) -> Option<usize> {
        match env.transport {
            Transport::Multicast(g) => self.group_to_ring.get(&g).copied(),
            _ => self.node_to_ring.get(&env.src).copied(),
        }
    }

    /// Asks ring `r`'s preferential acceptor for `missing`, if anything.
    fn ask(&self, r: usize, missing: Vec<(InstanceId, bool)>, ctx: &mut Ctx) {
        if missing.is_empty() {
            return;
        }
        let cfg = &self.rings[r].cfg;
        let wire = CTL_BYTES + 8 * missing.len() as u32;
        let req = MMsg::RetransReq { from: self.me, instances: missing };
        ctx.udp_send(cfg.preferential_acceptor(self.index), req, wire);
    }

    /// Moves everything ring `r`'s learner can release into the merge —
    /// the merge's queues are the application's backlog, so nothing is
    /// held back — and delivers what the merge lets through.
    fn pump(&mut self, r: usize, ctx: &mut Ctx) {
        let lrn = &mut self.rings[r].lrn;
        while lrn.front_ready() {
            let released = lrn.release();
            if released.evicted > 0 {
                ctx.counter_add("rp.dedup_evict", released.evicted);
            }
            // A batch of nothing but duplicates still takes its turn.
            let entry = MergeEntry { batch: released.fresh, weight: released.skip.max(1) };
            self.merge.push(r, entry);
        }
        // Drain the merge in deterministic order.
        while let Some((ring, batch)) = self.merge.pop() {
            if ctx.probes_enabled() {
                // One merge-release event per popped batch: the ring's
                // group id in the high word, the batch size in the low —
                // the Perfetto track of the cross-ring merge order.
                let group = self.rings[ring].cfg.group.0 as u64;
                ctx.probe(probe::code::MERGE_DELIVER, (group << 32) | batch.values().len() as u64);
            }
            for v in batch.iter() {
                if let Some(log) = self.log.as_ref() {
                    log.lock().unwrap().deliver(self.index, v.id);
                }
                ctx.counter_add(abcast::metric::DELIVERED_BYTES, v.bytes as u64);
                ctx.counter_add(abcast::metric::DELIVERED_MSGS, 1);
                // Merge delivery strictly follows submission; `since`
                // debug-asserts that instead of masking inversions.
                ctx.record_latency(MRP_LATENCY, ctx.now().since(v.submitted));
            }
            if batch.commands().next().is_some() {
                self.outbox.push((ring as u8, batch));
            }
        }
        // Per-ring back-pressure towards the ring that floods us.
        for (i, ring) in self.rings.iter_mut().enumerate() {
            let over = self.merge.buffered_in(i) > FLOW_THRESHOLD;
            if over && !ring.slowdown_active {
                let pref = ring.cfg.preferential_acceptor(self.index);
                ctx.udp_send(pref, MMsg::SlowDown, CTL_BYTES);
            }
            ring.slowdown_active = over;
        }
    }
}

impl Actor for MultiRingLearner {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SWEEP_TICK, TimerToken(T_RETRANS));
        ctx.set_timer(GC_TICK, TimerToken(T_GC));
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<MMsg>() else { return };
        let Some(r) = self.ring_of(env) else { return };
        let lrn = &mut self.rings[r].lrn;
        // `spurious`: asked for, and the coordinator's multicast brought
        // it after all — it was not lost.
        let (from_coordinator, spurious) = match msg {
            MMsg::Phase2a { instance, round, batch, decisions, decided_below, .. } => {
                let asked = lrn.store(*instance, batch, *round, None) as u64;
                lrn.watermark(*decided_below);
                (true, asked + lrn.decide(decisions, *round))
            }
            MMsg::Decision { instances, round, decided_below, .. } => {
                lrn.watermark(*decided_below);
                (true, lrn.decide(instances, *round))
            }
            MMsg::RetransRep { instance, batch, decided: true, round, .. } => {
                lrn.authoritative(*instance, batch, *round, None);
                (false, 0)
            }
            MMsg::RetransRep { instance, batch, round, .. } => {
                lrn.store(*instance, batch, *round, None);
                (false, 0)
            }
            MMsg::RetransDecided { instance, round, mask } => {
                lrn.decide(&[(*instance, *mask)], *round);
                (false, 0)
            }
            MMsg::NewRing { ring, .. } => {
                // Repairs and reports follow the ring's new layout.
                for &a in ring {
                    self.node_to_ring.insert(a, r);
                }
                self.rings[r].cfg.ring = ring.clone();
                return;
            }
            _ => return,
        };
        if spurious > 0 {
            ctx.counter_add("rp.repair_spurious", spurious);
        }
        self.pump(r, ctx);
        if from_coordinator {
            // Order shows a loss only on the coordinator's own stream.
            let missing = self.rings[r].lrn.incomplete();
            self.ask(r, missing, ctx);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 {
            T_RETRANS => {
                for r in 0..self.rings.len() {
                    let missing = self.rings[r].lrn.sweep();
                    self.ask(r, missing, ctx);
                }
                ctx.set_timer(SWEEP_TICK, TimerToken(T_RETRANS));
            }
            T_GC => {
                for ring in &mut self.rings {
                    if let Some(applied) = ring.lrn.unreported() {
                        let pref = ring.cfg.preferential_acceptor(self.index);
                        let version = MMsg::Version { learner: self.me, applied };
                        ctx.udp_send(pref, version, CTL_BYTES);
                    }
                }
                ctx.set_timer(GC_TICK, TimerToken(T_GC));
            }
            _ => {}
        }
    }
}
