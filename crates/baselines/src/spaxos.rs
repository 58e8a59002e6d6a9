//! S-Paxos (the thesis's \[32\] baseline).
//!
//! S-Paxos distributes request reception and dissemination over all
//! replicas: a client submits to any replica; the replica forwards the
//! request (batch) to every other replica; replicas acknowledge to all;
//! after `f+1` acks the batch is *stable*, and the leader orders batch
//! ids with Paxos. Delivery needs the id order plus a stable batch.
//!
//! The all-to-all dissemination and acknowledgement traffic makes S-Paxos
//! CPU-intensive (the paper measures ~270% CPU across its threads and a
//! Java GC-induced latency floor above 35 ms) — efficiency 31.2% in
//! Table 3.2. The model charges a JVM cost multiplier on protocol CPU and
//! injects periodic collector pauses.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use abcast::{metric, MsgId, Pacer, SharedLog};
use paxos::msg::{quorum, InstanceId, Round};
use simnet::prelude::*;

use crate::common::{deliver_value, BValue};

const T_PACE: u64 = 2 << 56;
const T_FLUSH: u64 = 3 << 56;
const T_GC_PAUSE: u64 = 4 << 56;

/// A disseminated batch of client requests with a unique id.
#[derive(Clone, Debug)]
struct SBatch {
    id: MsgId,
    values: std::sync::Arc<Vec<BValue>>,
}

#[derive(Clone, Debug)]
enum SpMsg {
    /// Replica-to-replica dissemination of a batch.
    Forward(SBatch),
    /// Acknowledgement of batch receipt.
    Ack { batch: MsgId },
    /// Leader's Phase 2A ordering a batch id into an instance.
    Order { instance: InstanceId, round: Round, batch: MsgId },
    /// Follower's Phase 2B.
    OrderAck { instance: InstanceId, round: Round },
    /// Leader's decision notification.
    Decide { instance: InstanceId, batch: MsgId },
}

/// Deployment description.
#[derive(Clone, Debug)]
pub struct SpaxosConfig {
    /// Replicas (2f+1); index 0 is the leader.
    pub replicas: Vec<NodeId>,
    /// Batch size for dissemination.
    pub batch_bytes: u32,
    /// Flush partial batches after this long.
    pub batch_timeout: Dur,
    /// JVM overhead multiplier on per-message protocol CPU.
    pub jvm_factor: u32,
    /// Interval between garbage-collector pauses.
    pub gc_interval: Dur,
    /// Length of each collector pause.
    pub gc_pause: Dur,
    /// Outstanding ordering instances at the leader.
    pub window: u32,
}

/// One S-Paxos replica.
pub struct SpaxosProcess {
    cfg: SpaxosConfig,
    me: NodeId,
    index: usize,
    round: Round,
    log: Option<SharedLog>,
    pacer: Option<Pacer>,
    next_seq: u64,
    next_batch: u64,
    pending: VecDeque<BValue>,
    pending_bytes: u64,
    /// Batches seen (by id) with their values.
    batches: HashMap<MsgId, SBatch>,
    /// Ack counts per batch.
    acks: HashMap<MsgId, usize>,
    /// Leader: queue of stable batch ids to order; outstanding instances.
    to_order: VecDeque<MsgId>,
    ordered_already: BTreeSet<MsgId>,
    next_instance: InstanceId,
    outstanding: BTreeMap<InstanceId, (MsgId, usize)>,
    /// All: decided id per instance, delivery cursor.
    decided: BTreeMap<InstanceId, MsgId>,
    next_deliver: InstanceId,
}

impl SpaxosProcess {
    /// Creates replica `index`.
    pub fn new(
        cfg: SpaxosConfig,
        index: usize,
        pacer: Option<Pacer>,
        log: Option<SharedLog>,
    ) -> SpaxosProcess {
        let me = cfg.replicas[index];
        SpaxosProcess {
            cfg,
            me,
            index,
            round: Round::new(1, 0),
            log,
            pacer,
            next_seq: 0,
            next_batch: 0,
            pending: VecDeque::new(),
            pending_bytes: 0,
            batches: HashMap::new(),
            acks: HashMap::new(),
            to_order: VecDeque::new(),
            ordered_already: BTreeSet::new(),
            next_instance: InstanceId(0),
            outstanding: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_deliver: InstanceId(0),
        }
    }

    fn is_leader(&self) -> bool {
        self.index == 0
    }

    fn protocol_cpu(&self, ctx: &mut Ctx, base: Dur) {
        ctx.charge_cpu(1, base * self.cfg.jvm_factor as u64);
    }

    fn peers(&self) -> Vec<NodeId> {
        self.cfg.replicas.iter().copied().filter(|&r| r != self.me).collect()
    }

    fn flush_batch(&mut self, ctx: &mut Ctx, force: bool) {
        let full = self.pending_bytes >= self.cfg.batch_bytes as u64;
        if !(full || (force && !self.pending.is_empty())) {
            return;
        }
        let mut vals = Vec::new();
        let mut bytes = 0u64;
        while let Some(v) = self.pending.front() {
            if !vals.is_empty() && bytes + v.bytes as u64 > self.cfg.batch_bytes as u64 {
                break;
            }
            let v = self.pending.pop_front().expect("front checked");
            self.pending_bytes -= v.bytes as u64;
            bytes += v.bytes as u64;
            vals.push(v);
        }
        let id = MsgId(((self.me.0 as u64) << 40) | (1 << 39) | self.next_batch);
        self.next_batch += 1;
        let batch = SBatch { id, values: std::sync::Arc::new(vals) };
        self.batches.insert(id, batch.clone());
        *self.acks.entry(id).or_insert(0) += 1; // self
        self.protocol_cpu(ctx, Dur::micros(30));
        let wire = (bytes.min(u32::MAX as u64) as u32).max(64);
        for p in self.peers() {
            ctx.udp_send(p, SpMsg::Forward(batch.clone()), wire);
        }
    }

    fn on_stable(&mut self, id: MsgId, ctx: &mut Ctx) {
        // The disseminating replica reports stability to the leader via
        // its ack; the leader queues the id for ordering.
        if self.is_leader() && self.ordered_already.insert(id) {
            self.to_order.push_back(id);
            self.try_order(ctx);
        }
    }

    fn try_order(&mut self, ctx: &mut Ctx) {
        while (self.outstanding.len() as u32) < self.cfg.window {
            let Some(id) = self.to_order.pop_front() else { return };
            let instance = self.next_instance;
            self.next_instance = instance.next();
            self.outstanding.insert(instance, (id, 1));
            self.protocol_cpu(ctx, Dur::micros(20));
            ctx.counter_add(metric::INSTANCES, 1);
            let round = self.round;
            for p in self.peers() {
                ctx.udp_send(p, SpMsg::Order { instance, round, batch: id }, 64);
            }
        }
    }

    fn try_deliver(&mut self, ctx: &mut Ctx) {
        let q = quorum(self.cfg.replicas.len());
        loop {
            let i = self.next_deliver;
            let Some(&id) = self.decided.get(&i) else { return };
            let stable = self.acks.get(&id).copied().unwrap_or(0) >= q;
            if !stable || !self.batches.contains_key(&id) {
                return;
            }
            let batch = self.batches.remove(&id).expect("batch checked");
            self.decided.remove(&i);
            self.next_deliver = i.next();
            self.protocol_cpu(ctx, Dur::micros(15));
            for v in batch.values.iter() {
                let me = self.me;
                deliver_value(ctx, &self.log, self.index, v, me);
            }
        }
    }
}

impl Actor for SpaxosProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.pacer.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_FLUSH));
        ctx.set_timer(self.cfg.gc_interval, TimerToken(T_GC_PAUSE));
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<SpMsg>() else { return };
        match msg {
            SpMsg::Forward(batch) => {
                let batch = batch.clone();
                let id = batch.id;
                self.protocol_cpu(ctx, Dur::micros(10));
                self.batches.insert(id, batch);
                let n = {
                    let e = self.acks.entry(id).or_insert(0);
                    // The Forward carries the disseminator's implicit
                    // ack, and this replica's own receipt is an ack too
                    // (it only *sends* acks to peers) — both count
                    // toward the f+1 stability quorum.
                    *e += 2;
                    *e
                };
                // Acknowledge to all replicas.
                for p in self.peers() {
                    ctx.udp_send(p, SpMsg::Ack { batch: id }, 64);
                }
                if n >= quorum(self.cfg.replicas.len()) {
                    self.on_stable(id, ctx);
                }
                self.try_deliver(ctx);
            }
            SpMsg::Ack { batch } => {
                let id = *batch;
                self.protocol_cpu(ctx, Dur::micros(3));
                let n = {
                    let e = self.acks.entry(id).or_insert(0);
                    *e += 1;
                    *e
                };
                if n >= quorum(self.cfg.replicas.len()) {
                    self.on_stable(id, ctx);
                }
                self.try_deliver(ctx);
            }
            SpMsg::Order { instance, round, batch } => {
                if *round == self.round {
                    ctx.udp_send(
                        env.src,
                        SpMsg::OrderAck { instance: *instance, round: *round },
                        64,
                    );
                    // Tentatively record; final on Decide.
                    self.decided.insert(*instance, *batch);
                    self.try_deliver(ctx);
                }
            }
            SpMsg::OrderAck { instance, round } => {
                if *round != self.round || !self.is_leader() {
                    return;
                }
                let instance = *instance;
                let q = quorum(self.cfg.replicas.len());
                let done = {
                    let Some(e) = self.outstanding.get_mut(&instance) else { return };
                    e.1 += 1;
                    e.1 >= q
                };
                if done {
                    let (id, _) = self.outstanding.remove(&instance).expect("present");
                    self.decided.insert(instance, id);
                    for p in self.peers() {
                        ctx.udp_send(p, SpMsg::Decide { instance, batch: id }, 64);
                    }
                    self.try_deliver(ctx);
                    self.try_order(ctx);
                }
            }
            SpMsg::Decide { instance, batch } => {
                self.decided.insert(*instance, *batch);
                self.try_deliver(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 {
            t if t == T_FLUSH => {
                self.flush_batch(ctx, true);
                ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_FLUSH));
            }
            t if t == T_GC_PAUSE => {
                // Stop-the-world collector pause: both cores blocked.
                ctx.charge_cpu(0, self.cfg.gc_pause);
                ctx.charge_cpu(1, self.cfg.gc_pause);
                ctx.counter_add("bl.gc_pauses", 1);
                ctx.set_timer(self.cfg.gc_interval, TimerToken(T_GC_PAUSE));
            }
            _ => {
                let Some(p) = self.pacer.as_mut() else { return };
                let due = p.due(ctx.now());
                let bytes = p.msg_bytes();
                let interval = p.interval();
                for _ in 0..due {
                    let v = BValue::new(self.me, self.next_seq, bytes, ctx.now());
                    self.next_seq += 1;
                    ctx.counter_add("bl.proposed", 1);
                    if self.pending_bytes < 64 * 1024 * 1024 {
                        self.pending.push_back(v);
                        self.pending_bytes += v.bytes as u64;
                        self.flush_batch(ctx, false);
                    }
                }
                ctx.set_timer(interval, TimerToken(T_PACE));
            }
        }
    }
}

/// Deploys `2f+1` S-Paxos replicas, each fed `rate_bps` of client load.
pub fn deploy_spaxos(
    sim: &mut Sim,
    f: usize,
    rate_bps: u64,
    msg_bytes: u32,
) -> (Vec<NodeId>, SharedLog) {
    let n = 2 * f + 1;
    let replicas: Vec<NodeId> = (0..n).map(|_| sim.add_node(Box::new(Idle))).collect();
    let cfg = SpaxosConfig {
        replicas: replicas.clone(),
        batch_bytes: 32 * 1024,
        batch_timeout: Dur::micros(500),
        jvm_factor: 3,
        gc_interval: Dur::millis(250),
        gc_pause: Dur::millis(12),
        window: 16,
    };
    let log = abcast::shared_log(n);
    for i in 0..n {
        let pacer = (rate_bps > 0).then(|| Pacer::new(rate_bps, msg_bytes, 1));
        sim.replace_actor(
            replicas[i],
            Box::new(SpaxosProcess::new(cfg.clone(), i, pacer, Some(log.clone()))),
        );
    }
    (replicas, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaxos_orders_and_has_high_latency() {
        let mut sim = Sim::new(SimConfig::default());
        let (replicas, log) = deploy_spaxos(&mut sim, 2, 60_000_000, 32 * 1024);
        sim.run_until(Time::from_secs(2));
        let log = log.lock().unwrap();
        log.check_total_order().expect("total order");
        assert!(log.total_deliveries() > 200);
        drop(log);
        let bytes = sim.metrics().counter(replicas[2], metric::DELIVERED_BYTES);
        let tput = mbps(bytes, Dur::secs(2));
        assert!(tput > 50.0, "spaxos too slow: {tput:.0} Mbps");
        assert!(tput < 600.0, "spaxos unexpectedly fast: {tput:.0} Mbps");
        // GC pauses must leave a visible latency tail (paper: >35 ms).
        let lat = sim.metrics().latency(metric::LATENCY);
        assert!(lat.p99 > Dur::millis(8), "p99 {:?}", lat.p99);
    }
}
