//! "Paxos for System Builders" (PFSB, the thesis's \[10\] baseline).
//!
//! Fully unicast Paxos with tiny (200-byte) messages and no batching: the
//! coordinator unicasts Phase 2A to every acceptor, acceptors unicast
//! Phase 2B back, and the coordinator unicasts the decision (with payload)
//! to every learner separately. Per-message costs and the fan-out divide
//! the coordinator's resources across receivers — the 4% efficiency row
//! of Table 3.2.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use abcast::{metric, Pacer, SharedLog};
use paxos::msg::{quorum, InstanceId, Round};
use simnet::prelude::*;

use crate::common::{deliver_value, BValue};

const T_PACE: u64 = 2 << 56;
const T_FLUSH: u64 = 3 << 56;

#[derive(Clone, Debug)]
enum PfMsg {
    Submit(BValue),
    Phase2a { instance: InstanceId, round: Round, v: BValue },
    Phase2b { instance: InstanceId, round: Round },
    Decision { instance: InstanceId, v: BValue },
}

/// Deployment description.
#[derive(Clone, Debug)]
pub struct PfsbConfig {
    /// Coordinator node.
    pub coordinator: NodeId,
    /// Acceptors (2f+1, coordinator included).
    pub acceptors: Vec<NodeId>,
    /// Learners (each receives its own unicast copy of every decision).
    pub learners: Vec<NodeId>,
    /// Outstanding-instance pipeline.
    pub window: u32,
    /// Per-instance protocol CPU at the coordinator.
    pub instance_overhead: Dur,
}

/// One PFSB process.
pub struct PfsbProcess {
    cfg: PfsbConfig,
    me: NodeId,
    round: Round,
    learner_index: Option<usize>,
    log: Option<SharedLog>,
    pacer: Option<Pacer>,
    next_seq: u64,
    pending: VecDeque<BValue>,
    next_instance: InstanceId,
    votes: BTreeMap<InstanceId, usize>,
    voted: BTreeSet<InstanceId>,
    inflight: BTreeMap<InstanceId, BValue>,
    ready: BTreeMap<InstanceId, BValue>,
    next_deliver: InstanceId,
}

impl PfsbProcess {
    /// Creates a process.
    pub fn new(
        cfg: PfsbConfig,
        me: NodeId,
        pacer: Option<Pacer>,
        learner_index: Option<usize>,
        log: Option<SharedLog>,
    ) -> PfsbProcess {
        PfsbProcess {
            cfg,
            me,
            round: Round::new(1, 0),
            learner_index,
            log,
            pacer,
            next_seq: 0,
            pending: VecDeque::new(),
            next_instance: InstanceId(0),
            votes: BTreeMap::new(),
            voted: BTreeSet::new(),
            inflight: BTreeMap::new(),
            ready: BTreeMap::new(),
            next_deliver: InstanceId(0),
        }
    }

    fn is_coordinator(&self) -> bool {
        self.cfg.coordinator == self.me
    }

    fn try_open(&mut self, ctx: &mut Ctx) {
        while (self.inflight.len() as u32) < self.cfg.window {
            let Some(v) = self.pending.pop_front() else { return };
            let instance = self.next_instance;
            self.next_instance = instance.next();
            self.inflight.insert(instance, v);
            self.votes.insert(instance, 1); // own vote
            ctx.charge_cpu(0, self.cfg.instance_overhead);
            ctx.counter_add(metric::INSTANCES, 1);
            let round = self.round;
            let acceptors: Vec<NodeId> =
                self.cfg.acceptors.iter().copied().filter(|&a| a != self.me).collect();
            for a in acceptors {
                ctx.udp_send(a, PfMsg::Phase2a { instance, round, v }, v.bytes.max(200));
            }
        }
    }

    fn decide(&mut self, instance: InstanceId, ctx: &mut Ctx) {
        let Some(v) = self.inflight.remove(&instance) else { return };
        self.votes.remove(&instance);
        let learners: Vec<NodeId> =
            self.cfg.learners.iter().copied().filter(|&l| l != self.me).collect();
        for l in learners {
            ctx.udp_send(l, PfMsg::Decision { instance, v }, v.bytes.max(200));
        }
        self.on_decision(instance, v, ctx);
        self.try_open(ctx);
    }

    fn on_decision(&mut self, instance: InstanceId, v: BValue, ctx: &mut Ctx) {
        if instance >= self.next_deliver {
            self.ready.insert(instance, v);
        }
        while let Some(v) = self.ready.remove(&self.next_deliver) {
            self.next_deliver = self.next_deliver.next();
            if let Some(idx) = self.learner_index {
                let me = self.me;
                deliver_value(ctx, &self.log, idx, &v, me);
            }
        }
    }
}

impl Actor for PfsbProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.pacer.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.is_coordinator() {
            ctx.set_timer(Dur::millis(1), TimerToken(T_FLUSH));
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<PfMsg>() else { return };
        match msg {
            PfMsg::Submit(v) => {
                if self.is_coordinator() && self.pending.len() < 10_000 {
                    self.pending.push_back(*v);
                    self.try_open(ctx);
                }
            }
            PfMsg::Phase2a { instance, round, v } => {
                let (instance, round, v) = (*instance, *round, *v);
                if round == self.round && self.voted.insert(instance) {
                    let _ = v;
                    ctx.udp_send(env.src, PfMsg::Phase2b { instance, round }, 200);
                }
            }
            PfMsg::Phase2b { instance, round } => {
                if *round != self.round || !self.is_coordinator() {
                    return;
                }
                let instance = *instance;
                let n = {
                    let e = self.votes.entry(instance).or_insert(0);
                    *e += 1;
                    *e
                };
                if n == quorum(self.cfg.acceptors.len()) {
                    self.decide(instance, ctx);
                }
            }
            PfMsg::Decision { instance, v } => {
                let (instance, v) = (*instance, *v);
                self.on_decision(instance, v, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 == T_FLUSH {
            self.try_open(ctx);
            ctx.set_timer(Dur::millis(1), TimerToken(T_FLUSH));
            return;
        }
        let Some(p) = self.pacer.as_mut() else { return };
        let due = p.due(ctx.now());
        let bytes = p.msg_bytes();
        let interval = p.interval();
        let coordinator = self.cfg.coordinator;
        for _ in 0..due {
            let v = BValue::new(self.me, self.next_seq, bytes, ctx.now());
            self.next_seq += 1;
            ctx.counter_add("bl.proposed", 1);
            if self.is_coordinator() {
                if self.pending.len() < 10_000 {
                    self.pending.push_back(v);
                    self.try_open(ctx);
                }
            } else {
                ctx.udp_send(coordinator, PfMsg::Submit(v), bytes);
            }
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }
}

/// Deploys a PFSB ensemble. Returns learner nodes and the delivery log.
pub fn deploy_pfsb(
    sim: &mut Sim,
    f: usize,
    n_learners: usize,
    n_proposers: usize,
    rate_bps: u64,
    msg_bytes: u32,
) -> (Vec<NodeId>, SharedLog) {
    let acceptors: Vec<NodeId> = (0..2 * f + 1).map(|_| sim.add_node(Box::new(Idle))).collect();
    let learners: Vec<NodeId> = (0..n_learners).map(|_| sim.add_node(Box::new(Idle))).collect();
    let proposers: Vec<NodeId> = (0..n_proposers).map(|_| sim.add_node(Box::new(Idle))).collect();
    let mut all_learners = learners.clone();
    all_learners.extend(&proposers);
    let cfg = PfsbConfig {
        coordinator: acceptors[0],
        acceptors: acceptors.clone(),
        learners: all_learners.clone(),
        window: 16,
        instance_overhead: Dur::micros(25),
    };
    let log = abcast::shared_log(all_learners.len());
    for &a in &acceptors {
        sim.replace_actor(a, Box::new(PfsbProcess::new(cfg.clone(), a, None, None, None)));
    }
    for (i, &l) in learners.iter().enumerate() {
        sim.replace_actor(
            l,
            Box::new(PfsbProcess::new(cfg.clone(), l, None, Some(i), Some(log.clone()))),
        );
    }
    for (i, &p) in proposers.iter().enumerate() {
        let pacer = Pacer::new(rate_bps, msg_bytes, 1);
        sim.replace_actor(
            p,
            Box::new(PfsbProcess::new(
                cfg.clone(),
                p,
                Some(pacer),
                Some(n_learners + i),
                Some(log.clone()),
            )),
        );
    }
    (all_learners, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfsb_orders_but_fanout_limits_it() {
        let mut sim = Sim::new(SimConfig::default());
        let (learners, log) = deploy_pfsb(&mut sim, 1, 8, 2, 50_000_000, 200);
        sim.run_until(Time::from_secs(2));
        let log = log.lock().unwrap();
        log.check_total_order().expect("total order");
        assert!(log.total_deliveries() > 1000);
        drop(log);
        let bytes = sim.metrics().counter(learners[0], metric::DELIVERED_BYTES);
        let tput = mbps(bytes, Dur::secs(2));
        assert!(tput < 100.0, "pfsb unexpectedly fast: {tput:.0} Mbps");
    }
}
