//! Libpaxos-style multicast Paxos (the thesis's \[34\] baseline).
//!
//! Classic Paxos over ip-multicast: the coordinator multicasts Phase 2A
//! carrying the *full payload*, every acceptor multicasts its Phase 2B to
//! everyone, and learners decide on a majority. No batching and a small
//! pipeline of outstanding instances — the two properties that hold its
//! measured efficiency at ~3% (Table 3.2) despite using multicast.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use abcast::{metric, Pacer, SharedLog};
use paxos::msg::{quorum, InstanceId, Round};
use simnet::prelude::*;

use crate::common::{deliver_value, BValue};

const T_PACE: u64 = 2 << 56;
const T_FLUSH: u64 = 3 << 56;

#[derive(Clone, Debug)]
enum LpMsg {
    Submit(BValue),
    Phase2a { instance: InstanceId, round: Round, v: BValue },
    Phase2b { instance: InstanceId, round: Round, acceptor: NodeId },
}

/// Shared deployment description.
#[derive(Clone, Debug)]
pub struct LibpaxosConfig {
    /// The coordinator node.
    pub coordinator: NodeId,
    /// Acceptor nodes (2f+1).
    pub acceptors: Vec<NodeId>,
    /// Everyone subscribed to the multicast group.
    pub group: GroupId,
    /// Outstanding instance pipeline (libpaxos keeps this tiny).
    pub window: u32,
    /// Per-instance protocol CPU at the coordinator (event-loop and
    /// instance bookkeeping of the original C implementation).
    pub instance_overhead: Dur,
}

/// One libpaxos-model process (roles by configuration).
pub struct LibpaxosProcess {
    cfg: LibpaxosConfig,
    me: NodeId,
    round: Round,
    is_coordinator: bool,
    is_acceptor: bool,
    learner_index: Option<usize>,
    log: Option<SharedLog>,
    pacer: Option<Pacer>,
    next_seq: u64,
    // Coordinator.
    pending: VecDeque<BValue>,
    next_instance: InstanceId,
    outstanding: BTreeSet<InstanceId>,
    // Acceptor: highest voted instance set (votes implicit: round fixed).
    voted: BTreeSet<InstanceId>,
    // Learner: quorum counting + payload buffer + in-order delivery.
    vote_counts: BTreeMap<InstanceId, BTreeSet<NodeId>>,
    payloads: BTreeMap<InstanceId, BValue>,
    next_deliver: InstanceId,
}

impl LibpaxosProcess {
    /// Creates a process. `learner_index` enables delivery recording.
    pub fn new(
        cfg: LibpaxosConfig,
        me: NodeId,
        pacer: Option<Pacer>,
        learner_index: Option<usize>,
        log: Option<SharedLog>,
    ) -> LibpaxosProcess {
        let is_coordinator = cfg.coordinator == me;
        let is_acceptor = cfg.acceptors.contains(&me);
        LibpaxosProcess {
            cfg,
            me,
            round: Round::new(1, 0),
            is_coordinator,
            is_acceptor,
            learner_index,
            log,
            pacer,
            next_seq: 0,
            pending: VecDeque::new(),
            next_instance: InstanceId(0),
            outstanding: BTreeSet::new(),
            voted: BTreeSet::new(),
            vote_counts: BTreeMap::new(),
            payloads: BTreeMap::new(),
            next_deliver: InstanceId(0),
        }
    }

    fn try_open(&mut self, ctx: &mut Ctx) {
        while (self.outstanding.len() as u32) < self.cfg.window {
            let Some(v) = self.pending.pop_front() else { return };
            let instance = self.next_instance;
            self.next_instance = instance.next();
            self.outstanding.insert(instance);
            ctx.charge_cpu(0, self.cfg.instance_overhead);
            ctx.counter_add(metric::INSTANCES, 1);
            let round = self.round;
            ctx.mcast(self.cfg.group, LpMsg::Phase2a { instance, round, v }, v.bytes);
            // The coordinator is itself acceptor and learner.
            self.on_phase2a(instance, round, v, ctx);
        }
    }

    fn on_phase2a(&mut self, instance: InstanceId, round: Round, v: BValue, ctx: &mut Ctx) {
        // libevent-style per-event processing cost.
        ctx.charge_cpu(0, self.cfg.instance_overhead / 2);
        self.payloads.insert(instance, v);
        if self.is_acceptor && round == self.round && self.voted.insert(instance) {
            let me = self.me;
            ctx.mcast(self.cfg.group, LpMsg::Phase2b { instance, round, acceptor: me }, 64);
            self.on_phase2b(instance, round, me, ctx);
        }
        self.try_deliver(ctx);
    }

    fn on_phase2b(&mut self, instance: InstanceId, round: Round, acceptor: NodeId, ctx: &mut Ctx) {
        if round != self.round {
            return;
        }
        ctx.charge_cpu(0, self.cfg.instance_overhead / 2);
        self.vote_counts.entry(instance).or_default().insert(acceptor);
        self.try_deliver(ctx);
    }

    fn try_deliver(&mut self, ctx: &mut Ctx) {
        let q = quorum(self.cfg.acceptors.len());
        loop {
            let i = self.next_deliver;
            let decided = self.vote_counts.get(&i).is_some_and(|s| s.len() >= q);
            if !decided || !self.payloads.contains_key(&i) {
                return;
            }
            let v = self.payloads.remove(&i).expect("payload checked");
            self.vote_counts.remove(&i);
            self.next_deliver = i.next();
            if self.is_coordinator {
                self.outstanding.remove(&i);
                self.try_open(ctx);
            }
            if let Some(idx) = self.learner_index {
                let me = self.me;
                deliver_value(ctx, &self.log, idx, &v, me);
            }
        }
    }
}

impl Actor for LibpaxosProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.pacer.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.is_coordinator {
            ctx.set_timer(Dur::millis(1), TimerToken(T_FLUSH));
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<LpMsg>() else { return };
        match msg {
            LpMsg::Submit(v) => {
                if self.is_coordinator && self.pending.len() < 10_000 {
                    self.pending.push_back(*v);
                    self.try_open(ctx);
                }
            }
            LpMsg::Phase2a { instance, round, v } => {
                let (instance, round, v) = (*instance, *round, *v);
                self.on_phase2a(instance, round, v, ctx);
            }
            LpMsg::Phase2b { instance, round, acceptor } => {
                let (instance, round, acceptor) = (*instance, *round, *acceptor);
                self.on_phase2b(instance, round, acceptor, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 {
            t if t == T_FLUSH => {
                self.try_open(ctx);
                ctx.set_timer(Dur::millis(1), TimerToken(T_FLUSH));
            }
            _ => {
                let Some(p) = self.pacer.as_mut() else { return };
                let due = p.due(ctx.now());
                let bytes = p.msg_bytes();
                let interval = p.interval();
                let coordinator = self.cfg.coordinator;
                for _ in 0..due {
                    let v = BValue::new(self.me, self.next_seq, bytes, ctx.now());
                    self.next_seq += 1;
                    ctx.counter_add("bl.proposed", 1);
                    if self.is_coordinator {
                        if self.pending.len() < 10_000 {
                            self.pending.push_back(v);
                            self.try_open(ctx);
                        }
                    } else {
                        ctx.udp_send(coordinator, LpMsg::Submit(v), bytes);
                    }
                }
                ctx.set_timer(interval, TimerToken(T_PACE));
            }
        }
    }
}

/// Deploys a libpaxos ensemble: 1 coordinator (also acceptor), `2f`
/// further acceptors, `n_learners` learners, `n_proposers` proposers.
pub fn deploy_libpaxos(
    sim: &mut Sim,
    f: usize,
    n_learners: usize,
    n_proposers: usize,
    rate_bps: u64,
    msg_bytes: u32,
) -> (LibpaxosConfig, Vec<NodeId>, SharedLog) {
    let n_acceptors = 2 * f + 1;
    let acceptors: Vec<NodeId> = (0..n_acceptors).map(|_| sim.add_node(Box::new(Idle))).collect();
    let learners: Vec<NodeId> = (0..n_learners).map(|_| sim.add_node(Box::new(Idle))).collect();
    let proposers: Vec<NodeId> = (0..n_proposers).map(|_| sim.add_node(Box::new(Idle))).collect();
    let group = sim.add_group();
    for &n in acceptors.iter().chain(&learners).chain(&proposers) {
        sim.subscribe(n, group);
    }
    let cfg = LibpaxosConfig {
        coordinator: acceptors[0],
        acceptors: acceptors.clone(),
        group,
        window: 1,
        instance_overhead: Dur::micros(320),
    };
    let mut all_learners = learners.clone();
    all_learners.extend(&proposers);
    let log = abcast::shared_log(all_learners.len());
    for &a in &acceptors {
        sim.replace_actor(a, Box::new(LibpaxosProcess::new(cfg.clone(), a, None, None, None)));
    }
    for (i, &l) in learners.iter().enumerate() {
        sim.replace_actor(
            l,
            Box::new(LibpaxosProcess::new(cfg.clone(), l, None, Some(i), Some(log.clone()))),
        );
    }
    for (i, &p) in proposers.iter().enumerate() {
        let pacer = Pacer::new(rate_bps, msg_bytes, 1);
        sim.replace_actor(
            p,
            Box::new(LibpaxosProcess::new(
                cfg.clone(),
                p,
                Some(pacer),
                Some(n_learners + i),
                Some(log.clone()),
            )),
        );
    }
    (cfg, all_learners, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libpaxos_orders_but_is_slow() {
        let mut sim = Sim::new(SimConfig::default());
        let (_cfg, learners, log) = deploy_libpaxos(&mut sim, 1, 2, 2, 100_000_000, 4096);
        sim.run_until(Time::from_secs(2));
        let log = log.lock().unwrap();
        log.check_total_order().expect("total order");
        assert!(log.total_deliveries() > 100);
        drop(log);
        let bytes = sim.metrics().counter(learners[0], metric::DELIVERED_BYTES);
        let tput = mbps(bytes, Dur::secs(2));
        // The point of this baseline: one order of magnitude below
        // Ring Paxos (paper: ~30 Mbps, 3%).
        assert!(tput < 150.0, "libpaxos unexpectedly fast: {tput:.0} Mbps");
        assert!(tput > 5.0, "libpaxos should still make progress: {tput:.1} Mbps");
    }
}
