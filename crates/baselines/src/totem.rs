//! Spread/Totem-style privilege-based token ring (the thesis's \[31\]/\[33\]
//! baseline).
//!
//! A small set of daemons relays client traffic; only the daemon holding
//! the rotating token may broadcast, stamping messages with global
//! sequence numbers. Receivers deliver in sequence order once *safe*
//! (the token must complete another rotation so every daemon has seen the
//! message — Totem's safe-delivery, which is why each message waits about
//! two token rotations). Efficiency lands near 18% (Table 3.2): the token
//! rotation idles the broadcaster and daemon relaying burns CPU.

use std::collections::{BTreeMap, VecDeque};

use abcast::{metric, Pacer, SharedLog};
use simnet::prelude::*;

use crate::common::{deliver_value, BValue};

const T_PACE: u64 = 2 << 56;

#[derive(Clone, Debug)]
enum TotMsg {
    /// Client request to the local daemon.
    Submit(BValue),
    /// Token passing daemon-to-daemon; carries the global sequence state
    /// and the all-seen watermark that makes messages safe.
    Token { next_seq: u64, safe_upto: u64 },
    /// Broadcast of a sequenced message to the multicast group.
    Bcast { seq: u64, v: BValue },
    /// Safe watermark announcement to receivers.
    Safe { upto: u64 },
}

/// Deployment description.
#[derive(Clone, Debug)]
pub struct TotemConfig {
    /// The daemons, in token order.
    pub daemons: Vec<NodeId>,
    /// Multicast group of daemons and receivers.
    pub group: GroupId,
    /// Messages a daemon may broadcast per token visit.
    pub max_per_visit: u32,
    /// Per-message daemon processing cost.
    pub per_msg_cost: Dur,
}

/// One Totem daemon or receiver.
pub struct TotemProcess {
    cfg: TotemConfig,
    me: NodeId,
    daemon_index: Option<usize>,
    learner_index: Option<usize>,
    log: Option<SharedLog>,
    pacer: Option<Pacer>,
    next_seq_local: u64,
    /// Daemon: queued client messages awaiting the token.
    queue: VecDeque<BValue>,
    /// Daemon 0 only: last sequence stamped when the previous rotation
    /// started — everything at or below it is safe when the token returns.
    last_rotation_end: u64,
    /// Receiver: sequenced messages waiting for safety + order.
    ready: BTreeMap<u64, BValue>,
    safe_upto: u64,
    next_deliver: u64,
}

impl TotemProcess {
    /// Creates a process; `daemon_index` marks daemons.
    pub fn new(
        cfg: TotemConfig,
        me: NodeId,
        daemon_index: Option<usize>,
        pacer: Option<Pacer>,
        learner_index: Option<usize>,
        log: Option<SharedLog>,
    ) -> TotemProcess {
        TotemProcess {
            cfg,
            me,
            daemon_index,
            learner_index,
            log,
            pacer,
            next_seq_local: 0,
            queue: VecDeque::new(),
            last_rotation_end: 0,
            ready: BTreeMap::new(),
            safe_upto: 0,
            next_deliver: 1,
        }
    }

    fn next_daemon(&self) -> NodeId {
        let i = self.daemon_index.expect("daemon only");
        self.cfg.daemons[(i + 1) % self.cfg.daemons.len()]
    }

    fn try_deliver(&mut self, ctx: &mut Ctx) {
        while self.next_deliver <= self.safe_upto {
            let Some(v) = self.ready.remove(&self.next_deliver) else { return };
            self.next_deliver += 1;
            if let Some(idx) = self.learner_index {
                let me = self.me;
                deliver_value(ctx, &self.log, idx, &v, me);
            }
        }
    }

    fn on_token(&mut self, mut next_seq: u64, token_safe: u64, ctx: &mut Ctx) {
        // Broadcast up to max_per_visit pending messages, stamping them.
        let n = (self.queue.len() as u32).min(self.cfg.max_per_visit);
        for _ in 0..n {
            let v = self.queue.pop_front().expect("len checked");
            let seq = next_seq;
            next_seq += 1;
            ctx.charge_cpu(0, self.cfg.per_msg_cost);
            ctx.counter_add(metric::INSTANCES, 1);
            ctx.mcast(self.cfg.group, TotMsg::Bcast { seq, v }, v.bytes);
            self.ready.insert(seq, v);
        }
        // Safe delivery: when the token returns to daemon 0, everything
        // stamped before the rotation started has been seen by every
        // daemon — Totem's equivalent of uniform agreement (two rotations
        // per message end to end).
        let mut safe = token_safe;
        if self.daemon_index == Some(0) {
            safe = self.last_rotation_end;
            self.last_rotation_end = next_seq.saturating_sub(1);
            if safe > 0 {
                ctx.mcast(self.cfg.group, TotMsg::Safe { upto: safe }, 64);
            }
        }
        self.safe_upto = self.safe_upto.max(safe);
        self.try_deliver(ctx);
        // Pass the token on (small message, but it serializes rotations).
        ctx.udp_send(self.next_daemon(), TotMsg::Token { next_seq, safe_upto: safe }, 128);
    }
}

impl Actor for TotemProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.pacer.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.daemon_index == Some(0) {
            // Daemon 0 creates the token.
            ctx.set_timer(Dur::micros(100), TimerToken(1));
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<TotMsg>() else { return };
        match msg {
            TotMsg::Submit(v) => {
                if self.daemon_index.is_some() && self.queue.len() < 50_000 {
                    self.queue.push_back(*v);
                }
            }
            TotMsg::Token { next_seq, safe_upto } => {
                let (s, w) = (*next_seq, *safe_upto);
                self.on_token(s, w, ctx);
            }
            TotMsg::Bcast { seq, v } => {
                ctx.charge_cpu(0, self.cfg.per_msg_cost / 2);
                self.ready.insert(*seq, *v);
                self.try_deliver(ctx);
            }
            TotMsg::Safe { upto } => {
                self.safe_upto = self.safe_upto.max(*upto);
                self.try_deliver(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 == 1 {
            // Token genesis at daemon 0.
            self.on_token(1, 0, ctx);
            return;
        }
        let Some(p) = self.pacer.as_mut() else { return };
        let due = p.due(ctx.now());
        let bytes = p.msg_bytes();
        let interval = p.interval();
        // Writers submit to their assigned daemon round-robin.
        let daemons = self.cfg.daemons.clone();
        for _ in 0..due {
            let v = BValue::new(self.me, self.next_seq_local, bytes, ctx.now());
            self.next_seq_local += 1;
            ctx.counter_add("bl.proposed", 1);
            let d = daemons[(v.id.0 % daemons.len() as u64) as usize];
            ctx.udp_send(d, TotMsg::Submit(v), bytes);
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }
}

/// Deploys `n_daemons` Totem daemons, `n_receivers` readers, and
/// `n_writers` writers. Returns receiver nodes and the delivery log.
pub fn deploy_totem(
    sim: &mut Sim,
    n_daemons: usize,
    n_receivers: usize,
    n_writers: usize,
    rate_bps: u64,
    msg_bytes: u32,
) -> (Vec<NodeId>, SharedLog) {
    let daemons: Vec<NodeId> = (0..n_daemons).map(|_| sim.add_node(Box::new(Idle))).collect();
    let receivers: Vec<NodeId> = (0..n_receivers).map(|_| sim.add_node(Box::new(Idle))).collect();
    let writers: Vec<NodeId> = (0..n_writers).map(|_| sim.add_node(Box::new(Idle))).collect();
    let group = sim.add_group();
    for &n in daemons.iter().chain(&receivers).chain(&writers) {
        sim.subscribe(n, group);
    }
    let cfg = TotemConfig {
        daemons: daemons.clone(),
        group,
        max_per_visit: 16,
        per_msg_cost: Dur::micros(300),
    };
    let mut all_learners = receivers.clone();
    all_learners.extend(&writers);
    let log = abcast::shared_log(all_learners.len());
    for (i, &d) in daemons.iter().enumerate() {
        sim.replace_actor(
            d,
            Box::new(TotemProcess::new(cfg.clone(), d, Some(i), None, None, None)),
        );
    }
    for (i, &r) in receivers.iter().enumerate() {
        sim.replace_actor(
            r,
            Box::new(TotemProcess::new(cfg.clone(), r, None, None, Some(i), Some(log.clone()))),
        );
    }
    for (i, &w) in writers.iter().enumerate() {
        let pacer = Pacer::new(rate_bps, msg_bytes, 1);
        sim.replace_actor(
            w,
            Box::new(TotemProcess::new(
                cfg.clone(),
                w,
                None,
                Some(pacer),
                Some(n_receivers + i),
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
    fn totem_orders_with_moderate_throughput() {
        let mut sim = Sim::new(SimConfig::default());
        let (receivers, log) = deploy_totem(&mut sim, 3, 4, 3, 150_000_000, 16 * 1024);
        sim.run_until(Time::from_secs(2));
        let log = log.lock().unwrap();
        log.check_total_order().expect("total order");
        assert!(log.total_deliveries() > 500, "{}", log.total_deliveries());
        drop(log);
        let bytes = sim.metrics().counter(receivers[0], metric::DELIVERED_BYTES);
        let tput = mbps(bytes, Dur::secs(2));
        assert!(tput > 30.0, "totem too slow: {tput:.0} Mbps");
        assert!(tput < 600.0, "totem unexpectedly fast: {tput:.0} Mbps");
    }
}
