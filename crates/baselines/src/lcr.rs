//! LCR-style ring broadcast (Guerraoui et al., cited as \[12\] in the
//! thesis).
//!
//! LCR arranges all processes on a logical ring and totally orders
//! messages with vector clocks; payloads make one revolution and an
//! acknowledgement pass makes delivery uniform — two revolutions end to
//! end, one payload copy per link, which is why LCR posts the highest
//! efficiency in Table 3.2 (91%) but needs *perfect* failure detection.
//!
//! This model keeps the communication pattern (payload revolution plus an
//! id-only commit pass seeded at a fixed head node) and the resource
//! profile; the vector-clock machinery is replaced by head-assigned
//! sequence numbers, which yields the same order at every process.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use abcast::{Pacer, SharedLog};
use simnet::prelude::*;

use crate::common::{deliver_value, BValue};

const T_PACE: u64 = 2 << 56;

/// Messages on the LCR ring (all TCP).
#[derive(Clone, Debug)]
enum LcrMsg {
    /// Payload travelling its revolution; the head stamps `seq`.
    Data { v: BValue, seq: Option<u64>, hops_left: u32 },
    /// Commit pass: seq assignments circulating id-only.
    Commit { id_seq: Vec<(BValue, u64)>, hops_left: u32 },
}

/// One LCR process.
pub struct LcrProcess {
    ring: Vec<NodeId>,
    pos: usize,
    log: Option<SharedLog>,
    pacer: Option<Pacer>,
    next_seq_local: u64,
    /// Head-only: next global sequence number.
    next_global: u64,
    /// Sequenced messages waiting for in-order delivery.
    ready: BTreeMap<u64, BValue>,
    next_deliver: u64,
    /// Payloads seen without a sequence yet (before the commit arrives).
    unsequenced: VecDeque<BValue>,
}

impl LcrProcess {
    /// Creates the process at `pos` on `ring`.
    pub fn new(
        ring: Vec<NodeId>,
        pos: usize,
        pacer: Option<Pacer>,
        log: Option<SharedLog>,
    ) -> LcrProcess {
        LcrProcess {
            ring,
            pos,
            log,
            pacer,
            next_seq_local: 0,
            next_global: 0,
            ready: BTreeMap::new(),
            next_deliver: 0,
            unsequenced: VecDeque::new(),
        }
    }

    fn me(&self) -> NodeId {
        self.ring[self.pos]
    }

    fn succ(&self) -> NodeId {
        self.ring[(self.pos + 1) % self.ring.len()]
    }

    fn is_head(&self) -> bool {
        self.pos == 0
    }

    fn try_deliver(&mut self, ctx: &mut Ctx) {
        while let Some(v) = self.ready.remove(&self.next_deliver) {
            let me = self.me();
            deliver_value(ctx, &self.log, self.pos, &v, me);
            self.next_deliver += 1;
        }
    }

    fn sequence_here(&mut self, v: BValue, hops_left: u32, ctx: &mut Ctx) {
        // Head: stamp and start the commit information circulating with
        // the payload.
        let seq = self.next_global;
        self.next_global += 1;
        self.ready.insert(seq, v);
        self.try_deliver(ctx);
        // Commit pass for nodes that saw the payload before the head.
        let n = self.ring.len() as u32;
        let commit_hops = n - 1 - hops_left.min(n - 1);
        if commit_hops > 0 || hops_left > 0 {
            // The payload continues its revolution carrying the seq; the
            // id-only commit covers the prefix the payload already passed.
        }
        if hops_left > 0 {
            ctx.tcp_send(self.succ(), LcrMsg::Data { v, seq: Some(seq), hops_left }, v.bytes);
        }
        if commit_hops > 0 {
            ctx.tcp_send(
                self.succ(),
                LcrMsg::Commit { id_seq: vec![(v, seq)], hops_left: n - 1 },
                32,
            );
        }
    }
}

impl Actor for LcrProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.pacer.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<LcrMsg>() else { return };
        match msg {
            LcrMsg::Data { v, seq, hops_left } => {
                let (v, seq, hops_left) = (*v, *seq, *hops_left);
                match seq {
                    Some(s) => {
                        self.ready.insert(s, v);
                        self.try_deliver(ctx);
                        if hops_left > 1 {
                            ctx.tcp_send(
                                self.succ(),
                                LcrMsg::Data { v, seq: Some(s), hops_left: hops_left - 1 },
                                v.bytes,
                            );
                        }
                    }
                    None if self.is_head() => {
                        self.sequence_here(v, hops_left.saturating_sub(1), ctx);
                    }
                    None => {
                        self.unsequenced.push_back(v);
                        if hops_left > 1 {
                            ctx.tcp_send(
                                self.succ(),
                                LcrMsg::Data { v, seq: None, hops_left: hops_left - 1 },
                                v.bytes,
                            );
                        }
                    }
                }
            }
            LcrMsg::Commit { id_seq, hops_left } => {
                let (id_seq, hops_left) = (id_seq.clone(), *hops_left);
                for (v, s) in &id_seq {
                    self.unsequenced.retain(|u| u.id != v.id);
                    self.ready.insert(*s, *v);
                }
                self.try_deliver(ctx);
                if hops_left > 1 {
                    ctx.tcp_send(
                        self.succ(),
                        LcrMsg::Commit { id_seq, hops_left: hops_left - 1 },
                        32,
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        let Some(p) = self.pacer.as_mut() else { return };
        // Back-pressure like a blocking send: shed while the ring is busy.
        if ctx.tcp_backlog(self.ring[(self.pos + 1) % self.ring.len()]) > 4 * 1024 * 1024 {
            let _ = p.due(ctx.now());
            let interval = p.interval();
            ctx.set_timer(interval, TimerToken(T_PACE));
            return;
        }
        let due = p.due(ctx.now());
        let bytes = p.msg_bytes();
        let interval = p.interval();
        for _ in 0..due {
            let v = BValue::new(self.me(), self.next_seq_local, bytes, ctx.now());
            self.next_seq_local += 1;
            ctx.counter_add("bl.proposed", 1);
            if self.is_head() {
                let n = self.ring.len() as u32;
                self.sequence_here(v, n - 1, ctx);
            } else {
                let n = self.ring.len() as u32;
                ctx.tcp_send(self.succ(), LcrMsg::Data { v, seq: None, hops_left: n - 1 }, bytes);
            }
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }
}

/// Deploys an LCR ring of `n` processes, each proposing at `rate_bps`
/// with `msg_bytes` messages. Returns the nodes and the delivery log.
pub fn deploy_lcr(
    sim: &mut Sim,
    n: usize,
    rate_bps: u64,
    msg_bytes: u32,
) -> (Vec<NodeId>, SharedLog) {
    let ring: Vec<NodeId> = (0..n).map(|_| sim.add_node(Box::new(Idle))).collect();
    let log = abcast::shared_log(n);
    for pos in 0..n {
        let pacer = (rate_bps > 0).then(|| Pacer::new(rate_bps, msg_bytes, 1));
        sim.replace_actor(
            ring[pos],
            Box::new(LcrProcess::new(ring.clone(), pos, pacer, Some(log.clone()))),
        );
    }
    (ring, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::metric;

    #[test]
    fn lcr_orders_and_delivers() {
        let mut sim = Sim::new(SimConfig::default());
        let (ring, log) = deploy_lcr(&mut sim, 5, 100_000_000, 32 * 1024);
        sim.run_until(Time::from_secs(1));
        let log = log.lock().unwrap();
        assert!(log.total_deliveries() > 500);
        log.check_total_order().expect("total order");
        assert!(sim.metrics().counter(ring[3], metric::DELIVERED_MSGS) > 100);
    }

    #[test]
    fn lcr_throughput_is_near_wire_speed() {
        let mut sim = Sim::new(SimConfig::default());
        let (ring, _log) = deploy_lcr(&mut sim, 5, 250_000_000, 32 * 1024);
        sim.run_until(Time::from_secs(2));
        let bytes = sim.metrics().counter(ring[2], metric::DELIVERED_BYTES);
        let tput = mbps(bytes, Dur::secs(2));
        assert!(tput > 800.0, "LCR throughput {tput:.0} Mbps");
    }

    #[test]
    fn lcr_latency_grows_with_ring() {
        let run = |n: usize| {
            let mut sim = Sim::new(SimConfig::default());
            let (_ring, _log) = deploy_lcr(&mut sim, n, 20_000_000, 8192);
            sim.run_until(Time::from_secs(1));
            sim.metrics().latency(metric::LATENCY).mean
        };
        assert!(run(16) > run(4));
    }
}
