//! The parallel-service replica: an ordering-layer learner feeding one
//! of the ch. 6 execution engines.
//!
//! The same wrapper serves both delivery layers: the single-ring models
//! (sequential, pipelined, SDPE — §6.2.2–6.2.4) embed an M-Ring Paxos
//! learner and read the totally-ordered log; P-SMR (§6.3) embeds a
//! Multi-Ring Paxos learner and reads the ring-tagged merge stream, so
//! each delivery is routed to the worker thread of its group.

use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

use abcast::{MsgId, SharedLog};
use multiring::RingSink;
use simnet::prelude::*;

use crate::command::PRegistry;
use crate::engine::{Deliveries, Engine};
use crate::store::ObjStore;

/// Dependent (multi-worker) commands executed, per replica.
pub const PSMR_DEP_EXECS: &str = "psmr.dep_execs";

const T_PRESP: u64 = 43 << 56;
const T_EVFLUSH: u64 = 45 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Response of the parallel service.
#[derive(Clone, Copy, Debug)]
pub struct PResponse {
    /// The completed command.
    pub id: MsgId,
}

/// A retrying client asks the designated replica to re-send a response
/// it may have lost (real SMR client libraries pair request retry with a
/// reply query — the ordering layer delivers each command only once).
#[derive(Clone, Copy, Debug)]
pub struct PReplyQuery {
    /// The command whose response went missing.
    pub id: MsgId,
    /// The querying client.
    pub from: NodeId,
}

/// How the replica consumes ordered deliveries.
pub enum DeliverySource {
    /// Totally-ordered log of a single ring (`log_index` = this
    /// replica's learner index).
    TotalOrder {
        /// The ring's shared delivery log.
        log: SharedLog,
        /// This replica's learner index in the log.
        log_index: usize,
    },
    /// Ring-tagged merge stream of Multi-Ring Paxos (P-SMR).
    RingTagged {
        /// The `(ring, message)` stream in merge order.
        sink: RingSink,
    },
}

/// A replica of the parallel service over any [`DeliverySource`].
pub struct ParallelReplica<I: Actor> {
    inner: I,
    source: DeliverySource,
    cursor: usize,
    me: NodeId,
    /// Replicas of the deployment, in a fixed shared order (designated
    /// responder selection).
    peers: Vec<NodeId>,
    registry: PRegistry,
    engine: Engine,
    store: Arc<Mutex<ObjStore>>,
    dep_execs_reported: u64,
    resp_q: VecDeque<(Time, MsgId, NodeId, u32)>,
}

impl<I: Actor> ParallelReplica<I> {
    /// Creates a replica wrapping the ordering-layer learner `inner`.
    pub fn new(
        inner: I,
        source: DeliverySource,
        me: NodeId,
        peers: Vec<NodeId>,
        registry: PRegistry,
        engine: Engine,
        store: Arc<Mutex<ObjStore>>,
    ) -> ParallelReplica<I> {
        ParallelReplica {
            inner,
            source,
            cursor: 0,
            me,
            peers,
            registry,
            engine,
            store,
            dep_execs_reported: 0,
            resp_q: VecDeque::new(),
        }
    }

    /// Whether this replica answers command `id` (one replica responds,
    /// chosen deterministically by id).
    fn is_designated(&self, id: MsgId) -> bool {
        if self.peers.is_empty() {
            return true;
        }
        let idx = (id.0 as usize) % self.peers.len();
        self.peers[idx] == self.me
    }

    /// Pulls newly delivered occurrences from the source.
    fn next_delivery(&mut self) -> Option<(Option<u8>, MsgId)> {
        match &self.source {
            DeliverySource::TotalOrder { log, log_index } => {
                let log = log.lock().unwrap();
                let seq = log.sequence(*log_index);
                if self.cursor >= seq.len() {
                    return None;
                }
                Some((None, seq[self.cursor]))
            }
            DeliverySource::RingTagged { sink } => {
                let sink = sink.lock().unwrap();
                if self.cursor >= sink.len() {
                    return None;
                }
                let (ring, id) = sink[self.cursor];
                Some((Some(ring), id))
            }
        }
    }

    fn drain(&mut self, ctx: &mut Ctx) {
        while let Some((ring, id)) = self.next_delivery() {
            self.cursor += 1;
            let Some(stored) = self.registry.get(id) else { continue };
            let already_executed = self.engine.is_executed(id);
            let released = self.engine.deliver(id, &stored, ring, ctx.now());
            if released.is_empty() {
                // A re-delivery of an executed command is a client retry:
                // its response was lost, so the designated replica
                // answers again (the command stays registered until the
                // client hears back).
                if already_executed && self.is_designated(id) {
                    ctx.udp_send(stored.client, PResponse { id }, stored.reply_bytes);
                }
                continue;
            }
            self.process(released, ctx);
        }
        let deps = self.engine.dependent_execs();
        if deps > self.dep_execs_reported {
            ctx.counter_add(PSMR_DEP_EXECS, deps - self.dep_execs_reported);
            self.dep_execs_reported = deps;
        }
        self.arm_flush(ctx);
    }

    /// Applies released executions to the service state and queues their
    /// responses (EV commits release whole batches at once).
    fn process(&mut self, released: Deliveries, ctx: &mut Ctx) {
        for (did, sched) in released {
            for (core, cost) in &sched.charges {
                ctx.charge_cpu(*core, *cost);
            }
            let Some(dstored) = self.registry.get(did) else { continue };
            self.store.lock().unwrap().apply(did, &dstored.cmd);
            if self.is_designated(did) {
                self.resp_q.push_back((sched.done, did, dstored.client, dstored.reply_bytes));
                ctx.set_timer(sched.done.saturating_since(ctx.now()), TimerToken(T_PRESP));
            }
        }
    }

    /// Arms a timer for an EV batch that must commit by deadline.
    fn arm_flush(&mut self, ctx: &mut Ctx) {
        if let Some(dl) = self.engine.deadline() {
            ctx.set_timer(dl.saturating_since(ctx.now()), TimerToken(T_EVFLUSH));
        }
    }

    fn flush_responses(&mut self, ctx: &mut Ctx) {
        // Completion times are not monotone across workers: scan for all
        // due responses rather than relying on FIFO order.
        let now = ctx.now();
        let mut i = 0;
        while i < self.resp_q.len() {
            if self.resp_q[i].0 <= now {
                let (_, id, client, bytes) = self.resp_q.remove(i).expect("index in bounds");
                ctx.udp_send(client, PResponse { id }, bytes);
            } else {
                i += 1;
            }
        }
    }

    /// The replica's service state (shared handle for checks).
    pub fn store(&self) -> Arc<Mutex<ObjStore>> {
        self.store.clone()
    }
}

impl<I: Actor> Actor for ParallelReplica<I> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(&PReplyQuery { id, from }) = env.payload.downcast_ref::<PReplyQuery>() {
            ctx.counter_add("psmr.reply_queries", 1);
            // Answer only for commands that executed and whose response
            // already left (a queued response will go out on its own).
            let queued = self.resp_q.iter().any(|&(_, qid, _, _)| qid == id);
            if self.engine.is_executed(id) && self.is_designated(id) && !queued {
                ctx.counter_add("psmr.reply_resends", 1);
                if let Some(stored) = self.registry.get(id) {
                    ctx.udp_send(from, PResponse { id }, stored.reply_bytes);
                }
            }
            return;
        }
        self.inner.on_message(env, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 & KIND_MASK == T_PRESP {
            self.flush_responses(ctx);
            return;
        }
        if token.0 & KIND_MASK == T_EVFLUSH {
            let released = self.engine.flush(ctx.now());
            self.process(released, ctx);
            self.flush_responses(ctx);
            self.arm_flush(ctx);
            return;
        }
        self.inner.on_timer(token, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }
}
