//! The parallel-service replica: an ordering-layer learner feeding one
//! of the ch. 6 execution engines.
//!
//! The same wrapper serves both delivery layers ([`Learner`]): the
//! single-ring models (sequential, pipelined, SDPE — §6.2.2–6.2.4) embed
//! an M-Ring Paxos learner and take its batches in the total order; P-SMR
//! (§6.3) embeds a Multi-Ring Paxos learner and takes the merged batches
//! tagged with their ring, so each delivery is routed to the worker
//! thread of its group. Either way the replica reads each command from
//! the batch that delivered it and applies it to the [`ObjStore`] it
//! owns, which is read off the actor ([`ParallelReplica::store`]).

use std::collections::VecDeque;

use abcast::MsgId;
use multiring::MultiRingLearner;
use ringpaxos::mring::MRingProcess;
use ringpaxos::Batch;
use simnet::prelude::*;

use crate::command::PStored;
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
    /// Size of the response to re-send.
    pub reply_bytes: u32,
}

/// The ordering-layer learner a [`ParallelReplica`] wraps.
pub trait Learner: Actor {
    /// Moves every batch delivered since the last call that carries
    /// commands into `out`, in delivery order, each with the index of
    /// the ring that ordered it (`None` on a single ring).
    fn take_delivered(&mut self, out: &mut Vec<(Option<u8>, Batch)>);
}

impl Learner for MRingProcess {
    fn take_delivered(&mut self, out: &mut Vec<(Option<u8>, Batch)>) {
        out.extend(MRingProcess::take_delivered(self).map(|b| (None, b)));
    }
}

impl Learner for MultiRingLearner {
    fn take_delivered(&mut self, out: &mut Vec<(Option<u8>, Batch)>) {
        out.extend(MultiRingLearner::take_delivered(self).map(|(r, b)| (Some(r), b)));
    }
}

/// A replica of the parallel service over any ordering [`Learner`].
pub struct ParallelReplica<I: Learner> {
    inner: I,
    /// Batches taken from the learner (reused buffer).
    delivered: Vec<(Option<u8>, Batch)>,
    me: NodeId,
    /// Replicas of the deployment, in a fixed shared order (designated
    /// responder selection).
    peers: Vec<NodeId>,
    engine: Engine,
    store: ObjStore,
    dep_execs_reported: u64,
    resp_q: VecDeque<(Time, MsgId, NodeId, u32)>,
}

impl<I: Learner> ParallelReplica<I> {
    /// Creates a replica wrapping the ordering-layer learner `inner`.
    pub fn new(
        inner: I,
        me: NodeId,
        peers: Vec<NodeId>,
        engine: Engine,
        store: ObjStore,
    ) -> ParallelReplica<I> {
        ParallelReplica {
            inner,
            delivered: Vec::new(),
            me,
            peers,
            engine,
            store,
            dep_execs_reported: 0,
            resp_q: VecDeque::new(),
        }
    }

    /// Whether this replica answers command `id` (one replica responds,
    /// chosen deterministically by id). The SMR replica's reads take
    /// turns in delivery order instead (`hpsmr_core::exec`, "Who
    /// answers"), which balances them; here the id rule stays, because a
    /// retrying client must compute the designated replica itself to send
    /// it a [`PReplyQuery`], and it cannot know a command's turn.
    fn is_designated(&self, id: MsgId) -> bool {
        if self.peers.is_empty() {
            return true;
        }
        let idx = (id.0 as usize) % self.peers.len();
        self.peers[idx] == self.me
    }

    fn drain(&mut self, ctx: &mut Ctx) {
        let mut delivered = std::mem::take(&mut self.delivered);
        self.inner.take_delivered(&mut delivered);
        for (ring, batch) in delivered.drain(..) {
            for (v, cmd) in batch.commands() {
                let (id, stored) = (v.id, PStored::of(cmd));
                let already_executed = self.engine.is_executed(id);
                let released = self.engine.deliver(id, &stored, ring, ctx.now());
                if released.is_empty() {
                    // A re-delivery of an executed command is a client
                    // retry: its response was lost, so the designated
                    // replica answers again.
                    if already_executed && self.is_designated(id) {
                        ctx.udp_send(stored.client, PResponse { id }, stored.reply_bytes);
                    }
                    continue;
                }
                self.process(released, ctx);
            }
        }
        self.delivered = delivered;
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
        for (did, dstored, sched) in released {
            for (core, cost) in &sched.charges {
                ctx.charge_cpu(*core, *cost);
            }
            self.store.apply(did, &dstored.cmd);
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

    /// The replica's service state.
    pub fn store(&self) -> &ObjStore {
        &self.store
    }
}

impl<I: Learner> Actor for ParallelReplica<I> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(&PReplyQuery { id, from, reply_bytes }) = env.payload.downcast_ref() {
            ctx.counter_add("psmr.reply_queries", 1);
            // Answer only for commands that executed and whose response
            // already left (a queued response will go out on its own).
            let queued = self.resp_q.iter().any(|&(_, qid, _, _)| qid == id);
            if self.engine.is_executed(id) && self.is_designated(id) && !queued {
                ctx.counter_add("psmr.reply_resends", 1);
                ctx.udp_send(from, PResponse { id }, reply_bytes);
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
