//! The SMR replica: an M-Ring Paxos learner feeding a deterministic
//! service, executing speculatively (§4.2.1) wherever the deployment does
//! not ask for the paper's plain baseline.
//!
//! The replica models a threaded server: network delivery runs on core 0
//! (shared with the protocol); a *writer* core executes every update and
//! takes reads too; any further *reader* cores execute reads only; and a
//! response core marshals replies. With one execution core this is the
//! paper's server organization (§4.4.2) — the execution and response
//! threads whose CPU split Fig. 4.8 reports.
//!
//! Execution itself lives in [`crate::exec`]: the [`Executor`] applies
//! commands to the service in delivery order and schedules their virtual
//! time — an update starts after every earlier read and write has ended
//! on the writer core; a read starts after the last earlier write has
//! ended, cut into one part per execution core idle at that instant when
//! there are two or more ([`SMR_SPLIT_READS`]), else whole on the
//! least-loaded core. Conflicts are judged on the whole tree. This actor
//! only books each part's charge on the core the executor named and
//! sends each reply when it is ready.
//!
//! One replica of a partition answers each command (§4.4.2), and the
//! executor says which ([`crate::exec`], "Who answers"): an update, which
//! every replica executes, is answered by the one at `id % n` of the
//! partition's `n` replicas; a read runs on, and is answered by, one
//! replica only, and the replicas take turns in delivery order — the
//! `k`-th read the partition delivers goes to replica `k % n`. Both
//! replicas deliver the same sequence, so they agree on every turn with
//! no message, and reads alternate instead of landing on one replica
//! twice in a row half the time, as a hash of the id let them.
//!
//! # Speculation
//!
//! Speculation is how the session tier runs (`deploy_smr_sessions` has no
//! other mode; `deploy_smr` keeps [`ReplicaConfig::speculative`] to print
//! the paper's plain-vs-speculative comparison). A speculating replica
//! executes a command when its Phase 2A payload *arrives*, before the
//! decision confirms its order. The response is released once both the
//! execution has finished and the order is confirmed — `max(Δe, Δo)`
//! instead of `Δe + Δo` (§4.2.1) — from what the speculation queue kept,
//! without looking the command up again. If the confirmed order disagrees
//! with the arrival order (coordinator replacement, a payload that arrived
//! by repair), the speculated updates are rolled back through the
//! service's undo log and re-executed in the confirmed order.
//!
//! What keeps the queue honest is the learner's delivery watermark, not a
//! history of ids ([`crate::exec`] has the rules): a 2A of an instance
//! already delivered is not speculated, nor a value the learner's
//! duplicate filter has already passed (a retried copy of a command this
//! replica delivered), and after the learner delivers, a queued
//! speculation whose instance has been delivered without confirming it
//! is stale and goes ([`SMR_SPEC_STALE`]).
//!
//! The replica reads each command from the batch that carried it: a 2A
//! for speculation, and for execution the batches its learner delivered
//! ([`MRingProcess::take_delivered`]).
//!
//! # Reading a replica
//!
//! Code outside the run reads a replica's state off its actor
//! (`Sim::actor`, then [`SmrReplica::state`]; a deployment's
//! `replica_states` does it for every replica). That schedules nothing,
//! so it can be read mid-run, and a replica crashed with
//! `Sim::set_node_up(n, false)` reports the state it crashed with.

use std::collections::BTreeMap;

use abcast::MsgId;
use ringpaxos::mring::MRingProcess;
use ringpaxos::msg::MMsg;
use ringpaxos::value::Command;
use ringpaxos::Batch;
use simnet::prelude::*;

use crate::exec::{Booked, Executor, Released, Seat};
use crate::msg::SmrResponse;
use crate::service::{Service, StoredCommand};

/// Alias of [`workload::SESSION_LATENCY`], kept for the frozen
/// `benchmark/` package's client-server baseline; read the `sessions.*`
/// names instead.
pub const SMR_LATENCY: &str = workload::SESSION_LATENCY;
/// Alias of [`workload::SESSIONS_COMPLETED`], kept for the same reader.
pub const SMR_COMPLETED: &str = workload::SESSIONS_COMPLETED;
/// Commands executed speculatively, per replica.
pub const SMR_SPEC_EXEC: &str = "smr.spec_exec";
/// Speculated commands rolled back (a mis-order, or a stale speculation
/// with updates), per replica.
pub const SMR_ROLLBACKS: &str = "smr.rollbacks";
/// Speculations dropped because their instance was delivered without
/// confirming them, per replica.
pub const SMR_SPEC_STALE: &str = "smr.spec_stale";
/// Reads executed in parts, one on each execution core idle when the
/// read could start ([`crate::exec`]), per replica.
pub const SMR_SPLIT_READS: &str = "smr.split_reads";

const T_RESP: u64 = 40 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Per-replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Execute commands on payload arrival (speculation, §4.2.1).
    pub speculative: bool,
    /// Cores running execution threads: `exec_cores[0]` runs every
    /// update (and reads), the rest run reads only.
    pub exec_cores: Vec<usize>,
    /// Core running the response thread.
    pub resp_core: usize,
    /// Per-delivered-instance dispatch cost, paid by the execution core
    /// that takes the command.
    pub dispatch: Dur,
    /// Response marshalling cost per reply on the response core.
    pub marshal: Dur,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            speculative: false,
            exec_cores: vec![1],
            resp_core: 2,
            dispatch: Dur::micros(10),
            marshal: Dur::micros(4),
        }
    }
}

/// What a replica says of itself ([`SmrReplica::state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaState {
    /// Updates applied to the service, net of rollbacks.
    pub updates: u64,
    /// [`Service::digest`] of the service state.
    pub digest: u64,
    /// Speculated commands still awaiting their order (reads left to a
    /// peer included).
    pub speculated: usize,
    /// Undo records the service still holds.
    pub undo_depth: usize,
}

/// A state-machine-replication replica over service `S`.
pub struct SmrReplica<S: Service> {
    inner: MRingProcess,
    /// Batches the learner has delivered, taken from it (reused buffer).
    delivered: Vec<Batch>,
    /// This replica's partition mask: `inner`'s learner mask
    /// (`ALL_PARTITIONS` when the ring is not partitioned).
    mask: u32,
    exec: Executor<S>,
    rcfg: ReplicaConfig,
    /// Responses awaiting their virtual completion time, by (ready time,
    /// delivery order): with several execution cores a finished reply
    /// must not wait behind a scan still running on another core.
    resp_q: BTreeMap<(Time, u64), (MsgId, NodeId, u32)>,
    resp_seq: u64,
}

impl<S: Service> SmrReplica<S> {
    /// Creates a replica wrapping the given ring learner, learner
    /// `log_index` of the ring configuration. The replica's partition
    /// and peers come from `inner`'s configuration.
    pub fn new(inner: MRingProcess, log_index: usize, service: S, rcfg: ReplicaConfig) -> Self {
        let cfg = inner.config();
        let (me, mask) = (cfg.learners[log_index], cfg.learner_mask(log_index));
        // The learners that share `mask`, in `cfg.learners` order, are the
        // replicas of this partition, which take turns answering.
        let peers: Vec<NodeId> = (0..cfg.learners.len())
            .filter(|&i| cfg.learner_mask(i) == mask)
            .map(|i| cfg.learners[i])
            .collect();
        let index = peers.iter().position(|&p| p == me).expect("a replica is one of its peers");
        let seat = Seat { index, of: peers.len() };
        let exec = Executor::new(service, rcfg.exec_cores.clone(), mask, rcfg.dispatch, seat);
        SmrReplica {
            inner,
            delivered: Vec::new(),
            mask,
            exec,
            rcfg,
            resp_q: BTreeMap::new(),
            resp_seq: 0,
        }
    }

    /// This replica's state now ("Reading a replica"). Costs a scan of
    /// the service for its digest.
    pub fn state(&self) -> ReplicaState {
        let service = self.exec.service();
        ReplicaState {
            updates: self.exec.updates_applied(),
            digest: service.digest(),
            speculated: self.exec.speculated(),
            undo_depth: service.undo_depth(),
        }
    }

    /// Speculative path: execute on Phase 2A arrival (§4.2.1).
    fn speculate(&mut self, instance: u64, batch: &Batch, ctx: &mut Ctx) {
        for (v, cmd) in batch.commands() {
            // A value the duplicate filter has passed is a retried copy
            // of a command this replica has delivered: the learner will
            // drop it, and no confirmation will ever pop it.
            if v.mask & self.mask == 0 || self.inner.has_delivered(v) {
                continue;
            }
            let cmd = StoredCommand::of(cmd);
            if let Some(booked) = self.exec.speculate(v.id, instance, cmd, ctx.now()) {
                charge(&booked, ctx);
                ctx.counter_add(SMR_SPEC_EXEC, 1);
            }
        }
    }

    /// Processes the commands the learner has delivered, in the decided
    /// order, then retires the speculations the deliveries left stale.
    fn drain(&mut self, ctx: &mut Ctx) {
        let mut delivered = std::mem::take(&mut self.delivered);
        delivered.extend(self.inner.take_delivered());
        for batch in delivered.drain(..) {
            for (v, cmd) in batch.commands() {
                self.confirm(v.id, cmd, ctx);
            }
        }
        self.delivered = delivered;
        let swept = self.exec.delivered(self.inner.next_deliver().0);
        if swept.stale > 0 {
            ctx.counter_add(SMR_SPEC_STALE, swept.stale as u64);
            ctx.counter_add(SMR_ROLLBACKS, swept.rolled_back as u64);
        }
    }

    fn confirm(&mut self, id: MsgId, cmd: &Command, ctx: &mut Ctx) {
        let (booked, client, reply_bytes) = match self.exec.release(id, ctx.now()) {
            Some(Released { booked, client, reply_bytes }) => (booked, client, reply_bytes),
            None => {
                let cmd = StoredCommand::of(cmd);
                let booked = self.exec.confirm(id, cmd, ctx.now());
                (booked, cmd.client, cmd.reply_bytes)
            }
        };
        if booked.rolled_back > 0 {
            ctx.counter_add(SMR_ROLLBACKS, booked.rolled_back as u64);
        }
        charge(&booked, ctx);
        let done = booked.done;
        if booked.answers {
            self.resp_q.insert((done, self.resp_seq), (id, client, reply_bytes));
            self.resp_seq += 1;
            // A reply ready now leaves with this call's `flush_responses`.
            if done > ctx.now() {
                ctx.set_timer(done.since(ctx.now()), TimerToken(T_RESP));
            }
        }
    }

    fn flush_responses(&mut self, ctx: &mut Ctx) {
        while let Some(e) = self.resp_q.first_entry() {
            if e.key().0 > ctx.now() {
                break;
            }
            let (id, client, bytes) = e.remove();
            ctx.charge_cpu(self.rcfg.resp_core, self.rcfg.marshal);
            // The lowest partition of the mask: 0 when not partitioned.
            let partition = self.mask.trailing_zeros();
            ctx.udp_send(client, SmrResponse { id, partition }, bytes);
        }
    }
}

/// Books each part of an execution on the core that ran it, and counts
/// a read that ran in parts.
fn charge(booked: &Booked, ctx: &mut Ctx) {
    for &(core, cost) in &booked.parts {
        ctx.charge_cpu(core, cost);
    }
    if booked.parts.len() > 1 {
        ctx.counter_add(SMR_SPLIT_READS, 1);
    }
}

impl<S: Service> Actor for SmrReplica<S> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if self.rcfg.speculative {
            if let Some(MMsg::Phase2a { instance, batch, .. }) = env.payload.downcast_ref::<MMsg>()
            {
                self.speculate(instance.0, batch, ctx);
            }
        }
        self.inner.on_message(env, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 & KIND_MASK == T_RESP {
            return self.flush_responses(ctx);
        }
        self.inner.on_timer(token, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }
}
