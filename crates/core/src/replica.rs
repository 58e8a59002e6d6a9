//! The SMR replica: an M-Ring Paxos learner feeding a deterministic
//! service, with optional speculative execution (§4.2.1).
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
//! time by two rules — an update starts after every earlier read and
//! write has ended; a read starts after the last earlier write has ended,
//! on the least-loaded core. Conflicts are judged on the whole tree: the
//! traffic is pure reads or pure updates, so key-range tracking would
//! change no schedule. This actor only books the charges the executor
//! returns and sends each reply when it is ready.
//!
//! # Speculation
//!
//! A speculative replica executes a command when its Phase 2A payload
//! *arrives*, before the decision confirms its order. The response is
//! released once both the execution has finished and the order is
//! confirmed — `max(Δe, Δo)` instead of `Δe + Δo` (§4.2.1). If the
//! confirmed order disagrees with the arrival order (coordinator
//! replacement), the speculated updates are rolled back through the
//! service's undo log and re-executed in the confirmed order.

use std::collections::BTreeMap;

use abcast::{MsgId, SharedLog};
use ringpaxos::mring::MRingProcess;
use ringpaxos::msg::MMsg;
use ringpaxos::value::ALL_PARTITIONS;
use simnet::prelude::*;

use crate::exec::{Booked, Executor};
use crate::msg::SmrResponse;
use crate::service::{Registry, Service};

/// Latency samples recorded at clients.
pub const SMR_LATENCY: &str = "smr.latency";
/// Commands completed (all expected replies received), per client.
pub const SMR_COMPLETED: &str = "smr.completed";
/// Commands executed speculatively, per replica.
pub const SMR_SPEC_EXEC: &str = "smr.spec_exec";
/// Updates rolled back after a speculation mis-order, per replica.
pub const SMR_ROLLBACKS: &str = "smr.rollbacks";

const T_RESP: u64 = 40 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Per-replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// This replica's partition (0 when unpartitioned).
    pub partition: u32,
    /// Partition mask (`ALL_PARTITIONS` when unpartitioned).
    pub mask: u32,
    /// The replicas of this partition, in a fixed order shared by all —
    /// determines which replica answers which command.
    pub peers: Vec<NodeId>,
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
            partition: 0,
            mask: ALL_PARTITIONS,
            peers: Vec::new(),
            speculative: false,
            exec_cores: vec![1],
            resp_core: 2,
            dispatch: Dur::micros(10),
            marshal: Dur::micros(4),
        }
    }
}

/// A state-machine-replication replica over service `S`.
pub struct SmrReplica<S: Service> {
    inner: MRingProcess,
    log: SharedLog,
    log_index: usize,
    cursor: usize,
    /// Newly delivered ids copied out of the shared log (reused buffer).
    fresh: Vec<MsgId>,
    me: NodeId,
    exec: Executor<S>,
    registry: Registry<S::Command>,
    rcfg: ReplicaConfig,
    /// Responses awaiting their virtual completion time, by (ready time,
    /// delivery order): with several execution cores a finished reply
    /// must not wait behind a scan still running on another core.
    resp_q: BTreeMap<(Time, u64), (MsgId, NodeId, u32)>,
    resp_seq: u64,
}

impl<S: Service> SmrReplica<S> {
    /// Creates a replica wrapping the given ring learner. `log` must be
    /// the same delivery log handed to `inner`, and `log_index` the
    /// learner index of this node in the ring configuration.
    pub fn new(
        inner: MRingProcess,
        log: SharedLog,
        log_index: usize,
        me: NodeId,
        service: S,
        registry: Registry<S::Command>,
        rcfg: ReplicaConfig,
    ) -> SmrReplica<S> {
        let exec = Executor::new(service, rcfg.exec_cores.clone(), rcfg.mask, rcfg.dispatch);
        SmrReplica {
            inner,
            log,
            log_index,
            cursor: 0,
            fresh: Vec::new(),
            me,
            exec,
            registry,
            rcfg,
            resp_q: BTreeMap::new(),
            resp_seq: 0,
        }
    }

    /// Whether this replica answers command `id` (one replica per
    /// partition responds, chosen deterministically — §4.4.2).
    fn is_designated(&self, id: MsgId) -> bool {
        if self.rcfg.peers.is_empty() {
            return true;
        }
        let idx = (id.0 as usize) % self.rcfg.peers.len();
        self.rcfg.peers[idx] == self.me
    }

    /// Speculative path: execute on Phase 2A arrival (§4.2.1).
    fn speculate(&mut self, batch: &ringpaxos::Batch, ctx: &mut Ctx) {
        for v in batch.iter() {
            if v.mask & self.rcfg.mask == 0 {
                continue;
            }
            let Some(cmd) = self.registry.get(v.id) else { continue };
            let designated = self.is_designated(v.id);
            if let Some(b) = self.exec.speculate(v.id, &cmd, designated, ctx.now()) {
                ctx.charge_cpu(b.core, b.cost);
                ctx.counter_add(SMR_SPEC_EXEC, 1);
            }
        }
    }

    /// Processes newly confirmed (ordered) commands from the ring log.
    fn drain(&mut self, ctx: &mut Ctx) {
        let mut fresh = std::mem::take(&mut self.fresh);
        {
            let log = self.log.lock().expect("delivery log poisoned");
            fresh.extend_from_slice(&log.sequence(self.log_index)[self.cursor..]);
        }
        self.cursor += fresh.len();
        for id in fresh.drain(..) {
            self.confirm(id, ctx);
        }
        self.fresh = fresh;
    }

    fn confirm(&mut self, id: MsgId, ctx: &mut Ctx) {
        let Some(cmd) = self.registry.get(id) else { return };
        let designated = self.is_designated(id);
        let Booked { core, cost, done, rolled_back } =
            self.exec.confirm(id, &cmd, designated, ctx.now());
        if rolled_back > 0 {
            ctx.counter_add(SMR_ROLLBACKS, rolled_back as u64);
        }
        if cost > Dur::ZERO {
            ctx.charge_cpu(core, cost);
        }
        if designated {
            self.resp_q.insert((done, self.resp_seq), (id, cmd.client, cmd.reply_bytes));
            self.resp_seq += 1;
            ctx.set_timer(done.saturating_since(ctx.now()), TimerToken(T_RESP));
        }
    }

    fn flush_responses(&mut self, ctx: &mut Ctx) {
        while let Some(e) = self.resp_q.first_entry() {
            if e.key().0 > ctx.now() {
                break;
            }
            let (id, client, bytes) = e.remove();
            ctx.charge_cpu(self.rcfg.resp_core, self.rcfg.marshal);
            let partition = self.rcfg.partition;
            ctx.udp_send(client, SmrResponse { id, partition }, bytes);
        }
    }
}

impl<S: Service> Actor for SmrReplica<S> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if self.rcfg.speculative {
            if let Some(MMsg::Phase2a { batch, .. }) = env.payload.downcast_ref::<MMsg>() {
                let batch = batch.clone();
                self.speculate(&batch, ctx);
            }
        }
        self.inner.on_message(env, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 & KIND_MASK == T_RESP {
            self.flush_responses(ctx);
            return;
        }
        self.inner.on_timer(token, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }
}
