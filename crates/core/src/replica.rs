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
//! time by two rules — an update starts after every earlier read and
//! write has ended; a read starts after the last earlier write has ended,
//! on the least-loaded core. Conflicts are judged on the whole tree: the
//! traffic is pure reads or pure updates, so key-range tracking would
//! change no schedule. This actor only books the charges the executor
//! returns and sends each reply when it is ready.
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
//! already delivered is not speculated, and after every drain of the
//! delivery log a queued speculation whose instance has been delivered
//! without confirming it is stale and goes ([`SMR_SPEC_STALE`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use abcast::{MsgId, SharedLog};
use ringpaxos::mring::MRingProcess;
use ringpaxos::msg::MMsg;
use ringpaxos::value::ALL_PARTITIONS;
use simnet::prelude::*;

use crate::exec::{Booked, Executor, Released};
use crate::msg::SmrResponse;
use crate::service::{Registry, Service};

/// Latency samples recorded at clients.
pub const SMR_LATENCY: &str = "smr.latency";
/// Commands completed (all expected replies received), per client.
pub const SMR_COMPLETED: &str = "smr.completed";
/// Commands executed speculatively, per replica.
pub const SMR_SPEC_EXEC: &str = "smr.spec_exec";
/// Speculated commands rolled back (a mis-order, or a stale speculation
/// with updates), per replica.
pub const SMR_ROLLBACKS: &str = "smr.rollbacks";
/// Speculations dropped because their instance was delivered without
/// confirming them, per replica.
pub const SMR_SPEC_STALE: &str = "smr.spec_stale";
/// Delivered commands a replica found no registry entry for and therefore
/// skipped, per replica. Always a defect: see [`crate::service`].
pub const SMR_REGISTRY_MISS: &str = "smr.registry_miss";

const T_RESP: u64 = 40 << 56;
const T_STATE: u64 = 42 << 56;
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

/// What a replica says of itself when asked through [`ReplicaStates`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaState {
    /// Updates applied to the service, net of rollbacks.
    pub updates: u64,
    /// [`Service::digest`] of the service state.
    pub digest: u64,
    /// Speculated executions still awaiting their order.
    pub speculated: usize,
    /// Undo records the service still holds.
    pub undo_depth: usize,
}

/// Replica state made comparable from outside the simulation: one
/// [`ReplicaState`] per replica, in delivery-log order, written by the
/// replica itself when [`ReplicaStates::read`] asks.
#[derive(Clone)]
pub struct ReplicaStates(Arc<Mutex<Vec<ReplicaState>>>);

impl ReplicaStates {
    /// A board for `n` replicas.
    pub fn new(n: usize) -> ReplicaStates {
        ReplicaStates(Arc::new(Mutex::new(vec![ReplicaState::default(); n])))
    }

    /// Has every replica in `replicas` report its state at the current
    /// instant and returns the board. Costs a scan of each service, so
    /// ask at quiescence, not inside a measured window.
    pub fn read(&self, sim: &mut Sim, replicas: &[NodeId]) -> Vec<ReplicaState> {
        for &r in replicas {
            sim.with_ctx(r, |ctx| ctx.set_timer(Dur::ZERO, TimerToken(T_STATE)));
        }
        sim.run_until(sim.now());
        self.0.lock().expect("state board poisoned").clone()
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
    states: ReplicaStates,
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
    /// learner index of this node in the ring configuration (also its
    /// row in `states`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        inner: MRingProcess,
        log: SharedLog,
        log_index: usize,
        me: NodeId,
        service: S,
        registry: Registry<S::Command>,
        states: ReplicaStates,
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
            states,
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
    fn speculate(&mut self, instance: u64, batch: &ringpaxos::Batch, ctx: &mut Ctx) {
        for v in batch.iter() {
            if v.mask & self.rcfg.mask == 0 {
                continue;
            }
            // A miss here is a retry of a command everyone is done with;
            // the learner's duplicate filter will drop it too.
            let Some(cmd) = self.registry.get(v.id) else { continue };
            let designated = self.is_designated(v.id);
            if let Some(b) = self.exec.speculate(v.id, instance, &cmd, designated, ctx.now()) {
                ctx.charge_cpu(b.core, b.cost);
                ctx.counter_add(SMR_SPEC_EXEC, 1);
            }
        }
    }

    /// Processes newly confirmed (ordered) commands from the ring log,
    /// then retires the speculations the deliveries left stale.
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
        let swept = self.exec.delivered(self.inner.next_deliver().0);
        if swept.stale > 0 {
            ctx.counter_add(SMR_SPEC_STALE, swept.stale as u64);
            ctx.counter_add(SMR_ROLLBACKS, swept.rolled_back as u64);
        }
    }

    fn confirm(&mut self, id: MsgId, ctx: &mut Ctx) {
        let designated = self.is_designated(id);
        let (booked, client, reply_bytes) = match self.exec.release(id, ctx.now()) {
            Some(Released { booked, client, reply_bytes }) => (booked, client, reply_bytes),
            None => {
                let Some(cmd) = self.registry.get(id) else {
                    ctx.counter_add(SMR_REGISTRY_MISS, 1);
                    return;
                };
                let booked = self.exec.confirm(id, &cmd, designated, ctx.now());
                (booked, cmd.client, cmd.reply_bytes)
            }
        };
        self.registry.confirmed(id);
        let Booked { core, cost, done, rolled_back } = booked;
        if rolled_back > 0 {
            ctx.counter_add(SMR_ROLLBACKS, rolled_back as u64);
        }
        if cost > Dur::ZERO {
            ctx.charge_cpu(core, cost);
        }
        if designated {
            self.resp_q.insert((done, self.resp_seq), (id, client, reply_bytes));
            self.resp_seq += 1;
            ctx.set_timer(done.saturating_since(ctx.now()), TimerToken(T_RESP));
        }
    }

    /// Writes this replica's row of the state board.
    fn report_state(&self) {
        let service = self.exec.service();
        let state = ReplicaState {
            updates: self.exec.updates_applied(),
            digest: service.digest(),
            speculated: self.exec.speculated(),
            undo_depth: service.undo_depth(),
        };
        self.states.0.lock().expect("state board poisoned")[self.log_index] = state;
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
        match token.0 & KIND_MASK {
            T_RESP => return self.flush_responses(ctx),
            T_STATE => return self.report_state(),
            _ => {}
        }
        self.inner.on_timer(token, ctx);
        self.drain(ctx);
        self.flush_responses(ctx);
    }
}
