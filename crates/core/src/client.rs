//! Closed-loop clients: each client keeps exactly one command
//! outstanding, as in the paper's latency/throughput experiments.

use std::collections::HashMap;

use abcast::MsgId;
use btree::{Partitioning, TreeCommand};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ringpaxos::msg::MMsg;
use ringpaxos::value::Value;
use simnet::prelude::*;
use workload::{RetryDecision, RetryPolicy, Session, WorkloadGen};

use crate::msg::{CsRequest, SmrResponse};
use crate::replica::{SMR_COMPLETED, SMR_LATENCY};
use crate::service::{Registry, StoredCommand};

const T_RETRY: u64 = 41 << 56;

/// The retry behaviour this client has always had, expressed as a
/// [`RetryPolicy`]: resubmit a command outstanding longer than 400 ms on
/// each 500 ms check, with no backoff growth and no abandonment (the
/// paper's proposers "submit new requests and re-submit pending
/// requests", §3.5.8).
fn resubmit_policy() -> RetryPolicy {
    RetryPolicy {
        base: Dur::millis(400),
        cap: Dur::millis(400),
        tick: Dur::millis(500),
        max_attempts: u32::MAX,
    }
}

/// Where the client sends its commands.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// Directly to a stand-alone server (the CS baseline, Fig. 4.1).
    ClientServer {
        /// The server node.
        server: NodeId,
    },
    /// Through the ordering layer (state-machine replication).
    Replicated {
        /// The Ring Paxos coordinator.
        coordinator: NodeId,
    },
}

/// A closed-loop client issuing the B⁺-tree workloads.
pub struct SmrClient {
    me: NodeId,
    target: Target,
    registry: Registry<TreeCommand>,
    workload: WorkloadGen,
    rng: SmallRng,
    partitioning: Option<Partitioning>,
    /// Outstanding command and the replies still expected from partitions.
    expected: HashMap<MsgId, u32>,
    policy: RetryPolicy,
    outstanding: Option<Session>,
    next_seq: u64,
    stop_at: Option<Time>,
}

impl SmrClient {
    /// Creates a client for node `me` with its own deterministic RNG.
    pub fn new(
        me: NodeId,
        target: Target,
        registry: Registry<TreeCommand>,
        workload: WorkloadGen,
        partitioning: Option<Partitioning>,
        seed: u64,
        stop_at: Option<Time>,
    ) -> SmrClient {
        SmrClient {
            me,
            target,
            registry,
            workload,
            rng: SmallRng::seed_from_u64(seed),
            partitioning,
            expected: HashMap::new(),
            policy: resubmit_policy(),
            outstanding: None,
            next_seq: 0,
            stop_at,
        }
    }

    fn send_next(&mut self, ctx: &mut Ctx) {
        if self.stop_at.is_some_and(|t| ctx.now() >= t) {
            self.outstanding = None;
            return;
        }
        let raw_ops = self.workload.next_command(&mut self.rng);
        let kind = self.workload.kind();
        let (cmd, replies) =
            StoredCommand::pre_split(raw_ops, self.partitioning, self.me, kind.reply_bytes());
        let mask = cmd.mask;
        let id = MsgId(((self.me.0 as u64) << 40) | self.next_seq);
        self.next_seq += 1;
        self.registry.put(id, cmd);
        self.expected.insert(id, replies);
        self.outstanding = Some(Session::open(id, ctx.now(), &self.policy));
        self.submit(id, mask, kind.command_bytes(), ctx);
        ctx.counter_add("smr.submitted", 1);
    }

    fn submit(&mut self, id: MsgId, mask: u32, bytes: u32, ctx: &mut Ctx) {
        match self.target {
            Target::ClientServer { server } => {
                ctx.udp_send(server, CsRequest { id }, bytes);
            }
            Target::Replicated { coordinator } => {
                let v = Value {
                    id,
                    proposer: self.me,
                    seq: id.0 & 0xff_ffff_ffff,
                    bytes,
                    submitted: ctx.now(),
                    mask,
                };
                ctx.udp_send(coordinator, MMsg::Propose(v), bytes);
            }
        }
    }
}

impl Actor for SmrClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_next(ctx);
        ctx.set_timer(self.policy.tick, TimerToken(T_RETRY));
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(&SmrResponse { id, .. }) = env.payload.downcast_ref::<SmrResponse>() else {
            return;
        };
        let Some(remaining) = self.expected.get_mut(&id) else { return };
        *remaining = remaining.saturating_sub(1);
        if *remaining > 0 {
            return;
        }
        self.expected.remove(&id);
        self.registry.finish(id);
        if let Some(s) = self.outstanding.take() {
            if s.id == id {
                // The reply strictly follows the request; `since`
                // debug-asserts that instead of masking an inversion.
                ctx.record_latency(SMR_LATENCY, ctx.now().since(s.started));
                ctx.counter_add(SMR_COMPLETED, 1);
            }
        }
        self.send_next(ctx);
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        // Re-submit a command that has been outstanding implausibly long
        // (its proposal was dropped by an overloaded coordinator — the
        // paper's proposers "submit new requests and re-submit pending
        // requests", §3.5.8). The policy never abandons, so `poll` only
        // ever answers Wait or Resubmit here.
        let policy = self.policy;
        if let Some(s) = self.outstanding.as_mut() {
            if let RetryDecision::Resubmit { .. } = s.poll(ctx.now(), &policy) {
                let id = s.id;
                if let Some(cmd) = self.registry.get(id) {
                    ctx.counter_add("smr.retries", 1);
                    let kind = self.workload.kind();
                    self.submit(id, cmd.mask, kind.command_bytes(), ctx);
                }
            }
        } else if self.stop_at.is_none_or(|t| ctx.now() < t) && self.expected.is_empty() {
            // Closed loop stalled (should not happen): restart it.
            self.send_next(ctx);
        }
        ctx.set_timer(self.policy.tick, TimerToken(T_RETRY));
    }
}
