//! The B⁺-tree service's [`SessionDriver`]: the service-specific half
//! of a [`workload::SessionTable`], carrying the keyed command
//! generator, the command registry, partition pre-splitting (§4.2.2),
//! and sticky leader re-lookup across ring members.
//!
//! This is the mass-session counterpart of [`crate::client::SmrClient`]:
//! the same submission path (registry entry + `MMsg::Propose` + per-
//! partition reply counting), but with per-request state held by the
//! table's slab instead of a dedicated actor per client.

use std::collections::HashMap;

use abcast::MsgId;
use btree::{Partitioning, TreeCommand};
use ringpaxos::msg::MMsg;
use ringpaxos::value::Value;
use simnet::prelude::*;
use workload::{rotation_pick, KeyedWorkload, SessionDriver};

use crate::msg::SmrResponse;
use crate::service::{Registry, StoredCommand};

/// Drives B⁺-tree commands from a session table through the ordering
/// layer to the replicated service.
pub struct TreeSessionDriver {
    me: NodeId,
    /// Deployment-time ring coordinator (rotation cursor 0).
    coordinator: NodeId,
    /// Full ring membership, for failover retry rotation.
    members: Vec<NodeId>,
    /// Sticky submission cursor: advanced on every blown deadline and
    /// kept on success, so after a coordinator failover new requests go
    /// straight to a live member (see [`rotation_pick`]).
    cursor: usize,
    registry: Registry<TreeCommand>,
    workload: KeyedWorkload,
    partitioning: Option<Partitioning>,
    /// Per-request `(replies still expected, proposal seq)`: a pre-split
    /// cross-partition command answers once per involved partition.
    expected: HashMap<MsgId, (u32, u64)>,
    /// Next proposal sequence. Learner-side duplicate detection keeps a
    /// contiguous-sequence watermark per proposer, so proposals must be
    /// stamped with this counter — the slot/generation request id is
    /// *not* contiguous and would blow the tracker's overflow window.
    next_seq: u64,
}

impl TreeSessionDriver {
    /// Creates a driver submitting from node `me`.
    pub fn new(
        me: NodeId,
        coordinator: NodeId,
        members: Vec<NodeId>,
        registry: Registry<TreeCommand>,
        workload: KeyedWorkload,
        partitioning: Option<Partitioning>,
    ) -> TreeSessionDriver {
        TreeSessionDriver {
            me,
            coordinator,
            members,
            cursor: 0,
            registry,
            workload,
            partitioning,
            expected: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Requests awaiting replies (final-state inspection).
    pub fn outstanding(&self) -> usize {
        self.expected.len()
    }

    fn propose(&self, id: MsgId, seq: u64, mask: u32, bytes: u32, ctx: &mut Ctx) {
        let v = Value { id, proposer: self.me, seq, bytes, submitted: ctx.now(), mask };
        let dst = rotation_pick(self.coordinator, &self.members, self.cursor);
        ctx.udp_send(dst, MMsg::Propose(v), bytes);
    }
}

impl SessionDriver for TreeSessionDriver {
    fn submit(&mut self, id: MsgId, ctx: &mut Ctx) {
        let raw_ops = self.workload.next_command(ctx.rng());
        let kind = self.workload.kind();
        let (cmd, replies) =
            StoredCommand::pre_split(raw_ops, self.partitioning, self.me, kind.reply_bytes());
        let mask = cmd.mask;
        self.registry.put(id, cmd);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.expected.insert(id, (replies, seq));
        self.propose(id, seq, mask, kind.command_bytes(), ctx);
    }

    fn resubmit(&mut self, id: MsgId, _attempt: u32, ctx: &mut Ctx) {
        // Rotate the submission point before re-proposing: leader
        // re-lookup after a coordinator failover. The registry keeps the
        // command payload, so only the (id, seq, mask) proposal is
        // re-sent — under the *original* seq, so a late delivery of the
        // first copy dedups the retry instead of double-executing.
        self.cursor += 1;
        let Some(&(_, seq)) = self.expected.get(&id) else { return };
        let Some(cmd) = self.registry.get(id) else { return };
        self.propose(id, seq, cmd.mask, self.workload.kind().command_bytes(), ctx);
    }

    fn on_response(&mut self, env: &Envelope, _ctx: &mut Ctx) -> Option<MsgId> {
        let &SmrResponse { id, .. } = env.payload.downcast_ref::<SmrResponse>()?;
        let (remaining, _) = self.expected.get_mut(&id)?;
        *remaining = remaining.saturating_sub(1);
        if *remaining > 0 {
            return None;
        }
        self.expected.remove(&id);
        Some(id)
    }

    fn finish(&mut self, id: MsgId) {
        self.expected.remove(&id);
        self.registry.finish(id);
    }
}
