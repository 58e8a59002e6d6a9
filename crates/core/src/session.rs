//! The B⁺-tree service's [`SessionDriver`]: the service-specific half
//! of every B⁺-tree client's [`workload::SessionTable`], carrying the
//! keyed command generator, partition pre-splitting (§4.2.2), each
//! request's command until it is answered, and where commands go
//! ([`Route`]): through
//! the ordering ring, with sticky leader re-lookup across its members,
//! or straight to the stand-alone server of the client-server baseline.
//!
//! The ch. 4 clients are closed-loop tables of one session each:
//! [`crate::deploy::deploy_smr`]'s propose to the coordinator only (a
//! rotation without members), [`crate::deploy::deploy_cs`]'s to the
//! server. The mass-session tier hosts a million open-loop sessions over
//! the same driver ([`crate::deploy::deploy_smr_sessions`]).

use std::collections::HashMap;
use std::rc::Rc;

use abcast::MsgId;
use btree::{Partitioning, TreeCommand};
use ringpaxos::msg::MMsg;
use ringpaxos::value::{Command, Value};
use simnet::prelude::*;
use workload::{KeyedWorkload, Rotation, Sent, SessionDriver};

use crate::msg::{CsRequest, SmrResponse};
use crate::service::StoredCommand;

/// Where a [`TreeSessionDriver`] sends its commands.
#[derive(Clone, Debug)]
pub enum Route {
    /// Through the ordering ring (state-machine replication): proposals
    /// go to the coordinator, or after blown deadlines to the ring
    /// member the rotation has moved to.
    Ring(Rotation),
    /// Directly to a stand-alone server (the CS baseline, Fig. 4.1).
    Server(NodeId),
}

/// A request awaiting its replies.
struct Pending {
    cmd: Rc<StoredCommand<TreeCommand>>,
    replies: u32,
    seq: u64,
    sent: Option<Sent>,
}

/// Drives B⁺-tree commands from a session table to the service.
pub struct TreeSessionDriver {
    me: NodeId,
    route: Route,
    workload: KeyedWorkload,
    partitioning: Option<Partitioning>,
    /// Per request: its command, replies still expected (a pre-split
    /// cross-partition command answers once per involved partition),
    /// proposal seq, and where it was last sent.
    expected: HashMap<MsgId, Pending>,
    /// Next proposal sequence. Learner-side duplicate detection keeps a
    /// contiguous-sequence watermark per proposer, so proposals must be
    /// stamped with this counter — the slot/generation request id is
    /// *not* contiguous and would blow the tracker's overflow window.
    next_seq: u64,
}

impl TreeSessionDriver {
    /// Creates a driver submitting from node `me` along `route`.
    pub fn new(
        me: NodeId,
        route: Route,
        workload: KeyedWorkload,
        partitioning: Option<Partitioning>,
    ) -> TreeSessionDriver {
        TreeSessionDriver {
            me,
            route,
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

    /// Sends request `id`, with its command, along the route; returns
    /// where it went on the ring (`None` for the server).
    fn send(
        &mut self,
        id: MsgId,
        seq: u64,
        cmd: &Rc<StoredCommand<TreeCommand>>,
        ctx: &mut Ctx,
    ) -> Option<Sent> {
        let bytes = self.workload.kind().command_bytes();
        let mask = cmd.mask;
        let cmd: Command = cmd.clone();
        match &mut self.route {
            Route::Ring(rotation) => {
                let v = Value { id, proposer: self.me, seq, bytes, submitted: ctx.now(), mask };
                let (dst, sent) = rotation.pick();
                ctx.udp_send(dst, MMsg::Propose(v, Some(cmd)), bytes);
                Some(sent)
            }
            Route::Server(server) => {
                ctx.udp_send(*server, CsRequest { id, cmd }, bytes);
                None
            }
        }
    }
}

impl SessionDriver for TreeSessionDriver {
    fn submit(&mut self, id: MsgId, ctx: &mut Ctx) {
        let raw_ops = self.workload.next_command(ctx.rng());
        let kind = self.workload.kind();
        let (cmd, replies) =
            StoredCommand::pre_split(raw_ops, self.partitioning, self.me, kind.reply_bytes());
        let cmd = Rc::new(cmd);
        let seq = self.next_seq;
        self.next_seq += 1;
        let sent = self.send(id, seq, &cmd, ctx);
        self.expected.insert(id, Pending { cmd, replies, seq, sent });
    }

    fn resubmit(&mut self, id: MsgId, _attempt: u32, ctx: &mut Ctx) {
        // Move the submission point past the one that failed (leader
        // re-lookup after a coordinator failover) before re-proposing
        // the command under its *original* seq, so a late delivery of
        // the first copy dedups the retry instead of double-executing.
        let Some(p) = self.expected.remove(&id) else { return };
        if let (Route::Ring(rotation), Some(sent)) = (&mut self.route, p.sent) {
            rotation.failed(sent);
        }
        let sent = self.send(id, p.seq, &p.cmd, ctx);
        self.expected.insert(id, Pending { sent, ..p });
    }

    fn on_response(&mut self, env: &Envelope, _ctx: &mut Ctx) -> Option<MsgId> {
        let &SmrResponse { id, .. } = env.payload.downcast_ref::<SmrResponse>()?;
        let p = self.expected.get_mut(&id)?;
        p.replies = p.replies.saturating_sub(1);
        if p.replies > 0 {
            return None;
        }
        if let (Route::Ring(rotation), Some(sent)) = (&mut self.route, p.sent) {
            rotation.answered(sent);
        }
        self.expected.remove(&id);
        Some(id)
    }

    fn finish(&mut self, id: MsgId) {
        self.expected.remove(&id);
    }
}
