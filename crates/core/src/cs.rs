//! The non-replicated client-server baseline (the "CS" curves of
//! Figs. 4.1/4.3/4.4): clients talk straight to one stand-alone server,
//! no ordering layer, no replication.

use std::collections::VecDeque;

use abcast::MsgId;
use simnet::prelude::*;

use crate::msg::{CsRequest, SmrResponse};
use crate::service::{Service, StoredCommand};

const T_RESP: u64 = 40 << 56;

/// A stand-alone (non-replicated) server over service `S`.
pub struct CsServer<S: Service> {
    service: S,
    /// Fixed per-request server overhead (parse, dispatch, socket work
    /// beyond the modelled network stack).
    request_overhead: Dur,
    /// Response marshalling cost.
    marshal: Dur,
    exec_core: usize,
    resp_core: usize,
    resp_q: VecDeque<(Time, MsgId, NodeId, u32)>,
}

impl<S: Service> CsServer<S> {
    /// Creates a server.
    pub fn new(service: S) -> CsServer<S> {
        CsServer {
            service,
            request_overhead: Dur::micros(12),
            marshal: Dur::micros(4),
            exec_core: 1,
            resp_core: 2,
            resp_q: VecDeque::new(),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx) {
        while let Some(&(at, id, client, bytes)) = self.resp_q.front() {
            if at > ctx.now() {
                break;
            }
            self.resp_q.pop_front();
            ctx.charge_cpu(self.resp_core, self.marshal);
            ctx.udp_send(client, SmrResponse { id, partition: 0 }, bytes);
        }
    }
}

impl<S: Service> Actor for CsServer<S> {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(CsRequest { id, cmd }) = env.payload.downcast_ref::<CsRequest>() {
            let (id, cmd) = (*id, StoredCommand::<S::Command>::of(cmd));
            let mut cost = self.request_overhead;
            let mut updates = 0;
            for (_, op) in &cmd.ops {
                cost += self.service.execute(op);
                updates += usize::from(S::is_update(op));
            }
            self.service.commit(updates);
            ctx.charge_cpu(self.exec_core, cost);
            let done = ctx.core_free_at(self.exec_core);
            self.resp_q.push_back((done, id, cmd.client, cmd.reply_bytes));
            ctx.set_timer(done.saturating_since(ctx.now()), TimerToken(T_RESP));
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        self.flush(ctx);
    }
}
