//! The non-replicated client-server baseline (the "CS" curves of
//! Figs. 4.1/4.3/4.4): clients talk straight to one stand-alone server,
//! no ordering layer, no replication.
//!
//! The server is a replica's B⁺-tree server without a ring
//! ([`crate::replica`]): the same [`Executor`](crate::exec::Executor) and
//! reply queue, on one execution core, seated alone and never
//! speculating. Each request is confirmed as it arrives, so the schedule
//! is one clock — a request runs at `max(arrival, previous done)` for its
//! dispatch plus its execution — and its reply leaves from the response
//! core once it is done.

use ringpaxos::value::ALL_PARTITIONS;
use simnet::prelude::*;

use crate::exec::Seat;
use crate::msg::CsRequest;
use crate::replica::Server;
use crate::service::Service;

/// Fixed per-request server overhead (parse, dispatch, socket work
/// beyond the modelled network stack), paid as the executor's dispatch.
const REQUEST_OVERHEAD: Dur = Dur::micros(12);

/// A stand-alone (non-replicated) server over service `S`.
pub struct CsServer<S: Service> {
    server: Server<S>,
}

impl<S: Service> CsServer<S> {
    /// Creates a server: execution on core 1, replies from the response
    /// core, as on a replica running the paper's two-thread server.
    pub fn new(service: S) -> CsServer<S> {
        let seat = Seat { index: 0, of: 1 };
        CsServer { server: Server::new(service, vec![1], ALL_PARTITIONS, REQUEST_OVERHEAD, seat) }
    }
}

impl<S: Service> Actor for CsServer<S> {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(CsRequest { id, cmd }) = env.payload.downcast_ref::<CsRequest>() {
            self.server.confirm(*id, cmd, ctx);
        }
        self.server.flush(ctx);
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        self.server.flush(ctx);
    }
}
