//! Dispatch layer: the event vocabulary and the actor run loop.
//!
//! # Layer boundary
//!
//! This module owns [`EventKind`], the per-event handlers that bridge
//! engine state to actor callbacks (`host_arrive`, `deliver_prework`), and
//! the [`Sim`] run loop (`run_until` / `step`). It is the only layer that
//! touches actors. Every `step` pops the smallest `(time, seq)` key and
//! dispatches it — one event, one handler, one actor callback at most.

use crate::ids::{NodeId, TimerToken};
use crate::sim::{Actor, Ctx, Envelope, Sim, SimInner, Transport};
use crate::stats::mid;
use crate::time::Time;

/// Index of a queued [`Envelope`] in the envelope slab. Only this
/// 4-byte handle moves between the `HostArrive` and `Deliver` queue
/// entries.
pub(crate) type EnvId = u32;

#[derive(Debug)]
pub(crate) enum EventKind {
    /// Datagram reached the destination host NIC (after its downlink).
    HostArrive(EnvId),
    /// Datagram finished receive processing; hand to the actor.
    Deliver(EnvId),
    /// Actor timer.
    Timer { node: NodeId, token: TimerToken },
    /// TCP acknowledgement returned to the sender; frees window space.
    /// `seq` is the channel's delivery sequence number, so duplicate or
    /// late acks are detected instead of silently skewing `in_flight`;
    /// `epoch` is the channel incarnation that sent the segment, so acks
    /// from before a crash-reset cannot corrupt the reset channel.
    TcpAck { src: NodeId, dst: NodeId, bytes: u32, seq: u64, epoch: u32 },
    /// A disk write issued by `node` completed.
    DiskDone { node: NodeId, token: TimerToken },
}

impl SimInner {
    /// Datagram reached the destination host NIC: socket-buffer check,
    /// receive-cost charge, and the push of the `Deliver` completion.
    /// The envelope body never moves — only its slab index travels into
    /// the `Deliver` event. Kept `#[inline]` (with `deliver_prework`) so
    /// the UDP datagram sequence compiles to one straight-line path
    /// through the run loop, per the `simcore` criterion group.
    #[inline]
    pub(crate) fn host_arrive(&mut self, id: EnvId) {
        let env = self.envs.get(id);
        let (dst, wire_bytes, transport) = (env.dst, env.wire_bytes, env.transport);
        if !self.node(dst).up {
            drop(self.envs.take(id));
            return;
        }
        if transport != Transport::Tcp {
            let n = self.node(dst);
            let cap = if n.udp_socket_buffer > 0 {
                n.udp_socket_buffer
            } else {
                self.config.udp_socket_buffer
            };
            if n.socket_used + wire_bytes as u64 > cap as u64 {
                self.metrics.add_id(dst, mid::NET_SOCKET_DROP, 1);
                self.metrics.add_id(dst, mid::NET_SOCKET_DROP_BYTES, wire_bytes as u64);
                drop(self.envs.take(id));
                return;
            }
            self.node_mut(dst).socket_used += wire_bytes as u64;
        }
        let cost = self.config.recv_cost(wire_bytes);
        let now = self.now;
        let done = self.charge_core(dst, 0, now, cost);
        self.schedule(done, EventKind::Deliver(id));
    }

    /// Engine work of a delivery — socket drain, receive metrics, TCP
    /// ack generation — run before the actor sees the envelope. Returns
    /// whether the envelope should reach the actor (`false`: the node is
    /// down).
    #[inline]
    pub(crate) fn deliver_prework(&mut self, env: &Envelope) -> bool {
        let dst = env.dst;
        if env.transport != Transport::Tcp {
            let n = self.node_mut(dst);
            n.socket_used = n.socket_used.saturating_sub(env.wire_bytes as u64);
        }
        if !self.node(dst).up {
            return false;
        }
        self.metrics.add_id(dst, mid::NET_RECV_BYTES, env.wire_bytes as u64);
        self.metrics.add_id(dst, mid::NET_RECV_PKTS, 1);
        if self.probe_on(crate::probe::category::NET) {
            let arg = ((env.src.0 as u64) << 32) | env.wire_bytes as u64;
            self.probe_record(dst, crate::probe::code::NET_RECV, arg);
        }
        if env.transport == Transport::Tcp {
            match self.tcp_slot(env.src, dst) {
                Some(slot) if env.tcp_epoch == self.tcp[slot].epoch => {
                    let ch = &mut self.tcp[slot];
                    let seg = ch.delivered_segs;
                    ch.delivered_segs += 1;
                    let epoch = ch.epoch;
                    let ack_at = self.now + self.config.one_way_latency;
                    let (src, bytes) = (env.src, env.wire_bytes);
                    self.schedule(ack_at, EventKind::TcpAck { src, dst, bytes, seq: seg, epoch });
                }
                // Orphan segment: it was in flight across a crash-reset
                // of its channel, so its bytes were already written off
                // at the sender (or no channel was ever created for the
                // pair — engine misuse, kept visible the same way).
                // Fabricating an ack here corrupts the reset channel's
                // seq stream and costs an event; the data still reaches
                // the actor, like a segment that raced a RST.
                _ => self.metrics.add_id(dst, mid::NET_TCP_ORPHAN_SEG, 1),
            }
        }
        true
    }
}

impl Sim {
    /// Runs the simulation until `deadline` (inclusive). Events scheduled
    /// after the deadline remain queued; virtual time advances to the
    /// deadline even if the queue drains first.
    pub fn run_until(&mut self, deadline: Time) {
        self.ensure_started();
        while self.step(deadline) {}
        self.inner.now = self.inner.now.max(deadline);
    }

    /// Runs until the event queue is empty (useful for tests).
    pub fn run_to_idle(&mut self) {
        self.ensure_started();
        while self.step(Time::MAX) {}
    }

    /// Pops and dispatches the next due event. Returns `false` once
    /// nothing at or before `deadline` remains.
    #[inline]
    fn step(&mut self, deadline: Time) -> bool {
        let Some((time, kind)) = self.inner.queue.pop_due(deadline) else { return false };
        self.inner.now = time;
        self.inner.events += 1;
        self.dispatch(kind);
        true
    }

    /// Runs `f` on `node`'s actor with a [`Ctx`] at the current time.
    #[inline]
    fn with_actor(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Actor, &mut Ctx)) {
        if let Some(mut actor) = self.actors[node.0].take() {
            let mut ctx = Ctx::new(node, &mut self.inner);
            f(actor.as_mut(), &mut ctx);
            self.actors[node.0] = Some(actor);
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::HostArrive(id) => self.inner.host_arrive(id),
            EventKind::Deliver(id) => {
                let env = self.inner.envs.take(id);
                if self.inner.deliver_prework(&env) {
                    self.inner.deliveries += 1;
                    self.with_actor(env.dst, |actor, ctx| actor.on_message(&env, ctx));
                }
            }
            EventKind::Timer { node, token } => {
                if !self.inner.node(node).up {
                    return;
                }
                if self.inner.probe_on(crate::probe::category::HOST) {
                    self.inner.probe_record(node, crate::probe::code::HOST_TIMER, token.0);
                }
                self.with_actor(node, |actor, ctx| actor.on_timer(token, ctx));
            }
            EventKind::TcpAck { src, dst, bytes, seq, epoch } => {
                if let Some(slot) = self.inner.tcp_slot(src, dst) {
                    let ch = &mut self.inner.tcp[slot];
                    if epoch != ch.epoch {
                        // Ack from before a crash-reset: the bytes it
                        // acknowledges were already written off.
                        self.inner.metrics.add_id(src, mid::NET_TCP_STALE_ACK, 1);
                        return;
                    }
                    if seq != ch.acked_segs {
                        // Duplicate or late ack: ignoring it keeps
                        // `in_flight` exact (subtracting again would
                        // drive it negative / stall the window).
                        self.inner.metrics.add_id(src, mid::NET_TCP_DUP_ACK, 1);
                        return;
                    }
                    ch.acked_segs += 1;
                    if ch.in_flight >= bytes {
                        ch.in_flight -= bytes;
                    } else {
                        // The segment crossed a crash-reset (it was in the
                        // receive pipeline when the node bounced): its
                        // bytes were already written off by the reset.
                        ch.in_flight = 0;
                        self.inner.metrics.add_id(src, mid::NET_TCP_STALE_ACK, 1);
                    }
                }
                self.inner.tcp_pump(src, dst);
            }
            EventKind::DiskDone { node, token } => {
                if !self.inner.node(node).up {
                    return;
                }
                if self.inner.probe_on(crate::probe::category::HOST) {
                    self.inner.probe_record(node, crate::probe::code::HOST_DISK, token.0);
                }
                self.with_actor(node, |actor, ctx| actor.on_timer(token, ctx));
            }
        }
    }

    pub(crate) fn start_actor(&mut self, node: NodeId) {
        if self.started[node.0] {
            return;
        }
        self.started[node.0] = true;
        self.with_actor(node, |actor, ctx| actor.on_start(ctx));
    }

    pub(crate) fn ensure_started(&mut self) {
        for i in 0..self.actors.len() {
            if self.inner.node(NodeId(i)).up {
                self.start_actor(NodeId(i));
            }
        }
    }
}
