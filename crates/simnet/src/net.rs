//! Network layer: the datagram pipeline (send CPU → uplink → switch
//! egress → socket buffer), IP-multicast fan-out, and TCP channels.
//!
//! # Layer boundary
//!
//! This module owns everything between two nodes' sockets: link
//! serialization clocks, switch-port tail drops, loss injection, and the
//! reliable-channel state machine. It consumes the `host` layer's
//! resource clocks and produces `HostArrive`/`TcpAck` events for the
//! `dispatch` layer; it never touches actors.
//!
//! The switch books a destination's egress port when a datagram is
//! *sent* (`downlink_free.max(arrive_at_switch) + tx`, in send order),
//! not when it reaches the switch — ROADMAP item 7 records what that
//! costs in fidelity and what arrival-order booking would read.

use std::collections::VecDeque;

use rand::Rng;

use crate::dispatch::EventKind;
use crate::ids::{GroupId, NodeId};
use crate::payload::Payload;
use crate::sim::{Envelope, SimInner, Transport};
use crate::stats::mid;
use crate::time::{Dur, Time};

/// The costs of one datagram, from the [`crate::config::SimConfig`]
/// formulas. Computed once per send and shared by every destination of
/// its fan-out.
#[derive(Clone, Copy)]
pub(crate) struct SizeCosts {
    /// CPU cost of the send system call.
    pub(crate) send: Dur,
    /// Link serialization time.
    pub(crate) tx: Dur,
    /// Bytes occupying the wire.
    pub(crate) wire: u64,
}

/// One directed TCP channel: the sender's unsent queue and window
/// accounting, and the receiver's delivery sequence.
#[derive(Default)]
pub(crate) struct TcpChannel {
    pub(crate) in_flight: u32,
    pub(crate) queue: VecDeque<(Payload, u32)>,
    pub(crate) queued_bytes: u64,
    /// Next ack sequence the sender expects. Acks are generated in
    /// delivery order, so anything else is a duplicate/late ack and is
    /// dropped instead of being subtracted from `in_flight` again.
    pub(crate) acked_segs: u64,
    /// Segments delivered to the receiver so far; stamps each ack.
    pub(crate) delivered_segs: u64,
    /// Channel incarnation, bumped when either endpoint crashes. Acks
    /// in flight across a crash carry the old epoch and are discarded —
    /// the bytes they acknowledge were already written off by the reset,
    /// so subtracting them again would drive `in_flight` negative.
    pub(crate) epoch: u32,
}

impl SimInner {
    /// The costs of a datagram of `bytes` payload.
    fn costs_for(&self, bytes: u32) -> SizeCosts {
        SizeCosts {
            send: self.config.send_cost(bytes),
            tx: self.config.tx_time(bytes),
            wire: self.config.wire_bytes(bytes),
        }
    }

    /// Sends a datagram: charges the sender CPU and uplink, then fans out
    /// to each destination's downlink. `tcp_epoch` stamps TCP segments
    /// with their channel incarnation (0 for datagram transports).
    pub(crate) fn datagram(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        payload: Payload,
        bytes: u32,
        transport: Transport,
        tcp_epoch: u32,
    ) {
        if !self.node(src).up {
            return;
        }
        let costs = self.costs_for(bytes);
        let now = self.now;
        let cpu_done = self.charge_core(src, 0, now, costs.send);
        let up = self.node_mut(src);
        let up_done = up.uplink_free.max(cpu_done) + costs.tx;
        up.uplink_free = up_done;
        self.metrics.add_id(src, mid::NET_SENT_BYTES, bytes as u64);
        self.metrics.add_id(src, mid::NET_SENT_PKTS, 1);
        if self.probe_on(crate::probe::category::NET) {
            let arg = ((dsts.len() as u64) << 32) | bytes as u64;
            self.probe_record(src, crate::probe::code::NET_SEND, arg);
        }
        // The last destination takes ownership of the caller's payload
        // handle: the clone-per-destination refcount bump only runs for
        // true multicast fan-out, never on the unicast fast path.
        let Some((&last, rest)) = dsts.split_last() else { return };
        for &dst in rest {
            self.downlink(src, dst, payload.clone(), bytes, transport, up_done, costs, tcp_epoch);
        }
        self.downlink(src, last, payload, bytes, transport, up_done, costs, tcp_epoch);
    }

    #[allow(clippy::too_many_arguments)]
    fn downlink(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: Payload,
        bytes: u32,
        transport: Transport,
        arrive_at_switch: Time,
        costs: SizeCosts,
        tcp_epoch: u32,
    ) {
        if !self.node(dst).up {
            self.metrics.add_id(dst, mid::NET_DOWN_DROP, bytes as u64);
            return;
        }
        // A cut link (fault injection) drops every transport crossing
        // it, TCP segments and acks included — partitions must starve
        // reliable channels too ([`crate::sim::Sim::set_link_cut`]).
        if self.link_is_cut(src, dst) {
            self.metrics.add_id(dst, mid::NET_PART_DROP, 1);
            return;
        }
        let mut reorder_hold = Dur::ZERO;
        let mut duplicate = false;
        if transport != Transport::Tcp {
            // Fault-injection draws come from the *source* node's RNG
            // stream, so each node's draw sequence is a function of its
            // own send order.
            let p_loss = self.config.random_loss;
            if p_loss > 0.0 && self.rng_for(src).gen::<f64>() < p_loss {
                self.metrics.add_id(dst, mid::NET_RAND_DROP, 1);
                return;
            }
            // Switch egress port buffer (tail drop).
            let backlog = self.node(dst).downlink_free.saturating_since(arrive_at_switch);
            let queued = self.config.backlog_bytes(backlog);
            if queued + costs.wire > self.config.switch_port_buffer as u64 {
                self.metrics.add_id(dst, mid::NET_SWITCH_DROP, 1);
                self.metrics.add_id(dst, mid::NET_SWITCH_DROP_BYTES, bytes as u64);
                return;
            }
            let p_re = self.config.random_reorder;
            if p_re > 0.0 && self.rng_for(src).gen::<f64>() < p_re {
                // Hold this copy back a few extra latencies so traffic
                // sent after it arrives first.
                let hold = self.rng_for(src).gen_range(1..5u32);
                reorder_hold = self.config.one_way_latency * hold as u64;
                self.metrics.add_id(dst, mid::NET_REORDERED, 1);
            }
            let p_dup = self.config.random_duplication;
            duplicate = p_dup > 0.0 && self.rng_for(src).gen::<f64>() < p_dup;
        }
        let latency = self.config.one_way_latency;
        let down = self.node_mut(dst);
        let done = down.downlink_free.max(arrive_at_switch) + costs.tx;
        down.downlink_free = done;
        let at_host = done + latency + reorder_hold;
        let dup_payload = if duplicate {
            self.metrics.add_id(dst, mid::NET_DUPLICATED, 1);
            Some(payload.clone())
        } else {
            None
        };
        let env = Envelope { src, dst, payload, wire_bytes: bytes, transport, tcp_epoch };
        self.file_arrival(at_host, env);
        if let Some(p) = dup_payload {
            // The duplicate copy trails the original by one latency.
            let env = Envelope { src, dst, payload: p, wire_bytes: bytes, transport, tcp_epoch };
            self.file_arrival(at_host + latency, env);
        }
    }

    /// Files a finished datagram at its destination. The envelope is
    /// interned in the slab; only its `EnvId` moves through the
    /// `HostArrive` → `Deliver` pipeline.
    fn file_arrival(&mut self, at_host: Time, env: Envelope) {
        let id = self.envs.insert(env);
        self.schedule(at_host, EventKind::HostArrive(id));
    }

    /// Slot of the `src -> dst` channel, if one exists.
    #[inline]
    pub(crate) fn tcp_slot(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let n = self.tcp_nodes;
        if src.0 < n && dst.0 < n {
            match self.tcp_index[src.0 * n + dst.0] {
                0 => None,
                i => Some(i as usize - 1),
            }
        } else {
            None
        }
    }

    /// Slot of the `src -> dst` channel, creating it (and re-laying the
    /// dense index out if nodes were added since) as needed.
    fn tcp_slot_or_create(&mut self, src: NodeId, dst: NodeId) -> usize {
        let n = self.nodes.len();
        if n != self.tcp_nodes {
            let old_n = self.tcp_nodes;
            let mut index = vec![0u32; n * n];
            for s in 0..old_n {
                for d in 0..old_n {
                    index[s * n + d] = self.tcp_index[s * old_n + d];
                }
            }
            self.tcp_index = index;
            self.tcp_nodes = n;
        }
        let cell = self.tcp_index[src.0 * n + dst.0];
        if cell != 0 {
            return cell as usize - 1;
        }
        let slot = self.tcp.len();
        self.tcp.push(TcpChannel::default());
        self.tcp_index[src.0 * n + dst.0] = slot as u32 + 1;
        slot
    }

    pub(crate) fn tcp_pump(&mut self, src: NodeId, dst: NodeId) {
        // A crashed sender transmits nothing: popping the queue here would
        // charge `in_flight` for segments `datagram` silently discards,
        // wedging the window forever (the segment is never delivered, so
        // no ack ever returns). The queue is cleared by the crash reset.
        if !self.node(src).up {
            return;
        }
        let Some(slot) = self.tcp_slot(src, dst) else { return };
        let window = self.config.tcp_window_bytes;
        loop {
            let peer_down = !self.node(dst).up;
            let ch = &mut self.tcp[slot];
            let Some(&(_, bytes)) = ch.queue.front() else { return };
            if peer_down {
                // Segments to a down peer are written off at the sender
                // (connection-reset semantics) instead of charged to
                // `in_flight` — they would be dropped at the downlink
                // and their acks would never return.
                let (_, bytes) = ch.queue.pop_front().expect("checked front");
                ch.queued_bytes -= bytes as u64;
                self.metrics.add_id(src, mid::NET_TCP_RESET_BYTES, bytes as u64);
                continue;
            }
            if ch.in_flight.saturating_add(bytes) > window && ch.in_flight > 0 {
                return;
            }
            let (payload, bytes) = ch.queue.pop_front().expect("checked front");
            ch.queued_bytes -= bytes as u64;
            ch.in_flight += bytes;
            let epoch = ch.epoch;
            self.datagram(src, &[dst], payload, bytes, Transport::Tcp, epoch);
        }
    }

    /// Sends `payload` over the reliable channel from `src` to `dst`.
    pub fn tcp_send_from(&mut self, src: NodeId, dst: NodeId, payload: Payload, bytes: u32) {
        let slot = self.tcp_slot_or_create(src, dst);
        let ch = &mut self.tcp[slot];
        ch.queue.push_back((payload, bytes));
        ch.queued_bytes += bytes as u64;
        self.tcp_pump(src, dst);
    }

    /// Resets every TCP channel touching `node` (crash semantics): queued
    /// and in-flight segments are written off under `net.tcp_reset_bytes`
    /// on the sending node, the window reopens, and the channel epoch is
    /// bumped so acks from before the crash are discarded as stale.
    /// Without this, segments dropped at a down node's downlink never ack
    /// and the channel's window stays full forever.
    pub(crate) fn reset_tcp_of(&mut self, node: NodeId) {
        let n = self.tcp_nodes;
        for src in 0..n {
            for dst in 0..n {
                if src != node.0 && dst != node.0 {
                    continue;
                }
                self.reset_tcp_channel(NodeId(src), NodeId(dst));
            }
        }
    }

    /// Resets the TCP channels in both directions between `a` and `b` —
    /// the heal-time counterpart of [`SimInner::reset_tcp_of`], used when
    /// a cut link is restored ([`crate::sim::Sim::set_link_cut`]):
    /// segments lost inside the cut filled the window without ever
    /// acking, so the channel must be torn down and re-opened just as
    /// after a crash.
    pub(crate) fn reset_tcp_pair(&mut self, a: NodeId, b: NodeId) {
        self.reset_tcp_channel(a, b);
        self.reset_tcp_channel(b, a);
    }

    /// Resets one directed channel `src -> dst` (no-op if none exists):
    /// writes queued and in-flight bytes off at the sender, reopens the
    /// window, resynchronizes the ack expectation to the receiver's
    /// delivery sequence, and bumps the epoch.
    fn reset_tcp_channel(&mut self, src: NodeId, dst: NodeId) {
        let Some(slot) = self.tcp_slot(src, dst) else { return };
        let ch = &mut self.tcp[slot];
        let lost = ch.in_flight as u64 + ch.queued_bytes;
        ch.queue.clear();
        ch.queued_bytes = 0;
        ch.in_flight = 0;
        ch.acked_segs = ch.delivered_segs;
        ch.epoch = ch.epoch.wrapping_add(1);
        if lost > 0 {
            self.metrics.add_id(src, mid::NET_TCP_RESET_BYTES, lost);
        }
    }

    /// Bytes queued (not yet transmitted) on the TCP channel `src -> dst`.
    /// Protocols use this for application-level back-pressure.
    pub fn tcp_backlog(&self, src: NodeId, dst: NodeId) -> u64 {
        self.tcp_slot(src, dst)
            .map(|slot| {
                let ch = &self.tcp[slot];
                ch.queued_bytes + ch.in_flight as u64
            })
            .unwrap_or(0)
    }

    /// Sends a UDP datagram from `src` to `dst`.
    pub fn udp_send_from(&mut self, src: NodeId, dst: NodeId, payload: Payload, bytes: u32) {
        self.datagram(src, &[dst], payload, bytes, Transport::Udp, 0);
    }

    /// Multicasts a datagram from `src` to every subscriber of `group`.
    /// The sender pays for one transmission regardless of group size.
    /// Senders need not subscribe to the group; subscribers that are also
    /// the sender do not receive their own copy (the caller can loop back
    /// locally if the protocol requires it).
    pub fn mcast_from(&mut self, src: NodeId, group: GroupId, payload: Payload, bytes: u32) {
        let mut dsts = std::mem::take(&mut self.mcast_scratch);
        dsts.clear();
        if let Some(g) = self.groups.get(group.0) {
            dsts.extend(g.iter().copied().filter(|&n| n != src));
        }
        self.datagram(src, &dsts, payload, bytes, Transport::Multicast(group), 0);
        self.mcast_scratch = dsts;
    }
}
