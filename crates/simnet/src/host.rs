//! Host layer: the per-node machine — CPU cores, NIC link clocks, socket
//! buffer occupancy, and the local disk — plus the completion events a
//! host schedules for itself (timers, pinned-core work, disk writes).
//!
//! # Layer boundary
//!
//! This module owns [`Node`] and every operation whose effects stay on
//! one node: charging CPU, arming timers, issuing disk writes. It knows
//! nothing about datagrams or TCP (the `net` layer) and nothing about
//! actors (the `dispatch` layer); it files completions through
//! [`crate::sim::SimInner::schedule`].

use crate::ids::{NodeId, TimerToken};
use crate::sim::SimInner;
use crate::stats::mid;
use crate::time::{Dur, Time};

/// One CPU core: a busy-until clock plus cumulative busy time.
pub(crate) struct Core {
    pub(crate) free_at: Time,
    pub(crate) busy: Dur,
}

/// One simulated machine. Every field is a busy-until resource clock or
/// a buffer occupancy; the actor running on the node lives in [`crate::sim::Sim`].
pub(crate) struct Node {
    pub(crate) up: bool,
    pub(crate) uplink_free: Time,
    pub(crate) downlink_free: Time,
    pub(crate) socket_used: u64,
    pub(crate) cores: Vec<Core>,
    pub(crate) disk_free: Time,
    /// Per-node overrides of cluster-wide defaults (0 = use SimConfig).
    pub(crate) udp_socket_buffer: u32,
    /// Straggler injection: every CPU cost on this node is multiplied by
    /// this factor (1.0 = healthy, the exact pre-injection arithmetic).
    pub(crate) cpu_slowdown: f64,
    /// Straggler injection for the local disk: write times are
    /// multiplied by this factor (1.0 = healthy).
    pub(crate) disk_slowdown: f64,
}

/// Scales a cost by a straggler factor. The factor-1.0 fast path keeps
/// healthy nodes on the exact integer arithmetic (golden traces).
#[inline]
pub(crate) fn scaled(cost: Dur, factor: f64) -> Dur {
    if factor == 1.0 {
        cost
    } else {
        Dur::nanos((cost.as_nanos() as f64 * factor).round() as u64)
    }
}

impl Node {
    pub(crate) fn new(cores: usize) -> Node {
        Node {
            up: true,
            uplink_free: Time::ZERO,
            downlink_free: Time::ZERO,
            socket_used: 0,
            cores: (0..cores).map(|_| Core { free_at: Time::ZERO, busy: Dur::ZERO }).collect(),
            disk_free: Time::ZERO,
            udp_socket_buffer: 0,
            cpu_slowdown: 1.0,
            disk_slowdown: 1.0,
        }
    }
}

impl SimInner {
    /// The node struct behind `id`.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to the node struct behind `id`.
    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Charges `cost` of CPU on `core` of `node` starting no earlier than
    /// `start`, returning the completion time.
    #[inline]
    pub(crate) fn charge_core(
        &mut self,
        node: NodeId,
        core: usize,
        start: Time,
        cost: Dur,
    ) -> Time {
        let n = self.node_mut(node);
        let cost = scaled(cost, n.cpu_slowdown);
        let c = &mut n.cores[core];
        let begin = c.free_at.max(start);
        c.free_at = begin + cost;
        c.busy += cost;
        c.free_at
    }

    /// Schedules `token` to fire on `node` after `delay`.
    pub fn set_timer_on(&mut self, node: NodeId, delay: Dur, token: TimerToken) {
        let at = self.now() + delay;
        self.schedule(at, crate::dispatch::EventKind::Timer { node, token });
    }

    /// Issues a disk write of `bytes` on `node`; `token` fires on the
    /// node's actor when the write is durable.
    pub fn disk_write_on(&mut self, node: NodeId, bytes: u32, token: TimerToken) {
        let t = self.config().disk_write_time(bytes);
        let now = self.now();
        let n = self.node_mut(node);
        let t = scaled(t, n.disk_slowdown);
        let done = n.disk_free.max(now) + t;
        n.disk_free = done;
        self.metrics.add_id(node, mid::DISK_WRITTEN_BYTES, bytes as u64);
        self.schedule(done, crate::dispatch::EventKind::DiskDone { node, token });
    }

    /// Outstanding work queued on `node`'s disk.
    pub fn disk_backlog_of(&self, node: NodeId) -> Dur {
        self.node(node).disk_free.saturating_since(self.now())
    }

    /// Charges CPU on a specific core of `node`, returning completion time.
    pub fn charge_cpu_on(&mut self, node: NodeId, core: usize, cost: Dur) -> Time {
        let now = self.now();
        self.charge_core(node, core, now, cost)
    }

    /// Schedules `token` to fire once `core` of `node` has executed `cost`
    /// of work (models handing a task to a pinned thread).
    pub fn run_on_core(&mut self, node: NodeId, core: usize, cost: Dur, token: TimerToken) {
        let now = self.now();
        let done = self.charge_core(node, core, now, cost);
        self.schedule(done, crate::dispatch::EventKind::Timer { node, token });
    }

    /// Earliest time `core` of `node` becomes idle.
    pub fn core_free_at(&self, node: NodeId, core: usize) -> Time {
        self.node(node).cores[core].free_at
    }

    /// Earliest time the uplink of `node` has serialized everything
    /// queued on it.
    pub fn uplink_free_at(&self, node: NodeId) -> Time {
        self.node(node).uplink_free
    }

    /// Cumulative busy time of `core` of `node`.
    pub fn cpu_busy(&self, node: NodeId, core: usize) -> Dur {
        self.node(node).cores[core].busy
    }
}
