//! The discrete-event simulation engine: core types and the control
//! plane.
//!
//! A [`Sim`] owns a cluster of nodes connected by a non-blocking gigabit
//! switch. Each node hosts one [`Actor`] (a process), a multi-core CPU, a
//! NIC with full-duplex links, finite socket buffers, and a local disk.
//!
//! # Layering
//!
//! The engine is one event queue drained on one thread, split into
//! modules with strict downward dependencies; this module holds the
//! shared vocabulary ([`Envelope`], [`Actor`], [`Ctx`],
//! [`Sim`]/[`SimInner`]) and the cluster control plane (construction,
//! crash injection, group membership):
//!
//! * [`crate::event_queue`] — the future event set (one binary heap).
//!   Knows nothing of the simulation.
//! * [`crate::host`] — per-node machine: CPU cores, link clocks, disk,
//!   timers. Never crosses a node boundary.
//! * [`crate::net`] — the datagram pipeline, multicast fan-out and TCP
//!   channels. Spans exactly two nodes per operation.
//! * [`crate::dispatch`] — the event vocabulary and the actor run loop:
//!   pop the smallest `(time, seq)` key, dispatch it.
//!
//! # Resource model
//!
//! Every shared resource is modelled with a *busy-until* clock: starting a
//! unit of work on a resource at time `t` completes at
//! `max(t, free_at) + cost` and advances `free_at` to the completion time.
//! A datagram sent from `a` to `b` passes through, in order:
//!
//! 1. `a`'s CPU (send system call + copy cost),
//! 2. `a`'s uplink (serialization at link bandwidth),
//! 3. the switch egress port feeding `b` (`b`'s downlink). Datagrams that
//!    would overflow the finite port buffer are tail-dropped,
//! 4. `b`'s socket buffer — dropped if the buffer is full (slow receiver),
//! 5. `b`'s CPU (per-frame receive cost), after which the actor runs.
//!
//! IP-multicast serializes once on the sender's uplink and is replicated by
//! the switch onto every subscriber's downlink, reproducing the two
//! properties the paper exploits (§3.3.1): one system call regardless of
//! the number of receivers, and no division of the sender's bandwidth.
//!
//! TCP channels are reliable, ordered, and flow-controlled by a window;
//! they never drop but instead queue at the sender.
//!
//! # Crash and recovery model
//!
//! Three failure-injection primitives with distinct semantics:
//!
//! * [`Sim::set_node_up`]`(n, false)` — crash: the node drops all
//!   traffic and runs no timers; its actor state is frozen in place.
//!   Crashing also resets every TCP channel touching the node: queued
//!   and in-flight segments are written off at their sender
//!   (`net.tcp_reset_bytes`) and the channel epoch is bumped so acks
//!   that were in flight across the crash are discarded as stale
//!   (`net.tcp_stale_ack`) — without this, a filled window would wedge
//!   the channel forever. While a node is down, new TCP sends to it are
//!   dropped at the sender (connection-reset semantics), not queued.
//! * [`Sim::restart_node`] — pause/resume (SIGSTOP/SIGCONT): the node
//!   comes back with its actor state intact and `on_start` re-runs so
//!   it can re-arm timers. Timers armed before the pause still fire, so
//!   **actors must tolerate duplicate timer chains** after a restart.
//! * [`Sim::replace_actor`] — process restart: a fresh actor is
//!   installed and all in-memory state of the old one is gone. State
//!   that must survive lives outside the actor — see the `recovery`
//!   crate's stable stores, which model the node's disk contents and
//!   are shared between successive incarnations, with write *timing*
//!   still paid through [`Ctx::disk_write`] / `DiskDone` completions.
//!
//! # Hot-path design
//!
//! Every simulated packet passes through the engine twice (host arrival,
//! delivery), so the per-event structures are all dense and index-based:
//! the future event set is one binary heap of `(time, seq, kind)` entries
//! (see [`crate::event_queue`] for why a heap: it holds a few hundred
//! events at most), TCP channels live in a per-node-pair slot table, metrics are pre-interned counters in dense
//! per-node rows ([`crate::stats`]), and multicast fan-out reuses one
//! scratch buffer. Determinism is unaffected by any of it — events
//! dispatch in exact `(time, seq)` order, `seq` being one counter bumped
//! per scheduled event, and each node draws from its own RNG stream (a
//! pure hash of `(seed, node)`), so any run is bit-for-bit reproducible
//! from its seed (the golden-trace tests in `ringpaxos` pin this down).
//!
//! ## Envelope slab
//!
//! [`Envelope`] bodies are interned in a recycling slab for their whole
//! queued life: the downlink files the envelope once and the
//! `HostArrive` → `Deliver` hand-off moves a 4-byte index between heap
//! entries instead of the ~40-byte struct (and never touches the payload
//! refcount). Carrying the whole `Envelope` in the heap entry lost to the
//! slab on `mring_stream` (one pinned core of a 2-vCPU Xeon) in 13 of 16
//! rotating pairs on `host_us_per_op` (4.61 vs 4.27 µs) and in 14 of 16
//! on `setup_s` (47.5 vs 39.8 ms). The body is taken back out of the
//! slab exactly once, on delivery (or on a pre-delivery drop), which
//! immediately recycles the slot for the next send. Unicast sends move
//! the caller's payload handle straight into the slab — the
//! clone-per-destination loop only runs for true multicast fan-out — so
//! a datagram's payload refcount is touched exactly twice: once at
//! creation, once at drop.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::SimConfig;
use crate::dispatch::EventKind;
use crate::event_queue::{EventQueue, Slab};
use crate::host::Node;
use crate::ids::{GroupId, NodeId, TimerToken};
use crate::net::TcpChannel;
use crate::payload::Payload;
use crate::probe::{ProbeConfig, ProbeEvent, Tracer};
use crate::stats::{MetricId, Metrics};
use crate::time::{Dur, Time};

/// How a message travelled, as seen by the receiving actor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Unreliable unicast datagram.
    Udp,
    /// Datagram delivered via an ip-multicast group.
    Multicast(GroupId),
    /// Reliable, ordered, flow-controlled channel.
    Tcp,
}

/// A message as delivered to an actor.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Application payload.
    pub payload: Payload,
    /// Size charged on the wire, in bytes.
    pub wire_bytes: u32,
    /// Transport the message used.
    pub transport: Transport,
    /// For TCP segments, the channel incarnation that transmitted this
    /// segment. A segment whose epoch no longer matches its channel was
    /// in flight across a crash-reset: its bytes were already written
    /// off at the sender, so delivery must not generate an ack
    /// (`net.tcp_orphan_seg` counts these instead).
    pub(crate) tcp_epoch: u32,
}

/// A process deployed on a node. All interaction with the outside world
/// happens through the [`Ctx`] passed to each callback.
pub trait Actor {
    /// Called once when the simulation starts (or the actor is installed).
    fn on_start(&mut self, _ctx: &mut Ctx) {}
    /// Called when a message is delivered to this node.
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx);
    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {}
}

/// An actor that does nothing: the placeholder a node runs until its
/// real process is installed with [`Sim::replace_actor`], or for good
/// when the node only sends (through [`Sim::with_ctx`]) or only sinks
/// traffic.
pub struct Idle;

impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Everything in the simulation except the actors themselves. Split out so
/// actor callbacks can borrow it mutably through [`Ctx`].
pub struct SimInner {
    pub(crate) config: SimConfig,
    pub(crate) now: Time,
    /// Event sequence counter: the tiebreaker of the `(time, seq)`
    /// dispatch key, bumped once per scheduled event.
    pub(crate) seq: u64,
    /// Events dispatched so far (the denominator of wall-clock events/sec).
    pub(crate) events: u64,
    /// Messages handed to actors so far. Not part of [`Metrics`]: a pure
    /// engine statistic, invisible to golden-trace checksums.
    pub(crate) deliveries: u64,
    /// The future event set.
    pub(crate) queue: EventQueue<EventKind>,
    /// Bodies of queued `HostArrive`/`Deliver` envelopes (module docs,
    /// "Envelope slab").
    pub(crate) envs: Slab<Envelope>,
    /// Node resource clocks, indexed by node id.
    pub(crate) nodes: Vec<Node>,
    /// Per-node RNG streams, indexed by node id and derived lazily
    /// ([`SimInner::rng_for`]) from a pure hash of `(config.seed, node)`.
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) groups: Vec<Vec<NodeId>>,
    /// Reusable destination buffer for multicast fan-out (avoids one
    /// allocation per multicast on the hot path).
    pub(crate) mcast_scratch: Vec<NodeId>,
    /// TCP channels, and the dense table locating them:
    /// `tcp_index[src * n + dst]` holds `slot + 1` into `tcp` (0 = no
    /// channel yet). Re-laid out lazily when nodes are added.
    pub(crate) tcp: Vec<TcpChannel>,
    pub(crate) tcp_index: Vec<u32>,
    /// Node count `tcp_index` was laid out for.
    pub(crate) tcp_nodes: usize,
    /// Symmetrically cut links (fault injection): unordered node pairs
    /// stored as `(lo, hi)`. Traffic on a cut link — every transport,
    /// TCP included — is dropped at the switch (`net.part_drop`).
    /// Control-plane state, written only between events
    /// ([`Sim::set_link_cut`]).
    pub(crate) cut_links: std::collections::HashSet<(u32, u32)>,
    /// Enabled probe category bits ([`crate::probe::category`]); `0` —
    /// the default — disables the probe layer entirely, leaving only
    /// single predictable branches at the hook sites.
    pub(crate) probe_mask: u8,
    /// The probe ring buffer; dormant (capacity 0) until
    /// [`Sim::set_probes`].
    pub(crate) tracer: Tracer,
    /// Public metrics registry; actors record through [`Ctx`].
    pub metrics: Metrics,
}

impl SimInner {
    /// Files `kind` to fire at `at`, behind everything already scheduled
    /// for that instant.
    #[inline]
    pub(crate) fn schedule(&mut self, at: Time, kind: EventKind) {
        self.seq += 1;
        self.queue.push(at, self.seq, kind);
    }

    /// Whether any probe category in `mask` is enabled. The sole test on
    /// every probe hook site — one `u8` AND plus a predictable branch,
    /// so the hot loops are untouched when probes are off (the default).
    #[inline]
    pub(crate) fn probe_on(&self, mask: u8) -> bool {
        self.probe_mask & mask != 0
    }

    /// Records a probe event at the current virtual time. Cold: only
    /// reached behind a passing [`SimInner::probe_on`] check.
    #[cold]
    #[inline(never)]
    pub(crate) fn probe_record(&mut self, node: NodeId, code: u16, arg: u64) {
        let at = self.now;
        self.probe_record_at(node, code, arg, at);
    }

    /// Records a probe event with an explicit (possibly earlier)
    /// timestamp — e.g. [`crate::probe::code::PROPOSE`] stamps the
    /// earliest client submission of a batch. Because of such events the
    /// recorded stream is not guaranteed time-sorted;
    /// [`Sim::probe_events`] sorts it.
    #[cold]
    #[inline(never)]
    pub(crate) fn probe_record_at(&mut self, node: NodeId, code: u16, arg: u64, at: Time) {
        self.tracer.record(ProbeEvent { time: at, node: node.0 as u32, code, arg });
    }
}

/// Derives the RNG seed for one node's stream from the cluster seed: a
/// splitmix64-style finalizer, so streams are decorrelated and depend on
/// nothing but `(seed, node)`.
#[inline]
pub(crate) fn stream_seed(seed: u64, node: usize) -> u64 {
    let mut z = seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Canonical unordered key for a node pair (link cuts are symmetric).
#[inline]
pub(crate) fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    let (x, y) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    (x as u32, y as u32)
}

impl SimInner {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The cluster configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The deterministic RNG stream of `node`, materialized lazily.
    /// Draw order is a function of the node's own activity.
    pub(crate) fn rng_for(&mut self, node: NodeId) -> &mut SmallRng {
        if self.rngs.len() <= node.0 {
            let seed = self.config.seed;
            let start = self.rngs.len();
            self.rngs
                .extend((start..=node.0).map(|i| SmallRng::seed_from_u64(stream_seed(seed, i))));
        }
        &mut self.rngs[node.0]
    }

    /// Whether the link between `a` and `b` is currently cut.
    #[inline]
    pub(crate) fn link_is_cut(&self, a: NodeId, b: NodeId) -> bool {
        !self.cut_links.is_empty() && self.cut_links.contains(&link_key(a, b))
    }
}

/// The handle through which an actor interacts with the simulated world.
pub struct Ctx<'a> {
    node: NodeId,
    inner: &'a mut SimInner,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(node: NodeId, inner: &'a mut SimInner) -> Ctx<'a> {
        Ctx { node, inner }
    }
}

impl Ctx<'_> {
    /// The node this actor runs on.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.inner.now()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &SimConfig {
        self.inner.config()
    }

    /// Sends an unreliable unicast datagram.
    pub fn udp_send<T: 'static>(&mut self, dst: NodeId, msg: T, bytes: u32) {
        self.inner.udp_send_from(self.node, dst, Payload::new(msg), bytes);
    }

    /// Sends a pre-wrapped payload as a unicast datagram (avoids re-boxing
    /// when relaying).
    pub fn udp_forward(&mut self, dst: NodeId, payload: Payload, bytes: u32) {
        self.inner.udp_send_from(self.node, dst, payload, bytes);
    }

    /// Multicasts to every subscriber of `group`.
    pub fn mcast<T: 'static>(&mut self, group: GroupId, msg: T, bytes: u32) {
        self.inner.mcast_from(self.node, group, Payload::new(msg), bytes);
    }

    /// Multicasts a pre-wrapped payload.
    pub fn mcast_forward(&mut self, group: GroupId, payload: Payload, bytes: u32) {
        self.inner.mcast_from(self.node, group, payload, bytes);
    }

    /// Sends over the reliable ordered channel to `dst`.
    pub fn tcp_send<T: 'static>(&mut self, dst: NodeId, msg: T, bytes: u32) {
        self.inner.tcp_send_from(self.node, dst, Payload::new(msg), bytes);
    }

    /// Sends a pre-wrapped payload over the reliable channel.
    pub fn tcp_forward(&mut self, dst: NodeId, payload: Payload, bytes: u32) {
        self.inner.tcp_send_from(self.node, dst, payload, bytes);
    }

    /// Bytes buffered on this node's TCP channel to `dst`.
    pub fn tcp_backlog(&self, dst: NodeId) -> u64 {
        self.inner.tcp_backlog(self.node, dst)
    }

    /// Fires `token` on this actor after `delay`.
    pub fn set_timer(&mut self, delay: Dur, token: TimerToken) {
        self.inner.set_timer_on(self.node, delay, token);
    }

    /// Writes `bytes` to the local disk; `token` fires when durable.
    pub fn disk_write(&mut self, bytes: u32, token: TimerToken) {
        self.inner.disk_write_on(self.node, bytes, token);
    }

    /// Outstanding work queued on the local disk.
    pub fn disk_backlog(&self) -> Dur {
        self.inner.disk_backlog_of(self.node)
    }

    /// Charges `cost` of CPU on `core` of this node.
    pub fn charge_cpu(&mut self, core: usize, cost: Dur) {
        self.inner.charge_cpu_on(self.node, core, cost);
    }

    /// Fires `token` once `core` has executed `cost` of work.
    pub fn run_on_core(&mut self, core: usize, cost: Dur, token: TimerToken) {
        self.inner.run_on_core(self.node, core, cost, token);
    }

    /// Earliest time `core` of this node becomes idle. `core_free_at -
    /// now` is the core's current backlog.
    pub fn core_free_at(&self, core: usize) -> Time {
        self.inner.core_free_at(self.node, core)
    }

    /// This node's deterministic random number generator stream (seeded
    /// from the cluster seed and the node id).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.inner.rng_for(self.node)
    }

    /// Adds to a per-node counter by name (interned on first use).
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        self.inner.metrics.add(self.node, name, v);
    }

    /// Adds to a per-node counter by pre-interned id — the hot path for
    /// counters bumped per delivered value (see [`crate::stats::mid`]).
    pub fn counter_add_id(&mut self, id: MetricId, v: u64) {
        self.inner.metrics.add_id(self.node, id, v);
    }

    /// Interns a counter name for later [`Ctx::counter_add_id`] calls.
    pub fn intern_metric(&mut self, name: &'static str) -> MetricId {
        self.inner.metrics.intern(name)
    }

    /// Records a latency sample.
    pub fn record_latency(&mut self, name: &'static str, sample: Dur) {
        self.inner.metrics.record_latency(name, sample);
    }

    /// Whether protocol-category probes are enabled. Actors with a
    /// nontrivial argument to compute (e.g. a span key) should guard on
    /// this so disabled runs pay only the one branch.
    #[inline]
    pub fn probes_enabled(&self) -> bool {
        self.inner.probe_on(crate::probe::category::PROTOCOL)
    }

    /// Records a protocol probe event ([`crate::probe::code`]) at the
    /// current virtual time. A no-op unless the protocol category is
    /// enabled ([`Sim::set_probes`]). Recording is pure observation: no
    /// RNG draw, no metrics counter, no scheduled event — enabling
    /// probes cannot perturb the simulation.
    #[inline]
    pub fn probe(&mut self, code: u16, arg: u64) {
        if self.inner.probe_on(crate::probe::category::PROTOCOL) {
            self.inner.probe_record(self.node, code, arg);
        }
    }

    /// Records a protocol probe event with an explicit timestamp at or
    /// before the current time — e.g. a PROPOSE stamped with the
    /// earliest client submission its batch covers.
    #[inline]
    pub fn probe_at(&mut self, code: u16, arg: u64, at: Time) {
        if self.inner.probe_on(crate::probe::category::PROTOCOL) {
            self.inner.probe_record_at(self.node, code, arg, at);
        }
    }
}

/// A simulated cluster: nodes, network, and the actors deployed on them.
pub struct Sim {
    pub(crate) inner: SimInner,
    pub(crate) actors: Vec<Option<Box<dyn Actor>>>,
    pub(crate) started: Vec<bool>,
}

impl Sim {
    /// Creates an empty cluster with the given configuration.
    pub fn new(config: SimConfig) -> Sim {
        Sim {
            inner: SimInner {
                config,
                now: Time::ZERO,
                seq: 0,
                events: 0,
                deliveries: 0,
                queue: EventQueue::default(),
                envs: Slab::default(),
                nodes: Vec::new(),
                rngs: Vec::new(),
                groups: Vec::new(),
                mcast_scratch: Vec::new(),
                tcp: Vec::new(),
                tcp_index: Vec::new(),
                tcp_nodes: 0,
                cut_links: std::collections::HashSet::new(),
                probe_mask: 0,
                tracer: Tracer::default(),
                metrics: Metrics::new(),
            },
            actors: Vec::new(),
            started: Vec::new(),
        }
    }

    /// Adds a node running `actor`, returning its id.
    pub fn add_node(&mut self, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.inner.nodes.len());
        self.inner.nodes.push(Node::new(self.inner.config.cores_per_node));
        self.actors.push(Some(actor));
        self.started.push(false);
        id
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Creates a new multicast group, returning its id.
    pub fn add_group(&mut self) -> GroupId {
        let id = GroupId(self.inner.groups.len());
        self.inner.groups.push(Vec::new());
        id
    }

    /// Subscribes `node` to `group`.
    pub fn subscribe(&mut self, node: NodeId, group: GroupId) {
        let g = &mut self.inner.groups[group.0];
        if !g.contains(&node) {
            g.push(node);
        }
    }

    /// Removes `node` from `group`.
    pub fn unsubscribe(&mut self, node: NodeId, group: GroupId) {
        self.inner.groups[group.0].retain(|&n| n != node);
    }

    /// The members of `group` in subscription order, which is the order a
    /// multicast fans out in.
    pub fn members(&self, group: GroupId) -> &[NodeId] {
        &self.inner.groups[group.0]
    }

    /// Overrides the UDP socket buffer size of one node.
    pub fn set_udp_socket_buffer(&mut self, node: NodeId, bytes: u32) {
        self.inner.node_mut(node).udp_socket_buffer = bytes;
    }

    /// Changes the datagram loss probability at runtime (fault
    /// injection; timed bursts via [`crate::fault::FaultPlan`]).
    pub fn set_random_loss(&mut self, p: f64) {
        self.inner.config.random_loss = p;
    }

    /// Changes the datagram reorder probability at runtime.
    pub fn set_random_reorder(&mut self, p: f64) {
        self.inner.config.random_reorder = p;
    }

    /// Changes the datagram duplication probability at runtime.
    pub fn set_random_duplication(&mut self, p: f64) {
        self.inner.config.random_duplication = p;
    }

    /// Cuts (`true`) or heals (`false`) the link between `a` and `b`.
    /// A cut is symmetric and drops *every* transport crossing it, TCP
    /// segments and acks included (`net.part_drop`). Healing also resets
    /// the TCP channels between the pair: segments lost in the cut were
    /// written off nowhere, so without a reset a filled window would
    /// wedge the channel forever — the reset writes them off at the
    /// sender (`net.tcp_reset_bytes`) exactly like a crash-reset, and
    /// actors recover through their normal retransmission paths.
    pub fn set_link_cut(&mut self, a: NodeId, b: NodeId, cut: bool) {
        let key = crate::sim::link_key(a, b);
        if cut {
            self.inner.cut_links.insert(key);
        } else if self.inner.cut_links.remove(&key) {
            self.inner.reset_tcp_pair(a, b);
        }
    }

    /// Sets a CPU straggler factor on `node`: every CPU cost is
    /// multiplied by `factor` (1.0 = healthy; the 1.0 fast path keeps
    /// the exact integer arithmetic, so traces without stragglers are
    /// bit-identical to pre-injection builds).
    pub fn set_cpu_slowdown(&mut self, node: NodeId, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.inner.node_mut(node).cpu_slowdown = factor;
    }

    /// Sets a disk straggler factor on `node` (write times multiplied by
    /// `factor`; 1.0 = healthy).
    pub fn set_disk_slowdown(&mut self, node: NodeId, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.inner.node_mut(node).disk_slowdown = factor;
    }

    /// Marks a node as crashed (`false`) or recovered (`true`). A crashed
    /// node drops all traffic and does not run timers. Its actor state is
    /// preserved; use [`Sim::replace_actor`] to model a fresh restart.
    /// Crashing also resets every TCP channel touching the node (lost
    /// segments are counted under `net.tcp_reset_bytes` at their sender),
    /// mirroring the connection teardown a real peer would observe.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        let was_up = self.inner.node(node).up;
        self.inner.node_mut(node).up = up;
        if was_up && !up {
            self.inner.reset_tcp_of(node);
        }
        if up {
            // A node that was down may have stale resource clocks.
            let now = self.inner.now;
            let n = self.inner.node_mut(node);
            n.uplink_free = n.uplink_free.max(now);
            n.downlink_free = n.downlink_free.max(now);
            n.socket_used = 0;
        }
    }

    /// Whether `node` is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.inner.node(node).up
    }

    /// Resumes a paused node, re-running the existing actor's `on_start`
    /// so it can re-arm timers that were dropped while it was down
    /// (models SIGSTOP/SIGCONT-style process pause and resume — state is
    /// preserved, in-flight traffic was lost). Timers that were scheduled
    /// before the pause and fall due after the resume still fire, so
    /// actors must tolerate duplicate timer chains.
    pub fn restart_node(&mut self, node: NodeId) {
        self.set_node_up(node, true);
        self.started[node.0] = false;
        self.start_actor(node);
    }

    /// Replaces the actor on `node` (models a process restart). The new
    /// actor's `on_start` runs at the current time if the node is up.
    pub fn replace_actor(&mut self, node: NodeId, actor: Box<dyn Actor>) {
        self.actors[node.0] = Some(actor);
        self.started[node.0] = false;
        if self.inner.node(node).up {
            self.start_actor(node);
        }
    }

    /// Direct access to metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Mutable access to metrics (for draining windowed samples).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.inner.metrics
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.inner.now
    }

    /// Total events dispatched since the simulation started. Together
    /// with a wall clock this yields the engine's events/sec.
    pub fn events_processed(&self) -> u64 {
        self.inner.events
    }

    /// `(dispatches, messages)` of the delivery path: actor callbacks
    /// made for deliveries and the messages they carried. Every callback
    /// carries one message, so the two are the same count. A pure engine
    /// statistic (not a [`Metrics`] counter), so golden-trace counter
    /// checksums are unaffected.
    pub fn delivery_dispatch_stats(&self) -> (u64, u64) {
        (self.inner.deliveries, self.inner.deliveries)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &SimConfig {
        &self.inner.config
    }

    /// Cumulative CPU busy time of a core.
    pub fn cpu_busy(&self, node: NodeId, core: usize) -> Dur {
        self.inner.cpu_busy(node, core)
    }

    /// Cumulative CPU busy time across all cores of `node`.
    pub fn cpu_busy_total(&self, node: NodeId) -> Dur {
        (0..self.inner.config.cores_per_node)
            .map(|c| self.inner.cpu_busy(node, c))
            .fold(Dur::ZERO, |a, b| a + b)
    }

    /// Invokes a closure with a [`Ctx`] for `node` at the current time —
    /// used by experiment drivers to inject work (e.g., client requests)
    /// without a full actor.
    pub fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Ctx) -> R) -> R {
        let mut ctx = Ctx::new(node, &mut self.inner);
        f(&mut ctx)
    }

    /// Arms (or disarms) the probe layer ([`crate::probe`]), clearing
    /// anything recorded so far. Control-plane: call between runs, not
    /// from actors. Probes default to [`ProbeConfig::disabled`].
    pub fn set_probes(&mut self, cfg: ProbeConfig) {
        self.inner.probe_mask = cfg.categories;
        self.inner.tracer.reset(cfg.capacity);
    }

    /// The probe stream, sorted by `(time, record order)` — a pure
    /// function of the seed ([`crate::probe`] module docs,
    /// "Determinism").
    pub fn probe_events(&self) -> Vec<ProbeEvent> {
        let mut events: Vec<ProbeEvent> = self.inner.tracer.chronological().collect();
        events.sort_by_key(|e| e.time); // stable: ties keep record order
        events
    }

    /// Events overwritten after the tracer ring filled (0 when every
    /// recorded event is still buffered).
    pub fn probe_dropped(&self) -> u64 {
        self.inner.tracer.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    #[derive(Debug)]
    struct Note(&'static str, u32);

    /// Records every delivery it sees into a shared log.
    struct Recorder {
        log: Arc<Mutex<Vec<(Time, &'static str, u32)>>>,
    }

    impl Actor for Recorder {
        fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
            let n = env.payload.downcast_ref::<Note>().expect("Note");
            self.log.lock().unwrap().push((ctx.now(), n.0, n.1));
        }
    }

    fn two_nodes() -> (Sim, NodeId, NodeId, Arc<Mutex<Vec<(Time, &'static str, u32)>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        (sim, a, b, log)
    }

    #[test]
    fn udp_delivery_has_network_latency() {
        let (mut sim, a, b, log) = two_nodes();
        sim.with_ctx(a, |ctx| ctx.udp_send(b, Note("hi", 1), 1000));
        sim.run_to_idle();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1);
        // tx twice (up+down) + 50us prop + cpu costs: strictly more than 50us.
        assert!(log[0].0 > Time::ZERO + Dur::micros(60));
        assert!(log[0].0 < Time::ZERO + Dur::micros(200));
    }

    #[test]
    fn udp_is_fifo_per_sender() {
        let (mut sim, a, b, log) = two_nodes();
        sim.with_ctx(a, |ctx| {
            for i in 0..10 {
                ctx.udp_send(b, Note("m", i), 8000);
            }
        });
        sim.run_to_idle();
        let seen: Vec<u32> = log.lock().unwrap().iter().map(|e| e.2).collect();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn multicast_reaches_all_subscribers_except_sender() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        let c = sim.add_node(Box::new(Recorder { log: log.clone() }));
        let g = sim.add_group();
        sim.subscribe(a, g);
        sim.subscribe(b, g);
        sim.subscribe(c, g);
        sim.with_ctx(a, |ctx| ctx.mcast(g, Note("mc", 0), 512));
        sim.run_to_idle();
        assert_eq!(log.lock().unwrap().len(), 2);
    }

    #[test]
    fn sender_bandwidth_is_divided_for_unicast_not_multicast() {
        // 100 packets of 8 KB to 4 receivers: unicast serializes 400 packets
        // on the uplink; multicast only 100.
        let mk = || {
            let mut sim = Sim::new(SimConfig::default());
            let s = sim.add_node(Box::new(Idle));
            let rs: Vec<NodeId> = (0..4).map(|_| sim.add_node(Box::new(Idle))).collect();
            (sim, s, rs)
        };
        let (mut uni, s, rs) = mk();
        uni.with_ctx(s, |ctx| {
            for _ in 0..100 {
                for &r in &rs {
                    ctx.udp_send(r, Note("u", 0), 8192);
                }
            }
        });
        uni.run_to_idle();
        let uni_done = uni.now();

        let (mut mc, s, rs) = mk();
        let g = mc.add_group();
        for &r in &rs {
            mc.subscribe(r, g);
        }
        mc.with_ctx(s, |ctx| {
            for _ in 0..100 {
                ctx.mcast(g, Note("m", 0), 8192);
            }
        });
        mc.run_to_idle();
        let mc_done = mc.now();
        assert!(
            uni_done.as_nanos() > 3 * mc_done.as_nanos(),
            "unicast {uni_done:?} vs multicast {mc_done:?}"
        );
    }

    #[test]
    fn socket_buffer_overflow_drops() {
        // A receiver whose application burns CPU on every message drains
        // its socket buffer slower than the wire fills it.
        struct Slow;
        impl Actor for Slow {
            fn on_message(&mut self, _env: &Envelope, ctx: &mut Ctx) {
                ctx.charge_cpu(0, Dur::micros(500));
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Slow));
        sim.set_udp_socket_buffer(b, 64 * 1024);
        sim.with_ctx(a, |ctx| {
            for i in 0..100 {
                ctx.udp_send(b, Note("x", i), 8192);
            }
        });
        sim.run_to_idle();
        assert!(sim.metrics().counter(b, "net.socket_drop") > 0);
        assert!(sim.metrics().counter(b, "net.recv_pkts") > 0);
    }

    #[test]
    fn switch_port_buffer_drops_on_contention() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = SimConfig::default();
        cfg.switch_port_buffer = 64 * 1024;
        let mut sim = Sim::new(cfg);
        let senders: Vec<NodeId> = (0..4).map(|_| sim.add_node(Box::new(Idle))).collect();
        let dst = sim.add_node(Box::new(Recorder { log: log.clone() }));
        // Four senders each blast 2 MB simultaneously at wire speed into one
        // downlink: instantaneous demand 4x the drain rate.
        for &s in &senders {
            sim.with_ctx(s, |ctx| {
                for i in 0..256 {
                    ctx.udp_send(dst, Note("burst", i), 8192);
                }
            });
        }
        sim.run_to_idle();
        assert!(sim.metrics().counter(dst, "net.switch_drop") > 0);
    }

    #[test]
    fn tcp_never_drops_and_stays_ordered() {
        let mut cfg = SimConfig::default();
        cfg.tcp_window_bytes = 64 * 1024; // small window forces queueing
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        sim.with_ctx(a, |ctx| {
            for i in 0..200 {
                ctx.tcp_send(b, Note("t", i), 32 * 1024);
            }
        });
        sim.run_to_idle();
        let seen: Vec<u32> = log.lock().unwrap().iter().map(|e| e.2).collect();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn tcp_window_limits_throughput() {
        // Throughput with a tiny window must be far below wire speed.
        let run = |window: u32| -> f64 {
            let mut cfg = SimConfig::default();
            cfg.tcp_window_bytes = window;
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new(cfg);
            let a = sim.add_node(Box::new(Idle));
            let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
            sim.with_ctx(a, |ctx| {
                for i in 0..500 {
                    ctx.tcp_send(b, Note("t", i), 32 * 1024);
                }
            });
            sim.run_to_idle();
            let bytes = sim.metrics().counter(b, "net.recv_bytes");
            crate::stats::mbps(bytes, sim.now() - Time::ZERO)
        };
        let slow = run(32 * 1024);
        let fast = run(8 * 1024 * 1024);
        assert!(fast > 2.0 * slow, "fast {fast} vs slow {slow}");
    }

    /// Regression (pre-fix: permanent stall): `tcp_pump` charged
    /// `in_flight` for segments the downlink then dropped at a crashed
    /// destination. No ack ever returned, so once the window filled the
    /// channel was wedged forever — traffic sent after the destination
    /// recovered was never delivered.
    #[test]
    fn tcp_channel_reset_on_crash_unsticks_window() {
        let mut cfg = SimConfig::default();
        cfg.tcp_window_bytes = 64 * 1024; // fills fast once acks stop
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        sim.with_ctx(a, |ctx| {
            for i in 0..20 {
                ctx.tcp_send(b, Note("pre", i), 32 * 1024);
            }
        });
        // Crash b mid-stream: several segments are in flight, more queued.
        sim.run_until(Time::from_millis(2));
        sim.set_node_up(b, false);
        sim.run_until(Time::from_millis(10));
        sim.set_node_up(b, true);
        let before_restart = log.lock().unwrap().len();
        sim.with_ctx(a, |ctx| {
            for i in 0..5 {
                ctx.tcp_send(b, Note("post", i), 32 * 1024);
            }
        });
        sim.run_to_idle();
        let post: Vec<u32> = log.lock().unwrap()[before_restart..]
            .iter()
            .filter(|e| e.1 == "post")
            .map(|e| e.2)
            .collect();
        assert_eq!(post, (0..5).collect::<Vec<_>>(), "post-recovery traffic must flow");
        assert!(
            sim.metrics().counter(a, "net.tcp_reset_bytes") > 0,
            "lost segments are accounted at the sender"
        );
    }

    /// Acks that were in flight when the destination crashed carry the
    /// old channel epoch and must be discarded, not subtracted from the
    /// reset channel's window accounting.
    #[test]
    fn tcp_stale_acks_across_crash_are_dropped() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        sim.with_ctx(a, |ctx| {
            for i in 0..8 {
                ctx.tcp_send(b, Note("s", i), 8 * 1024);
            }
        });
        // Step until the first delivery lands; its ack trails one-way
        // latency behind, so crashing now leaves it in flight.
        let mut t = Dur::micros(10);
        while log.lock().unwrap().is_empty() {
            sim.run_until(Time::ZERO + t);
            t += Dur::micros(10);
            assert!(t < Dur::millis(10), "first delivery never happened");
        }
        sim.set_node_up(b, false);
        sim.run_to_idle();
        assert!(
            sim.metrics().counter(a, "net.tcp_stale_ack") > 0,
            "in-flight acks from before the reset are counted as stale"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            log: Arc<Mutex<Vec<u64>>>,
        }
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(Dur::millis(3), TimerToken(3));
                ctx.set_timer(Dur::millis(1), TimerToken(1));
                ctx.set_timer(Dur::millis(2), TimerToken(2));
            }
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, token: TimerToken, _ctx: &mut Ctx) {
                self.log.lock().unwrap().push(token.0);
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(Box::new(T { log: log.clone() }));
        sim.run_to_idle();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn crashed_node_receives_nothing_until_recovery() {
        let (mut sim, a, b, log) = two_nodes();
        sim.set_node_up(b, false);
        sim.with_ctx(a, |ctx| ctx.udp_send(b, Note("lost", 0), 100));
        sim.run_until(Time::from_millis(10));
        assert!(log.lock().unwrap().is_empty());
        sim.set_node_up(b, true);
        sim.with_ctx(a, |ctx| ctx.udp_send(b, Note("ok", 1), 100));
        sim.run_to_idle();
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(log.lock().unwrap()[0].1, "ok");
    }

    #[test]
    fn disk_writes_serialize_and_complete() {
        struct D {
            done: Arc<Mutex<Vec<Time>>>,
        }
        impl Actor for D {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.disk_write(32 * 1024, TimerToken(0));
                ctx.disk_write(32 * 1024, TimerToken(1));
            }
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
                self.done.lock().unwrap().push(ctx.now());
            }
        }
        let done = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(Box::new(D { done: done.clone() }));
        sim.run_to_idle();
        let d = done.lock().unwrap();
        assert_eq!(d.len(), 2);
        let per = SimConfig::default().disk_write_time(32 * 1024);
        assert_eq!(d[0], Time::ZERO + per);
        assert_eq!(d[1], Time::ZERO + per + per);
    }

    #[test]
    fn cpu_accounting_accumulates() {
        let (mut sim, a, _b, _log) = two_nodes();
        sim.with_ctx(a, |ctx| ctx.charge_cpu(1, Dur::millis(5)));
        assert_eq!(sim.cpu_busy(a, 1), Dur::millis(5));
        assert_eq!(sim.cpu_busy(a, 0), Dur::ZERO);
        assert_eq!(sim.cpu_busy_total(a), Dur::millis(5));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut sim, a, b, log) = two_nodes();
            sim.with_ctx(a, |ctx| {
                for i in 0..50 {
                    ctx.udp_send(b, Note("d", i), 4000 + i * 13);
                }
            });
            sim.run_to_idle();
            let v: Vec<(u64, u32)> =
                log.lock().unwrap().iter().map(|e| (e.0.as_nanos(), e.2)).collect();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn random_loss_drops_some() {
        let mut cfg = SimConfig::default();
        cfg.random_loss = 0.5;
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        sim.with_ctx(a, |ctx| {
            for i in 0..200 {
                ctx.udp_send(b, Note("r", i), 100);
            }
        });
        sim.run_to_idle();
        let got = log.lock().unwrap().len();
        assert!(got > 50 && got < 150, "got {got}");
        assert!(sim.metrics().counter(b, "net.rand_drop") > 0);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(Box::new(Idle));
        sim.run_until(Time::from_secs(3));
        assert_eq!(sim.now(), Time::from_secs(3));
    }

    /// Timers a caller injects after `run_until` fire in `(time, seq)`
    /// order: with a far timer still queued, a near timer and one between
    /// the two fire first, and virtual time never runs backwards.
    #[test]
    fn overflow_event_not_skipped_after_scan_rewind() {
        struct T {
            log: Arc<Mutex<Vec<(u64, Time)>>>,
        }
        impl Actor for T {
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
                self.log.lock().unwrap().push((token.0, ctx.now()));
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(T { log: log.clone() }));
        sim.with_ctx(n, |ctx| ctx.set_timer(Dur::millis(4100), TimerToken(1)));
        // Stop with the far timer still queued.
        sim.run_until(Time::from_millis(10));
        // Inject a near timer and one between it and the far timer.
        sim.with_ctx(n, |ctx| {
            ctx.set_timer(Dur::millis(1), TimerToken(2));
            ctx.set_timer(Dur::millis(400), TimerToken(3));
        });
        sim.run_to_idle();
        let got = log.lock().unwrap().clone();
        assert_eq!(got.len(), 3);
        assert_eq!(got.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![2, 3, 1]);
        // Virtual time must be non-decreasing across pops.
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "time ran backwards: {got:?}");
    }

    /// Timers a caller injects after `run_until` fire in `(time, seq)`
    /// order: a near burst and a lone timer injected below a queued
    /// same-timestamp burst all fire before it, in non-decreasing
    /// virtual time.
    #[test]
    fn co_located_burst_survives_scan_rewind() {
        struct T {
            log: Arc<Mutex<Vec<(u64, Time)>>>,
        }
        impl Actor for T {
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
                self.log.lock().unwrap().push((token.0, ctx.now()));
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(T { log: log.clone() }));
        // A co-located burst at 30 ms.
        sim.with_ctx(n, |ctx| {
            for i in 0..40u64 {
                ctx.set_timer(Dur::millis(30), TimerToken(1000 + i));
            }
        });
        // Stop with the burst queued, then inject a nearer burst plus a
        // single timer between the two.
        sim.run_until(Time::from_millis(1));
        sim.with_ctx(n, |ctx| {
            for i in 0..33u64 {
                ctx.set_timer(Dur::millis(1), TimerToken(i)); // fires at 2 ms
            }
            ctx.set_timer(Dur::millis(9), TimerToken(500)); // fires at 10 ms
        });
        sim.run_to_idle();
        let got = log.lock().unwrap().clone();
        assert_eq!(got.len(), 74);
        assert!(
            got.windows(2).all(|w| w[0].1 <= w[1].1),
            "time ran backwards: {:?}",
            got.iter().map(|&(t, at)| (t, at)).collect::<Vec<_>>()
        );
        // The 10 ms timer must fire before every 30 ms burst timer.
        let pos_500 = got.iter().position(|&(t, _)| t == 500).expect("10ms timer fired");
        let first_burst = got.iter().position(|&(t, _)| t >= 1000).expect("burst fired");
        assert!(pos_500 < first_burst, "far burst popped before nearer timer");
    }

    /// Timers a caller injects after `run_until` fire in `(time, seq)`
    /// order: a near timer injected 38 ms below a queued burst fires,
    /// and so does every timer of the burst.
    #[test]
    fn sparse_jump_survives_far_burst() {
        struct T;
        impl Actor for T {
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        }
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(T));
        sim.with_ctx(n, |ctx| {
            for i in 0..40u64 {
                ctx.set_timer(Dur::millis(40), TimerToken(i));
            }
        });
        sim.run_until(Time::from_millis(1));
        // Inject a timer far below the burst.
        sim.with_ctx(n, |ctx| ctx.set_timer(Dur::millis(1), TimerToken(99)));
        sim.run_to_idle();
        assert_eq!(sim.now(), Time::from_millis(40));
    }

    /// Timers a caller injects after `run_until` fire in `(time, seq)`
    /// order: with a dense burst queued far ahead, a second dense burst
    /// and a lone timer injected below it all fire, in non-decreasing
    /// virtual time, and the lone timer before the far burst.
    #[test]
    fn rewind_then_second_burst_pops_cleanly() {
        struct T {
            log: Arc<Mutex<Vec<(u64, Time)>>>,
        }
        impl Actor for T {
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
                self.log.lock().unwrap().push((token.0, ctx.now()));
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(T { log: log.clone() }));
        // Dense burst at 30 ms, still queued when `run_until` returns.
        sim.with_ctx(n, |ctx| {
            for i in 0..40u64 {
                ctx.set_timer(Dur::millis(30), TimerToken(2000 + i));
            }
        });
        sim.run_until(Time::from_millis(1));
        // Injected pushes: a second dense burst at 2 ms plus one lone
        // timer between the two bursts.
        sim.with_ctx(n, |ctx| {
            for i in 0..36u64 {
                ctx.set_timer(Dur::millis(1), TimerToken(i)); // fires at 2 ms
            }
            ctx.set_timer(Dur::millis(14), TimerToken(999)); // fires at 15 ms
        });
        sim.run_to_idle();
        let got = log.lock().unwrap().clone();
        assert_eq!(got.len(), 77);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "time ran backwards: {got:?}");
        let pos_999 = got.iter().position(|&(t, _)| t == 999).expect("15 ms timer fired");
        let first_far = got.iter().position(|&(t, _)| t >= 2000).expect("30 ms burst fired");
        assert!(pos_999 < first_far, "30 ms burst replayed ahead of the 15 ms timer");
    }

    /// Regression (PR 5, fails pre-fix): TCP segments that were in
    /// flight across their channel's crash-reset are *orphans* — their
    /// bytes were already written off at the sender — and must not
    /// fabricate acks on delivery. Pre-fix, each such delivery pushed an
    /// ack stamped with the *new* channel epoch; the reset sender
    /// accepted it (counting `net.tcp_stale_ack` as the window math
    /// misfired) and the orphan skewed the channel's delivery-seq
    /// stream. Post-fix the segments are counted under
    /// `net.tcp_orphan_seg` on the receiver and no ack event exists.
    #[test]
    fn orphan_tcp_segments_after_sender_crash_get_no_ack() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder { log: log.clone() }));
        sim.with_ctx(a, |ctx| {
            for i in 0..8 {
                ctx.tcp_send(b, Note("s", i), 8 * 1024);
            }
        });
        // The whole burst fits the window, so every segment is in
        // flight immediately; the first delivery needs >100 us of
        // uplink serialization + latency + receive processing.
        sim.run_until(Time::ZERO + Dur::micros(40));
        assert!(log.lock().unwrap().is_empty(), "no segment delivered before the crash");
        sim.set_node_up(a, false); // resets a->b: bytes written off, epoch bumped
        sim.run_to_idle();
        let delivered = log.lock().unwrap().len() as u64;
        assert_eq!(delivered, 8, "in-flight segments still reach the live receiver");
        assert_eq!(
            sim.metrics().counter(b, "net.tcp_orphan_seg"),
            delivered,
            "every cross-reset segment is accounted as an orphan"
        );
        assert_eq!(
            sim.metrics().counter(a, "net.tcp_stale_ack"),
            0,
            "no fabricated ack reaches the reset channel"
        );
        assert!(
            sim.metrics().counter(a, "net.tcp_reset_bytes") > 0,
            "the crash reset wrote the in-flight bytes off"
        );
    }
}
