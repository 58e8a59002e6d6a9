//! # simnet — deterministic discrete-event cluster simulator
//!
//! `simnet` models the local-area testbed used throughout *High-Performance
//! State-Machine Replication* (Marandi, DSN 2011 / USI dissertation): a rack
//! of commodity nodes behind one gigabit switch, with ip-multicast, lossy
//! UDP, flow-controlled TCP, multi-core CPUs, and SSDs.
//!
//! Protocols are written as [`sim::Actor`]s — event-driven processes that
//! exchange [`payload::Payload`] messages and set timers. All resources
//! (links, switch port buffers, socket buffers, CPU cores, disks) are
//! simulated, so throughput/latency/CPU results emerge from the same
//! bottlenecks the paper analyses. The engine is a single-threaded
//! actor/event core — one event queue, popped in `(time, seq)` order —
//! so every run is bit-for-bit deterministic for a given seed.
//!
//! ```
//! use simnet::prelude::*;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
//!         // Bounce every datagram straight back.
//!         ctx.udp_forward(env.src, env.payload.clone(), env.wire_bytes);
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let a = sim.add_node(Box::new(Echo));
//! let b = sim.add_node(Box::new(Echo));
//! sim.with_ctx(a, |ctx| ctx.udp_send(b, "ping".to_string(), 64));
//! sim.run_until(Time::from_millis(1));
//! assert!(sim.metrics().counter(a, "net.recv_pkts") >= 1);
//! ```

pub mod config;
mod dispatch;
mod event_queue;
pub mod fault;
mod host;
pub mod ids;
mod net;
pub mod payload;
pub mod probe;
pub mod sim;
pub mod stats;
pub mod time;
pub mod wheel;

/// Convenient glob import for protocol crates and experiments.
pub mod prelude {
    pub use crate::config::SimConfig;
    pub use crate::fault::{FaultAction, FaultPlan};
    pub use crate::ids::{GroupId, NodeId, TimerToken};
    pub use crate::payload::Payload;
    pub use crate::probe::{self, ProbeConfig, ProbeEvent};
    pub use crate::sim::{Actor, Ctx, Envelope, Idle, Sim, Transport};
    pub use crate::stats::{mbps, mid, per_sec, LatencyStats, MetricId, Metrics};
    pub use crate::time::{Dur, Time};
    pub use crate::wheel::TimerWheel;
}
