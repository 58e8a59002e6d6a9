//! # workload — the unified client tier
//!
//! Every client of an ordered service in this workspace — the ch. 4
//! B⁺-tree clients and their client-server baseline, the ch. 6 P-SMR
//! clients, and the mass-session experiments of ch. 10 and the
//! benchmark — is a session of a [`table::SessionTable`]: one actor
//! hosting N sessions, with one retry engine and one set of `sessions.*`
//! metrics. What differs per service is a [`table::SessionDriver`].
//!
//! ## Open vs. closed loop
//!
//! The paper drives protocols two ways, and a table runs either
//! ([`arrival::Arrival`]):
//!
//! * **Closed loop** — a fixed number of sessions, each with exactly one
//!   command outstanding; the next command is issued when the response
//!   arrives (or the request is abandoned). Offered load adapts to
//!   service latency, which is what the paper's latency/throughput
//!   curves (ch. 4, ch. 6) measure. `core::deploy::deploy_smr` /
//!   `deploy_cs` and `psmr::deploy_parallel` put one closed-loop table
//!   of one session on each client node.
//! * **Open loop** — arrivals occur at a configured rate regardless of
//!   completions, as real user populations do. Two processes are
//!   provided: [`arrival::Poisson`], drawing exponential inter-arrival
//!   gaps from the actor's deterministic per-node RNG stream (so the
//!   arrival sequence is a pure function of the seed), and the paced
//!   burst submitter [`Pacer`] the ch. 3/5 throughput experiments
//!   already used (re-exported from `abcast`, where the ordering
//!   protocols' own drivers live below this crate).
//!
//! ## Keyed workloads
//!
//! [`keyed::KeyedWorkload`] generates the paper's three B⁺-tree
//! workload shapes, keys uniform or Zipfian via [`keyed::ZipfSampler`]
//! (rejection-inversion sampling, exact for any exponent ≥ 0), and
//! lays queries across partitions by §4.4.5's rule
//! ([`keyed::KeyedWorkload::with_partitions`]). Hot ranks are scattered
//! across the key space with a fixed Fibonacci hash so skew stresses
//! contention, not just partition 0.
//!
//! ## Sessions and the session table
//!
//! [`table::SessionTable`] hosts N sessions in **one** actor: a slab of
//! in-flight requests addressed by slot+generation [`MsgId`]s,
//! deadlines coalesced onto a [`simnet::wheel::TimerWheel`] driven by a
//! single periodic sim timer, bounded exponential backoff
//! ([`session::RetryPolicy`]), and per-session latency recorded into the
//! metrics histograms (report with `Metrics::percentile` —
//! p50/p99/p999). Drivers of a service with a leader re-look it up by
//! rotating resubmissions across ring members ([`session::Rotation`]).
//! One actor per simulated client would cost an arena slot, RNG stream,
//! and timer chain per session; the table design is what lets a single
//! run sustain 1M+ sessions.
//!
//! ## Adding a workload
//!
//! 1. Implement a generator producing your service's commands (see
//!    [`keyed::KeyedWorkload`] for the shape: draw from the `&mut
//!    SmallRng` you are handed, never an ambient RNG, so runs stay
//!    deterministic).
//! 2. Implement [`table::SessionDriver`] for your service: `submit`
//!    builds, records and sends one request, `resubmit` re-sends it
//!    (moving a [`session::Rotation`] if the service has a leader),
//!    `on_response` maps a delivery back to the request id it
//!    completes, and `finish` drops per-request state.
//! 3. Deploy a [`table::SessionTable`] over your driver: open loop for
//!    a population of users, or closed loop — one table of one session
//!    per client node when the experiment places clients one per node.

pub mod arrival;
pub mod keyed;
pub mod session;
pub mod table;

pub use abcast::Pacer;
pub use arrival::{Arrival, Poisson};
pub use keyed::{KeyedWorkload, WorkloadKind, ZipfSampler};
pub use session::{RetryPolicy, Rotation, Sent};
pub use table::{SessionDriver, SessionTable, SessionTableConfig};

/// Commands submitted by session tables (one per session interaction).
pub const SESSIONS_SUBMITTED: &str = "sessions.submitted";
/// Session interactions completed (response matched to request).
pub const SESSIONS_COMPLETED: &str = "sessions.completed";
/// Resubmissions after a blown deadline.
pub const SESSIONS_RETRIES: &str = "sessions.retries";
/// Requests given up after `RetryPolicy::max_attempts`.
pub const SESSIONS_ABANDONED: &str = "sessions.abandoned";
/// Arrivals shed because the in-flight slab was full (overload guard).
pub const SESSIONS_SHED: &str = "sessions.shed";
/// Sum of arrival instants, µs — with [`SESSIONS_SUBMITTED`] this pins
/// the arrival sequence for the determinism gate.
pub const SESSIONS_ARRIVAL_US: &str = "sessions.arrival_us";
/// Per-session request latency histogram (p50/p99/p999 reporting).
pub const SESSION_LATENCY: &str = "sessions.latency";
/// Inter-arrival gap histogram of the open-loop process.
pub const SESSION_ARRIVAL_GAP: &str = "sessions.arrival_gap";
