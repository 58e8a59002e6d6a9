//! # psmr — parallel state-machine replication (thesis ch. 6)
//!
//! State-machine replication demands sequential execution; multi-core
//! services demand concurrency. This crate reproduces the chapter's
//! survey of ways to reconcile the two, and its contribution, **P-SMR**:
//!
//! * [`ExecModel::Sequential`] — one thread delivers, executes, responds
//!   (§6.2.2).
//! * [`ExecModel::Pipelined`] — staged delivery/execution/response
//!   pipeline; execution still sequential (§6.2.3).
//! * [`ExecModel::Sdpe`] — sequential delivery, parallel execution: a
//!   scheduler thread tracks command interdependencies and dispatches
//!   independent commands onto a worker pool (§6.2.4).
//! * [`ExecModel::Psmr`] — parallel delivery, parallel execution: one
//!   Multi-Ring Paxos group per worker thread; the client proxy maps
//!   each command to the groups of the conflict domains it accesses.
//!   Independent commands flow to distinct workers with no central
//!   scheduler; a multi-group command executes once its last occurrence
//!   merges, with every involved worker held at a barrier (§6.3).
//!
//! Clients are closed-loop `workload::SessionTable` sessions, one per
//! client node, like every client in the workspace: the client proxy's
//! group mapping is their driver ([`PsmrDriver`]), and completions and
//! latency are the table's `sessions.*` metrics.
//!
//! Commands conflict when they access a shared domain and at least one
//! writes it; this service writes every domain it touches, so conflict
//! is exactly domain intersection ([`PCommand::conflicts_with`]).
//!
//! Multi-group delivery consistency: each occurrence of a dependent
//! command is ordered by its own ring, and every replica consumes the
//! same deterministic merge of all rings, so the *execution* points
//! (last-occurrence positions) are identical everywhere — conflicting
//! commands execute in the same relative order on every replica without
//! any cross-ring agreement, and barriers cannot deadlock.
//!
//! ```
//! use simnet::prelude::*;
//! use psmr::{deploy_parallel, ExecModel, ParallelOptions};
//!
//! let mut cfg = SimConfig::default();
//! cfg.cores_per_node = 8; // delivery + sched + 4 workers + response
//! let mut sim = Sim::new(cfg);
//! let opts = ParallelOptions {
//!     model: ExecModel::Psmr { workers: 4 },
//!     ..ParallelOptions::default()
//! };
//! let d = deploy_parallel(&mut sim, &opts);
//! sim.run_until(Time::from_millis(300));
//! assert!(d.stores(&sim)[0].executed() > 0);
//! ```

pub mod client;
pub mod command;
pub mod deploy;
pub mod engine;
pub mod replica;
pub mod store;

pub use client::{PsmrDriver, PsmrWorkload};
pub use command::{PCommand, PStored};
pub use deploy::{deploy_parallel, ParallelDeployment, ParallelOptions};
pub use engine::{Engine, EngineCosts, ExecModel, Scheduled};
pub use replica::{Learner, PReplyQuery, PResponse, ParallelReplica, PSMR_DEP_EXECS};
pub use store::ObjStore;
