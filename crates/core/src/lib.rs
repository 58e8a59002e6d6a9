//! # hpsmr-core — speculation and state partitioning for SMR (DSN 2011)
//!
//! The primary contribution of *High Performance State-Machine
//! Replication* (Marandi, Primi, Pedone — DSN 2011; thesis ch. 4): two
//! techniques that push replicated-service performance toward (and past)
//! a stand-alone server, built on M-Ring Paxos:
//!
//! * **Speculative execution** (§4.2.1) — replicas execute a command when
//!   its payload *arrives*, overlapping execution with ordering; the
//!   response is withheld until the order is confirmed, and mis-ordered
//!   executions are rolled back through the service's undo log. Expected
//!   response-time saving: `min(Δo, Δe)`.
//! * **State partitioning** (§4.2.2) — the service state is split into
//!   sub-states replicated independently; one Ring Paxos coordinator
//!   still totally orders *all* commands (preserving the cross-partition
//!   acyclicity that linearizability needs) but payloads travel only to
//!   the multicast groups of the partitions they touch, and replicas
//!   skip over other partitions' instances.
//!
//! The crate provides the replica ([`replica::SmrReplica`]) and its
//! sans-IO execution engine ([`exec::Executor`]: speculation queue plus
//! a readers–writer schedule over the node's execution cores; the
//! session tier of [`deploy::deploy_smr_sessions`] always speculates),
//! the non-replicated baseline ([`cs::CsServer`]: the replica's executor
//! and reply queue without a ring), the B⁺-tree service's
//! session driver ([`session::TreeSessionDriver`]: every client here is
//! a `workload::SessionTable` session), and one-call deployments
//! ([`deploy::deploy_smr`], [`deploy::deploy_cs`]) over the paper's
//! B⁺-tree service.
//!
//! ```
//! use simnet::prelude::*;
//! use hpsmr_core::deploy::{deploy_smr, SmrOptions};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let opts = SmrOptions { n_clients: 5, ..SmrOptions::default() };
//! let d = deploy_smr(&mut sim, &opts);
//! sim.run_until(Time::from_millis(500));
//! let completed: u64 = d
//!     .tables
//!     .iter()
//!     .map(|&c| sim.metrics().counter(c, workload::SESSIONS_COMPLETED))
//!     .sum();
//! assert!(completed > 100);
//! ```

pub mod cs;
pub mod deploy;
pub mod exec;
pub mod msg;
pub mod replica;
pub mod service;
pub mod session;
pub mod snapshot;

pub use cs::CsServer;
pub use deploy::{
    deploy_cs, deploy_smr, deploy_smr_sessions, CsDeployment, PartitionOptions, SessionDeployment,
    SessionOptions, SmrOptions,
};
pub use exec::{Booked, Executor, Seat, Swept};
pub use msg::{CsRequest, SmrResponse};
pub use replica::{
    ReplicaConfig, ReplicaState, SmrReplica, SMR_ROLLBACKS, SMR_SPEC_EXEC, SMR_SPEC_STALE,
    SMR_SPLIT_READS,
};
pub use service::{Service, StoredCommand};
pub use session::{Route, TreeSessionDriver};
pub use snapshot::{NullService, ServiceApp, Snapshot};
