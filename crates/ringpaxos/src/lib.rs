//! # ringpaxos — the Ring Paxos atomic broadcast family (thesis ch. 3)
//!
//! Two high-throughput atomic broadcast protocols built on Paxos, designed
//! around (a) the separation of message ordering from payload propagation
//! and (b) efficient communication patterns:
//!
//! * [`mring::MRingProcess`] — **M-Ring Paxos** (Algorithm 2): payloads are
//!   disseminated by ip-multicast; a ring of `f + 1` acceptors relays
//!   Phase 2B votes; consensus runs on value ids.
//! * [`uring::URingProcess`] — **U-Ring Paxos** (Algorithm 3): for networks
//!   without ip-multicast; every process sits on one TCP ring, payload and
//!   votes pipeline around it.
//!
//! Both implement the engineering machinery the paper describes: batching
//! into 8/32 KB consensus packets, loss recovery via preferential
//! acceptors, learner-driven flow control, version-based garbage
//! collection, in-memory vs recoverable (disk) acceptors, and coordinator
//! failover (M-Ring Paxos).
//!
//! Use [`cluster::deploy_mring`] / [`cluster::deploy_uring`] to stand up a
//! full ensemble on a [`simnet`] cluster:
//!
//! ```
//! use simnet::prelude::*;
//! use ringpaxos::cluster::{deploy_mring, MRingOptions};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let d = deploy_mring(&mut sim, &MRingOptions::default(), |_cfg| {});
//! sim.run_until(Time::from_millis(500));
//! assert!(sim.metrics().counter(d.learners[0], "abcast.delivered_msgs") > 0);
//! assert!(d.log.lock().unwrap().check_total_order().is_ok());
//! ```

pub mod cluster;
pub mod config;
pub mod control;
pub mod dedup;
pub mod mlearner;
pub mod mring;
pub mod msg;
pub mod uring;
pub mod value;

pub use cluster::{
    deploy_mring, deploy_mring_recoverable, deploy_uring, deploy_uring_recoverable, respawn_mring,
    respawn_uring, MRingDeployment, MRingOptions, RecoverableMRing, RecoverableURing,
    URingDeployment, URingOptions, URingRecoveryOptions,
};
pub use config::{FlowConfig, MRingConfig, SkipConfig, StorageMode, URingConfig};
pub use dedup::DeliveredTracker;
pub use mring::MRecovery;
pub use uring::URecovery;
pub use value::{batch_bytes, Batch, BatchData, Value};
