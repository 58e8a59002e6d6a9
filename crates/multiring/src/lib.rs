//! # multiring — Multi-Ring Paxos atomic multicast (thesis ch. 5)
//!
//! Multi-Ring Paxos composes an unbounded number of independent
//! M-Ring Paxos instances — one per multicast *group* — to scale ordered
//! delivery linearly with added rings. Learners subscribe to any subset
//! of groups and merge their decision streams deterministically: `M`
//! logical instances per group, round-robin in group-id order.
//!
//! Rings that run below the global expected rate λ propose *skip
//! instances* every ∆ so slower groups never stall a learner's merge
//! (ch. 5, Algorithm 1). Skips are batched: any number of skipped
//! instances costs one consensus execution.
//!
//! ```
//! use simnet::prelude::*;
//! use multiring::{deploy_multiring, MultiRingOptions};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let opts = MultiRingOptions::default(); // 2 rings, 1 learner on both
//! let d = deploy_multiring(&mut sim, &opts);
//! sim.run_until(Time::from_millis(500));
//! assert!(sim.metrics().counter(d.learners[0], "abcast.delivered_msgs") > 0);
//! ```

pub mod learner;
pub mod merge;
pub mod mrp;

pub use learner::{MultiRingLearner, MRP_LATENCY};
pub use merge::{DeterministicMerge, MergeEntry};
pub use mrp::{deploy_multiring, MultiRingDeployment, MultiRingOptions, RingHandle};
