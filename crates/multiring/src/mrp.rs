//! Multi-Ring Paxos deployment: an ensemble of independent M-Ring Paxos
//! rings (one per group) plus learners that merge them deterministically
//! (ch. 5, Algorithm 1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use abcast::{shared_log, Pacer, SharedLog};
use ringpaxos::mring::MRingProcess;
use ringpaxos::{MRingConfig, SkipConfig, StorageMode};
use simnet::prelude::*;

use crate::learner::MultiRingLearner;

struct Idle;
impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Options for [`deploy_multiring`].
#[derive(Clone, Debug)]
pub struct MultiRingOptions {
    /// Number of rings (= groups).
    pub n_rings: usize,
    /// Acceptors per ring (coordinator included).
    pub ring_size: usize,
    /// Offered load per ring, bits per second (one proposer per ring).
    pub rates_per_ring_bps: Vec<u64>,
    /// Application message size.
    pub msg_bytes: u32,
    /// Expected maximum consensus rate λ (instances/s); `0` disables
    /// skip generation.
    pub lambda_per_sec: u64,
    /// Sampling interval ∆.
    pub delta: Dur,
    /// Merge parameter M (logical instances per ring per turn).
    pub m: u64,
    /// Acceptor persistence for every ring.
    pub storage: StorageMode,
    /// Learner subscriptions: `learners[i]` lists the ring indexes
    /// learner `i` subscribes to.
    pub learners: Vec<Vec<usize>>,
}

impl Default for MultiRingOptions {
    fn default() -> Self {
        MultiRingOptions {
            n_rings: 2,
            ring_size: 3,
            rates_per_ring_bps: vec![100_000_000; 2],
            msg_bytes: 8192,
            lambda_per_sec: 9000,
            delta: Dur::millis(1),
            m: 1,
            storage: StorageMode::InMemory,
            learners: vec![vec![0, 1]],
        }
    }
}

/// One deployed ring of the ensemble.
pub struct RingHandle {
    /// The ring's configuration (group, members).
    pub cfg: MRingConfig,
    /// Acceptors (last = coordinator).
    pub ring: Vec<NodeId>,
    /// The ring's proposer node.
    pub proposer: NodeId,
    /// The proposer's live rate control (bits/s; 0 pauses).
    pub rate_control: Arc<AtomicU64>,
}

impl RingHandle {
    /// The ring's coordinator node.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }

    /// Sets the offered load of the ring.
    pub fn set_rate(&self, bps: u64) {
        self.rate_control.store(bps, Ordering::Relaxed);
    }
}

/// A deployed Multi-Ring Paxos ensemble.
pub struct MultiRingDeployment {
    /// The rings, in group-id (merge) order.
    pub rings: Vec<RingHandle>,
    /// Multi-ring learner nodes, in `options.learners` order.
    pub learners: Vec<NodeId>,
    /// Delivery log indexed like `learners`.
    pub log: SharedLog,
}

/// Deploys Multi-Ring Paxos: `n_rings` independent M-Ring Paxos instances
/// plus deterministic-merge learners.
pub fn deploy_multiring(sim: &mut Sim, opts: &MultiRingOptions) -> MultiRingDeployment {
    assert_eq!(opts.rates_per_ring_bps.len(), opts.n_rings, "one rate per ring required");
    // Allocate learner nodes first so ring configs can reference them.
    let learner_nodes: Vec<NodeId> =
        (0..opts.learners.len()).map(|_| sim.add_node(Box::new(Idle))).collect();

    let mut rings = Vec::new();
    let mut ring_cfgs: Vec<MRingConfig> = Vec::new();
    for r in 0..opts.n_rings {
        let ring: Vec<NodeId> = (0..opts.ring_size).map(|_| sim.add_node(Box::new(Idle))).collect();
        let proposer = sim.add_node(Box::new(Idle));
        let group = sim.add_group();

        // Ring learners: its proposer (it observes its own values) plus
        // every multi-ring learner subscribed to this ring.
        let mut ring_learners = vec![proposer];
        for (li, subs) in opts.learners.iter().enumerate() {
            if subs.contains(&r) {
                ring_learners.push(learner_nodes[li]);
            }
        }
        let mut cfg = MRingConfig::new(ring.clone(), ring_learners.clone(), group);
        cfg.storage = opts.storage;
        if opts.lambda_per_sec > 0 {
            cfg.skip = Some(SkipConfig { lambda_per_sec: opts.lambda_per_sec, delta: opts.delta });
        }
        for &n in ring.iter().chain(&ring_learners) {
            sim.subscribe(n, group);
        }

        // Ring-local delivery log for the proposer only.
        let local_log = shared_log(ring_learners.len());
        for &n in &ring {
            sim.replace_actor(n, Box::new(MRingProcess::new(cfg.clone(), n, None, None)));
        }
        let rate = opts.rates_per_ring_bps[r].max(1);
        let pacer = Pacer::new(rate, opts.msg_bytes, 1);
        let rate_control = Arc::new(AtomicU64::new(rate));
        let actor = MRingProcess::new(cfg.clone(), proposer, Some(pacer), Some(local_log))
            .with_rate_control(rate_control.clone());
        sim.replace_actor(proposer, Box::new(actor));
        ring_cfgs.push(cfg.clone());
        rings.push(RingHandle { cfg, ring, proposer, rate_control });
    }

    // Instantiate the merge learners.
    let log = shared_log(opts.learners.len());
    for (li, subs) in opts.learners.iter().enumerate() {
        let mut sorted = subs.clone();
        sorted.sort_unstable();
        let cfgs: Vec<MRingConfig> = sorted.iter().map(|&r| ring_cfgs[r].clone()).collect();
        let actor = MultiRingLearner::new(learner_nodes[li], li, cfgs, opts.m, Some(log.clone()));
        sim.replace_actor(learner_nodes[li], Box::new(actor));
    }

    MultiRingDeployment { rings, learners: learner_nodes, log }
}
