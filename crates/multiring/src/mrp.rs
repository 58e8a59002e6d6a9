//! Multi-Ring Paxos deployment: an ensemble of independent M-Ring Paxos
//! rings (one per group) plus learners that merge them deterministically
//! (ch. 5, Algorithm 1).

use abcast::{shared_log, SharedLog};
use ringpaxos::cluster::{layout_mring, MRingOptions};
use ringpaxos::mring::MRingProcess;
use ringpaxos::{MRingConfig, SkipConfig, StorageMode};
use simnet::prelude::*;

use crate::learner::MultiRingLearner;

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
}

impl RingHandle {
    /// The ring's coordinator node.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }

    /// Sets the offered load of the ring (bits/s; 0 pauses) on its
    /// proposer's process ([`MRingProcess::set_rate`]), from the
    /// proposer's next pacer tick on.
    pub fn set_rate(&self, sim: &mut Sim, bps: u64) {
        let proposer = sim.actor_mut::<MRingProcess>(self.proposer).expect("an M-Ring proposer");
        proposer.set_rate(bps);
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
        // Ring learners: its proposer (learner 0: it observes its own
        // values) plus every multi-ring learner subscribed to this ring,
        // which the merge learners below run.
        let merged: Vec<NodeId> = (opts.learners.iter().zip(&learner_nodes))
            .filter(|(subs, _)| subs.contains(&r))
            .map(|(_, &l)| l)
            .collect();
        let rate = opts.rates_per_ring_bps[r].max(1);
        let ring_opts = MRingOptions {
            ring_size: opts.ring_size,
            n_learners: 0,
            n_proposers: 1,
            proposer_rate_bps: rate,
            msg_bytes: opts.msg_bytes,
            burst: 1,
            ..MRingOptions::default()
        };
        let layout = layout_mring(sim, &ring_opts, &merged, None, |cfg| {
            cfg.storage = opts.storage;
            if opts.lambda_per_sec > 0 {
                cfg.skip =
                    Some(SkipConfig { lambda_per_sec: opts.lambda_per_sec, delta: opts.delta });
            }
        });
        // Of the ring's learners only the proposer (learner 0) runs its
        // own process; the merge learners below run the others.
        let d = layout.install(sim, |p, _, learner| match learner {
            Some(i) if i > 0 => None,
            _ => Some(Box::new(p)),
        });
        ring_cfgs.push(d.cfg.clone());
        rings.push(RingHandle { cfg: d.cfg, ring: d.ring, proposer: d.proposers[0] });
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
