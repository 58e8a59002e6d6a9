//! Deployment builders for the ch. 6 experiment topologies: the three
//! single-ring execution models (sequential, pipelined, SDPE) and P-SMR
//! over one M-Ring Paxos ring per multicast group.

use std::sync::Arc;
use std::sync::Mutex;

use abcast::{shared_log, SharedLog};
use multiring::{ring_sink, MultiRingLearner, RingSink};
use ringpaxos::mring::MRingProcess;
use ringpaxos::{MRingConfig, SkipConfig};
use simnet::prelude::*;
use workload::RetryPolicy;

use crate::client::{PTarget, PsmrClient, PsmrWorkload};
use crate::command::PRegistry;
use crate::engine::{Engine, EngineCosts, ExecModel};
use crate::replica::{DeliverySource, ParallelReplica};
use crate::store::ObjStore;

struct Idle;
impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Options for [`deploy_parallel`].
#[derive(Clone, Debug)]
pub struct ParallelOptions {
    /// Replica execution model.
    pub model: ExecModel,
    /// Replicas of the service.
    pub n_replicas: usize,
    /// Acceptors per ring (coordinator included).
    pub ring_size: usize,
    /// Closed-loop clients.
    pub n_clients: usize,
    /// The command workload.
    pub workload: PsmrWorkload,
    /// Replica-side stage costs.
    pub costs: EngineCosts,
    /// Skip rate λ of each P-SMR ring (instances/s; 0 disables skips).
    pub lambda_per_sec: u64,
    /// Stop issuing commands at this time.
    pub stop_at: Option<Time>,
    /// Client retry policy (deadline, backoff, abandonment). The default
    /// reproduces the constants the client historically hard-coded.
    pub policy: RetryPolicy,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            model: ExecModel::Psmr { workers: 4 },
            n_replicas: 2,
            ring_size: 3,
            n_clients: 40,
            workload: PsmrWorkload::default(),
            costs: EngineCosts::default(),
            lambda_per_sec: 10_000,
            stop_at: None,
            policy: RetryPolicy::default(),
        }
    }
}

/// A deployed parallel-service system.
pub struct ParallelDeployment {
    /// Replica nodes.
    pub replicas: Vec<NodeId>,
    /// Client nodes.
    pub clients: Vec<NodeId>,
    /// Ring coordinators (one per group for P-SMR; a single entry for
    /// the single-ring models).
    pub coordinators: Vec<NodeId>,
    /// Ring configurations, in group order.
    pub ring_cfgs: Vec<MRingConfig>,
    /// The shared command registry.
    pub registry: PRegistry,
    /// Each replica's service state, in `replicas` order.
    pub stores: Vec<Arc<Mutex<ObjStore>>>,
    /// Each replica's ring-tagged delivery stream (P-SMR only; empty for
    /// the single-ring models). Exposed for cross-replica stream checks.
    pub sinks: Vec<RingSink>,
    /// Ordered-delivery log (per replica, in `replicas` order).
    pub log: SharedLog,
}

/// Deploys the parallel service under `opts.model`.
///
/// # Panics
///
/// Panics when the simulated nodes have fewer cores than the model's
/// thread layout needs, or when a P-SMR model's worker count disagrees
/// with the workload's group count.
pub fn deploy_parallel(sim: &mut Sim, opts: &ParallelOptions) -> ParallelDeployment {
    assert!(
        sim.config().cores_per_node >= opts.model.cores_needed(),
        "model {:?} needs {} cores per node; SimConfig has {}",
        opts.model,
        opts.model.cores_needed(),
        sim.config().cores_per_node
    );
    if let ExecModel::Psmr { workers } = opts.model {
        assert_eq!(workers, opts.workload.n_groups, "P-SMR runs one worker per multicast group");
    }

    let replicas: Vec<NodeId> =
        (0..opts.n_replicas).map(|_| sim.add_node(Box::new(Idle))).collect();
    let clients: Vec<NodeId> = (0..opts.n_clients).map(|_| sim.add_node(Box::new(Idle))).collect();
    let registry = PRegistry::new();
    let log = shared_log(opts.n_replicas);
    let domains = opts.workload.n_groups;
    let stores: Vec<Arc<Mutex<ObjStore>>> =
        (0..opts.n_replicas).map(|_| Arc::new(Mutex::new(ObjStore::new(domains)))).collect();

    let n_rings = match opts.model {
        ExecModel::Psmr { workers } => workers,
        _ => 1,
    };

    // One M-Ring Paxos ring per group (a single ring for the
    // totally-ordered models).
    let mut ring_cfgs: Vec<MRingConfig> = Vec::new();
    let mut coordinators = Vec::new();
    for _ in 0..n_rings {
        let ring: Vec<NodeId> = (0..opts.ring_size).map(|_| sim.add_node(Box::new(Idle))).collect();
        let group = sim.add_group();
        let mut cfg = MRingConfig::new(ring.clone(), replicas.clone(), group);
        cfg.packet_bytes = 8192;
        cfg.batch_timeout = Dur::micros(100);
        if n_rings > 1 && opts.lambda_per_sec > 0 {
            cfg.skip =
                Some(SkipConfig { lambda_per_sec: opts.lambda_per_sec, delta: Dur::millis(1) });
        }
        for &n in ring.iter().chain(&replicas) {
            sim.subscribe(n, group);
        }
        for &a in &ring {
            sim.replace_actor(a, Box::new(MRingProcess::new(cfg.clone(), a, None, None)));
        }
        coordinators.push(cfg.coordinator());
        ring_cfgs.push(cfg);
    }

    // Replicas: ordering-layer learner + execution engine.
    let mut sinks = Vec::new();
    for (i, &r) in replicas.iter().enumerate() {
        let engine = Engine::new(opts.model, opts.costs);
        let store = stores[i].clone();
        match opts.model {
            ExecModel::Psmr { .. } => {
                let sink = ring_sink();
                sinks.push(sink.clone());
                let learner = MultiRingLearner::new(r, i, ring_cfgs.clone(), 1, Some(log.clone()))
                    .with_ring_sink(sink.clone());
                let actor = ParallelReplica::new(
                    learner,
                    DeliverySource::RingTagged { sink },
                    r,
                    replicas.clone(),
                    registry.clone(),
                    engine,
                    store,
                );
                sim.replace_actor(r, Box::new(actor));
            }
            _ => {
                let cfg = &ring_cfgs[0];
                let inner = MRingProcess::new(cfg.clone(), r, None, Some(log.clone()));
                let log_index = cfg
                    .learners
                    .iter()
                    .position(|&l| l == r)
                    .expect("replica registered as learner");
                let actor = ParallelReplica::new(
                    inner,
                    DeliverySource::TotalOrder { log: log.clone(), log_index },
                    r,
                    replicas.clone(),
                    registry.clone(),
                    engine,
                    store,
                );
                sim.replace_actor(r, Box::new(actor));
            }
        }
    }

    // Clients. They carry each ring's full membership so retries can
    // rotate to surviving members after a coordinator failover.
    let members: Vec<Vec<NodeId>> = ring_cfgs.iter().map(|cfg| cfg.ring.clone()).collect();
    let target = match opts.model {
        ExecModel::Psmr { .. } => {
            PTarget::MultiRing { coordinators: coordinators.clone(), members: members.clone() }
        }
        _ => PTarget::SingleRing { coordinator: coordinators[0], members: members[0].clone() },
    };
    for (ci, &c) in clients.iter().enumerate() {
        let client = PsmrClient::new(
            c,
            target.clone(),
            replicas.clone(),
            registry.clone(),
            opts.workload,
            0x9a7a11e1 + ci as u64,
            opts.stop_at,
        )
        .with_policy(opts.policy);
        sim.replace_actor(c, Box::new(client));
    }

    ParallelDeployment { replicas, clients, coordinators, ring_cfgs, registry, stores, sinks, log }
}
