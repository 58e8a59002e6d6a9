//! Deployment builders for the ch. 6 experiment topologies: the three
//! single-ring execution models (sequential, pipelined, SDPE) and P-SMR
//! over one M-Ring Paxos ring per multicast group.
//! Each [`ParallelReplica`] owns its store; the deployment names the
//! nodes and reads the stores off them ([`ParallelDeployment::stores`]).

use abcast::{shared_log, SharedLog};
use multiring::MultiRingLearner;
use ringpaxos::cluster::{layout_mring, MRingDeployment, MRingOptions};
use ringpaxos::mring::MRingProcess;
use ringpaxos::{MRingConfig, SkipConfig};
use simnet::prelude::*;
use workload::{Arrival, RetryPolicy, SessionTable, SessionTableConfig};

use crate::client::{PsmrDriver, PsmrWorkload};
use crate::engine::{Engine, EngineCosts, ExecModel};
use crate::replica::ParallelReplica;
use crate::store::ObjStore;

/// Options for [`deploy_parallel`].
#[derive(Clone, Debug)]
pub struct ParallelOptions {
    /// Replica execution model.
    pub model: ExecModel,
    /// Replicas of the service.
    pub n_replicas: usize,
    /// Acceptors per ring (coordinator included).
    pub ring_size: usize,
    /// Closed-loop clients, one node each.
    pub n_clients: usize,
    /// The command workload.
    pub workload: PsmrWorkload,
    /// Replica-side stage costs.
    pub costs: EngineCosts,
    /// Skip rate λ of each P-SMR ring (instances/s; 0 disables skips).
    pub lambda_per_sec: u64,
    /// Stop issuing commands at this time.
    pub stop_at: Option<Time>,
    /// Client retry policy (deadline, backoff, abandonment).
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
    /// Client nodes, each a closed-loop `SessionTable` of one session
    /// (read `workload`'s `sessions.*` metrics here).
    pub clients: Vec<NodeId>,
    /// Ring coordinators (one per group for P-SMR; a single entry for
    /// the single-ring models).
    pub coordinators: Vec<NodeId>,
    /// Ring configurations, in group order.
    pub ring_cfgs: Vec<MRingConfig>,
    /// Ordered-delivery log (per replica, in `replicas` order).
    pub log: SharedLog,
}

impl ParallelDeployment {
    /// Each replica's service state now, in `replicas` order, read off
    /// the replica actors (`Sim::actor`): it schedules nothing, and a
    /// crashed replica's store reads as it was when the node went down.
    pub fn stores<'s>(&self, sim: &'s Sim) -> Vec<&'s ObjStore> {
        // P-SMR's replicas wrap a Multi-Ring learner, the others an
        // M-Ring process.
        let store = |&r: &NodeId| match sim.actor::<ParallelReplica<MultiRingLearner>>(r) {
            Some(psmr) => psmr.store(),
            None => sim.actor::<ParallelReplica<MRingProcess>>(r).expect("a replica").store(),
        };
        self.replicas.iter().map(store).collect()
    }
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
    let domains = opts.workload.n_groups;

    // One M-Ring Paxos ring per group (a single ring for the
    // totally-ordered models), every replica a learner of each. Under
    // P-SMR a `MultiRingLearner` per replica merges the rings; under the
    // other models each replica wraps its ring's learner.
    let n_rings = match opts.model {
        ExecModel::Psmr { workers } => workers,
        _ => 1,
    };
    let ring_opts = MRingOptions {
        ring_size: opts.ring_size,
        n_learners: 0,
        n_proposers: 0,
        ..MRingOptions::default()
    };
    let rings: Vec<MRingDeployment> = (0..n_rings)
        .map(|_| {
            let layout = layout_mring(sim, &ring_opts, &replicas, None, |cfg| {
                cfg.packet_bytes = 8192;
                cfg.batch_timeout = Dur::micros(100);
                if n_rings > 1 && opts.lambda_per_sec > 0 {
                    let delta = Dur::millis(1);
                    cfg.skip = Some(SkipConfig { lambda_per_sec: opts.lambda_per_sec, delta });
                }
            });
            layout.install(sim, |p, r, learner| match (learner, opts.model) {
                (None, _) => Some(Box::new(p)),
                (Some(_), ExecModel::Psmr { .. }) => None,
                (Some(_), model) => Some(Box::new(ParallelReplica::new(
                    p,
                    r,
                    replicas.clone(),
                    Engine::new(model, opts.costs),
                    ObjStore::new(domains),
                ))),
            })
        })
        .collect();
    let ring_cfgs: Vec<MRingConfig> = rings.iter().map(|d| d.cfg.clone()).collect();
    let log = match opts.model {
        ExecModel::Psmr { .. } => shared_log(opts.n_replicas),
        _ => rings[0].log.clone(),
    };
    let coordinators: Vec<NodeId> = ring_cfgs.iter().map(MRingConfig::coordinator).collect();

    // P-SMR replicas: a multi-ring learner + execution engine.
    if let ExecModel::Psmr { .. } = opts.model {
        for (i, &r) in replicas.iter().enumerate() {
            let learner = MultiRingLearner::new(r, i, ring_cfgs.clone(), 1, Some(log.clone()));
            let actor = ParallelReplica::new(
                learner,
                r,
                replicas.clone(),
                Engine::new(opts.model, opts.costs),
                ObjStore::new(domains),
            );
            sim.replace_actor(r, Box::new(actor));
        }
    }

    // Clients carry each ring's full membership, so retries can rotate
    // to surviving members after a coordinator failover.
    let rings: Vec<(NodeId, Vec<NodeId>)> =
        ring_cfgs.iter().map(|cfg| (cfg.coordinator(), cfg.ring.clone())).collect();
    for &c in &clients {
        let driver = PsmrDriver::new(c, rings.clone(), replicas.clone(), opts.workload);
        let cfg = SessionTableConfig {
            sessions: 1,
            arrival: Arrival::Closed,
            policy: opts.policy,
            max_in_flight: 1,
            stop_at: opts.stop_at,
        };
        sim.replace_actor(c, Box::new(SessionTable::new(c, cfg, driver)));
    }

    ParallelDeployment { replicas, clients, coordinators, ring_cfgs, log }
}
