//! Deployment builders for the ch. 4 experiment topologies: the CS
//! baseline, full state-machine replication (plain or speculative), and
//! partitioned SMR over the modified M-Ring Paxos.

use abcast::SharedLog;
use btree::{Partitioning, TreeCommand, TreeService};
use ringpaxos::cluster::{layout_mring, MRingDeployment, MRingOptions};
use ringpaxos::MRingConfig;
use simnet::prelude::*;
use workload::{
    Arrival, KeyedWorkload, Poisson, RetryPolicy, Rotation, SessionTable, SessionTableConfig,
    WorkloadKind,
};

use crate::cs::CsServer;
use crate::replica::{ReplicaConfig, ReplicaState, ReplicaStates, SmrReplica};
use crate::service::Registry;
use crate::session::{Route, TreeSessionDriver};

/// Tuples pre-loaded into each partition's tree. The paper loads 12 M
/// keys; the simulation's cost model is size-independent, so a smaller
/// population keeps deployment fast while preserving behaviour.
pub const POPULATE_COUNT: u64 = 12_000;

/// Partitioned-deployment options (§4.2.2).
#[derive(Clone, Copy, Debug)]
pub struct PartitionOptions {
    /// Number of partitions.
    pub n: u32,
    /// Replicas per partition.
    pub replicas_per: usize,
    /// Percentage of queries that cross a partition boundary. Only
    /// [`deploy_smr`] honours it; [`deploy_smr_sessions`] requires 0.
    pub cross_pct: u32,
}

/// Options for [`deploy_smr`].
#[derive(Clone, Debug)]
pub struct SmrOptions {
    /// Replicas (full replication) — ignored when `partitions` is set.
    pub n_replicas: usize,
    /// Ring acceptors, coordinator included.
    pub ring_size: usize,
    /// The client workload.
    pub workload: WorkloadKind,
    /// Closed-loop clients, one node each.
    pub n_clients: usize,
    /// Execute speculatively on payload arrival (§4.2.1).
    pub speculative: bool,
    /// State partitioning (§4.2.2); `None` = full replication.
    pub partitions: Option<PartitionOptions>,
    /// Stop issuing commands at this time.
    pub stop_at: Option<Time>,
}

impl Default for SmrOptions {
    fn default() -> Self {
        SmrOptions {
            n_replicas: 2,
            ring_size: 3,
            workload: WorkloadKind::Queries,
            n_clients: 20,
            speculative: false,
            partitions: None,
            stop_at: None,
        }
    }
}

/// A deployed SMR system.
pub struct SmrDeployment {
    /// Ring acceptors (last = coordinator).
    pub ring: Vec<NodeId>,
    /// Replicas, grouped by partition (one group when unpartitioned).
    pub replicas: Vec<Vec<NodeId>>,
    /// Client nodes, each a closed-loop [`SessionTable`] of one session
    /// (read `workload`'s `sessions.*` metrics here).
    pub clients: Vec<NodeId>,
    /// The shared command registry.
    pub registry: Registry<TreeCommand>,
    /// The ring's delivery log (per replica, in `cfg.learners` order).
    pub log: SharedLog,
    /// The replicas' state board (same order as `log`).
    pub states: ReplicaStates,
    /// Key partitioning, when enabled.
    pub partitioning: Option<Partitioning>,
    /// The ring configuration.
    pub cfg: MRingConfig,
}

impl SmrDeployment {
    /// The ring coordinator.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }

    /// All replica nodes, flattened.
    pub fn all_replicas(&self) -> Vec<NodeId> {
        self.replicas.iter().flatten().copied().collect()
    }

    /// Every replica's state now, grouped like `replicas`.
    pub fn replica_states(&self, sim: &mut Sim) -> Vec<Vec<ReplicaState>> {
        read_states(&self.states, sim, &self.replicas)
    }
}

/// Reads the state board and regroups it by partition.
fn read_states(
    states: &ReplicaStates,
    sim: &mut Sim,
    replicas: &[Vec<NodeId>],
) -> Vec<Vec<ReplicaState>> {
    let flat: Vec<NodeId> = replicas.iter().flatten().copied().collect();
    let mut rows = states.read(sim, &flat).into_iter();
    replicas.iter().map(|part| rows.by_ref().take(part.len()).collect()).collect()
}

/// Lays out the ordering ring through [`layout_mring`], its learners
/// the replicas of the B⁺-tree service, partition by partition (§4.2.2),
/// then allocates `n_clients` idle client-tier nodes and installs the
/// ring with a [`SmrReplica`] on each learner. Node ids go to the ring,
/// the replicas, then the client tier. `exec_cores` is each replica's
/// execution pool ([`ReplicaConfig::exec_cores`]) — the one thing the
/// two client tiers' server sides differ in.
fn deploy_replicas(
    sim: &mut Sim,
    partitions: Option<PartitionOptions>,
    n_replicas: usize,
    ring_size: usize,
    speculative: bool,
    packet_bytes: u32,
    n_clients: usize,
    exec_cores: &[usize],
) -> SmrDeployment {
    let n_partitions = partitions.map(|p| p.n).unwrap_or(1);
    let replicas_per = partitions.map(|p| p.replicas_per).unwrap_or(n_replicas);
    let opts = MRingOptions {
        ring_size,
        n_learners: n_partitions as usize * replicas_per,
        n_proposers: 0,
        ..MRingOptions::default()
    };
    let masks = partitions
        .map(|_| (0..n_partitions).flat_map(|pi| [1 << pi].repeat(replicas_per)).collect());
    let layout = layout_mring(sim, &opts, &[], masks, |cfg| {
        cfg.packet_bytes = packet_bytes;
        cfg.batch_timeout = Dur::micros(100);
    });
    let clients: Vec<NodeId> = (0..n_clients).map(|_| sim.add_node(Box::new(Idle))).collect();

    let registry: Registry<TreeCommand> = Registry::replicated(n_partitions, replicas_per as u32);
    let states = ReplicaStates::new(layout.d.all_learners.len());
    let span = Partitioning::new(n_partitions.max(1)).span;
    let rcfg =
        ReplicaConfig { speculative, exec_cores: exec_cores.to_vec(), ..ReplicaConfig::default() };
    let log = layout.d.log.clone();
    let MRingDeployment { ring, learners, cfg, .. } = layout.install(sim, |p, r, learner| {
        let Some(i) = learner else { return Some(Box::new(p)) };
        let service =
            TreeService::populated((i / replicas_per) as u64 * span, span, POPULATE_COUNT);
        let (registry, states, rcfg) = (registry.clone(), states.clone(), rcfg.clone());
        Some(Box::new(SmrReplica::new(p, log.clone(), i, r, service, registry, states, rcfg)))
    });

    let replicas = (0..n_partitions as usize)
        .map(|pi| learners[pi * replicas_per..(pi + 1) * replicas_per].to_vec())
        .collect();
    let partitioning = partitions.map(|p| Partitioning::new(p.n));
    SmrDeployment { ring, replicas, clients, registry, log, states, partitioning, cfg }
}

/// Deploys state-machine replication per `opts`.
pub fn deploy_smr(sim: &mut Sim, opts: &SmrOptions) -> SmrDeployment {
    // The single-update workload is not batched in the paper (§4.4.2);
    // batching into 8 KB packets is specific to Ins/Del (batch). Queries
    // (256 B commands) also go one per instance.
    let packet_bytes = match opts.workload {
        WorkloadKind::InsDelBatch => 8192,
        _ => 256,
    };
    let d = deploy_replicas(
        sim,
        opts.partitions,
        opts.n_replicas,
        opts.ring_size,
        opts.speculative,
        packet_bytes,
        opts.n_clients,
        // The paper's two-thread server (§4.4.2, Fig 4.8): one
        // execution thread beside the response thread.
        &[1],
    );
    let n_partitions = opts.partitions.map(|p| p.n).unwrap_or(1);
    let span = Partitioning::new(n_partitions.max(1)).span;

    let key_space = span * n_partitions as u64;
    for &c in &d.clients {
        let mut workload = KeyedWorkload::uniform(opts.workload, key_space);
        if let (Some(p), Some(po)) = (d.partitioning, opts.partitions) {
            workload = workload.with_partitions(p, po.cross_pct);
        }
        // Proposals go to the coordinator only, a rotation without
        // members. A one-session client has no later answer to tell a
        // lost proposal from a dead coordinator, so rotating would move
        // it to a relaying ring member on every lost proposal.
        let route = Route::Ring(Rotation::new(d.cfg.coordinator(), Vec::new()));
        let driver = TreeSessionDriver::new(c, route, d.registry.clone(), workload, d.partitioning);
        sim.replace_actor(c, closed_loop_client(c, driver, opts.stop_at));
    }
    d
}

/// A ch. 4 client: a closed-loop table of one session. It resubmits a
/// command outstanding longer than 400 ms on each 500 ms check, with no
/// backoff growth and no abandonment (the paper's proposers "submit new
/// requests and re-submit pending requests", §3.5.8).
fn closed_loop_client(
    me: NodeId,
    driver: TreeSessionDriver,
    stop_at: Option<Time>,
) -> Box<dyn Actor> {
    let policy = RetryPolicy {
        base: Dur::millis(400),
        cap: Dur::millis(400),
        tick: Dur::millis(500),
        max_attempts: u32::MAX,
    };
    let cfg = SessionTableConfig {
        sessions: 1,
        arrival: Arrival::Closed,
        policy,
        max_in_flight: 1,
        stop_at,
    };
    Box::new(SessionTable::new(me, cfg, driver))
}

/// Options for [`deploy_smr_sessions`] — the mass-session tier (ch. 10):
/// the ch. 4 server side driven by open-loop [`SessionTable`]s hosting
/// many sessions per node, instead of one closed-loop session per client
/// node.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Replicas (full replication) — ignored when `partitions` is set.
    pub n_replicas: usize,
    /// Ring acceptors, coordinator included.
    pub ring_size: usize,
    /// The command shape generated per session interaction.
    pub kind: WorkloadKind,
    /// Zipf exponent for key selection; `0.0` = uniform keys.
    pub zipf_s: f64,
    /// Session-table actors (each its own node).
    pub n_tables: usize,
    /// Simulated sessions hosted *per table*.
    pub sessions_per_table: u64,
    /// Aggregate open-loop (Poisson) arrival rate *per table*, in
    /// requests/s; must be positive.
    pub rate_per_table: f64,
    /// State partitioning (§4.2.2); `None` = full replication.
    pub partitions: Option<PartitionOptions>,
    /// Retry/backoff knobs shared by every session.
    pub policy: RetryPolicy,
    /// Per-table in-flight ceiling; open-loop arrivals beyond it shed.
    pub max_in_flight: u32,
    /// Stop issuing new requests at this time.
    pub stop_at: Option<Time>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            n_replicas: 2,
            ring_size: 3,
            kind: WorkloadKind::InsDelSingle,
            zipf_s: 0.99,
            n_tables: 4,
            sessions_per_table: 250_000,
            rate_per_table: 25_000.0,
            partitions: None,
            policy: RetryPolicy::default(),
            max_in_flight: 1 << 20,
            stop_at: None,
        }
    }
}

/// A deployed mass-session SMR system.
pub struct SessionDeployment {
    /// Ring acceptors (last = coordinator).
    pub ring: Vec<NodeId>,
    /// Replicas, grouped by partition (one group when unpartitioned).
    pub replicas: Vec<Vec<NodeId>>,
    /// Session-table nodes (read `workload`'s `sessions.*` metrics and
    /// the [`workload::SESSION_LATENCY`] histogram here).
    pub tables: Vec<NodeId>,
    /// The shared command registry.
    pub registry: Registry<TreeCommand>,
    /// The ring's delivery log (per replica, in `cfg.learners` order).
    pub log: SharedLog,
    /// The replicas' state board (same order as `log`).
    pub states: ReplicaStates,
    /// Key partitioning, when enabled.
    pub partitioning: Option<Partitioning>,
    /// The ring configuration.
    pub cfg: MRingConfig,
}

impl SessionDeployment {
    /// The ring coordinator.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }

    /// Every replica's state now, grouped like `replicas`.
    pub fn replica_states(&self, sim: &mut Sim) -> Vec<Vec<ReplicaState>> {
        read_states(&self.states, sim, &self.replicas)
    }
}

/// Deploys the session-table client tier over the ch. 4 server side.
/// Opt-in: [`deploy_smr`] and its traces are untouched by this path.
/// Its replicas always execute speculatively (§4.2.1): a reply leaves at
/// `max(execution done, decision)`, and there is no plain mode to select.
///
/// # Panics
/// Panics if `opts.partitions` asks for cross-partition commands
/// (`cross_pct` above 0): the session tier cannot make them.
pub fn deploy_smr_sessions(sim: &mut Sim, opts: &SessionOptions) -> SessionDeployment {
    // A session's command touches the partitions its keys fall in
    // (`KeyedWorkload`); unlike `deploy_smr`, nothing here lays a share
    // of queries across partitions, so a non-zero `cross_pct` would be
    // dropped without a trace.
    assert!(
        opts.partitions.is_none_or(|p| p.cross_pct == 0),
        "deploy_smr_sessions lays no queries across partitions, so \
         PartitionOptions::cross_pct must be 0 (only deploy_smr honours it)"
    );
    // Mass-session traffic is coordinator-bound: with 8 KB packets the
    // coordinator packs every pending 256 B command of a partition mask
    // into one instance (§3.5.4), up to 32 of them. A partial batch
    // leaves on arrival at an idle coordinator, and otherwise once its
    // core 0 and uplink drain (`batch_timeout`, 100 µs here, only
    // bounds that hold).
    //
    // Replicas execute on every core that neither delivery (0) nor the
    // response thread uses — `[1, 3]` at four cores per node.
    let resp_core = ReplicaConfig::default().resp_core;
    let exec_cores: Vec<usize> =
        (1..sim.config().cores_per_node).filter(|&c| c != resp_core).collect();
    let SmrDeployment { ring, replicas, clients: tables, registry, log, states, partitioning, cfg } =
        deploy_replicas(
            sim,
            opts.partitions,
            opts.n_replicas,
            opts.ring_size,
            true,
            8192,
            opts.n_tables,
            &exec_cores,
        );
    let n_partitions = opts.partitions.map(|p| p.n).unwrap_or(1);
    let key_space = Partitioning::new(n_partitions.max(1)).span * n_partitions as u64;

    for &t in &tables {
        let workload = if opts.zipf_s > 0.0 {
            KeyedWorkload::zipfian(opts.kind, key_space, opts.zipf_s)
        } else {
            KeyedWorkload::uniform(opts.kind, key_space)
        };
        let route = Route::Ring(Rotation::new(cfg.coordinator(), cfg.ring.clone()));
        let driver = TreeSessionDriver::new(t, route, registry.clone(), workload, partitioning);
        let tcfg = SessionTableConfig {
            sessions: opts.sessions_per_table,
            arrival: Arrival::Poisson(Poisson::with_rate(opts.rate_per_table)),
            policy: opts.policy,
            max_in_flight: opts.max_in_flight,
            stop_at: opts.stop_at,
        };
        sim.replace_actor(t, Box::new(SessionTable::new(t, tcfg, driver)));
    }

    SessionDeployment { ring, replicas, tables, registry, log, states, partitioning, cfg }
}

/// A deployed client-server baseline.
pub struct CsDeployment {
    /// The stand-alone server.
    pub server: NodeId,
    /// Client nodes, each a closed-loop [`SessionTable`] of one session.
    pub clients: Vec<NodeId>,
    /// Shared command registry.
    pub registry: Registry<TreeCommand>,
}

/// Deploys the non-replicated baseline: one server, `n_clients`
/// closed-loop clients.
pub fn deploy_cs(
    sim: &mut Sim,
    n_clients: usize,
    workload: WorkloadKind,
    stop_at: Option<Time>,
) -> CsDeployment {
    let server = sim.add_node(Box::new(Idle));
    let clients: Vec<NodeId> = (0..n_clients).map(|_| sim.add_node(Box::new(Idle))).collect();
    let registry: Registry<TreeCommand> = Registry::new();
    let span = Partitioning::new(1).span;
    let service = TreeService::populated(0, span, POPULATE_COUNT);
    sim.replace_actor(server, Box::new(CsServer::new(service, registry.clone())));
    for &c in &clients {
        let workload = KeyedWorkload::uniform(workload, span);
        let driver =
            TreeSessionDriver::new(c, Route::Server(server), registry.clone(), workload, None);
        sim.replace_actor(c, closed_loop_client(c, driver, stop_at));
    }
    CsDeployment { server, clients, registry }
}
