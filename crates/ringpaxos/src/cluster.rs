//! Deployment helpers: stand up a complete Ring Paxos ensemble on a
//! simulated cluster in one call. Experiments and tests share these.

use abcast::{shared_log, Pacer, SharedLog};
use recovery::{stable, RecoveredApp, StableHandle};
use simnet::prelude::*;

use crate::config::{MRingConfig, PartitionConfig, StorageMode, URingConfig};
use crate::mring::{MRecovery, MRingProcess};
use crate::uring::{URecovery, URingProcess};
use crate::value::{Batch, ALL_PARTITIONS};

/// Options for [`deploy_mring`].
#[derive(Clone, Debug)]
pub struct MRingOptions {
    /// Acceptors in the ring, coordinator included (the paper's `f + 1`).
    pub ring_size: usize,
    /// Spare acceptors outside the ring (for failover experiments).
    pub spares: usize,
    /// Dedicated learner nodes ("receivers" in the paper's figures).
    pub n_learners: usize,
    /// Proposer nodes. Each is also a learner, as the paper notes a
    /// proposer must be to observe its own decisions.
    pub n_proposers: usize,
    /// Offered load per proposer, bits per second.
    pub proposer_rate_bps: u64,
    /// Application message size in bytes.
    pub msg_bytes: u32,
    /// Messages per proposer wakeup (burstiness).
    pub burst: u32,
    /// Stop offering load at this time (None = run forever).
    pub proposer_stop: Option<Time>,
}

impl Default for MRingOptions {
    fn default() -> Self {
        MRingOptions {
            ring_size: 3,
            spares: 0,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: 100_000_000,
            msg_bytes: 8192,
            burst: 1,
            proposer_stop: None,
        }
    }
}

/// A deployed M-Ring Paxos ensemble.
pub struct MRingDeployment {
    /// The shared protocol configuration.
    pub cfg: MRingConfig,
    /// Ring acceptors (last is the coordinator).
    pub ring: Vec<NodeId>,
    /// Spare acceptors.
    pub spares: Vec<NodeId>,
    /// Dedicated learner nodes this deployment created.
    pub learners: Vec<NodeId>,
    /// Proposer (and learner) nodes.
    pub proposers: Vec<NodeId>,
    /// All learner nodes in `cfg.learners` order: dedicated, proposers,
    /// then any given to [`layout_mring`].
    pub all_learners: Vec<NodeId>,
    /// The multicast group (the base group of a partitioned ring).
    pub group: GroupId,
    /// Delivery log indexed like `all_learners`.
    pub log: SharedLog,
}

impl MRingDeployment {
    /// The coordinator node.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }
}

/// A proposer's open-loop pacer, as both rings' options describe it.
fn pacer(rate_bps: u64, msg_bytes: u32, burst: u32, stop: Option<Time>) -> Pacer {
    let mut pacer = Pacer::new(rate_bps, msg_bytes, burst);
    if let Some(stop) = stop {
        pacer.stop_at(stop);
    }
    pacer
}

/// Deploys M-Ring Paxos on `sim`. `configure` can adjust the
/// [`MRingConfig`] (packet size, storage mode, flow control…) before the
/// processes are instantiated.
pub fn deploy_mring(
    sim: &mut Sim,
    opts: &MRingOptions,
    configure: impl FnOnce(&mut MRingConfig),
) -> MRingDeployment {
    layout_mring(sim, opts, &[], None, configure).install(sim, |p, _, _| Some(Box::new(p)))
}

/// An M-Ring ensemble laid out on a [`Sim`] but not started: its nodes,
/// groups and subscriptions exist and every node it created still runs
/// [`Idle`]. [`MRingLayout::install`] starts it, once.
pub struct MRingLayout {
    /// The deployment [`MRingLayout::install`] returns.
    pub d: MRingDeployment,
    opts: MRingOptions,
}

/// `n` fresh nodes running [`Idle`].
fn idle_nodes(sim: &mut Sim, n: usize) -> Vec<NodeId> {
    (0..n).map(|_| sim.add_node(Box::new(Idle))).collect()
}

/// Lays M-Ring Paxos out on `sim`; every M-Ring ensemble is made here.
/// Node ids go to the ring, the spares, `opts.n_learners` learners and
/// `opts.n_proposers` proposers, in that order; `cfg.learners` lists
/// those learners, the proposers, then `given` (learner nodes that
/// already exist). With `partition_masks` (one per learner) the ring is
/// partitioned (§4.2.2): after the base group comes one group per
/// partition; acceptors join every group, a learner its partitions'
/// groups. Each group lists the acceptors, then its learners in
/// `cfg.learners` order.
/// `configure` adjusts the [`MRingConfig`] last.
pub fn layout_mring(
    sim: &mut Sim,
    opts: &MRingOptions,
    given: &[NodeId],
    partition_masks: Option<Vec<u32>>,
    configure: impl FnOnce(&mut MRingConfig),
) -> MRingLayout {
    let ring = idle_nodes(sim, opts.ring_size);
    let spares = idle_nodes(sim, opts.spares);
    let learners = idle_nodes(sim, opts.n_learners);
    let proposers = idle_nodes(sim, opts.n_proposers);
    let all_learners: Vec<NodeId> =
        learners.iter().chain(&proposers).chain(given).copied().collect();

    let group = sim.add_group();
    let mut cfg = MRingConfig::new(ring.clone(), all_learners.clone(), group);
    cfg.spares = spares.clone();
    if let Some(learner_masks) = partition_masks {
        assert_eq!(learner_masks.len(), all_learners.len(), "one partition mask per learner");
        let n_parts = u32::BITS - learner_masks.iter().fold(0, |a, m| a | m).leading_zeros();
        let groups = (0..n_parts).map(|_| sim.add_group()).collect();
        cfg.partitions = Some(PartitionConfig { groups, learner_masks });
    }
    let acceptors = ring.iter().chain(&spares).map(|&n| (n, ALL_PARTITIONS));
    let masked = all_learners.iter().enumerate().map(|(i, &n)| (n, cfg.learner_mask(i)));
    for (n, mask) in acceptors.chain(masked) {
        sim.subscribe(n, group);
        for g in cfg.partitions.iter().flat_map(|p| p.groups_of(mask)) {
            sim.subscribe(n, g);
        }
    }
    configure(&mut cfg);

    let log = shared_log(all_learners.len());
    let d = MRingDeployment { cfg, ring, spares, learners, proposers, all_learners, group, log };
    MRingLayout { d, opts: opts.clone() }
}

impl MRingLayout {
    /// Installs every member once, in node order: the ring, the spares,
    /// then the learners in `cfg.learners` order. `install` gets each
    /// fresh process with its node and its index in `cfg.learners`
    /// (`None` for an acceptor), and returns the actor to run there: the
    /// process, a wrapper around it, or `None` to leave the node to an
    /// actor installed elsewhere.
    pub fn install(
        self,
        sim: &mut Sim,
        mut install: impl FnMut(MRingProcess, NodeId, Option<usize>) -> Option<Box<dyn Actor>>,
    ) -> MRingDeployment {
        let MRingLayout { d, opts } = self;
        let acceptors = d.ring.iter().chain(&d.spares).map(|&n| (n, None));
        let learners = d.all_learners.iter().enumerate().map(|(i, &n)| (n, Some(i)));
        for (n, learner) in acceptors.chain(learners) {
            let pacer = d.proposers.contains(&n).then(|| {
                pacer(opts.proposer_rate_bps, opts.msg_bytes, opts.burst, opts.proposer_stop)
            });
            let p = MRingProcess::new(d.cfg.clone(), n, pacer, learner.map(|_| d.log.clone()));
            if let Some(actor) = install(p, n, learner) {
                sim.replace_actor(n, actor);
            }
        }
        d
    }
}

/// A recovery-enabled M-Ring deployment: the ensemble plus each node's
/// stable store, which outlives actor replacements so that
/// [`respawn_mring`] can install a fresh process over it.
pub struct RecoverableMRing {
    /// The underlying deployment.
    pub d: MRingDeployment,
    /// Learner checkpoint interval the deployment was built with.
    pub checkpoint_interval: u64,
    /// Stable stores, one per node the deployment created.
    stores: Vec<(NodeId, StableHandle<Batch>)>,
}

impl RecoverableMRing {
    /// The stable store of `node`.
    pub fn store_of(&self, node: NodeId) -> StableHandle<Batch> {
        self.stores
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, s)| s.clone())
            .expect("node belongs to this deployment")
    }
}

/// Deploys M-Ring Paxos with the recovery subsystem on every process.
/// Recovery needs votes written ahead: this helper sets
/// `StorageMode::SyncDisk`, the one mode that does, before `configure`
/// adjusts everything else. `mk_app` supplies each *learner* node's
/// replicated-service hook.
pub fn deploy_mring_recoverable(
    sim: &mut Sim,
    opts: &MRingOptions,
    checkpoint_interval: u64,
    configure: impl FnOnce(&mut MRingConfig),
    mut mk_app: impl FnMut(NodeId) -> Option<Box<dyn RecoveredApp>>,
) -> RecoverableMRing {
    let mut stores: Vec<(NodeId, StableHandle<Batch>)> = Vec::new();
    let with_sync_disk = |cfg: &mut MRingConfig| {
        cfg.storage = StorageMode::SyncDisk;
        configure(cfg);
    };
    let d = layout_mring(sim, opts, &[], None, with_sync_disk).install(sim, |p, n, learner| {
        let store: StableHandle<Batch> = stable();
        stores.push((n, store.clone()));
        let app = learner.and_then(|_| mk_app(n));
        Some(Box::new(p.with_recovery(MRecovery {
            store,
            checkpoint_interval,
            app,
            resumed: false,
        })))
    });
    RecoverableMRing { d, checkpoint_interval, stores }
}

/// Respawns a fresh recovery-enabled M-Ring process on `node` over its
/// stable store (marks the node up first): an acceptor replays its
/// durable votes, a learner restores its checkpoint and catches the
/// decided suffix up from its preferential acceptor over TCP. The
/// proposer role is not resumed.
pub fn respawn_mring(
    sim: &mut Sim,
    rm: &RecoverableMRing,
    node: NodeId,
    app: Option<Box<dyn RecoveredApp>>,
) {
    sim.set_node_up(node, true);
    let log = rm.d.cfg.learners.contains(&node).then(|| rm.d.log.clone());
    let actor = MRingProcess::new(rm.d.cfg.clone(), node, None, log).with_recovery(MRecovery {
        store: rm.store_of(node),
        checkpoint_interval: rm.checkpoint_interval,
        app,
        resumed: true,
    });
    sim.replace_actor(node, Box::new(actor));
}

/// Options for [`deploy_uring`].
#[derive(Clone, Debug)]
pub struct URingOptions {
    /// Total processes on the ring.
    pub ring_len: usize,
    /// How many (from position 0) are acceptors; position 0 coordinates.
    pub n_acceptors: usize,
    /// Ring positions that propose (the paper has every process propose
    /// for peak throughput).
    pub proposer_positions: Vec<usize>,
    /// Offered load per proposer, bits per second.
    pub proposer_rate_bps: u64,
    /// Application message size in bytes.
    pub msg_bytes: u32,
    /// Messages per wakeup.
    pub burst: u32,
    /// Stop offering load at this time (None = run forever).
    pub proposer_stop: Option<Time>,
}

impl Default for URingOptions {
    fn default() -> Self {
        URingOptions {
            ring_len: 5,
            n_acceptors: 3,
            proposer_positions: vec![0, 1, 2, 3, 4],
            proposer_rate_bps: 100_000_000,
            msg_bytes: 32 * 1024,
            burst: 1,
            proposer_stop: None,
        }
    }
}

/// A deployed U-Ring Paxos ensemble.
pub struct URingDeployment {
    /// The shared protocol configuration.
    pub cfg: URingConfig,
    /// Processes in ring order (position 0 is the coordinator).
    pub ring: Vec<NodeId>,
    /// Delivery log indexed by ring position (all processes learn).
    pub log: SharedLog,
}

/// Deploys U-Ring Paxos on `sim`.
pub fn deploy_uring(
    sim: &mut Sim,
    opts: &URingOptions,
    configure: impl FnOnce(&mut URingConfig),
) -> URingDeployment {
    build_uring(sim, opts, configure, |p, _| p)
}

/// Allocates the ring's nodes and installs every process, once:
/// `finish` gets each freshly built process with its ring position and
/// returns what to install (recovery attaches here).
fn build_uring(
    sim: &mut Sim,
    opts: &URingOptions,
    configure: impl FnOnce(&mut URingConfig),
    mut finish: impl FnMut(URingProcess, usize) -> URingProcess,
) -> URingDeployment {
    let ring = idle_nodes(sim, opts.ring_len);
    let mut cfg = URingConfig::new(ring.clone(), opts.n_acceptors);
    configure(&mut cfg);
    let log = shared_log(cfg.ring.len());
    for pos in 0..opts.ring_len {
        let pacer = opts
            .proposer_positions
            .contains(&pos)
            .then(|| pacer(opts.proposer_rate_bps, opts.msg_bytes, opts.burst, opts.proposer_stop));
        let p = URingProcess::new(cfg.clone(), pos, pacer, Some(log.clone()));
        sim.replace_actor(ring[pos], Box::new(finish(p, pos)));
    }
    URingDeployment { cfg, ring, log }
}

/// Recovery tuning for [`deploy_uring_recoverable`].
#[derive(Clone, Copy, Debug)]
pub struct URingRecoveryOptions {
    /// Learner checkpoint interval, in delivered instances (0 = never).
    pub checkpoint_interval: u64,
    /// Decided instances each process retains below its checkpoint
    /// watermark for serving peers' catch-up without a state transfer.
    pub catchup_retention: u64,
}

impl Default for URingRecoveryOptions {
    fn default() -> Self {
        URingRecoveryOptions { checkpoint_interval: 256, catchup_retention: 512 }
    }
}

/// A recovery-enabled U-Ring deployment: the ensemble plus each node's
/// stable store, which outlives actor replacements so that
/// [`respawn_uring`] can install a fresh process over it.
pub struct RecoverableURing {
    /// The underlying deployment.
    pub d: URingDeployment,
    /// Recovery options the deployment was built with.
    pub rec: URingRecoveryOptions,
    /// Per-position stable stores (the nodes' disks).
    pub stores: Vec<StableHandle<Batch>>,
}

/// Deploys U-Ring Paxos with the recovery subsystem on every process.
/// Like [`deploy_mring_recoverable`], it sets `StorageMode::SyncDisk`
/// before `configure` runs. `mk_app` supplies each ring position's
/// replicated-service hook (`None` for a stateless learner whose
/// checkpoints carry only metadata).
pub fn deploy_uring_recoverable(
    sim: &mut Sim,
    opts: &URingOptions,
    rec: URingRecoveryOptions,
    configure: impl FnOnce(&mut URingConfig),
    mut mk_app: impl FnMut(usize) -> Option<Box<dyn RecoveredApp>>,
) -> RecoverableURing {
    let stores: Vec<StableHandle<Batch>> = (0..opts.ring_len).map(|_| stable()).collect();
    let with_sync_disk = |cfg: &mut URingConfig| {
        cfg.storage = StorageMode::SyncDisk;
        configure(cfg);
    };
    let d = build_uring(sim, opts, with_sync_disk, |p, pos| {
        p.with_recovery(urecovery(&rec, stores[pos].clone(), mk_app(pos), false))
    });
    RecoverableURing { d, rec, stores }
}

/// One U-Ring process's recovery attachment under `rec`'s tuning.
fn urecovery(
    rec: &URingRecoveryOptions,
    store: StableHandle<Batch>,
    app: Option<Box<dyn RecoveredApp>>,
    resumed: bool,
) -> URecovery {
    URecovery {
        store,
        checkpoint_interval: rec.checkpoint_interval,
        app,
        catchup_retention: rec.catchup_retention,
        resumed,
    }
}

/// Respawns a fresh recovery-enabled process at ring position `pos`
/// over its stable store (marks the node up first): the process replays
/// its durable acceptor votes, restores the learner checkpoint, and
/// catches the decided suffix up from a peer. The proposer role is not
/// resumed (see the `uring` module docs).
///
/// Position 0 — the original coordinator — may be respawned only on a
/// failover-enabled ring (`cfg.suspicion_timeout` set): its instance
/// allocation is not logged write-ahead, so the fresh incarnation comes
/// back demoted and re-acquires leadership (if at all) through an epoch
/// takeover whose promise quorum reconstructs the allocation. Without
/// failover, `URingProcess::with_recovery` panics for that position.
pub fn respawn_uring(
    sim: &mut Sim,
    ru: &RecoverableURing,
    pos: usize,
    app: Option<Box<dyn RecoveredApp>>,
) {
    sim.set_node_up(ru.d.ring[pos], true);
    let actor = URingProcess::new(ru.d.cfg.clone(), pos, None, Some(ru.d.log.clone()))
        .with_recovery(urecovery(&ru.rec, ru.stores[pos].clone(), app, true));
    sim.replace_actor(ru.d.ring[pos], Box::new(actor));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_partitioned_layout_keeps_the_historical_ids_and_memberships() {
        let mut sim = Sim::new(SimConfig::default());
        let given = sim.add_node(Box::new(Idle));
        let opts =
            MRingOptions { ring_size: 3, n_learners: 2, n_proposers: 1, ..Default::default() };
        let masks = vec![0b01, 0b10, 0b01, 0b10];
        let d = layout_mring(&mut sim, &opts, &[given], Some(masks.clone()), |_| {}).d;

        // Node ids: the ring, the learners, the proposers; the given
        // learner keeps its own and comes last in `cfg.learners`.
        let n = |ids: &[usize]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(d.ring, n(&[1, 2, 3]));
        assert_eq!((d.learners.clone(), d.proposers.clone()), (n(&[4, 5]), n(&[6])));
        assert_eq!(d.all_learners, n(&[4, 5, 6, 0]));
        assert_eq!(d.cfg.learners, d.all_learners);
        // Group ids: the base group, then one per partition; no other.
        let p = d.cfg.partitions.as_ref().expect("partitioned");
        assert_eq!(d.group, GroupId(0));
        assert_eq!(p.groups, [GroupId(1), GroupId(2)]);
        assert_eq!(sim.add_group(), GroupId(3), "no decision group");
        // One mask per learner, in `cfg.learners` order.
        assert_eq!(p.learner_masks, masks);
        for (i, &m) in masks.iter().enumerate() {
            assert_eq!(d.cfg.learner_mask(i), m);
        }
        // Each group: the ring, then its learners in `cfg.learners` order.
        assert_eq!(sim.members(d.group), n(&[1, 2, 3, 4, 5, 6, 0]));
        assert_eq!(sim.members(p.groups[0]), n(&[1, 2, 3, 4, 6]));
        assert_eq!(sim.members(p.groups[1]), n(&[1, 2, 3, 5, 0]));
    }

    /// A service's stand-in: passes every callback to the process it
    /// wraps.
    struct Wrapped(MRingProcess);

    impl Actor for Wrapped {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
            self.0.on_message(env, ctx);
        }
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
            self.0.on_timer(token, ctx);
        }
    }

    /// Fig 3.14's ensemble run for 100 ms; `wrap` has the hook wrap
    /// learner 0, and `install_twice` installs it by deploying and then
    /// replacing the learner. Returns the events dispatched.
    fn slow_learner_events(wrap: bool, install_twice: bool) -> u64 {
        let mut sim = Sim::new(SimConfig::default());
        let opts =
            MRingOptions { ring_size: 3, n_learners: 3, n_proposers: 2, ..Default::default() };
        let layout = layout_mring(&mut sim, &opts, &[], None, |_| {});
        let slow = layout.d.learners[0];
        let d = layout.install(&mut sim, |p, n, _| -> Option<Box<dyn Actor>> {
            if wrap && n == slow {
                Some(Box::new(Wrapped(p)))
            } else {
                Some(Box::new(p))
            }
        });
        if install_twice {
            let p = MRingProcess::new(d.cfg.clone(), slow, None, Some(d.log.clone()));
            sim.replace_actor(slow, Box::new(p));
        }
        sim.run_until(Time::from_millis(100));
        sim.events_processed()
    }

    #[test]
    fn a_learner_wrapped_through_the_hook_is_installed_once() {
        let plain = slow_learner_events(false, false);
        assert_eq!(slow_learner_events(true, false), plain);
        // The count sees a second install: its timer chains run twice.
        assert!(slow_learner_events(false, true) > plain);
    }
}
