//! Replica execution at scale (ISSUE 15): the benchmark's `smr_query`
//! shape — 8 tables × 125 k open-loop Zipf(0.99) sessions over a 4 × 2
//! partitioned tree — must hold its offered rate past the single
//! execution thread's ceiling, because range scans execute in parallel on
//! the replica's reader cores; updates must not notice.

use std::sync::{Arc, Mutex};

use abcast::MsgId;
use btree::{TreeCommand, TreeService};
use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use hpsmr_core::{Registry, ReplicaConfig, ReplicaStates, SmrReplica, SmrResponse, StoredCommand};
use ringpaxos::cluster::{layout_mring, MRingOptions};
use ringpaxos::value::ALL_PARTITIONS;
use simnet::prelude::*;
use workload::{
    WorkloadKind, SESSIONS_ABANDONED, SESSIONS_COMPLETED, SESSIONS_SHED, SESSIONS_SUBMITTED,
    SESSION_LATENCY,
};

const N_TABLES: usize = 8;
/// Virtual seconds: end of warm-up, end of the window (arrivals stop),
/// end of the drain.
const WARMUP_S: u64 = 1;
const STOP_S: u64 = 5;
const DRAINED_S: u64 = 8;

struct Run {
    sim: Sim,
    d: SessionDeployment,
    /// Completions per virtual second over the window.
    goodput: f64,
    /// Session latency over the window.
    lat: LatencyStats,
    /// Busy share of every core of every replica over the window.
    replica_busy: Vec<Vec<f64>>,
}

fn sum(sim: &Sim, nodes: &[NodeId], name: &'static str) -> u64 {
    nodes.iter().map(|&n| sim.metrics().counter(n, name)).sum()
}

/// One warm-up second, a four-second window at `rate` req/s, then a drain.
fn run(kind: WorkloadKind, rate: f64) -> Run {
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let opts = SessionOptions {
        kind,
        zipf_s: 0.99,
        n_tables: N_TABLES,
        sessions_per_table: 125_000,
        rate_per_table: rate / N_TABLES as f64,
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        stop_at: Some(Time::from_secs(STOP_S)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let replicas: Vec<NodeId> = d.replicas.iter().flatten().copied().collect();
    let cores = sim.config().cores_per_node;
    let busy = |sim: &Sim| -> Vec<Vec<Dur>> {
        replicas.iter().map(|&r| (0..cores).map(|c| sim.cpu_busy(r, c)).collect()).collect()
    };

    sim.run_until(Time::from_secs(WARMUP_S));
    let _ = sim.metrics_mut().take_latency(SESSION_LATENCY);
    let (done0, busy0) = (sum(&sim, &d.tables, SESSIONS_COMPLETED), busy(&sim));
    sim.run_until(Time::from_secs(STOP_S));
    let window = (STOP_S - WARMUP_S) as f64;
    let goodput = (sum(&sim, &d.tables, SESSIONS_COMPLETED) - done0) as f64 / window;
    let lat = sim.metrics().latency(SESSION_LATENCY);
    let replica_busy = busy(&sim)
        .iter()
        .zip(&busy0)
        .map(|(b1, b0)| b1.iter().zip(b0).map(|(&x, &y)| (x - y).as_secs_f64() / window).collect())
        .collect();
    sim.run_until(Time::from_secs(DRAINED_S));
    Run { sim, d, goodput, lat, replica_busy }
}

#[test]
fn query_rate_scales_past_one_execution_thread() {
    // One execution thread saturates between 20 k and 24 k req/s: Zipf
    // 0.99 sends 31 % of the scans to partition 0, whose two replicas
    // then each owe a full core-second per second.
    for rate in [24_000.0, 40_000.0] {
        let r = run(WorkloadKind::Queries, rate);
        assert!(r.goodput >= 0.99 * rate, "{rate}: goodput {:.0}", r.goodput);
        assert!(r.lat.p99 <= Dur::millis(5), "{rate}: p99 {}", r.lat.p99);
        for (i, cores) in r.replica_busy.iter().enumerate() {
            for (c, &share) in cores.iter().enumerate() {
                assert!(
                    share < 0.95,
                    "{rate}: replica {i} core {c} is {:.1} % busy",
                    share * 100.0
                );
            }
        }
        // Reads spread over both execution cores of the hot partition.
        assert!(r.replica_busy[0][3] > 0.2, "{rate}: core 3 idle: {:?}", r.replica_busy[0]);

        let submitted = sum(&r.sim, &r.d.tables, SESSIONS_SUBMITTED);
        assert_eq!(submitted, sum(&r.sim, &r.d.tables, SESSIONS_COMPLETED), "{rate}: left over");
        assert_eq!(sum(&r.sim, &r.d.tables, SESSIONS_ABANDONED), 0);
        assert_eq!(sum(&r.sim, &r.d.tables, SESSIONS_SHED), 0);
        let log = r.d.log.lock().unwrap();
        for p in 0..4 {
            assert!(!log.sequence(2 * p).is_empty());
            assert_eq!(log.sequence(2 * p), log.sequence(2 * p + 1), "{rate}: partition {p}");
        }
    }
}

#[test]
fn updates_never_leave_the_writer_core() {
    let r = run(WorkloadKind::InsDelSingle, 24_000.0);
    for &n in r.d.replicas.iter().flatten() {
        assert!(r.sim.cpu_busy(n, 1) > Dur::ZERO, "replica {n:?} executed nothing");
        assert_eq!(r.sim.cpu_busy(n, 3), Dur::ZERO, "replica {n:?} ran an update off core 1");
    }
    // Pinned: count and exact mean commit to the recorder's sum, so no
    // update's reply moves unnoticed. Re-pinned once, when the session
    // tier began to speculate (mean 512 081 → 493 282 ns: an update's
    // few µs of execution now overlap its ordering).
    let lat = r.lat;
    assert_eq!((lat.count, lat.mean.as_nanos(), lat.max.as_nanos()), UPDATE_PIN);
}

/// `(count, mean ns, max ns)` of the update run's window latency.
const UPDATE_PIN: (usize, u64, u64) = (96_309, 493_282, 778_645);

/// Records the order replies arrive in.
struct ReplyOrder(Arc<Mutex<Vec<MsgId>>>);
impl Actor for ReplyOrder {
    fn on_message(&mut self, env: &Envelope, _ctx: &mut Ctx) {
        if let Some(r) = env.payload.downcast_ref::<SmrResponse>() {
            self.0.lock().unwrap().push(r.id);
        }
    }
}

/// Delivers a 1000-key scan and then a one-key lookup to a lone replica
/// running on `exec_cores`; returns the order the client hears back.
fn reply_order(exec_cores: Vec<usize>) -> Vec<MsgId> {
    let mut sim = Sim::new(SimConfig::default());
    let opts =
        MRingOptions { ring_size: 1, n_learners: 1, n_proposers: 0, ..MRingOptions::default() };
    let layout = layout_mring(&mut sim, &opts, &[], None, |_| {});
    let (replica, log) = (layout.d.learners[0], layout.d.log.clone());
    let client = sim.add_node(Box::new(Idle));
    let registry: Registry<TreeCommand> = Registry::new();
    let (scan, lookup) = (MsgId(1), MsgId(2));
    for (id, hi) in [(scan, 999), (lookup, 0)] {
        let ops = vec![(ALL_PARTITIONS, TreeCommand::Query { lo: 0, hi })];
        registry.put(id, StoredCommand { ops, client, mask: ALL_PARTITIONS, reply_bytes: 64 });
        log.lock().unwrap().deliver(0, id);
    }
    let heard = Arc::new(Mutex::new(Vec::new()));
    sim.replace_actor(client, Box::new(ReplyOrder(heard.clone())));
    let rcfg = ReplicaConfig { exec_cores, ..ReplicaConfig::default() };
    layout.install(&mut sim, |inner, _, learner| {
        // The coordinator stays idle: nothing is ordered, the log above
        // already holds both commands.
        learner?;
        let service = TreeService::populated(0, 12_000, 12_000);
        let (log, registry, states) = (log.clone(), registry.clone(), ReplicaStates::new(1));
        let rcfg = rcfg.clone();
        Some(Box::new(SmrReplica::new(inner, log, 0, replica, service, registry, states, rcfg)))
    });
    // Any datagram wakes the replica, which drains its delivery log.
    sim.with_ctx(client, |ctx| ctx.udp_send(replica, (), 16));
    sim.run_until(Time::from_millis(10));
    let heard = heard.lock().unwrap().clone();
    heard
}

#[test]
fn replies_leave_in_ready_order() {
    let (scan, lookup) = (MsgId(1), MsgId(2));
    // One execution thread: the lookup queues behind the scan.
    assert_eq!(reply_order(vec![1]), [scan, lookup]);
    // Two: the lookup finishes on core 3 while the scan still runs on
    // core 1, and its reply does not wait for the scan's.
    assert_eq!(reply_order(vec![1, 3]), [lookup, scan]);
}
