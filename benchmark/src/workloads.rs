//! The four workloads and the one repetition shape they share:
//! set-up (deploy + 1 virtual s warm-up) → measure window in 250 ms
//! chunks → 3 s drain with arrivals stopped → correctness gates.
//!
//! Everything goes through the measured crates' public API and the
//! default executor (`Sim::new` + `run_until`).

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use abcast::{metric, MsgId, SharedLog};
use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_mring, deploy_uring_recoverable, respawn_uring, MRingDeployment, MRingOptions,
    RecoverableURing, URingOptions, URingRecoveryOptions,
};
use simnet::prelude::*;
use simnet::stats::mid;
use workload::{
    WorkloadKind, SESSIONS_ABANDONED, SESSIONS_ARRIVAL_US, SESSIONS_COMPLETED, SESSIONS_RETRIES,
    SESSIONS_SHED, SESSIONS_SUBMITTED, SESSION_ARRIVAL_GAP, SESSION_LATENCY,
};

use crate::check;
use crate::rules;
use crate::spans::Spans;

/// Virtual warm-up before every measure window.
pub const WARMUP: Dur = Dur::secs(1);
/// Virtual drain after every measure window, arrivals stopped.
pub const DRAIN: Dur = Dur::secs(3);
/// The measure window advances in chunks of this much virtual time.
pub const CHUNK: Dur = Dur::millis(250);
/// Virtual window of a ladder rung.
pub const RUNG_WINDOW: Dur = Dur::secs(4);

/// Session tables in the smr workloads.
const N_TABLES: usize = 8;
/// Sessions hosted per table (8 × 125 k = one million).
const SESSIONS_PER_TABLE: u64 = 125_000;
/// Ring positions of `uring_failover`: coordinator, straggler, observer.
const URING_OBSERVER_POS: usize = 3;
const URING_STRAGGLER_POS: usize = 2;
/// Lifecycle-probe ring capacity of the traced repetition (events per
/// shard; a cap, not a preallocation). `ProbeConfig::lifecycle()`'s
/// default of 2^20 wraps on the 10 s `smr_update` window.
const PROBE_CAPACITY: usize = 1 << 23;

/// Which workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Replicated B⁺-tree, single-key inserts/deletes.
    SmrUpdate,
    /// Replicated B⁺-tree, 1000-key range scans.
    SmrQuery,
    /// M-Ring Paxos alone, lossy multicast.
    MringStream,
    /// U-Ring Paxos through a coordinator crash and respawn.
    UringFailover,
}

/// The fixed description of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Offered rate of the main run, ops per virtual second.
    pub main_rate: f64,
    /// Measure window of the main run, virtual seconds.
    pub window_s: u64,
    /// Ladder rungs, ops per virtual second, ascending. Except for
    /// `uring_failover` (whose main run carries the fault schedule)
    /// the first rung is the main run itself.
    pub ladder: [f64; 5],
    /// Latency limit of the ladder rule on p99, µs.
    pub p99_limit_us: f64,
    /// Size of the datagram that dominates the hot path, bytes: the
    /// ring workloads' message, the smr workloads' command (updates) or
    /// reply (queries). Sizes the proposers and the network drills.
    pub msg_bytes: u32,
}

fn msgs_per_s(mbps: f64, msg_bytes: u32) -> f64 {
    mbps * 1e6 / (msg_bytes as f64 * 8.0)
}

/// All four workloads, in report order.
pub fn specs() -> Vec<Spec> {
    let mring = |mbps| msgs_per_s(mbps, 8192);
    let uring = |mbps| msgs_per_s(mbps, 16 * 1024);
    vec![
        Spec {
            kind: Kind::SmrUpdate,
            name: "smr_update",
            why: "update path end to end: 1M open-loop Zipf sessions insert/delete over a 4x2 replicated B+tree on M-Ring; every layer busy, top rung is the retry storm",
            main_rate: 24_000.0,
            window_s: 10,
            ladder: [24_000.0, 32_000.0, 40_000.0, 48_000.0, 64_000.0],
            p99_limit_us: 5_000.0,
            msg_bytes: 256,
        },
        Spec {
            kind: Kind::SmrQuery,
            name: "smr_query",
            why: "same deployment reading: 1000-key range scans with 8 KB replies; btree scans and reply bytes bind instead of ordering, so the knee sits elsewhere",
            main_rate: 12_000.0,
            window_s: 20,
            ladder: [12_000.0, 16_000.0, 20_000.0, 24_000.0, 40_000.0],
            p99_limit_us: 5_000.0,
            msg_bytes: 8192,
        },
        Spec {
            kind: Kind::MringStream,
            name: "mring_stream",
            why: "ordering alone: 8 KB messages over M-Ring Paxos at 600 Mbps with 1e-4 datagram loss; no sessions, no service, so client-tier and btree changes must not move it",
            main_rate: mring(600.0),
            window_s: 60,
            ladder: [mring(600.0), mring(800.0), mring(900.0), mring(950.0), mring(1000.0)],
            p99_limit_us: 200_000.0,
            msg_bytes: 8192,
        },
        Spec {
            kind: Kind::UringFailover,
            name: "uring_failover",
            why: "U-Ring over TCP with WAL and checkpoints through a coordinator crash, takeover, respawn and catch-up; the only user of uring, the TCP model, recovery and the fault layer",
            main_rate: uring(240.0),
            window_s: 180,
            ladder: [uring(200.0), uring(240.0), uring(260.0), uring(280.0), uring(320.0)],
            p99_limit_us: 10_000.0,
            msg_bytes: 16 * 1024,
        },
    ]
}

/// Looks a workload up by name.
pub fn spec_named(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Whether the first ladder rung is the main run (so its
    /// measurement is reused instead of re-run).
    pub fn first_rung_is_main(&self) -> bool {
        self.kind != Kind::UringFailover
    }

    /// Whether the workload drives the session tier and the B⁺-tree.
    pub fn is_smr(&self) -> bool {
        matches!(self.kind, Kind::SmrUpdate | Kind::SmrQuery)
    }

    /// The B⁺-tree command shape of the smr workloads.
    pub fn tree_kind(&self) -> Option<WorkloadKind> {
        match self.kind {
            Kind::SmrUpdate => Some(WorkloadKind::InsDelSingle),
            Kind::SmrQuery => Some(WorkloadKind::Queries),
            _ => None,
        }
    }
}

/// How one repetition is run.
#[derive(Clone, Copy, Debug)]
pub struct RepOptions {
    /// `SimConfig.seed` (and, for `uring_failover`, the phase of the
    /// fault schedule).
    pub seed: u64,
    /// Offered rate, ops per virtual second.
    pub rate: f64,
    /// Measure window.
    pub window: Dur,
    /// Inject the workload's fault schedule (`uring_failover` main run).
    pub fault: bool,
    /// Record lifecycle probes over the window.
    pub traced: bool,
    /// When set, skip the drain (and the gates that need it) if the
    /// window already fails the ladder rule at this p99 limit.
    pub skip_drain_if_over_us: Option<f64>,
    /// Require `submitted == completed + abandoned + shed` per table
    /// after the drain (main-rate runs: nothing may be left in flight).
    pub strict_accounting: bool,
}

/// Window latency, µs, interpolated within the recorder's buckets.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Samples in the window.
    pub count: u64,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
}

/// Per-stage virtual times of the traced repetition, µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    /// `[propose→2A, 2A→2B, 2B→decide, decide→deliver]` medians.
    pub p50_us: [f64; 4],
    /// Same stages, 99th percentile.
    pub p99_us: [f64; 4],
}

/// Counter values keyed by the harness's own labels.
pub type Counts = BTreeMap<&'static str, u64>;

/// Everything one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds for deploy + populate + warm-up.
    pub setup_s: f64,
    /// Host seconds in the measure window (the chunks' own wall; the
    /// bookkeeping between them is not in it).
    pub measure_wall_s: f64,
    /// Host µs per completed op, one sample per 250 ms chunk that
    /// completed any.
    pub chunk_us_per_op: Vec<f64>,
    /// Ops completed in the window.
    pub ops: u64,
    /// Ops submitted in the window.
    pub submitted: u64,
    /// Contract accounting after the drain: ops the system accepted.
    pub attempted: u64,
    /// … and how many of those it failed (abandoned, shed, or never
    /// completed by the end of the drain). `None`: drain skipped.
    pub failed: Option<u64>,
    /// Window submissions abandoned, shed, or never completed by the
    /// end of the drain — network losses before ordering included.
    /// `None`: drain skipped.
    pub lost: Option<u64>,
    /// `lost / submitted`. `None`: drain skipped.
    pub failed_share: Option<f64>,
    /// Ops per virtual second completed in the window.
    pub goodput: f64,
    /// Window latency.
    pub lat: Latency,
    /// Least in flight over the window's second quarter and over its
    /// last quarter (sampled at chunk boundaries).
    pub in_flight_mid: u64,
    /// See `in_flight_mid`.
    pub in_flight_end: u64,
    /// Counter deltas over the window.
    pub counts: Counts,
    /// Virtual length of the window, seconds.
    pub window_s: f64,
    /// Mean open-loop arrival gap over the run, µs (smr only).
    pub arrival_gap_mean_us: f64,
    /// `sessions.arrival_us` at the end of the run (seed self-test).
    pub arrival_us_sum: u64,
    /// FNV-1a over every counter at the end of the run.
    pub checksum: u64,
    /// Host seconds spent in the correctness gates.
    pub check_s: f64,
    /// Deliveries the gates walked.
    pub deliveries_checked: u64,
    /// Gate failures (empty = correct).
    pub violations: Vec<String>,
    /// `VmHWM` at the end of the repetition, MB.
    pub peak_rss_mb: f64,
    /// Longest 1 ms-polled delivery gap at the observer around the crash.
    pub outage_ms: Option<f64>,
    /// Crash → first `rp.became_coord`, 1 ms-polled.
    pub takeover_ms: Option<f64>,
    /// `rec.ttr` max after the respawn.
    pub recover_ms: Option<f64>,
    /// Lifecycle stage times (traced repetitions only).
    pub stages: Option<Stages>,
    /// Perfetto JSON of a 50 ms excerpt of the virtual timeline
    /// (traced repetitions only).
    pub virtual_trace: Option<String>,
}

impl Rep {
    /// This repetition as a ladder rung.
    pub fn rung(&self, rate: f64) -> rules::Rung {
        rules::Rung {
            rate,
            goodput: self.goodput,
            p99_us: self.lat.p99_us,
            in_flight_mid: self.in_flight_mid,
            in_flight_end: self.in_flight_end,
            failed_share: self.failed_share,
        }
    }

    /// Window-counter delta by label (0 when the workload has none).
    pub fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }
}

/// A deployed workload.
enum Cluster {
    Smr(SessionDeployment),
    Mring(MRingDeployment),
    Uring { ru: RecoverableURing, plan: FaultPlan, crash_at: Option<Time> },
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Phase of the `uring_failover` fault schedule, from the seed: U-Ring
/// is TCP-only and draws no randomness, so `SimConfig.seed` alone
/// leaves every run identical. The crash and the respawn each land up
/// to 100 ms late — enough to sweep the 20 ms heartbeat period — which
/// is the one place the seed reaches beyond `SimConfig.seed`.
pub fn fault_jitter(seed: u64) -> (Dur, Dur) {
    let a = splitmix(seed);
    let b = splitmix(a);
    (Dur::micros(a % 100_000), Dur::micros(b % 100_000))
}

fn deploy(spec: &Spec, o: &RepOptions, sim: &mut Sim) -> Cluster {
    let stop = Time::ZERO + WARMUP + o.window;
    match spec.kind {
        Kind::SmrUpdate | Kind::SmrQuery => {
            let opts = SessionOptions {
                kind: spec.tree_kind().expect("smr workloads have a tree command kind"),
                zipf_s: 0.99,
                n_tables: N_TABLES,
                sessions_per_table: SESSIONS_PER_TABLE,
                rate_per_table: o.rate / N_TABLES as f64,
                partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
                stop_at: Some(stop),
                ..SessionOptions::default()
            };
            Cluster::Smr(deploy_smr_sessions(sim, &opts))
        }
        Kind::MringStream => {
            let n_proposers = 2;
            let opts = MRingOptions {
                ring_size: 3,
                n_learners: 2,
                n_proposers,
                proposer_rate_bps: (o.rate * spec.msg_bytes as f64 * 8.0 / n_proposers as f64)
                    as u64,
                msg_bytes: spec.msg_bytes,
                proposer_stop: Some(stop),
                ..MRingOptions::default()
            };
            Cluster::Mring(deploy_mring(sim, &opts, |_| {}))
        }
        Kind::UringFailover => {
            let positions = vec![1, 2];
            let opts = URingOptions {
                ring_len: 5,
                n_acceptors: 3,
                proposer_rate_bps: (o.rate * spec.msg_bytes as f64 * 8.0 / positions.len() as f64)
                    as u64,
                proposer_positions: positions,
                msg_bytes: spec.msg_bytes,
                burst: 1,
                proposer_stop: Some(stop),
            };
            let rec = URingRecoveryOptions { checkpoint_interval: 256, ..Default::default() };
            let ru = deploy_uring_recoverable(
                sim,
                &opts,
                rec,
                |cfg| cfg.suspicion_timeout = Some(Dur::millis(40)),
                |_| Some(Box::new(NullApp::default())),
            );
            let (mut plan, mut crash_at) = (FaultPlan::new(), None);
            if o.fault {
                // Crash a third of the way in, respawn at two thirds
                // (60 s / 120 s at full length), each shifted by the
                // seed's jitter; loss burst and straggler bracket the
                // crash as in Fig 9.1. The loss burst only touches
                // datagrams, so it is inert on this TCP-only ring — kept
                // so the schedule matches the ROADMAP's fault matrix.
                let (j_crash, j_respawn) = fault_jitter(o.seed);
                let crash = Time::ZERO + Dur::nanos(o.window.as_nanos() / 3) + j_crash;
                let respawn = Time::ZERO + Dur::nanos(o.window.as_nanos() / 3 * 2) + j_respawn;
                let coord = ru.d.ring[0];
                let before = |d: Dur| Time(crash.0 - d.0);
                plan = FaultPlan::new()
                    .loss_burst(before(Dur::millis(600)), crash + Dur::millis(600), 0.002)
                    .straggler(
                        ru.d.ring[URING_STRAGGLER_POS],
                        before(Dur::millis(500)),
                        crash + Dur::millis(500),
                        2.0,
                    )
                    .at(crash, FaultAction::Crash(coord))
                    .at(respawn, FaultAction::Respawn(coord));
                crash_at = Some(crash);
            }
            Cluster::Uring { ru, plan, crash_at }
        }
    }
}

impl Cluster {
    fn advance(&mut self, sim: &mut Sim, t: Time) {
        match self {
            Cluster::Uring { ru, plan, .. } => plan.step(sim, t, &mut |sim, _| {
                respawn_uring(sim, ru, 0, Some(Box::new(NullApp::default())))
            }),
            _ => sim.run_until(t),
        }
    }

    fn latency_name(&self) -> &'static str {
        match self {
            Cluster::Smr(_) => SESSION_LATENCY,
            _ => metric::LATENCY,
        }
    }

    fn observer(&self) -> Option<NodeId> {
        match self {
            Cluster::Smr(_) => None,
            Cluster::Mring(d) => Some(d.learners[0]),
            Cluster::Uring { ru, .. } => Some(ru.d.ring[URING_OBSERVER_POS]),
        }
    }

    /// Nodes that submit ops.
    fn submitters(&self) -> Vec<NodeId> {
        match self {
            Cluster::Smr(d) => d.tables.clone(),
            Cluster::Mring(d) => d.proposers.clone(),
            Cluster::Uring { ru, .. } => vec![ru.d.ring[1], ru.d.ring[2]],
        }
    }

    fn log(&self) -> &SharedLog {
        match self {
            Cluster::Smr(d) => &d.log,
            Cluster::Mring(d) => &d.log,
            Cluster::Uring { ru, .. } => &ru.d.log,
        }
    }

    fn sum(sim: &Sim, nodes: &[NodeId], name: &'static str) -> u64 {
        nodes.iter().map(|&n| sim.metrics().counter(n, name)).sum()
    }

    fn submitted(&self, sim: &Sim) -> u64 {
        let name =
            if matches!(self, Cluster::Smr(_)) { SESSIONS_SUBMITTED } else { metric::PROPOSED };
        Cluster::sum(sim, &self.submitters(), name)
    }

    /// Ops done: commands acknowledged to their session, or messages
    /// delivered at the observer learner.
    fn done(&self, sim: &Sim) -> u64 {
        match self.observer() {
            Some(obs) => sim.metrics().counter(obs, metric::DELIVERED_MSGS),
            None => Cluster::sum(sim, &self.submitters(), SESSIONS_COMPLETED),
        }
    }

    /// Ops given up on: abandoned or shed by the session tables.
    fn given_up(&self, sim: &Sim) -> u64 {
        match self {
            Cluster::Smr(d) => {
                Cluster::sum(sim, &d.tables, SESSIONS_ABANDONED)
                    + Cluster::sum(sim, &d.tables, SESSIONS_SHED)
            }
            _ => 0,
        }
    }

    fn in_flight(&self, sim: &Sim) -> u64 {
        self.submitted(sim).saturating_sub(self.done(sim) + self.given_up(sim))
    }

    fn busy_ns(sim: &Sim, nodes: &[NodeId]) -> u64 {
        nodes.iter().map(|&n| sim.cpu_busy_total(n).as_nanos()).max().unwrap_or(0)
    }

    /// Cumulative counters under the harness's labels; window values
    /// are the difference of two of these.
    fn counts(&self, sim: &Sim) -> Counts {
        let m = sim.metrics();
        let (dispatches, dispatched_msgs) = sim.delivery_dispatch_stats();
        let rp = |name: &'static str| m.sum(name);
        let (coord, acceptors, replicas, tables): (
            Vec<NodeId>,
            Vec<NodeId>,
            Vec<NodeId>,
            Vec<NodeId>,
        ) = match self {
            Cluster::Smr(d) => (
                vec![d.coordinator()],
                d.ring.iter().copied().filter(|&n| n != d.coordinator()).collect(),
                d.replicas.iter().flatten().copied().collect(),
                d.tables.clone(),
            ),
            Cluster::Mring(d) => (
                vec![d.coordinator()],
                d.ring.iter().copied().filter(|&n| n != d.coordinator()).collect(),
                vec![],
                vec![],
            ),
            // After the takeover the coordinator role moves; the
            // busiest ring member stands for it over the window.
            Cluster::Uring { ru, .. } => {
                (ru.d.ring.clone(), ru.d.ring[1..3].to_vec(), vec![], vec![])
            }
        };
        let mut c = Counts::new();
        c.insert("events", sim.events_processed());
        c.insert("dispatches", dispatches);
        c.insert("dispatched_msgs", dispatched_msgs);
        c.insert("sent_pkts", m.sum_id(mid::NET_SENT_PKTS));
        c.insert("sent_bytes", m.sum_id(mid::NET_SENT_BYTES));
        c.insert("recv_pkts", m.sum_id(mid::NET_RECV_PKTS));
        c.insert(
            "drops",
            m.sum_id(mid::NET_RAND_DROP)
                + m.sum_id(mid::NET_SWITCH_DROP)
                + m.sum_id(mid::NET_SOCKET_DROP),
        );
        c.insert("disk_bytes", m.sum_id(mid::DISK_WRITTEN_BYTES));
        c.insert("instances", m.sum_id(mid::INSTANCES));
        c.insert("delivered_all", m.sum_id(mid::DELIVERED_MSGS));
        c.insert("buffered", m.sum_id(mid::BUFFERED));
        c.insert("retrans", rp("rp.retrans") + rp("rp.re2a") + rp("rp.resubmit"));
        c.insert("coord_drop", rp("rp.drop"));
        c.insert("coord_busy_ns", Cluster::busy_ns(sim, &coord));
        c.insert("acceptor_busy_ns", Cluster::busy_ns(sim, &acceptors));
        c.insert("replica_busy_ns", Cluster::busy_ns(sim, &replicas));
        c.insert("table_busy_ns", Cluster::busy_ns(sim, &tables));
        c.insert("spec_rollbacks", m.sum(hpsmr_core::replica::SMR_ROLLBACKS));
        c.insert("retries", m.sum(SESSIONS_RETRIES));
        c.insert("shed", m.sum(SESSIONS_SHED));
        c.insert("abandoned", m.sum(SESSIONS_ABANDONED));
        c.insert("takeovers", rp("rp.became_coord"));
        c.insert("ring_repairs", rp("rp.ring_repair"));
        c.insert("joins", rp("rp.joins"));
        c.insert("stale_2ab", rp("rp.stale_2ab"));
        c.insert("epoch_reproposals", rp("rp.epoch_reproposals"));
        c.insert("catchup_instances", rp("rec.catchup_instances"));
        c.insert("checkpoints", rp("rec.checkpoints"));
        c.insert("transfer_bytes", rp("rec.transfer_bytes"));
        c.insert("state_transfers", rp("rec.state_transfers"));
        c
    }
}

fn interp_latency(sim: &Sim, name: &'static str) -> Latency {
    let count = sim.metrics().latency(name).count as u64;
    if count == 0 {
        return Latency::default();
    }
    let step =
        |f: f64| sim.metrics().percentile(name, f).map_or(0.0, |d| d.as_nanos() as f64 / 1e3);
    let at = |q| rules::interp_quantile(q, count, step);
    Latency { count, p50_us: at(0.50), p99_us: at(0.99), p999_us: at(0.999) }
}

/// `VmHWM` of this process in MB (0 where procfs is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn quantile_of(sorted: &[u64], frac: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    sorted[(((n as f64) * frac).ceil() as usize).clamp(1, n) - 1] as f64 / 1e3
}

/// Stage times of the instances proposed inside the window.
fn stages_of(events: &[ProbeEvent], from: Time) -> Stages {
    let spans: Vec<probe::InstanceSpan> = probe::lifecycle_spans(events)
        .into_iter()
        .filter(|s| s.propose.is_some_and(|t| t >= from))
        .collect();
    let mut per: [Vec<u64>; 4] = Default::default();
    for s in &spans {
        let pairs = [
            (s.propose, s.phase2a),
            (s.phase2a, s.phase2b),
            (s.phase2b, s.decide),
            (s.decide, s.deliver),
        ];
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                per[i].push(b.saturating_since(a).as_nanos());
            }
        }
    }
    let mut st = Stages::default();
    for (i, v) in per.iter_mut().enumerate() {
        v.sort_unstable();
        st.p50_us[i] = quantile_of(v, 0.50);
        st.p99_us[i] = quantile_of(v, 0.99);
    }
    st
}

/// Set-up as `setup_s` times it: build the sim, deploy, populate the
/// trees, run the virtual warm-up, and drain the latency recorder so
/// the window reports itself only.
fn set_up(spec: &Spec, o: &RepOptions, spans: &mut Spans) -> (Sim, Cluster, f64) {
    spans.enter("setup");
    let t_setup = Instant::now();
    spans.enter("deploy");
    let cfg = SimConfig {
        seed: o.seed,
        random_loss: if spec.kind == Kind::MringStream { 1e-4 } else { 0.0 },
        ..SimConfig::default()
    };
    let mut sim = Sim::new(cfg);
    let mut cluster = deploy(spec, o, &mut sim);
    if o.traced {
        sim.set_probes(ProbeConfig { capacity: PROBE_CAPACITY, ..ProbeConfig::lifecycle() });
    }
    spans.exit();
    spans.enter("warmup");
    cluster.advance(&mut sim, Time::ZERO + WARMUP);
    let _ = sim.metrics_mut().take_latency(cluster.latency_name());
    spans.exit();
    let setup_s = t_setup.elapsed().as_secs_f64();
    spans.exit();
    (sim, cluster, setup_s)
}

/// One more sample of `setup_s`: sets the workload up and drops it.
pub fn time_setup(spec: &Spec, o: &RepOptions, spans: &mut Spans) -> f64 {
    set_up(spec, o, spans).2
}

/// Runs one repetition of `spec`. `spans` records the harness's own
/// host spans around every phase.
pub fn run_rep(spec: &Spec, o: &RepOptions, spans: &mut Spans) -> Rep {
    let mut rep = Rep { window_s: o.window.as_secs_f64(), ..Rep::default() };
    let start = Time::ZERO + WARMUP;
    let stop = start + o.window;

    let (mut sim, mut cluster, setup_s) = set_up(spec, o, spans);
    rep.setup_s = setup_s;
    let lat_name = cluster.latency_name();

    // ---- measure window ----------------------------------------------
    let before = cluster.counts(&sim);
    let (done0, sub0) = (cluster.done(&sim), cluster.submitted(&sim));
    let sub0_each: Vec<u64> =
        cluster.submitters().iter().map(|&p| sim.metrics().counter(p, metric::PROPOSED)).collect();
    let crash_at = match &cluster {
        Cluster::Uring { crash_at, .. } => *crash_at,
        _ => None,
    };
    // In flight at every chunk boundary, for the backlog rule.
    let mut in_flight = Vec::new();
    spans.enter("measure");
    let mut now = start;
    let mut done_prev = done0;
    let mut fine_until = Time::ZERO;
    let (mut gap_ms, mut longest_gap_ms, mut takeover_ms) = (0u64, 0u64, None);
    while now < stop {
        let next = (now + CHUNK).min(stop);
        spans.enter("chunk");
        let t_chunk = Instant::now();
        if crash_at.is_some_and(|c| c > now && c <= next) {
            fine_until = next + Dur::secs(1);
        }
        if let (Some(crash), true) = (crash_at, next <= fine_until) {
            // Around the crash, poll at 1 ms: longest run of polls with
            // no new delivery at the observer, and the first poll that
            // sees a takeover.
            let obs = cluster.observer().expect("ring workloads have an observer");
            let mut t = now;
            let mut seen = sim.metrics().counter(obs, metric::DELIVERED_MSGS);
            while t < next {
                t = (t + Dur::millis(1)).min(next);
                cluster.advance(&mut sim, t);
                let d = sim.metrics().counter(obs, metric::DELIVERED_MSGS);
                if t > crash {
                    gap_ms = if d == seen { gap_ms + 1 } else { 0 };
                    longest_gap_ms = longest_gap_ms.max(gap_ms);
                    if takeover_ms.is_none() && sim.metrics().sum("rp.became_coord") > 0 {
                        takeover_ms = Some(t.since(crash).as_millis_f64());
                    }
                }
                seen = d;
            }
        } else {
            cluster.advance(&mut sim, next);
        }
        let wall = t_chunk.elapsed().as_secs_f64();
        spans.exit();
        rep.measure_wall_s += wall;
        let done = cluster.done(&sim);
        if done > done_prev {
            rep.chunk_us_per_op.push(wall * 1e6 / (done - done_prev) as f64);
        }
        done_prev = done;
        in_flight.push(cluster.in_flight(&sim));
        now = next;
    }
    spans.exit();

    let after = cluster.counts(&sim);
    rep.counts = after.iter().map(|(&k, &v)| (k, v.saturating_sub(before[k]))).collect();
    rep.ops = cluster.done(&sim) - done0;
    rep.submitted = cluster.submitted(&sim) - sub0;
    rep.goodput = rep.ops as f64 / o.window.as_secs_f64();
    // A loss-recovery stall parks a burst of messages for ~100 ms, so
    // one instant's in-flight count says little. The backlog rule
    // compares floors instead: the least in flight over the window's
    // second quarter against the least over its last quarter — a
    // backlog that grows lifts the floor, a stall does not.
    let n = in_flight.len();
    let floor =
        |from: usize, to: usize| in_flight[from.min(n - 1)..to].iter().copied().min().unwrap_or(0);
    rep.in_flight_mid = floor(n / 4, n / 2);
    rep.in_flight_end = floor(n * 3 / 4, n);
    rep.lat = interp_latency(&sim, lat_name);
    if crash_at.is_some() {
        rep.outage_ms = Some(longest_gap_ms as f64);
        rep.takeover_ms = takeover_ms;
    }
    if o.traced {
        let events = sim.probe_events();
        assert_eq!(sim.probe_dropped(), 0, "probe ring wrapped: raise PROBE_CAPACITY");
        rep.stages = Some(stages_of(&events, start));
        // Excerpt for the timeline file: 50 ms from the window's start,
        // or from just before the crash.
        let from = crash_at.map_or(start, |c| Time(c.0 - Dur::millis(10).0));
        let to = from + Dur::millis(50);
        let excerpt: Vec<ProbeEvent> =
            events.iter().copied().filter(|e| e.time >= from && e.time < to).collect();
        rep.virtual_trace = Some(probe::perfetto_json(&excerpt, &[]));
        sim.set_probes(ProbeConfig::disabled());
    }

    // ---- drain ---------------------------------------------------------
    let window_rung = rep.rung(o.rate);
    let drained = o.skip_drain_if_over_us.is_none_or(|limit| window_rung.passes_in_window(limit));
    if drained {
        spans.enter("drain");
        cluster.advance(&mut sim, stop + DRAIN);
        spans.exit();
        account(&cluster, &sim, &before, &sub0_each, &mut rep);
    }
    if crash_at.is_some() {
        rep.recover_ms = Some(sim.metrics().latency("rec.ttr").max.as_millis_f64());
    }
    if let Cluster::Smr(d) = &cluster {
        rep.arrival_gap_mean_us =
            sim.metrics().latency(SESSION_ARRIVAL_GAP).mean.as_nanos() as f64 / 1e3;
        rep.arrival_us_sum = Cluster::sum(&sim, &d.tables, SESSIONS_ARRIVAL_US);
    }

    // ---- gates ---------------------------------------------------------
    spans.enter("check");
    let t_check = Instant::now();
    rep.violations = gates(&cluster, &sim, o, drained);
    rep.deliveries_checked =
        cluster.log().lock().expect("delivery log lock").total_deliveries() as u64;
    rep.check_s = t_check.elapsed().as_secs_f64();
    spans.exit();
    rep.checksum = check::counter_checksum(&sim);
    rep.peak_rss_mb = peak_rss_mb();
    rep
}

/// Failure accounting after the drain, scoped to the window's
/// submissions.
fn account(cluster: &Cluster, sim: &Sim, before: &Counts, sub0_each: &[u64], rep: &mut Rep) {
    match cluster {
        Cluster::Smr(_) => {
            // Arrivals stop with the window, so everything submitted
            // after the warm-up and still unanswered belongs to it (the
            // warm-up's own stragglers are a rounding error counted
            // against the window).
            let lost = cluster.in_flight(sim) + cluster.given_up(sim)
                - (before["shed"] + before["abandoned"]);
            rep.attempted = rep.submitted;
            rep.failed = Some(lost.min(rep.submitted));
            rep.lost = rep.failed;
            rep.failed_share = rep.failed.map(|f| f as f64 / rep.submitted.max(1) as f64);
        }
        _ => {
            // Exact, from the delivery log: which of the ids proposed in
            // the window reached the observer, and which were ordered at
            // all (by total order every learner's sequence is a prefix
            // of the longest).
            let log = cluster.log().lock().expect("delivery log lock");
            let obs_idx = match cluster {
                Cluster::Mring(_) => 0,
                _ => URING_OBSERVER_POS,
            };
            let at_observer: HashSet<MsgId> = log.sequence(obs_idx).iter().copied().collect();
            let longest =
                (0..log.learners()).map(|l| log.sequence(l)).max_by_key(|s| s.len()).unwrap_or(&[]);
            let ordered: Option<HashSet<MsgId>> =
                (longest.len() != at_observer.len()).then(|| longest.iter().copied().collect());
            let (mut submitted, mut n_ordered, mut n_delivered) = (0u64, 0u64, 0u64);
            for (&p, &s0) in cluster.submitters().iter().zip(sub0_each) {
                for seq in s0..sim.metrics().counter(p, metric::PROPOSED) {
                    let id = MsgId(((p.0 as u64) << 40) | seq);
                    submitted += 1;
                    let delivered = at_observer.contains(&id);
                    n_delivered += delivered as u64;
                    n_ordered += ordered.as_ref().map_or(delivered, |o| o.contains(&id)) as u64;
                }
            }
            // The contract counts what the ring accepted for ordering
            // (plus what the coordinator refused); proposals the network
            // lost before they reached it show up in `failed_share`.
            let refused = sim.metrics().sum("rp.drop") - before["coord_drop"];
            rep.attempted = n_ordered + refused;
            rep.failed = Some(n_ordered - n_delivered + refused);
            rep.lost = Some(submitted - n_delivered);
            rep.failed_share = Some((submitted - n_delivered) as f64 / submitted.max(1) as f64);
        }
    }
}

/// The correctness gates of one finished repetition.
fn gates(cluster: &Cluster, sim: &Sim, o: &RepOptions, drained: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let mut gate = |name: &str, r: Result<(), String>| {
        if let Err(e) = r {
            bad.push(format!("{name}: {e}"));
        }
    };
    let log = cluster.log().lock().expect("delivery log lock");
    match cluster {
        Cluster::Smr(d) => {
            gate("partial order", check::partial_order(&log));
            gate("integrity", check::integrity_by_origin(&log, &d.tables));
            for &t in &d.tables {
                let c = |n| sim.metrics().counter(t, n);
                let (sub, settled) = (
                    c(SESSIONS_SUBMITTED),
                    c(SESSIONS_COMPLETED) + c(SESSIONS_ABANDONED) + c(SESSIONS_SHED),
                );
                if settled > sub || (drained && o.strict_accounting && settled != sub) {
                    gate(
                        "accounting",
                        Err(format!("table {t:?}: submitted {sub}, settled {settled}")),
                    );
                }
            }
            if drained {
                // Every acknowledged command was delivered at every
                // replica of its partition.
                let delivered: u64 = d
                    .replicas
                    .iter()
                    .map(|part| {
                        part.iter()
                            .map(|&r| sim.metrics().counter(r, metric::DELIVERED_MSGS))
                            .min()
                            .unwrap_or(0)
                    })
                    .sum();
                let completed = Cluster::sum(sim, &d.tables, SESSIONS_COMPLETED);
                if completed > delivered {
                    gate("completed <= delivered", Err(format!("{completed} > {delivered}")));
                }
            }
        }
        Cluster::Mring(d) => {
            gate("total order", log.check_total_order().map_err(|e| format!("{e:?}")));
            let sent = check::ring_broadcast_set(sim, &d.proposers);
            gate("integrity", log.check_integrity(&sent).map_err(|e| format!("{e:?}")));
        }
        Cluster::Uring { ru, crash_at, .. } => {
            let sent = check::ring_broadcast_set(sim, &cluster.submitters());
            if crash_at.is_some() {
                // A respawned learner legitimately re-delivers from its
                // checkpoint, so order and integrity are checked per
                // incarnation by the crash-aware checker.
                if drained {
                    gate(
                        "crash agreement",
                        log.check_crash_agreement(&[0, 1, 2, 3, 4]).map_err(|e| format!("{e:?}")),
                    );
                    let survivors = &ru.d.ring[1..];
                    let takeovers = Cluster::sum(sim, survivors, "rp.became_coord");
                    let joins = Cluster::sum(sim, &ru.d.ring, "rp.joins");
                    if (takeovers, joins) != (1, 1) {
                        gate(
                            "failover",
                            Err(format!("{takeovers} takeover(s), {joins} rejoin(s)")),
                        );
                    }
                }
                let obs = log.sequence(URING_OBSERVER_POS);
                let unique: HashSet<&MsgId> = obs.iter().collect();
                if unique.len() != obs.len() || obs.iter().any(|m| !sent.contains(m)) {
                    gate("integrity", Err("observer delivered a duplicate or a phantom".into()));
                }
            } else {
                gate("total order", log.check_total_order().map_err(|e| format!("{e:?}")));
                gate("integrity", log.check_integrity(&sent).map_err(|e| format!("{e:?}")));
            }
        }
    }
    bad
}
