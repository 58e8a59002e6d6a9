//! End-to-end tests for M-Ring Paxos on the simulated cluster.

use abcast::{metric, MsgId, SharedLog};
use proptest::prelude::*;
use ringpaxos::cluster::{deploy_mring, layout_mring, MRingOptions};
use ringpaxos::msg::MMsg;
use ringpaxos::{MRingConfig, StorageMode, Value};
use simnet::prelude::*;
use simnet::probe::code;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};

fn broadcast_set(sim: &Sim, proposers: &[NodeId]) -> HashSet<MsgId> {
    let mut out = HashSet::new();
    for &p in proposers {
        let n = sim.metrics().counter(p, "rp.proposed");
        for seq in 0..n {
            out.insert(MsgId(((p.0 as u64) << 40) | seq));
        }
    }
    out
}

#[test]
fn orders_and_delivers_under_load() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 2,
        proposer_rate_bps: 200_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));

    let log = d.log.lock().unwrap();
    assert!(log.total_deliveries() > 1000, "only {} deliveries", log.total_deliveries());
    log.check_total_order().expect("uniform total order");
    let broadcast = broadcast_set(&sim, &d.proposers);
    log.check_integrity(&broadcast).expect("uniform integrity");
}

#[test]
fn all_learners_catch_up_at_quiescence() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 4,
        n_proposers: 1,
        proposer_rate_bps: 50_000_000,
        proposer_stop: Some(Time::from_millis(800)),
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    // Run well past the stop time so everything drains.
    sim.run_until(Time::from_secs(2));

    let log = d.log.lock().unwrap();
    // Dedicated learners (indexes 0..4) must agree exactly with each other;
    // the proposer-learner delivers the same stream.
    let all: Vec<usize> = (0..d.all_learners.len()).collect();
    log.check_agreement_at_quiescence(&all).expect("agreement");
    log.check_total_order().expect("order");
}

#[test]
fn throughput_is_near_gigabit_wire_speed() {
    // The headline Fig 3.7 result: ~0.9 Gbps per receiver with 8 KB
    // messages, independent of receiver count.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 8,
        n_proposers: 2,
        proposer_rate_bps: 475_000_000, // aggregate 950 Mbps offered
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    let warmup = Time::from_secs(1);
    sim.run_until(warmup);
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_secs(3));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::secs(2));
    assert!(tput > 750.0, "per-receiver throughput {tput:.0} Mbps, expected > 750");
    assert!(tput < 1000.0, "per-receiver throughput {tput:.0} Mbps beyond wire speed");
}

#[test]
fn latency_is_milliseconds_at_moderate_load() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 1,
        proposer_rate_bps: 100_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let _d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));
    let lat = sim.metrics().latency(metric::LATENCY);
    assert!(lat.count > 100, "latency samples {}", lat.count);
    assert!(lat.mean > Dur::micros(150), "mean {:?} implausibly low", lat.mean);
    assert!(lat.mean < Dur::millis(20), "mean {:?} implausibly high", lat.mean);
}

#[test]
fn recovers_from_random_message_loss() {
    let mut cfg = SimConfig::default();
    cfg.random_loss = 0.01; // 1% of datagram copies vanish
    let mut sim = Sim::new(cfg);
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 1,
        proposer_rate_bps: 80_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(3));

    let log = d.log.lock().unwrap();
    log.check_total_order().expect("order despite loss");
    assert!(log.total_deliveries() > 1000);
    // Retransmissions must actually have happened for this test to bite.
    let retrans: u64 = d.ring.iter().map(|&a| sim.metrics().counter(a, "rp.retrans")).sum();
    assert!(retrans > 0, "expected retransmissions under loss");
}

#[test]
fn slow_learner_triggers_flow_control() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 400_000_000,
        ..MRingOptions::default()
    };
    // Every learner needs 150us of application time per batch: far
    // slower than the offered 800 Mbps (~12k batches/s needs 55%+).
    let layout = layout_mring(&mut sim, &opts, &[], None, |cfg| {
        cfg.flow.learner_threshold = 64;
    });
    let d = layout.install(&mut sim, |mut p, _, learner| {
        if learner.is_some() {
            p.set_batch_cost(Dur::micros(150));
        }
        Some(Box::new(p))
    });
    sim.run_until(Time::from_secs(3));
    let slowdowns: u64 =
        d.all_learners.iter().map(|&l| sim.metrics().counter(l, "rp.slowdown")).sum();
    assert!(slowdowns > 0, "learners should have asked the ring to slow down");
    let log = d.log.lock().unwrap();
    log.check_total_order().expect("order under back-pressure");
    assert!(log.total_deliveries() > 500, "delivery must continue while throttled");
}

#[test]
fn garbage_collection_advances() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 1,
        proposer_rate_bps: 100_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));
    let advanced = sim.metrics().counter(d.coordinator(), "rp.gc_advanced");
    assert!(advanced > 100, "gc watermark advanced only {advanced} instances");
}

#[test]
fn sync_disk_writes_bound_throughput() {
    // Fig 3.9's M-Ring, offered 600 Mb/s: disk bound. Each acceptor's log
    // writes, as one group, what queued while its last write was in
    // flight — here the proposers' whole window, 64 packets of 8 KB — so
    // it drains at that group's rate, not one 32 KB unit per op.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 300_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |cfg| {
        cfg.storage = StorageMode::SyncDisk;
    });
    let warmup = Time::from_secs(1);
    sim.run_until(warmup);
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_secs(3));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::secs(2));
    // From 5 % under one 512 KB group per op up to the device's transfer
    // rate, which no log can pass.
    let cfg = SimConfig::default();
    let group = 512 * 1024;
    let lo = 0.95 * mbps(group as u64, cfg.disk_write_time(group));
    let hi = cfg.disk_bandwidth_bps as f64 / 1e6;
    assert!(
        (lo..hi).contains(&tput),
        "sync-disk throughput {tput:.0} Mbps, expected {lo:.0}..{hi:.0}"
    );
}

#[test]
fn coordinator_failover_resumes_delivery_without_violations() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        spares: 2,
        n_learners: 2,
        n_proposers: 1,
        proposer_rate_bps: 50_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_millis(500));
    let coord = d.coordinator();
    sim.set_node_up(coord, false);
    sim.run_until(Time::from_secs(4));

    // A takeover must have happened.
    let takeovers: u64 = d.ring.iter().map(|&a| sim.metrics().counter(a, "rp.became_coord")).sum();
    assert!(takeovers >= 1, "no acceptor took over as coordinator");

    // Delivery resumed: messages delivered well after the crash.
    let delivered_after: u64 =
        d.learners.iter().map(|&l| sim.metrics().counter(l, metric::DELIVERED_MSGS)).sum();
    assert!(delivered_after > 500, "delivery stalled after failover: {delivered_after}");

    let log = d.log.lock().unwrap();
    log.check_total_order().expect("total order across failover");
    let broadcast = broadcast_set(&sim, &d.proposers);
    log.check_integrity(&broadcast).expect("no duplicates after resubmission");
}

#[test]
fn runs_are_deterministic() {
    // Delivered totals at the cut, and what the seed must move: which
    // node's links lost how many datagrams. (Totals alone agree across
    // seeds whenever no repair is pending at the cut.)
    let run = |seed: u64| -> (u64, u64, Vec<u64>) {
        let mut cfg = SimConfig::default();
        cfg.seed = seed;
        cfg.random_loss = 0.005;
        let mut sim = Sim::new(cfg);
        let opts = MRingOptions {
            ring_size: 3,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: 150_000_000,
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_secs(1));
        let bytes: u64 =
            d.all_learners.iter().map(|&l| sim.metrics().counter(l, metric::DELIVERED_BYTES)).sum();
        let msgs: u64 =
            d.all_learners.iter().map(|&l| sim.metrics().counter(l, metric::DELIVERED_MSGS)).sum();
        let lost = (0..sim.node_count())
            .map(|n| sim.metrics().counter_id(NodeId(n), mid::NET_RAND_DROP))
            .collect();
        (bytes, msgs, lost)
    };
    assert_eq!(run(42), run(42), "same seed must reproduce identical results");
    assert_ne!(run(42).2, run(43).2, "different seeds must lose different datagrams");
}

#[test]
fn mid_ring_acceptor_crash_triggers_ring_repair() {
    // §3.3.4/§3.3.5: a silent mid-ring acceptor breaks the 2B relay; the
    // coordinator probes the acceptors, lays out a new ring around the
    // failure (promoting a spare), and delivery resumes.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        spares: 1,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 100_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_millis(500));
    let victim = d.ring[1];
    sim.set_node_up(victim, false);
    sim.run_until(Time::from_millis(1000));

    let coord = d.coordinator();
    assert!(sim.metrics().counter(coord, "rp.ring_probe") >= 1, "coordinator never probed");
    assert_eq!(sim.metrics().counter(coord, "rp.ring_repair"), 1, "expected exactly one repair");

    // Delivery after the repair runs at the offered rate again.
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    sim.run_until(Time::from_millis(1500));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    let rate = (after - before) as f64 / 0.5;
    // 200 Mbps offered at 8 KB messages ≈ 3. 05 k msgs/s.
    assert!(rate > 2000.0, "delivery did not recover after ring repair: {rate:.0}/s");

    let log = d.log.lock().unwrap();
    log.check_total_order().expect("total order across ring repair");
    let broadcast = broadcast_set(&sim, &d.proposers);
    log.check_integrity(&broadcast).expect("no duplicates after repair");
}

#[test]
fn ring_repair_without_spares_shrinks_to_majority() {
    // With no spares, the repaired ring is the surviving majority: 2 of
    // 3 acceptors still form an m-quorum and the protocol continues.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        spares: 0,
        n_learners: 1,
        n_proposers: 1,
        proposer_rate_bps: 100_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_millis(500));
    sim.set_node_up(d.ring[0], false);
    sim.run_until(Time::from_millis(1200));

    let coord = d.coordinator();
    assert!(sim.metrics().counter(coord, "rp.ring_repair") >= 1, "no repair happened");
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    sim.run_until(Time::from_millis(1700));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    assert!(after > before + 500, "majority ring did not resume delivery");
    d.log.lock().unwrap().check_total_order().expect("total order across repair");
}

#[test]
fn transient_stall_does_not_reform_the_ring() {
    // A healthy ring under steady load: the repair machinery must stay
    // quiet (no probes escalate into a reform that would churn the ring).
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        spares: 1,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 200_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(3));
    let coord = d.coordinator();
    assert_eq!(sim.metrics().counter(coord, "rp.ring_repair"), 0, "repair fired on a healthy ring");
}

#[test]
fn paused_learner_catches_up_within_gc_retention() {
    // §3.3.7: acceptors collect state once f+1 learners applied it, but
    // keep a retention window so a straggler still finds every missing
    // instance by retransmission. A learner paused briefly (its peers
    // race ahead and let GC advance) must fully catch up on resume.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 1,
        proposer_rate_bps: 50_000_000, // ~760 instances/s << retention
        proposer_stop: Some(Time::from_millis(1500)),
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    let straggler = d.learners[2];
    sim.run_until(Time::from_millis(500));
    sim.set_node_up(straggler, false);
    sim.run_until(Time::from_millis(800));
    sim.restart_node(straggler); // resume with a 300 ms gap
    sim.run_until(Time::from_secs(3));

    let fast = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    let slow = sim.metrics().counter(straggler, metric::DELIVERED_MSGS);
    assert!(fast > 500, "too little traffic for the scenario");
    assert_eq!(fast, slow, "straggler failed to catch up after its pause");
    d.log.lock().unwrap().check_total_order().expect("orders agree");
}

// ----------------------------------------------------------------------
// The coordinator's batcher: per-mask pending queues and the CPU-clocked
// partial flush. A partitioned ring is fed by injector nodes sending
// sub-packet `Propose`s under chosen masks; a tap subscribed to every
// group records each instance's 2A as the coordinator multicast it.
// ----------------------------------------------------------------------

/// One scheduled proposal: when to send it, its mask and its size.
type Shot = (Time, u32, u32);
/// Instance → (when the tap first saw its 2A, the 2A's mask, its values).
type Seen = Arc<Mutex<BTreeMap<u64, (Time, u32, Vec<Value>)>>>;

fn us(micros: u64) -> Time {
    Time::ZERO + Dur::micros(micros)
}

/// Sends its shots as an external client would, to the coordinator —
/// or, from `reroute_at` on, to `fallback` (a surviving ring member).
struct Injector {
    shots: Vec<Shot>,
    next: usize,
    coordinator: NodeId,
    fallback: NodeId,
    reroute_at: Time,
}

impl Injector {
    fn arm(&self, ctx: &mut Ctx) {
        if let Some(&(at, _, _)) = self.shots.get(self.next) {
            ctx.set_timer(at.saturating_since(ctx.now()), TimerToken(0));
        }
    }
}

impl Actor for Injector {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.arm(ctx);
    }
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        while let Some(&(at, mask, bytes)) = self.shots.get(self.next) {
            if at > ctx.now() {
                break;
            }
            let seq = self.next as u64;
            self.next += 1;
            let me = ctx.id();
            let v = Value {
                id: MsgId(((me.0 as u64) << 40) | seq),
                proposer: me,
                seq,
                bytes,
                submitted: ctx.now(),
                mask,
            };
            let dst = if ctx.now() >= self.reroute_at { self.fallback } else { self.coordinator };
            ctx.udp_send(dst, MMsg::Propose(v, None), bytes);
        }
        self.arm(ctx);
    }
}

struct Tap {
    seen: Seen,
}

impl Actor for Tap {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(MMsg::Phase2a { instance, batch, .. }) = env.payload.downcast_ref() {
            let mut seen = self.seen.lock().unwrap();
            seen.entry(instance.0)
                .or_insert_with(|| (ctx.now(), batch.mask(), batch.values().to_vec()));
        }
    }
}

struct Partitioned {
    ring: Vec<NodeId>,
    /// Learner `i` serves partition `i`.
    learners: Vec<NodeId>,
    injectors: Vec<NodeId>,
    seen: Seen,
    log: SharedLog,
}

impl Partitioned {
    fn coordinator(&self) -> NodeId {
        *self.ring.last().unwrap()
    }

    /// The 2As seen so far, in instance order.
    fn batches(&self) -> Vec<(Time, u32, Vec<Value>)> {
        self.seen.lock().unwrap().values().cloned().collect()
    }
}

/// A 3-acceptor ring over `n_parts` partitions (one learner each), one
/// injector per entry of `plans`, and the tap.
fn deploy_partitioned(
    sim: &mut Sim,
    n_parts: usize,
    plans: Vec<Vec<Shot>>,
    reroute_at: Time,
    configure: impl FnOnce(&mut MRingConfig),
) -> Partitioned {
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: n_parts,
        n_proposers: 0,
        ..MRingOptions::default()
    };
    let masks = (0..n_parts).map(|p| 1 << p).collect();
    let layout = layout_mring(sim, &opts, &[], Some(masks), configure);
    let seen: Seen = Arc::default();
    let tap = sim.add_node(Box::new(Tap { seen: seen.clone() }));
    for &g in &layout.d.cfg.partitions.as_ref().expect("partitioned").groups {
        sim.subscribe(tap, g);
    }
    let d = layout.install(sim, |p, _, _| Some(Box::new(p)));
    let (coordinator, fallback) = (d.coordinator(), d.ring[0]);
    let injectors = plans
        .into_iter()
        .map(|shots| {
            sim.add_node(Box::new(Injector { shots, next: 0, coordinator, fallback, reroute_at }))
        })
        .collect();
    Partitioned { ring: d.ring, learners: d.learners, injectors, seen, log: d.log }
}

/// `n` shots in one burst at `at` (the sender's CPU spaces them ~5 µs
/// apart), masks cycling through `masks`.
fn burst(at: Time, n: usize, masks: &[u32], bytes: u32) -> Vec<Shot> {
    (0..n).map(|i| (at, masks[i % masks.len()], bytes)).collect()
}

/// Asserts the batcher's invariants over everything the tap saw and
/// returns how many values it saw per proposer.
fn check_batches(
    batches: &[(Time, u32, Vec<Value>)],
    packet_bytes: u32,
) -> Result<HashMap<NodeId, u64>, String> {
    let mut ids = HashSet::new();
    let mut last_seq: HashMap<(NodeId, u32), u64> = HashMap::new();
    let mut per_proposer: HashMap<NodeId, u64> = HashMap::new();
    for (_, mask, vals) in batches {
        let bytes: u64 = vals.iter().map(|v| v.bytes as u64).sum();
        if vals.is_empty() || (bytes > packet_bytes as u64 && vals.len() > 1) {
            return Err(format!("batch of {} values / {bytes} B", vals.len()));
        }
        for v in vals {
            if v.mask != *mask {
                return Err(format!("value of mask {:#x} in a batch of mask {mask:#x}", v.mask));
            }
            if !ids.insert(v.id) {
                return Err(format!("{:?} proposed in two batches", v.id));
            }
            if last_seq.insert((v.proposer, v.mask), v.seq).is_some_and(|prev| prev >= v.seq) {
                return Err(format!("proposer {:?} reordered inside mask {mask:#x}", v.proposer));
            }
            *per_proposer.entry(v.proposer).or_default() += 1;
        }
    }
    Ok(per_proposer)
}

#[test]
fn interleaved_masks_share_one_instance_per_mask() {
    // A,B,A,B… while core 0 is backlogged receiving them: one FIFO with
    // single-mask batches would cut a batch at every value.
    let mut sim = Sim::new(slow_receive());
    let shots = burst(us(1010), 16, &[0b01, 0b10], 64);
    let d = deploy_partitioned(&mut sim, 2, vec![shots], Time::MAX, |_| {});
    sim.run_until(Time::from_millis(3));

    let batches = d.batches();
    assert_eq!(batches.len(), 2, "one instance per mask per flush, not one per value");
    for (_, _, vals) in &batches {
        assert_eq!(vals.len(), 8);
    }
    let seen = check_batches(&batches, 8192).expect("batch invariants");
    assert_eq!(seen[&d.injectors[0]], 16);
    let log = d.log.lock().unwrap();
    assert_eq!(log.total_deliveries(), 16, "each partition's learner delivers its half");
    log.check_partial_order().expect("partial order");
}

/// A cluster whose receive path costs 25 µs per frame, so a burst of
/// small proposals keeps the coordinator's core 0 busy for `25 µs × n`.
fn slow_receive() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.recv_frame_cost = Dur::micros(25);
    cfg
}

#[test]
fn partial_batch_waits_for_core_zero_and_goes_when_it_frees() {
    // 24 proposals reach the NIC by ~1.19 ms; receiving them occupies
    // core 0 until ~1.67 ms, across the ticks at 1.2, 1.4 and 1.6 ms.
    let mut sim = Sim::new(slow_receive());
    let shots = burst(us(1010), 24, &[0b01], 64);
    let d = deploy_partitioned(&mut sim, 2, vec![shots], Time::MAX, |_| {});
    let coord = d.coordinator();

    // All 24 receives (25 µs each) are queued on core 0 by the first
    // tick, and none could start before ~1.06 ms: busy until ≥ 1.66 ms.
    sim.run_until(us(1200));
    assert!(sim.cpu_busy(coord, 0) >= Dur::micros(600), "scenario: core 0 backlogged");
    sim.run_until(us(1620));
    assert!(d.batches().is_empty(), "a partial batch was proposed while core 0 was busy");

    sim.run_until(Time::from_millis(3));
    let batches = d.batches();
    assert_eq!(batches.len(), 1, "everything that arrived meanwhile shares the instance");
    assert_eq!(batches[0].2.len(), 24);
    // Proposed when the core freed: a 2A of the following tick (1.8 ms)
    // would take ~100 µs more to reach the tap.
    assert!(batches[0].0 < us(1850), "2A seen at {:?}", batches[0].0);
    assert_eq!(d.log.lock().unwrap().total_deliveries(), 24);
}

#[test]
fn held_batch_goes_within_the_hold_bound_when_core_zero_never_drains() {
    // 100 proposals keep core 0 busy from ~1.06 ms to ~3.6 ms. A head
    // may wait (HOLD_TICKS + 1) × batch_timeout = 1 ms at most, and a
    // value is accepted every 25 µs — so the first batch is cut with at
    // most 40 values in it, long before the core frees.
    let mut sim = Sim::new(slow_receive());
    let shots = burst(us(1010), 100, &[0b10], 64);
    let d = deploy_partitioned(&mut sim, 2, vec![shots], Time::MAX, |_| {});
    sim.run_until(Time::from_millis(6));

    let batches = d.batches();
    let first = batches[0].2.len();
    assert!((20..=40).contains(&first), "first batch of {first} values");
    assert!(batches.len() >= 3, "later heads hit the bound too: {} batches", batches.len());
    let seen = check_batches(&batches, 8192).expect("batch invariants");
    assert_eq!(seen[&d.injectors[0]], 100);
}

#[test]
fn lone_value_on_an_idle_coordinator_leaves_on_arrival() {
    let mut sim = Sim::new(SimConfig::default());
    let shots = burst(us(1010), 1, &[0b10], 64);
    let d = deploy_partitioned(&mut sim, 2, vec![shots], Time::MAX, |_| {});
    sim.run_until(Time::from_millis(3));
    let batches = d.batches();
    assert_eq!(batches.len(), 1);
    // ~60 µs to reach the coordinator, no wait in its queue (the next
    // tick is at 1.2 ms), ~80 µs for the 2A to reach the tap.
    assert!(batches[0].0 <= us(1010 + 60 + 80 + 25), "seen at {:?}", batches[0].0);
}

#[test]
fn partial_batch_waits_for_the_uplink_and_leaves_with_what_arrived_meanwhile() {
    // One 64 KiB value: ~0.3 ms of core 0 to receive it and send its 2A,
    // then ~0.53 ms of the coordinator's uplink to serialize the 2A.
    // Eight small values arrive while only the uplink is busy: their 2A
    // could not leave sooner, so they wait, and share one instance.
    let mut sim = Sim::new(SimConfig::default());
    let big = burst(us(1010), 1, &[0b10], 64 * 1024);
    let small: Vec<Shot> = (0..8).map(|i| (us(2700 + 40 * i), 0b01, 64)).collect();
    let d = deploy_partitioned(&mut sim, 2, vec![big, small], Time::MAX, |_| {});
    let coord = d.coordinator();
    sim.run_until(us(2700));
    let busy = sim.cpu_busy(coord, 0);
    assert!(busy > Dur::micros(250), "scenario: the big value went through core 0");
    sim.run_until(us(3060));
    let receives = sim.cpu_busy(coord, 0) - busy;
    assert!(receives < Dur::micros(20), "scenario: core 0 idle but for {receives:?}");
    sim.run_until(Time::from_millis(5));

    let batches = d.batches();
    let small: Vec<_> = batches.iter().filter(|(_, mask, _)| *mask == 0b01).collect();
    assert_eq!(small.len(), 1, "held for the uplink: one instance, not one per value");
    assert_eq!(small[0].2.len(), 8);
    check_batches(&batches, 8192).expect("batch invariants");
    assert_eq!(d.log.lock().unwrap().total_deliveries(), 1 + 8);
}

#[test]
fn pending_cap_is_enforced_on_the_total_and_drops_are_counted() {
    // 32 × 64 B over two masks against a 1 KiB cap, all inside one tick.
    let mut sim = Sim::new(slow_receive());
    let shots = burst(us(1050), 32, &[0b01, 0b10], 64);
    let d = deploy_partitioned(&mut sim, 2, vec![shots], Time::MAX, |cfg| {
        cfg.batch_timeout = Dur::millis(1);
        cfg.pending_cap_bytes = 1024;
    });
    sim.run_until(Time::from_millis(4));
    let coord = d.coordinator();
    assert_eq!(sim.metrics().counter(coord, "rp.drop"), 16);
    assert_eq!(sim.metrics().counter(coord, "rp.drop_bytes"), 1024);
    let seen = check_batches(&d.batches(), 8192).expect("batch invariants");
    assert_eq!(seen[&d.injectors[0]], 16, "what the cap admitted is proposed");
}

#[test]
fn takeover_with_non_empty_queues_resumes_batching() {
    // A burst of 8 proposals under two masks every millisecond, each
    // keeping core 0 busy receiving it, so values pend behind the
    // burst's first: the coordinator dies mid-burst holding queued
    // values. Ring position 0 takes over, and the client re-routes to
    // it.
    let mut sim = Sim::new(slow_receive());
    let bursts = (0..1200u64).map(|b| burst(us(1000 + 1000 * b), 8, &[0b01, 0b10], 64));
    let shots: Vec<Shot> = bursts.flatten().collect();
    let reroute_at = Time::from_millis(900);
    let d = deploy_partitioned(&mut sim, 2, vec![shots], reroute_at, |_| {});
    sim.run_until(us(500_150));
    // The burst sent at 500 ms (its values' seqs from 499 × 8) is still
    // being received: most of it has not been proposed.
    let batches = d.batches();
    let last_burst = batches.iter().flat_map(|(_, _, vals)| vals).filter(|v| v.seq >= 499 * 8);
    assert!(last_burst.count() < 8, "scenario: the coordinator dies holding values");
    let before = d.batches().len();
    assert!(before > 100, "scenario: batches flow before the crash");
    sim.set_node_up(d.coordinator(), false);
    sim.run_until(Time::from_millis(1500));

    assert_eq!(sim.metrics().counter(d.ring[0], "rp.became_coord"), 1);
    let batches = d.batches();
    let after: Vec<_> = batches.iter().filter(|(at, _, _)| *at > reroute_at).collect();
    let values: usize = after.iter().map(|(_, _, vals)| vals.len()).sum();
    assert!(values >= 1400, "new coordinator proposed only {values} values");
    assert!(values >= 2 * after.len(), "and still batches per mask: {} instances", after.len());
    check_batches(&batches, 8192).expect("batch invariants across the takeover");
    d.log.lock().unwrap().check_partial_order().expect("partial order across the takeover");
}

// ----------------------------------------------------------------------
// Per-partition routing: a learner hears its partitions' instances and
// nothing else, and a link on each 2A passes the others' over.
// ----------------------------------------------------------------------

/// Three partitions; 500 one- and two-partition values interleaved,
/// one instance each (the coordinator is idle at every arrival): 200
/// instances reach two partitions' groups. Run past the last decision,
/// before the first heartbeat (100 ms), with the lifecycle probes on.
fn three_partitions_mixed() -> (Sim, Partitioned) {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_probes(ProbeConfig::lifecycle());
    let masks = [0b001, 0b010, 0b100, 0b011, 0b110];
    let shots: Vec<Shot> =
        (0..500).map(|i| (us(1000 + 60 * i), masks[i as usize % 5], 256)).collect();
    let d = deploy_partitioned(&mut sim, 3, vec![shots], Time::MAX, |_| {});
    sim.run_until(Time::from_millis(60));
    assert_eq!(d.batches().len(), 500, "scenario: one instance per value");
    (sim, d)
}

/// Each lifecycle probe of `code` at `node`: `(instance, when)`.
fn stamps(sim: &Sim, node: NodeId, code: u16) -> Vec<(u64, Time)> {
    let at = |e: &&ProbeEvent| e.node == node.0 as u32 && e.code == code;
    sim.probe_events().iter().filter(at).map(|e| (e.arg & 0xFFFF_FFFF_FFFF, e.time)).collect()
}

#[test]
fn a_learner_hears_only_its_partitions_instances() {
    let (sim, d) = three_partitions_mixed();
    let batches = d.batches();
    for (p, &l) in d.learners.iter().enumerate() {
        let mine = batches.iter().filter(|(_, mask, _)| mask & (1 << p) != 0).count() as u64;
        // Each instance of its partitions brings it its 2A and the last
        // acceptor's 2B, the decision; no other datagram reaches it.
        let got = sim.metrics().counter(l, "net.recv_pkts");
        assert_eq!(got, 2 * mine, "learner of partition {p}");
    }
    assert_eq!(sim.metrics().sum("rp.retrans"), 0);
    let log = d.log.lock().unwrap();
    assert_eq!(log.total_deliveries(), 100 * (1 + 1 + 1 + 2 + 2));
    log.check_partial_order().expect("partial order");
}

#[test]
fn each_ring_acceptor_sends_one_2b_per_instance() {
    // A two-partition 2A reaches every acceptor once per group. Only a
    // re-2A restarts the vote relay, never the second group's copy of
    // the 2A already voted on (700 2Bs from each, not 500, if it did).
    let (sim, d) = three_partitions_mixed();
    for &a in &d.ring[..2] {
        let sent = stamps(&sim, a, code::PHASE2B);
        let instances: BTreeSet<u64> = sent.iter().map(|&(i, _)| i).collect();
        assert_eq!((sent.len(), instances.len()), (500, 500), "2Bs from {a:?}");
    }
    assert_eq!(sim.metrics().sum("rp.re2a"), 0);
}

#[test]
fn a_decision_reaches_the_learners_one_hop_after_the_last_vote() {
    // The last acceptor multicasts its 2B on the batch's groups: the
    // first learner delivers each instance one control hop after that
    // 2B leaves — 57.9 to 65.7 µs here, the second group's copy leaving
    // a send later. Relayed by the coordinator, the decision took two
    // hops and the coordinator's turn in between: 115.8 to 127.0 µs.
    // The bound sits between the two.
    let (sim, d) = three_partitions_mixed();
    let first = |nodes: &[NodeId], code| {
        let mut first: BTreeMap<u64, Time> = BTreeMap::new();
        for (i, at) in nodes.iter().flat_map(|&n| stamps(&sim, n, code)) {
            first.entry(i).and_modify(|t| *t = (*t).min(at)).or_insert(at);
        }
        first
    };
    let last_vote = first(&d.ring[1..2], code::PHASE2B);
    let delivery = first(&d.learners, code::DELIVER);
    assert_eq!((last_vote.len(), delivery.len()), (500, 500));
    let worst = last_vote.iter().map(|(i, at)| delivery[i].since(*at)).max().unwrap();
    assert!(worst <= Dur::micros(70), "a delivery {worst:?} after the last vote");
    // The coordinator announces nothing: what it sends is its 2As, one
    // copy per group of each batch's mask.
    let copies: u64 = d.batches().iter().map(|(_, mask, _)| mask.count_ones() as u64).sum();
    assert_eq!(sim.metrics().counter(d.coordinator(), "net.sent_pkts"), copies);
    assert_eq!(sim.metrics().sum("rp.floor_2b"), 0, "loss-free: no floor stands in");
}

#[test]
fn an_idle_partition_resumes_on_one_2a() {
    // Partition 1 proposes once, then idles while partition 0 orders
    // 100 000 instances, then proposes again.
    let mut sim = Sim::new(SimConfig::default());
    let busy: Vec<Shot> = (0..100_000).map(|i| (us(1000 + 40 * i), 0b01, 64)).collect();
    let wake = us(1000 + 40 * 100_000 + 1000);
    let idle = vec![(us(500), 0b10, 64), (wake, 0b10, 64)];
    let d = deploy_partitioned(&mut sim, 2, vec![busy, idle], Time::MAX, |_| {});
    sim.run_until(wake);
    let learner = d.learners[1];
    let sent = sim.metrics().counter(learner, "net.sent_pkts");
    assert_eq!(d.batches().len(), 100_001, "scenario: one instance per value");
    sim.run_until(wake + Dur::millis(1));

    // Its learner delivers the second value within a millisecond, having
    // sent nothing for it: no repair request, no catch-up.
    let log = d.log.lock().unwrap();
    assert_eq!(log.sequence(1).len(), 2);
    assert_eq!(sim.metrics().counter(learner, "net.sent_pkts"), sent);
    assert_eq!(sim.metrics().sum("rp.retrans"), 0);
    log.check_partial_order().expect("partial order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the arrival pattern, sizes, masks and window: every
    /// accepted value lands in exactly one batch, batches are
    /// single-mask and at most one packet (unless a single oversized
    /// value), and per-proposer order inside a mask is preserved.
    #[test]
    fn batcher_invariants_hold_for_any_arrival_pattern(
        plans in prop::collection::vec(
            prop::collection::vec(
                (0u64..150, 1u32..4, prop::sample::select(vec![64u32, 256, 1500, 3000, 9000])),
                1..120,
            ),
            2,
        ),
        window in 1u32..32,
        slow in any::<bool>(),
    ) {
        let mut sim = Sim::new(if slow { slow_receive() } else { SimConfig::default() });
        let shots = |plan: &Vec<(u64, u32, u32)>| {
            let mut at = Time::from_millis(1);
            plan.iter()
                .map(|&(gap_us, mask, bytes)| {
                    at += Dur::micros(gap_us);
                    (at, mask, bytes)
                })
                .collect::<Vec<Shot>>()
        };
        let d = deploy_partitioned(
            &mut sim,
            2,
            plans.iter().map(shots).collect(),
            Time::MAX,
            |cfg| cfg.flow.initial_window = window,
        );
        sim.run_until(Time::from_millis(400));

        let seen = check_batches(&d.batches(), 8192).map_err(TestCaseError::fail)?;
        for (plan, inj) in plans.iter().zip(&d.injectors) {
            prop_assert_eq!(seen.get(inj).copied().unwrap_or(0), plan.len() as u64);
        }
        prop_assert_eq!(sim.metrics().counter(d.coordinator(), "rp.drop"), 0);
        let log = d.log.lock().unwrap();
        log.check_partial_order().map_err(|e| TestCaseError::fail(e.to_string()))?;
        // A mask-3 value is delivered by both partitions' learners.
        let deliveries: usize =
            plans.iter().flatten().map(|&(_, mask, _)| mask.count_ones() as usize).sum();
        prop_assert_eq!(log.total_deliveries(), deliveries);
    }
}
