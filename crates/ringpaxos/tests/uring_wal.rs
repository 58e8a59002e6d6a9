//! Acceptors that write their votes ahead, on both rings: one vote log
//! (`recovery::VoteLog`) says when a vote may leave, and a vote counts
//! only once it is durable at the round it is counted in. U-Ring relays
//! the 2A on arrival and sends each acceptor's vote once it is durable
//! (`ringpaxos::uring` module docs, "Durable votes"); M-Ring holds each
//! acceptor's 2B the same way (`ringpaxos::mring`, "Durable votes").

use std::sync::{Arc, Mutex};

use abcast::{metric, shared_log, MsgId, Pacer, SharedLog};
use paxos::msg::{InstanceId, Round};
use recovery::{stable, NullApp, StableHandle};
use ringpaxos::cluster::{
    deploy_mring_recoverable, deploy_uring, deploy_uring_recoverable, respawn_uring, MRingOptions,
    URingOptions, URingRecoveryOptions,
};
use ringpaxos::mring::MRingProcess;
use ringpaxos::msg::{MMsg, UMsg};
use ringpaxos::value::{BatchData, Value, ALL_PARTITIONS};
use ringpaxos::{Batch, MRecovery, MRingConfig, StorageMode};
use simnet::fault::{FaultAction, FaultPlan};
use simnet::prelude::*;

/// A 5-process ring with three acceptors whose one proposer, at
/// `proposer`, sends a single 16 KB value at time zero.
fn lone_value(proposer: usize) -> URingOptions {
    URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![proposer],
        proposer_rate_bps: 10_000_000,
        msg_bytes: 16 * 1024,
        burst: 1,
        proposer_stop: Some(Time::from_millis(1)), // the next value is due at 13 ms
    }
}

/// Messages delivered by every process of the ring.
fn delivered(sim: &Sim, ring: &[NodeId]) -> u64 {
    ring.iter().map(|&n| sim.metrics().counter(n, metric::DELIVERED_MSGS)).sum()
}

/// The two writing acceptors of a 3-acceptor segment write in parallel:
/// a lone value is decided one write after an in-memory ring would
/// decide it, not one write per acceptor. Nothing shares that write, so
/// it is one whole device operation. Both ways to ask for a synchronous
/// vote write — a write-ahead log, and a plain ring's
/// `StorageMode::SyncDisk` — take the same path.
#[test]
fn a_lone_value_waits_for_one_write_not_one_per_acceptor() {
    let latency = |sim: &mut Sim| {
        sim.run_until(Time::from_millis(50));
        let l = sim.metrics().latency(metric::LATENCY);
        assert_eq!(l.count, 1, "exactly the lone value");
        l.mean
    };
    let opts = lone_value(3);
    let mut sim = Sim::new(SimConfig::default());
    deploy_uring(&mut sim, &opts, |_| {});
    let in_memory = latency(&mut sim);

    let mut sim = Sim::new(SimConfig::default());
    let rec = URingRecoveryOptions::default();
    deploy_uring_recoverable(&mut sim, &opts, rec, |_| {}, |_| None);
    let wal = latency(&mut sim);

    let mut sim = Sim::new(SimConfig::default());
    deploy_uring(&mut sim, &opts, |cfg| cfg.storage = StorageMode::SyncDisk);
    let sync_disk = latency(&mut sim);

    let write = SimConfig::default().disk_write_time(16 * 1024);
    for (name, l) in [("write-ahead log", wal), ("SyncDisk", sync_disk)] {
        let extra = l - in_memory;
        assert!(
            extra.as_nanos().abs_diff(write.as_nanos()) < write.as_nanos() / 8,
            "{name}: decided {extra} after the in-memory ring; one write takes {write}"
        );
    }
}

/// A mid-segment acceptor relays the 2A and dies before its own write
/// completes. Its successor has the 2A and votes durably, but without the
/// 2B nothing is decided: no process delivers the value until the
/// coordinator re-proposes the instance to the respawned acceptor.
#[test]
fn an_acceptor_that_dies_between_relay_and_write_blocks_the_decision() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy_uring_recoverable(
        &mut sim,
        &lone_value(3),
        URingRecoveryOptions::default(),
        |_| {},
        |_| Some(Box::new(NullApp::default())),
    );
    let (coord, mid, last) = (ru.d.ring[0], ru.d.ring[1], ru.d.ring[2]);
    // The last acceptor starts writing once `mid` has relayed the 2A —
    // while `mid`'s own write is still pending.
    while sim.metrics().counter(last, "disk.written_bytes") == 0 {
        assert!(sim.now() < Time::from_millis(10), "the 2A never reached the last acceptor");
        sim.run_until(sim.now() + Dur::micros(5));
    }
    assert!(ru.stores[1].lock().unwrap().votes.is_empty(), "mid's write is still pending");
    sim.set_node_up(mid, false);
    sim.run_until(sim.now() + Dur::millis(20));
    assert!(ru.stores[1].lock().unwrap().votes.is_empty(), "the crash lost mid's write");
    assert!(!ru.stores[2].lock().unwrap().votes.is_empty(), "the last acceptor's vote is durable");
    respawn_uring(&mut sim, &ru, 1, Some(Box::new(NullApp::default())));

    while sim.metrics().counter(coord, "rec.reproposals") == 0 {
        assert_eq!(delivered(&sim, &ru.d.ring), 0, "decided without mid's vote");
        assert!(sim.now() < Time::from_secs(1), "the coordinator never re-proposed");
        sim.run_until(sim.now() + Dur::millis(1));
    }
    sim.run_until(Time::from_secs(2));
    assert!(ru.stores[1].lock().unwrap().votes.contains_key(&InstanceId(0)), "re-voted durably");
    assert_eq!(sim.metrics().counter(ru.d.ring[3], metric::DELIVERED_MSGS), 1);
    ru.d.log.lock().unwrap().check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement");
}

/// Steps `sim` to 300 ms and, at every value `learner` delivers, checks
/// that each of `writers`' stores already holds a vote carrying it.
/// Returns how many deliveries were checked.
fn check_durable_at_delivery(
    sim: &mut Sim,
    log: &SharedLog,
    learner: usize,
    writers: &[(NodeId, StableHandle<Batch>)],
    what: &str,
) -> usize {
    let (mut seen, mut checked) = (0, 0);
    while sim.now() < Time::from_millis(300) {
        sim.run_until(sim.now() + Dur::micros(10));
        let log = log.lock().unwrap();
        let decided = log.sequence(learner);
        for &id in &decided[seen..] {
            for (n, store) in writers {
                let store = store.lock().unwrap();
                assert!(
                    store.votes.values().any(|(_, b)| b.iter().any(|v| v.id == id)),
                    "{what}: {id:?} decided at {} before it was durable at {n:?}",
                    sim.now()
                );
            }
            checked += 1;
        }
        seen = decided.len();
    }
    checked
}

/// Checks that each of `writers` issued fewer device writes than it
/// has votes in its stable store: the load formed groups.
fn assert_groups_formed(sim: &Sim, writers: &[(NodeId, StableHandle<Batch>)], what: &str) {
    for (n, store) in writers {
        let votes = store.lock().unwrap().votes.len() as u64;
        let writes = sim.metrics().counter(*n, "rec.wal_writes");
        assert!(writes < votes, "{what}: {n:?} wrote {votes} votes in {writes} device writes");
    }
}

/// The write-ahead invariant, checked at every decision on both rings:
/// when a value is decided, each writing acceptor already holds a vote
/// for it in its stable store. The load keeps the writers' disks busy,
/// so most votes are written in groups. U-Ring's last acceptor delivers
/// as it decides; M-Ring's learner delivers one multicast after its
/// coordinator decides, and each non-coordinator ring acceptor writes.
/// (Neither ring's coordinator writes its own vote ahead — ROADMAP
/// item 4.)
#[test]
fn every_decision_is_durable_at_every_writing_acceptor() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        proposer_positions: vec![0, 1, 2, 3, 4],
        proposer_rate_bps: 40_000_000,
        proposer_stop: Some(Time::from_millis(200)),
        ..lone_value(0)
    };
    // No checkpoints, so no vote is trimmed from a store.
    let rec = URingRecoveryOptions { checkpoint_interval: 0, ..Default::default() };
    let ru = deploy_uring_recoverable(&mut sim, &opts, rec, |_| {}, |_| None);
    let decider = 2; // the last acceptor; its learner delivers as it decides
    let writers = [(ru.d.ring[1], ru.stores[1].clone()), (ru.d.ring[2], ru.stores[2].clone())];
    let checked = check_durable_at_delivery(&mut sim, &ru.d.log, decider, &writers, "U-Ring");
    assert!(checked > 250, "U-Ring: only {checked} decisions checked");
    assert_groups_formed(&sim, &writers, "U-Ring");

    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        n_learners: 1,
        proposer_rate_bps: 100_000_000,
        proposer_stop: Some(Time::from_millis(200)),
        ..MRingOptions::default()
    };
    let rm = deploy_mring_recoverable(&mut sim, &opts, 0, |_| {}, |_| None);
    let ring = &rm.d.ring;
    let writers: Vec<_> = ring[..ring.len() - 1].iter().map(|&n| (n, rm.store_of(n))).collect();
    let checked = check_durable_at_delivery(&mut sim, &rm.d.log, 0, &writers, "M-Ring");
    assert!(checked > 200, "M-Ring: only {checked} decisions checked");
    assert_groups_formed(&sim, &writers, "M-Ring");
}

/// `uring_failover`'s shape — five processes, three acceptors, two
/// proposers of 16 KB values — offered 320 Mb/s, past the 270 Mb/s a
/// log paying one op per 32 KB unit could drain. Each writing acceptor
/// packs several votes into each device write, so the ring keeps up:
/// p99 stays within the benchmark's 10 ms limit, no proposer ever
/// finds its in-flight budget full, and what is in flight does not
/// grow.
#[test]
fn groups_keep_the_ring_ahead_of_320_mbps_of_16kb_values() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![1, 2],
        proposer_rate_bps: 160_000_000,
        msg_bytes: 16 * 1024,
        burst: 1,
        proposer_stop: None,
    };
    let rec = URingRecoveryOptions { checkpoint_interval: 256, ..Default::default() };
    let ru = deploy_uring_recoverable(&mut sim, &opts, rec, |_| {}, |_| None);
    let (coord, observer) = (ru.d.ring[0], ru.d.ring[3]);
    let in_flight = |sim: &Sim| {
        let proposed: u64 =
            ru.d.ring.iter().map(|&n| sim.metrics().counter(n, "rp.proposed")).sum();
        proposed - sim.metrics().counter(observer, metric::DELIVERED_MSGS)
    };
    // The benchmark's backlog rule: the least in flight over the last
    // quarter may exceed the least over the second by 10 % + 64.
    let mut samples = Vec::new();
    while sim.now() < Time::from_secs(3) {
        sim.run_until(sim.now() + Dur::millis(10));
        samples.push(in_flight(&sim));
    }
    let n = samples.len();
    let floor = |from: usize, to: usize| samples[from..to].iter().copied().min().unwrap_or(0);
    let (mid, end) = (floor(n / 4, n / 2), floor(n * 3 / 4, n));
    assert!(end as f64 <= 1.1 * mid as f64 + 64.0, "in flight grew: {mid} → {end}");
    assert_eq!(sim.metrics().sum("rp.shed"), 0, "a proposer found its budget full");

    let p99 = sim.metrics().percentile(metric::LATENCY, 0.99).expect("deliveries");
    assert!(p99 <= Dur::millis(10), "p99 {p99}");
    let votes = sim.metrics().counter(coord, metric::INSTANCES);
    for &n in &ru.d.ring[1..3] {
        let writes = sim.metrics().counter(n, "rec.wal_writes");
        assert!(writes < votes, "{n:?} wrote {votes} votes in {writes} device writes");
    }
}

/// A 2B that reaches an acceptor before its 2A is held, not dropped: the
/// 2A completes the vote, on the write-ahead path and the in-memory one.
/// Without the 2B the same 2A decides nothing.
#[test]
fn a_2b_that_overtakes_its_2a_is_held() {
    let run = |storage: StorageMode, send_2b: bool| -> usize {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            ring_len: 3,
            n_acceptors: 2,
            proposer_positions: vec![],
            ..URingOptions::default()
        };
        let d = deploy_uring(&mut sim, &opts, |cfg| cfg.storage = storage);
        let value = Value {
            id: MsgId(7),
            proposer: d.ring[0],
            seq: 0,
            bytes: 1024,
            submitted: Time::ZERO,
            mask: ALL_PARTITIONS,
        };
        let batch = BatchData::pack(vec![value], &d.ring);
        let (instance, round) = (InstanceId(0), Round::new(1, 0));
        // Stand in for the coordinator, whose vote is not durable yet.
        sim.with_ctx(d.ring[0], |ctx| {
            if send_2b {
                ctx.tcp_send(d.ring[1], UMsg::Phase2b { instance, round }, 32);
            }
            ctx.tcp_send(d.ring[1], UMsg::Phase2a { instance, round, batch }, 1024);
        });
        sim.run_until(Time::from_millis(50));
        let log = d.log.lock().unwrap();
        assert!(log.sequence(1).iter().chain(log.sequence(2)).all(|&id| id == MsgId(7)));
        log.sequence(2).len()
    };
    for storage in [StorageMode::SyncDisk, StorageMode::InMemory] {
        assert_eq!(run(storage, true), 1, "{storage:?}: the held 2B completes the vote");
        assert_eq!(run(storage, false), 0, "{storage:?}: no 2B, no decision");
    }
}

/// A takeover's re-proposals are written at the new round. The "already
/// durable" shortcut used to skip the write whenever the stable store
/// held *any* vote for the instance, so a re-proposal was voted without
/// being written and the store kept the old round. Checked at the
/// writing voter of the new layout; the new coordinator's own vote rides
/// unwritten (ROADMAP item 4).
#[test]
fn a_takeover_writes_its_reproposals_at_the_new_round() {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_probes(ProbeConfig::lifecycle());
    let opts = URingOptions {
        proposer_positions: vec![1, 2],
        proposer_rate_bps: 100_000_000,
        proposer_stop: Some(Time::from_millis(1500)),
        ..lone_value(0)
    };
    let rec = URingRecoveryOptions { checkpoint_interval: 0, ..Default::default() };
    let ru = deploy_uring_recoverable(
        &mut sim,
        &opts,
        rec,
        |cfg| cfg.suspicion_timeout = Some(Dur::millis(40)),
        |_| None,
    );
    sim.run_until(Time::from_millis(500));
    sim.set_node_up(ru.d.ring[0], false);
    sim.run_until(Time::from_secs(1));

    let new_coord = ru.d.ring[1];
    assert_eq!(sim.metrics().counter(new_coord, "rp.became_coord"), 1);
    let reproposals = sim.metrics().counter(new_coord, "rp.epoch_reproposals") as usize;
    assert!(reproposals > 0, "the takeover re-proposed nothing");
    assert_eq!(sim.probe_dropped(), 0);
    // The new coordinator's first 2As are the re-proposal window (ring 0's
    // span key is the instance number).
    let window: Vec<InstanceId> = sim
        .probe_events()
        .iter()
        .filter(|e| e.code == probe::code::PHASE2A && e.node == new_coord.0 as u32)
        .take(reproposals)
        .map(|e| InstanceId(e.arg))
        .collect();
    assert_eq!(window.len(), reproposals);
    let store = ru.stores[2].lock().unwrap();
    for i in &window {
        let (round, _) = store.votes.get(i).expect("every re-proposal was voted");
        assert!(*round > Round::new(1, 0), "{i:?} is stored at the old round {round:?}");
    }
}

/// Every Phase 2B this M-Ring process receives, with whether its
/// sender's stable store held the vote at the 2B's round on arrival.
type Seen2b = Arc<Mutex<Vec<(NodeId, InstanceId, Round, bool)>>>;

/// An M-Ring process that checks each incoming Phase 2B against its
/// sender's stable store before handling it.
struct Watch {
    inner: MRingProcess,
    stores: Vec<(NodeId, StableHandle<Batch>)>,
    seen: Seen2b,
}

impl Actor for Watch {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(&MMsg::Phase2b { instance, round, .. }) = env.payload.downcast_ref::<MMsg>() {
            let store = &self.stores.iter().find(|(n, _)| *n == env.src).expect("an acceptor").1;
            let held = store.lock().unwrap().votes.get(&instance).is_some_and(|v| v.0 == round);
            self.seen.lock().unwrap().push((env.src, instance, round, held));
        }
        self.inner.on_message(env, ctx);
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.inner.on_timer(token, ctx);
    }
}

/// A vote write still in flight across a coordinator crash and takeover
/// must not let a Phase 2B of the new round out: a 2B at round `r`
/// leaves an acceptor only once that acceptor's stable store holds the
/// vote at `r`. The ring is `[a0, coordinator]` with one spare, whose
/// disk is slowed 100×. The spare votes and writes every 2A, but no
/// decision waits for it, so when the coordinator crashes it still has
/// writes queued for instances already decided. The takeover makes it
/// the first acceptor of `[spare, a0]` at a new round, and its old
/// writes complete there. Each may only release a 2B at the round it
/// carried — one a0 drops — never one at the new round.
#[test]
fn an_mring_2b_leaves_only_at_the_round_its_write_carried() {
    struct Idle;
    impl Actor for Idle {
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
    }
    let mut sim = Sim::new(SimConfig::default());
    let nodes: Vec<NodeId> = (0..5).map(|_| sim.add_node(Box::new(Idle))).collect();
    let [a0, coord, spare, learner, proposer] = nodes[..] else { unreachable!() };
    let group = sim.add_group();
    let mut cfg = MRingConfig::new(vec![a0, coord], vec![learner, proposer], group);
    cfg.spares = vec![spare];
    cfg.storage = StorageMode::SyncDisk;
    cfg.suspicion_timeout = Dur::millis(20);
    let log = shared_log(2);
    let stores: Vec<(NodeId, StableHandle<Batch>)> = nodes.iter().map(|&n| (n, stable())).collect();
    let seen = Seen2b::default();
    for &(n, ref store) in &stores {
        sim.subscribe(n, group);
        let pacer = (n == proposer).then(|| Pacer::new(10_000_000, 8192, 1));
        let learns = (n == learner || n == proposer).then(|| log.clone());
        let rec =
            MRecovery { store: store.clone(), checkpoint_interval: 0, app: None, resumed: false };
        let inner = MRingProcess::new(cfg.clone(), n, pacer, learns).with_recovery(rec);
        sim.replace_actor(n, Box::new(Watch { inner, stores: stores.clone(), seen: seen.clone() }));
    }
    let crash = Time::from_millis(300);
    let mut plan = FaultPlan::new()
        .at(Time::ZERO, FaultAction::SlowDisk(spare, 100.0))
        .at(crash, FaultAction::Crash(coord));
    let mut respawn = |_: &mut Sim, _: NodeId| {};
    plan.step(&mut sim, crash, &mut respawn);
    let before = log.lock().unwrap().sequence(0).len();
    plan.step(&mut sim, Time::from_secs(3), &mut respawn);

    assert_eq!(sim.metrics().counter(a0, "rp.became_coord"), 1, "the takeover completed");
    let seen = seen.lock().unwrap();
    for &(from, instance, round, held) in seen.iter() {
        assert!(held, "a 2B at {round:?} for {instance:?} left {from:?} before its store held it");
    }
    let new_round = seen.iter().filter(|&&(from, _, r, _)| from == spare && r > Round::new(1, 1));
    let old_round = seen.iter().filter(|&&(from, _, r, _)| from == spare && r == Round::new(1, 1));
    assert!(new_round.count() > 10, "the spare voted at the new round");
    assert!(old_round.count() > 10, "writes from before the takeover completed after it");
    let after = log.lock().unwrap().sequence(0).len();
    assert!(after > before + 20, "delivery resumed: {before} → {after}");
}

/// Recovery replays the vote log, so it refuses a ring that keeps its
/// votes in memory, and names the mode.
#[test]
#[should_panic(expected = "not InMemory")]
fn mring_recovery_refuses_a_mode_that_does_not_write_ahead() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions::default();
    deploy_mring_recoverable(&mut sim, &opts, 0, |c| c.storage = StorageMode::InMemory, |_| None);
}

/// The same refusal on U-Ring.
#[test]
#[should_panic(expected = "not InMemory")]
fn uring_recovery_refuses_a_mode_that_does_not_write_ahead() {
    let mut sim = Sim::new(SimConfig::default());
    let rec = URingRecoveryOptions::default();
    let opts = lone_value(0);
    deploy_uring_recoverable(&mut sim, &opts, rec, |c| c.storage = StorageMode::InMemory, |_| None);
}
