//! U-Ring acceptors that write their votes ahead (`ringpaxos::uring`
//! module docs, "Durable votes"): the 2A is relayed on arrival, each
//! acceptor's vote follows once it is durable, and a vote counts only
//! once it is durable at its acceptor and at every acceptor upstream.

use abcast::{metric, MsgId};
use paxos::msg::{InstanceId, Round};
use recovery::{LogMode, NullApp};
use ringpaxos::cluster::{
    deploy_uring, deploy_uring_recoverable, respawn_uring, URingOptions, URingRecoveryOptions,
};
use ringpaxos::msg::UMsg;
use ringpaxos::value::{BatchData, Value, ALL_PARTITIONS};
use ringpaxos::StorageMode;
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
/// a lone value is decided one coalesced write after an in-memory ring
/// would decide it, not one write per acceptor. Both ways to ask for a
/// synchronous vote write — a write-ahead log, and a plain ring's
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

    let write = SimConfig::default().disk_write_time_coalesced(16 * 1024, 32 * 1024);
    for (name, l) in [("write-ahead log", wal), ("SyncDisk", sync_disk)] {
        let extra = l - in_memory;
        assert!(
            extra.as_nanos().abs_diff(write.as_nanos()) < write.as_nanos() / 4,
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

/// The write-ahead invariant, checked at every decision: when the last
/// acceptor decides a value, each writing acceptor of the layout already
/// holds a vote for it in its stable store. (The coordinator's own vote
/// rides on its 2A unwritten — ROADMAP item 4.)
#[test]
fn every_decision_is_durable_at_every_writing_acceptor() {
    for mode in [LogMode::Sync, LogMode::Group { interval: Dur::millis(1), max_bytes: 256 * 1024 }]
    {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            proposer_positions: vec![0, 1, 2, 3, 4],
            proposer_rate_bps: 40_000_000,
            proposer_stop: Some(Time::from_millis(200)),
            ..lone_value(0)
        };
        // No checkpoints, so no vote is trimmed from a store.
        let rec =
            URingRecoveryOptions { wal_mode: mode, checkpoint_interval: 0, ..Default::default() };
        let ru = deploy_uring_recoverable(&mut sim, &opts, rec, |_| {}, |_| None);
        let decider = 2; // the last acceptor; its learner delivers as it decides
        let (mut seen, mut checked) = (0, 0);
        while sim.now() < Time::from_millis(300) {
            sim.run_until(sim.now() + Dur::micros(10));
            let log = ru.d.log.lock().unwrap();
            let decided = log.sequence(decider);
            for &id in &decided[seen..] {
                for writer in [1, 2] {
                    let store = ru.stores[writer].lock().unwrap();
                    assert!(
                        store.votes.values().any(|(_, b)| b.iter().any(|v| v.id == id)),
                        "{mode:?}: {id:?} decided at {} before it was durable at position {writer}",
                        sim.now()
                    );
                }
                checked += 1;
            }
            seen = decided.len();
        }
        assert!(checked > 250, "{mode:?}: only {checked} decisions checked");
    }
}

/// A 2B that reaches an acceptor before its 2A is held, not dropped: the
/// 2A completes the vote, on the write-ahead path and on the in-memory
/// one. Without the 2B the same 2A decides nothing.
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
