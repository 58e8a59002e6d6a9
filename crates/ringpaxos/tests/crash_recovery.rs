//! Crash, restart, and recovery of U-Ring Paxos processes: the
//! acceptance scenarios of the recovery subsystem. A ring process is
//! crashed mid-load and respawned as a *fresh* actor over its stable
//! store; the restarted learner must recover from its checkpoint plus
//! the decided suffix (never a full replay), the restarted acceptor
//! must replay its write-ahead vote log, and the crash-aware agreement
//! checker must find no lost and no duplicated deliveries.

use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_mring_recoverable, deploy_uring_recoverable, respawn_mring, respawn_uring, MRingOptions,
    RecoverableURing, URingOptions, URingRecoveryOptions,
};
use simnet::prelude::*;

fn opts(proposers: Vec<usize>) -> URingOptions {
    URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: proposers,
        proposer_rate_bps: 60_000_000,
        msg_bytes: 16 * 1024,
        burst: 1,
        proposer_stop: Some(Time::from_millis(2500)),
    }
}

fn deploy(sim: &mut Sim, proposers: Vec<usize>, rec: URingRecoveryOptions) -> RecoverableURing {
    deploy_uring_recoverable(
        sim,
        &opts(proposers),
        rec,
        |_| {},
        |_| Some(Box::new(NullApp::default())),
    )
}

/// Delivered-message counts per ring position.
fn delivered(sim: &Sim, ru: &RecoverableURing) -> Vec<u64> {
    ru.d.ring.iter().map(|&n| sim.metrics().counter(n, "abcast.delivered_msgs")).collect()
}

/// The acceptance scenario: a learner-only ring process crashes
/// mid-load, is respawned over its stable store, recovers from
/// checkpoint + decided suffix, and the crash-aware checker passes.
#[test]
fn restarted_learner_recovers_from_checkpoint_plus_suffix() {
    let victim = 4usize; // learner-only: not an acceptor, not a proposer
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2], URingRecoveryOptions::default());

    sim.run_until(Time::from_millis(1000));
    let before_crash = delivered(&sim, &ru)[victim];
    assert!(before_crash > 0, "load flowed before the crash");
    sim.set_node_up(ru.d.ring[victim], false);
    sim.run_until(Time::from_millis(1300));

    // The victim's own durable checkpoint was taken before the crash.
    let own_cp = ru.stores[victim].lock().unwrap().checkpoint.clone().expect("checkpointed");
    assert!(own_cp.watermark.0 > 0);
    assert!(own_cp.log_pos > 0);

    respawn_uring(&mut sim, &ru, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    // No lost, no duplicated deliveries across the restart.
    let log = ru.d.log.lock().unwrap();
    log.check_crash_agreement(&[0, 1, 2, 3, 4]).expect("crash-aware agreement");

    // The restart was recorded with the checkpoint's resume basis.
    let marks = log.restarts_of(victim);
    assert_eq!(marks.len(), 1);
    assert_eq!(marks[0].1, own_cp.log_pos as usize, "resumed from the durable checkpoint");
    assert!(marks[0].1 > 0, "not a from-scratch replay");

    // Catch-up fetched only the decided suffix, not the whole history.
    let v = ru.d.ring[victim];
    let total_instances: u64 = sim.metrics().sum("abcast.instances");
    let caught_up = sim.metrics().counter(v, "rec.catchup_instances");
    assert!(caught_up > 0, "the decided suffix was transferred");
    assert!(
        caught_up < total_instances / 2,
        "suffix catch-up ({caught_up}) must be far below full replay ({total_instances})"
    );

    // Time-to-recover was measured.
    let ttr = sim.metrics().latency("rec.ttr");
    assert_eq!(ttr.count, 1);
    assert!(ttr.max > Dur::ZERO);
}

/// An acceptor crash: votes survive in the write-ahead log, the fresh
/// incarnation replays them, and the ring — stalled during the outage,
/// exactly ch. 7's U-Ring lesson — resumes and reaches agreement.
#[test]
fn restarted_acceptor_replays_wal_and_ring_resumes() {
    let victim = 1usize; // mid-segment acceptor
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 2, 3], URingRecoveryOptions::default());

    sim.run_until(Time::from_millis(1000));
    sim.set_node_up(ru.d.ring[victim], false);
    sim.run_until(Time::from_millis(1200));
    let during = delivered(&sim, &ru);
    sim.run_until(Time::from_millis(1400));
    let during2 = delivered(&sim, &ru);
    // The ring stalls while an acceptor is down (at most the open window
    // of instances still trickles through the healthy segment).
    assert!(
        during2[0] - during[0] <= 64,
        "a broken ring must not keep moving traffic: {} -> {}",
        during[0],
        during2[0]
    );

    // Votes are durable: the WAL has content to replay.
    assert!(!ru.stores[victim].lock().unwrap().votes.is_empty(), "write-ahead log survived");

    respawn_uring(&mut sim, &ru, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    let after = delivered(&sim, &ru);
    assert!(
        after[0] > during2[0] + 100,
        "ring resumed after the acceptor restart: {} -> {}",
        during2[0],
        after[0]
    );
    ru.d.log.lock().unwrap().check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement");
}

/// A long outage with a small retention slack forces the state-transfer
/// path: the recovering learner adopts the peer's checkpoint (marked as
/// a transfer in the delivery log) and still reaches agreement.
#[test]
fn long_outage_falls_back_to_state_transfer() {
    let victim = 4usize;
    let mut sim = Sim::new(SimConfig::default());
    let rec = URingRecoveryOptions {
        checkpoint_interval: 64,
        catchup_retention: 0, // trim the cache hard at every checkpoint
    };
    let ru = deploy(&mut sim, vec![0, 1, 2], rec);

    sim.run_until(Time::from_millis(600));
    sim.set_node_up(ru.d.ring[victim], false);
    // Long outage: peers checkpoint (and trim) far past the victim.
    sim.run_until(Time::from_millis(2000));
    respawn_uring(&mut sim, &ru, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    let v = ru.d.ring[victim];
    assert!(
        sim.metrics().counter(v, "rec.state_transfers") > 0,
        "a peer checkpoint was transferred"
    );
    let log = ru.d.log.lock().unwrap();
    log.check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement with state transfer");
    assert!(
        log.restarts_of(victim).iter().any(|&(_, _, transferred)| transferred),
        "the transfer was recorded as such"
    );
}

/// M-Ring: a dedicated learner crashes mid-load, is respawned over its
/// stable store, restores its checkpoint, and bulk-fetches the decided
/// suffix from its preferential acceptor over TCP.
#[test]
fn mring_learner_recovers_from_checkpoint_and_tcp_catchup() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 30_000_000,
        msg_bytes: 8192,
        proposer_stop: Some(Time::from_millis(2500)),
        ..MRingOptions::default()
    };
    let rm = deploy_mring_recoverable(
        &mut sim,
        &opts,
        128,
        |_| {},
        |_| Some(Box::new(NullApp::default())),
    );
    let victim = rm.d.learners[0]; // all_learners index 0

    sim.run_until(Time::from_millis(1000));
    sim.set_node_up(victim, false);
    sim.run_until(Time::from_millis(1400));
    let cp = rm.store_of(victim).lock().unwrap().checkpoint.clone().expect("checkpointed");
    assert!(cp.watermark.0 > 0 && cp.log_pos > 0);

    respawn_mring(&mut sim, &rm, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    let log = rm.d.log.lock().unwrap();
    let all: Vec<usize> = (0..rm.d.all_learners.len()).collect();
    log.check_crash_agreement(&all).expect("crash-aware agreement");
    let marks = log.restarts_of(0);
    assert_eq!(marks.len(), 1);
    assert_eq!(marks[0].1, cp.log_pos as usize, "resumed from the durable checkpoint");

    assert!(
        sim.metrics().counter(victim, "rec.catchup_instances") > 0,
        "the decided suffix came over the TCP catch-up path"
    );
    assert_eq!(sim.metrics().latency("rec.ttr").count, 1);
    // Vote durability: the acceptors' stable stores hold votes.
    assert!(!rm.store_of(rm.d.ring[0]).lock().unwrap().votes.is_empty());
}

/// Crashing the recovering learner's catch-up peer as well must not
/// wedge recovery: the victim's first catch-up may complete against a
/// peer that is itself freshly respawned (empty horizon), and the
/// persistent gap-detection tick re-enters catch-up once the peer has
/// content again.
#[test]
fn double_crash_of_victim_and_catchup_peer_still_recovers() {
    let victim = 4usize;
    let peer = 2usize; // last acceptor: the victim's default catch-up peer
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1], URingRecoveryOptions::default());

    sim.run_until(Time::from_millis(900));
    sim.set_node_up(ru.d.ring[victim], false);
    sim.run_until(Time::from_millis(1000));
    sim.set_node_up(ru.d.ring[peer], false);
    sim.run_until(Time::from_millis(1200));
    respawn_uring(&mut sim, &ru, peer, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_millis(1250));
    respawn_uring(&mut sim, &ru, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(8));

    ru.d.log.lock().unwrap().check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement");
}

/// M-Ring coordinator failover with recovery enabled: the promises the
/// surviving acceptors make to the new coordinator's round are
/// persisted, so a later restart could never vote in the old round.
#[test]
fn mring_failover_persists_promises() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 30_000_000,
        msg_bytes: 8192,
        proposer_stop: Some(Time::from_millis(2500)),
        ..MRingOptions::default()
    };
    let rm = deploy_mring_recoverable(&mut sim, &opts, 128, |_| {}, |_| None);
    let coord = rm.d.coordinator();
    sim.run_until(Time::from_millis(1000));
    sim.set_node_up(coord, false);
    sim.run_until(Time::from_secs(5));

    rm.d.log.lock().unwrap().check_total_order().expect("order across failover");
    let promised: Vec<u64> =
        rm.d.ring
            .iter()
            .filter(|&&n| n != coord)
            .map(|&n| rm.store_of(n).lock().unwrap().promised.counter)
            .collect();
    assert!(
        promised.iter().any(|&c| c >= 2),
        "the takeover round must be durably promised (got counters {promised:?})"
    );
}

/// M-Ring: when the acceptors' §3.3.7 GC has collected past a crashed
/// learner's checkpoint, catch-up escalates to a state transfer of a
/// peer learner's checkpoint instead of hanging.
#[test]
fn mring_gcd_suffix_falls_back_to_peer_state_transfer() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3, // enough healthy learners for the f+1 quorum to advance GC
        n_proposers: 2,
        proposer_rate_bps: 40_000_000,
        msg_bytes: 8192,
        proposer_stop: Some(Time::from_millis(3000)),
        ..MRingOptions::default()
    };
    let rm = deploy_mring_recoverable(
        &mut sim,
        &opts,
        64,
        |cfg| cfg.gc_retention = 64, // collect aggressively
        |_| Some(Box::new(NullApp::default())),
    );
    let victim = rm.d.learners[0];

    sim.run_until(Time::from_millis(800));
    sim.set_node_up(victim, false);
    // Long outage: the healthy quorum advances GC far past the victim.
    sim.run_until(Time::from_millis(2200));
    respawn_mring(&mut sim, &rm, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(7));

    assert!(
        sim.metrics().counter(victim, "rec.state_transfers") > 0,
        "a peer learner's checkpoint was transferred"
    );
    let log = rm.d.log.lock().unwrap();
    let all: Vec<usize> = (0..rm.d.all_learners.len()).collect();
    log.check_crash_agreement(&all).expect("agreement with state transfer");
    assert!(log.restarts_of(0).iter().any(|&(_, _, transferred)| transferred));
}

/// Group-commit vote logging: driven hard enough that each writer's
/// disk stays busy, the ring reaches agreement with fewer device writes
/// than votes — and every vote is still written.
#[test]
fn group_commit_wal_reaches_agreement_with_fewer_disk_ops() {
    let mut sim = Sim::new(SimConfig::default());
    // 3 × 80 Mb/s of 16 KB values: ~1 830 votes/s at each writer, whose
    // lone writes would take 681 µs each.
    let opts = URingOptions { proposer_rate_bps: 80_000_000, ..opts(vec![0, 1, 2]) };
    let rec = URingRecoveryOptions { checkpoint_interval: 0, ..Default::default() };
    let ru = deploy_uring_recoverable(
        &mut sim,
        &opts,
        rec,
        |_| {},
        |_| Some(Box::new(NullApp::default())),
    );
    sim.run_until(Time::from_secs(4));
    assert!(sim.metrics().counter(ru.d.ring[3], "abcast.delivered_msgs") > 0);
    ru.d.log.lock().unwrap().check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement");
    for pos in [1, 2] {
        let votes = ru.stores[pos].lock().unwrap().votes.len() as u64;
        let writes = sim.metrics().counter(ru.d.ring[pos], "rec.wal_writes");
        assert!(writes < votes, "position {pos}: {votes} votes in {writes} device writes");
        let written = sim.metrics().counter(ru.d.ring[pos], "disk.written_bytes");
        assert!(written >= votes * 16 * 1024, "position {pos}: every vote reached the disk");
    }
}
