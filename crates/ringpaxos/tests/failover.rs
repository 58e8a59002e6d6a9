//! U-Ring coordinator failover and ring repair: the acceptance
//! scenarios of the self-healing subsystem (`cfg.suspicion_timeout`).
//!
//! * An *unplanned* coordinator crash is recovered by an epoch-based
//!   takeover: a surviving acceptor bumps the round, reconstructs the
//!   instance allocation from a promise quorum, and the ring resumes —
//!   with zero agreement/ordering violations under the epoch-aware
//!   checker, and with the old coordinator respawnable over its stable
//!   store (the restriction PR 4 had to impose, now lifted).
//! * A *stale* coordinator resumed with its pre-crash state keeps
//!   proposing under the old round; the epoch fence must discard that
//!   traffic at every receiver.
//! * A crashed mid-ring member is spliced out by the repair protocol so
//!   throughput resumes during the outage (Fig. 7.5's lesson), and
//!   spliced back in after it recovers.

use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_mring, deploy_uring_recoverable, respawn_uring, MRingOptions, RecoverableURing,
    URingOptions, URingRecoveryOptions,
};
use simnet::prelude::*;

const SUSPICION: Dur = Dur::millis(40);

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

fn deploy(sim: &mut Sim, proposers: Vec<usize>) -> RecoverableURing {
    deploy_uring_recoverable(
        sim,
        &opts(proposers),
        URingRecoveryOptions::default(),
        |cfg| cfg.suspicion_timeout = Some(SUSPICION),
        |_| Some(Box::new(NullApp::default())),
    )
}

fn delivered(sim: &Sim, ru: &RecoverableURing) -> Vec<u64> {
    ru.d.ring.iter().map(|&n| sim.metrics().counter(n, "abcast.delivered_msgs")).collect()
}

/// The tentpole scenario: the coordinator crashes unplanned, a
/// surviving acceptor takes over via an epoch bump, deliveries resume,
/// and the old coordinator is later respawned over its stable store —
/// rejoining demoted, with full crash-aware agreement at quiescence.
#[test]
fn coordinator_crash_recovers_via_epoch_takeover() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2]);

    sim.run_until(Time::from_millis(1000));
    let before = delivered(&sim, &ru);
    assert!(before[3] > 0, "load flowed before the crash");
    sim.set_node_up(ru.d.ring[0], false);

    // Suspicion fires within ~2 timeouts at position 1; takeover plus
    // re-proposal is timeout-scale. Give it a comfortable margin.
    sim.run_until(Time::from_millis(1400));
    let during = delivered(&sim, &ru);
    assert!(
        during[3] > before[3] + 100,
        "deliveries must resume under the new epoch during the outage: {} -> {}",
        before[3],
        during[3]
    );
    let takeovers: u64 = sim.metrics().sum("rp.became_coord");
    assert!(takeovers >= 1, "an acceptor must have taken over");

    // The lifted restriction: respawn the dead coordinator over its
    // stable store. It comes back demoted and catches up.
    respawn_uring(&mut sim, &ru, 0, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    let log = ru.d.log.lock().unwrap();
    log.check_crash_agreement(&[0, 1, 2, 3, 4]).expect("epoch-aware crash agreement");
    // Surviving learners recorded the configuration change(s).
    for l in 1..5 {
        assert!(
            !log.epochs_of(l).is_empty(),
            "learner {l} must have adopted at least one new epoch"
        );
    }
    // The takeover round was durably promised by surviving acceptors.
    let promised = (1..3).map(|p| ru.stores[p].lock().unwrap().promised.counter).max().unwrap_or(0);
    assert!(promised >= 2, "takeover promises must be persisted (got counter {promised})");
}

/// The seeded stale-epoch scenario: the coordinator is paused, a peer
/// takes over, and the old coordinator is resumed *with its pre-crash
/// state* (SIGSTOP/SIGCONT semantics) — it keeps proposing under the
/// old round until it learns of the new epoch. Every receiver must
/// fence that stale 2A/2B traffic; without the round fence the old
/// last acceptor's chain would fabricate decisions without a quorum.
#[test]
fn stale_coordinator_2ab_traffic_is_fenced() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2]);

    sim.run_until(Time::from_millis(800));
    sim.set_node_up(ru.d.ring[0], false);
    // Let the takeover complete and the ring resume.
    sim.run_until(Time::from_millis(1300));
    assert!(sim.metrics().sum("rp.became_coord") >= 1);

    // Resume the old coordinator with its stale state: it still thinks
    // it leads round 1 and flushes its pending values down the ring.
    sim.restart_node(ru.d.ring[0]);
    sim.run_until(Time::from_secs(6));

    assert!(
        sim.metrics().sum("rp.stale_2ab") > 0,
        "the stale coordinator's round-1 traffic must hit the epoch fence"
    );
    assert!(
        sim.metrics().counter(ru.d.ring[0], "rp.deposed") >= 1,
        "the stale coordinator must learn it was deposed"
    );
    // Zero agreement/ordering violations, epochs monotonic per learner.
    ru.d.log
        .lock()
        .unwrap()
        .check_crash_agreement(&[0, 1, 2, 3, 4])
        .expect("agreement with fencing");
}

/// Ring repair (Fig. 7.5): a crashed mid-ring learner stalls decision
/// circulation; the coordinator's probe splices it out and throughput
/// resumes during the outage instead of staying down until the member
/// returns. After the respawn the member is spliced back in and full
/// agreement holds.
#[test]
fn crashed_member_is_spliced_out_and_rejoins() {
    let victim = 4usize; // learner-only: not an acceptor, not a proposer
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2]);

    sim.run_until(Time::from_millis(800));
    let before = delivered(&sim, &ru);
    sim.set_node_up(ru.d.ring[victim], false);

    // Stall detection + probe + reform is a few suspicion timeouts.
    sim.run_until(Time::from_millis(1400));
    let during = delivered(&sim, &ru);
    assert!(sim.metrics().sum("rp.ring_repair") >= 1, "the ring must have been spliced");
    assert!(
        during[0] > before[0] + 100,
        "throughput must resume during the outage: {} -> {}",
        before[0],
        during[0]
    );

    respawn_uring(&mut sim, &ru, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    assert!(sim.metrics().sum("rp.joins") >= 1, "the respawned member must rejoin");
    ru.d.log
        .lock()
        .unwrap()
        .check_crash_agreement(&[0, 1, 2, 3, 4])
        .expect("agreement after rejoin");
}

/// Failover machinery is inert when disabled: a config without
/// `suspicion_timeout` runs no suspicion/heartbeat timers, so two
/// identical fault-free runs — one built with the failover-capable
/// binary, one conceptually without — cannot diverge. (The golden-trace
/// test pins the exact event counts; this one asserts the timers'
/// counters stay at zero so a regression points at the right gate.)
#[test]
fn failover_disabled_runs_no_failover_machinery() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy_uring_recoverable(
        &mut sim,
        &opts(vec![0, 1, 2]),
        URingRecoveryOptions::default(),
        |_| {},
        |_| None,
    );
    sim.run_until(Time::from_secs(3));
    assert!(delivered(&sim, &ru)[3] > 0);
    for name in ["rp.takeover", "rp.became_coord", "rp.ring_probe", "rp.ring_repair", "rp.joins"] {
        assert_eq!(sim.metrics().sum(name), 0, "{name} must stay zero with failover disabled");
    }
}

/// M-Ring at Fig 7.6's rates (ring of 3, 2 learners, 2 proposers at
/// 200 Mb/s each, coordinator down at 1.5 s): the takeover must
/// *complete*, at its first attempt, so that the last 500 ms bucket of
/// the 5 s trace is back near the offered 400 Mb/s.
#[test]
fn mring_takeover_completes_at_fig7_06_rates() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions { proposer_rate_bps: 200_000_000, ..MRingOptions::default() };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_millis(1500));
    sim.set_node_up(d.coordinator(), false);
    sim.run_until(Time::from_millis(4500));
    let before = sim.metrics().counter(d.learners[0], "abcast.delivered_bytes");
    sim.run_until(Time::from_millis(5000));
    let after = sim.metrics().counter(d.learners[0], "abcast.delivered_bytes");
    let tput = mbps(after - before, Dur::millis(500));
    assert!(tput >= 350.0, "4.5-5.0 s delivers {tput:.0} Mb/s of the offered 400");
    assert_eq!(sim.metrics().sum("rp.became_coord"), 1);
    d.log.lock().unwrap().check_total_order().expect("order preserved across failover");
}
