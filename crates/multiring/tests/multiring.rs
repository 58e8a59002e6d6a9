//! End-to-end tests for Multi-Ring Paxos.

use std::collections::HashSet;

use abcast::{metric, DeliveryLog};
use multiring::{deploy_multiring, MultiRingOptions, MRP_LATENCY};
use ringpaxos::StorageMode;
use simnet::prelude::*;

/// Uniform integrity, as far as a delivery log shows it: deliveries that
/// repeat an earlier one at the same learner.
fn duplicates(log: &DeliveryLog) -> usize {
    let dups = |l| log.sequence(l).len() - log.sequence(l).iter().collect::<HashSet<_>>().len();
    (0..log.learners()).map(dups).sum()
}

fn delivered_mbps(sim: &Sim, node: NodeId, window: Dur) -> f64 {
    mbps(sim.metrics().counter(node, metric::DELIVERED_BYTES), window)
}

#[test]
fn single_learner_merges_two_rings() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 2,
        rates_per_ring_bps: vec![100_000_000, 100_000_000],
        learners: vec![vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    sim.run_until(Time::from_secs(2));
    let msgs = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    assert!(msgs > 2000, "learner delivered only {msgs}");
    // Roughly both rings' load should arrive.
    let tput = delivered_mbps(&sim, d.learners[0], Dur::secs(2));
    assert!(tput > 150.0, "merged throughput {tput:.0} Mbps, expected ~200");
}

#[test]
fn learners_with_shared_groups_respect_partial_order() {
    // Learner 0 subscribes to {0,1}, learner 1 to {1,2}, learner 2 to
    // {0,1,2}: common messages must be ordered consistently (§2.2.4).
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 3,
        rates_per_ring_bps: vec![50_000_000; 3],
        learners: vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    sim.run_until(Time::from_secs(1));
    let log = d.log.lock().unwrap();
    assert!(log.total_deliveries() > 1000);
    log.check_partial_order().expect("uniform partial order");
}

#[test]
fn same_subscriptions_mean_same_order() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 2,
        rates_per_ring_bps: vec![80_000_000, 40_000_000],
        learners: vec![vec![0, 1], vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    sim.run_until(Time::from_secs(1));
    let log = d.log.lock().unwrap();
    // Learners with identical subscriptions see a total order.
    log.check_total_order().expect("identical subscriptions, identical order");
}

#[test]
fn throughput_scales_with_rings() {
    // Fig 5.4: one group per learner — aggregate delivery scales linearly.
    let run = |n_rings: usize| -> f64 {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions {
            n_rings,
            rates_per_ring_bps: vec![600_000_000; n_rings],
            learners: (0..n_rings).map(|r| vec![r]).collect(),
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        sim.run_until(Time::from_secs(2));
        d.learners.iter().map(|&l| delivered_mbps(&sim, l, Dur::secs(2))).sum()
    };
    let one = run(1);
    let four = run(4);
    assert!(four > 3.0 * one, "aggregate should scale: 1 ring {one:.0}, 4 rings {four:.0} Mbps");
}

#[test]
fn slow_ring_does_not_stall_learner_thanks_to_skips() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 2,
        // Ring 1 is nearly idle.
        rates_per_ring_bps: vec![200_000_000, 1_000],
        lambda_per_sec: 9000,
        learners: vec![vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    sim.run_until(Time::from_secs(2));
    let tput = delivered_mbps(&sim, d.learners[0], Dur::secs(2));
    assert!(tput > 150.0, "skips must keep the merge moving: {tput:.0} Mbps");
    // Skips must actually have been proposed by ring 1's coordinator.
    let skips = sim.metrics().counter(d.rings[1].coordinator(), "rp.skips");
    assert!(skips > 1000, "ring 1 proposed only {skips} skips");
}

#[test]
fn without_skips_an_imbalanced_learner_stalls() {
    // λ = 0 disables skip generation: the merge starves on the idle ring
    // (the λ=0 curve of Fig 5.8).
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 2,
        rates_per_ring_bps: vec![200_000_000, 1_000],
        lambda_per_sec: 0,
        learners: vec![vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    sim.run_until(Time::from_secs(2));
    let tput = delivered_mbps(&sim, d.learners[0], Dur::secs(2));
    assert!(tput < 50.0, "learner should starve without skips: {tput:.0} Mbps");
}

#[test]
fn larger_m_increases_latency_not_throughput() {
    let run = |m: u64| -> (Dur, f64) {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions {
            n_rings: 2,
            rates_per_ring_bps: vec![100_000_000, 100_000_000],
            m,
            learners: vec![vec![0, 1]],
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        sim.run_until(Time::from_secs(2));
        (sim.metrics().latency(MRP_LATENCY).mean, delivered_mbps(&sim, d.learners[0], Dur::secs(2)))
    };
    let (lat_1, tput_1) = run(1);
    let (lat_100, tput_100) = run(100);
    assert!(lat_100 > lat_1, "M=100 latency {lat_100:?} should exceed M=1 {lat_1:?}");
    assert!(
        (tput_100 - tput_1).abs() / tput_1 < 0.2,
        "throughput should not depend on M: {tput_1:.0} vs {tput_100:.0}"
    );
}

#[test]
fn coordinator_pause_stalls_then_recovers() {
    // Fig 5.11 at its own rates (2 x 250 Mb/s merged, ring 0's
    // coordinator down from 1.5 s to 2.5 s): pausing one ring's
    // coordinator halts merged delivery — the learner cannot merge past
    // the silent ring — until the staggered acceptor takeover (§3.3.5,
    // "it takes much less time to detect the failure of a coordinator
    // and replace it with an operational acceptor" — ch. 5 §5.4.7). The
    // takeover must complete, not merely start: delivery is back at the
    // offered 500 Mb/s by 3.5 s, the paused process long since deposed.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 2,
        rates_per_ring_bps: vec![250_000_000, 250_000_000],
        learners: vec![vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    let coord = d.rings[0].coordinator();
    sim.run_until(Time::from_millis(1500));

    sim.set_node_up(coord, false);
    // Before the first staggered takeover delay (suspicion timeout,
    // 200 ms) the merge is stalled: ring-1 messages buffer unmerged.
    sim.run_until(Time::from_millis(1540));
    let during = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    sim.run_until(Time::from_millis(1660));
    let during2 = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    let stall_rate = (during2 - during) as f64 / 0.12;
    assert!(stall_rate < 2000.0, "delivery should stall during pause: {stall_rate:.0}/s");

    sim.run_until(Time::from_millis(2500));
    sim.restart_node(coord);
    sim.run_until(Time::from_millis(3000));
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_millis(3500));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::millis(500));
    assert!(tput >= 450.0, "3.0-3.5 s delivers {tput:.0} Mb/s of the offered 500");
    assert_eq!(sim.metrics().sum("rp.became_coord"), 1, "one takeover, completed");
    let log = d.log.lock().unwrap();
    log.check_total_order().expect("order preserved across pause");
    // The takeover re-proposes what the old coordinator left open, and
    // proposers resend what they saw no delivery of: decided twice,
    // delivered once.
    assert_eq!(duplicates(&log), 0, "of {} deliveries", log.total_deliveries());
}

#[test]
fn recoverable_rings_are_disk_bound_but_scale() {
    let run = |n_rings: usize| -> f64 {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions {
            n_rings,
            rates_per_ring_bps: vec![600_000_000; n_rings],
            storage: StorageMode::SyncDisk,
            learners: (0..n_rings).map(|r| vec![r]).collect(),
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        sim.run_until(Time::from_secs(2));
        d.learners.iter().map(|&l| delivered_mbps(&sim, l, Dur::secs(2))).sum()
    };
    // Each ring's acceptors group-commit their votes, so one ring drains
    // toward the disk's 450 Mb/s transfer rate, not a 32 KB unit's 270.
    let one = run(1);
    let three = run(3);
    assert!((400.0..450.0).contains(&one), "one write-ahead ring: {one:.0} Mbps");
    assert!(three >= 2.9 * one, "disk-bound rings still scale: {one:.0} -> {three:.0} Mbps");
}

#[test]
fn deterministic_multiring_runs() {
    let run = || {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions::default();
        let d = deploy_multiring(&mut sim, &opts);
        sim.run_until(Time::from_millis(700));
        sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS)
    };
    assert_eq!(run(), run());
}

#[test]
fn lossy_network_keeps_learner_merges_identical() {
    // Regression: a retransmitted 2A must repeat the instance's original
    // skip weight. If a learner recovers a skip batch with a different
    // weight than the original multicast carried, its deterministic
    // merge counts different logical instances and its delivery order
    // silently diverges from the other learners'.
    let mut cfg = SimConfig::default();
    cfg.random_loss = 0.03;
    let mut sim = Sim::new(cfg);
    let opts = MultiRingOptions {
        n_rings: 2,
        rates_per_ring_bps: vec![120_000_000, 40_000_000], // skips active on ring 1
        learners: vec![vec![0, 1], vec![0, 1], vec![0, 1]],
        lambda_per_sec: 9000,
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    // Stop the offered load, then let retransmissions settle.
    for r in &d.rings {
        r.set_rate(&mut sim, 120_000_000);
    }
    sim.run_until(Time::from_millis(1200));
    for r in &d.rings {
        r.set_rate(&mut sim, 0);
    }
    sim.run_until(Time::from_secs(4));

    let log = d.log.lock().unwrap();
    assert!(log.total_deliveries() > 1000, "too little delivered under loss");
    log.check_total_order().expect("learners' merged orders diverged under loss");
    // A proposal whose delivery the proposer did not see in time is sent
    // again and decided again; a learner delivers it once.
    assert_eq!(duplicates(&log), 0, "of {} deliveries", log.total_deliveries());
}

#[test]
fn a_lost_datagram_costs_the_merge_a_repair_round_trip_not_a_tick() {
    // 2 x 250 Mb/s merged for 3 s. The rings' own learners (the
    // proposers) repair by order within a round trip or two; the merge
    // learner runs the same rule, so a loss must not cost it the 20 ms
    // sweep. Loss-free, the merged latency is the ring's plus the wait
    // for the other ring's turn.
    let run = |loss: f64| {
        let mut cfg = SimConfig::default();
        cfg.random_loss = loss;
        let mut sim = Sim::new(cfg);
        let opts = MultiRingOptions {
            rates_per_ring_bps: vec![250_000_000, 250_000_000],
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        sim.run_until(Time::from_secs(3));
        let (ring, mrp) =
            (sim.metrics().latency(metric::LATENCY), sim.metrics().latency(MRP_LATENCY));
        let log = d.log.lock().unwrap();
        println!(
            "loss {loss:e}: abcast.latency mean / p99 / max {:?} / {:?} / {:?}; mrp.latency \
             {:?} / {:?} / {:?} over {} deliveries, {} duplicates",
            ring.mean,
            ring.p99,
            ring.max,
            mrp.mean,
            mrp.p99,
            mrp.max,
            log.total_deliveries(),
            duplicates(&log)
        );
        assert_eq!(duplicates(&log), 0, "at loss {loss:e}");
        (ring, mrp, sim.metrics().sum("rp.floor_2b"))
    };
    let (_, clean, floored) = run(0.0);
    assert!(clean.p99 < Dur::micros(1200), "loss-free merged p99 {:?}", clean.p99);
    assert_eq!(floored, 0, "a loss-free ring takes no 2B from a vote floor");
    let (_, mrp, _) = run(1e-4);
    assert!(mrp.p99 <= Dur::millis(5), "merged p99 {:?} at 1e-4 loss", mrp.p99);
    // At 1e-3 the merge's p99 reads 1.34 ms at this seed, at seed 11
    // and at seed 2011, and the rings' own 1.09 ms: a ring-level loss is
    // repaired on the link that lost it — a lost 2B by the next 2B's
    // vote floor, a lost 2A from a ring neighbour within a round trip.
    // (The rings' own read 1.27 ms when a lost 2B was asked for again;
    // 13.3, 75.0 and 51.1 ms merged, 1.53, 55.3 and 30.5 ms the rings'
    // own, when only the coordinator's re-2A repaired it, three ring
    // trips late, and a lost re-2A waited for a tick.) A lost repair
    // exchange still waits for the sweep: the max reads 30–35 ms. What the
    // learner rule owns is every other loss: the merge adds little to
    // what the rings' own learners pay (0.07 ms; 7.8 ms when each loss
    // waited for a tick).
    let (ring, mrp, _) = run(1e-3);
    assert!(mrp.p99 <= Dur::millis(10), "merged p99 {:?} at 1e-3 loss", mrp.p99);
    let added = mrp.mean.saturating_sub(ring.mean);
    assert!(added < Dur::millis(1), "the merge adds {added:?} to the mean at 1e-3 loss");
}
