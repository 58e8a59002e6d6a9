//! End-to-end tests for U-Ring Paxos on the simulated cluster.

use abcast::{metric, MsgId};
use ringpaxos::cluster::{deploy_uring, URingOptions};
use ringpaxos::StorageMode;
use simnet::prelude::*;
use std::collections::HashSet;

fn broadcast_set(sim: &Sim, ring: &[NodeId]) -> HashSet<MsgId> {
    let mut out = HashSet::new();
    for &p in ring {
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
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![0, 1, 2, 3, 4],
        proposer_rate_bps: 150_000_000,
        msg_bytes: 32 * 1024,
        ..URingOptions::default()
    };
    let d = deploy_uring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));
    let log = d.log.lock().unwrap();
    assert!(log.total_deliveries() > 1000, "only {}", log.total_deliveries());
    log.check_total_order().expect("uniform total order");
    let broadcast = broadcast_set(&sim, &d.ring);
    log.check_integrity(&broadcast).expect("uniform integrity");
}

#[test]
fn every_process_delivers_everything() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        ring_len: 6,
        n_acceptors: 3,
        proposer_positions: vec![1, 4],
        proposer_rate_bps: 40_000_000,
        msg_bytes: 8192,
        proposer_stop: Some(Time::from_millis(800)),
        ..URingOptions::default()
    };
    let d = deploy_uring(&mut sim, &opts, |_| {});
    // Run past the stop time so in-flight traffic drains completely.
    sim.run_until(Time::from_secs(2));
    let log = d.log.lock().unwrap();
    let all: Vec<usize> = (0..d.ring.len()).collect();
    log.check_agreement_at_quiescence(&all).expect("all processes deliver equally");
    log.check_total_order().expect("order");
}

#[test]
fn throughput_is_near_wire_speed_with_32k_messages() {
    // Fig 3.7 / Table 3.2: U-Ring Paxos ~0.9 Gbps with 32 KB messages.
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![0, 1, 2, 3, 4],
        proposer_rate_bps: 250_000_000, // aggregate 1.25 Gbps offered
        msg_bytes: 32 * 1024,
        ..URingOptions::default()
    };
    let d = deploy_uring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(1));
    let before = sim.metrics().counter(d.ring[2], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_secs(3));
    let after = sim.metrics().counter(d.ring[2], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::secs(2));
    assert!(tput > 700.0, "throughput {tput:.0} Mbps, expected near wire speed");
}

#[test]
fn latency_grows_with_ring_size() {
    let run = |n: usize| -> Dur {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            ring_len: n,
            n_acceptors: n.div_ceil(2),
            proposer_positions: vec![0],
            proposer_rate_bps: 50_000_000,
            msg_bytes: 8192,
            ..URingOptions::default()
        };
        let _d = deploy_uring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_secs(1));
        sim.metrics().latency(metric::LATENCY).mean
    };
    let small = run(4);
    let large = run(16);
    assert!(
        large > small,
        "latency should grow with ring size: {small:?} (n=4) vs {large:?} (n=16)"
    );
}

/// 750 Mb/s offered to a synchronous-disk ring: disk bound. Each
/// writing acceptor's log writes, as one group, what queued while its
/// last write was in flight — half the 32-instance window of 32 KB
/// values, the other half waiting behind it — so it drains at a 512 KB
/// group's rate, not one 32 KB unit per op.
#[test]
fn sync_disk_bounds_throughput() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![0, 1, 2, 3, 4],
        proposer_rate_bps: 150_000_000,
        msg_bytes: 32 * 1024,
        ..URingOptions::default()
    };
    let d = deploy_uring(&mut sim, &opts, |cfg| {
        cfg.storage = StorageMode::SyncDisk;
    });
    sim.run_until(Time::from_secs(1));
    let before = sim.metrics().counter(d.ring[4], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_secs(3));
    let after = sim.metrics().counter(d.ring[4], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::secs(2));
    // From 5 % under one 512 KB group per op up to the device's transfer
    // rate, which no log can pass.
    let cfg = SimConfig::default();
    let group = 512 * 1024;
    let lo = 0.95 * mbps(group as u64, cfg.disk_write_time(group));
    let hi = cfg.disk_bandwidth_bps as f64 / 1e6;
    assert!(
        (lo..hi).contains(&tput),
        "sync-disk U-Ring throughput {tput:.0} Mbps, expected {lo:.0}..{hi:.0}"
    );
}

#[test]
fn small_tcp_windows_cap_throughput() {
    // Fig 3.13: socket buffers below ~1 MB throttle U-Ring Paxos.
    let run = |window: u32| -> f64 {
        let mut cfg = SimConfig::default();
        cfg.tcp_window_bytes = window;
        let mut sim = Sim::new(cfg);
        let opts = URingOptions {
            ring_len: 5,
            n_acceptors: 3,
            proposer_positions: vec![0, 1, 2, 3, 4],
            proposer_rate_bps: 250_000_000,
            msg_bytes: 32 * 1024,
            ..URingOptions::default()
        };
        let d = deploy_uring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_secs(2));
        let bytes = sim.metrics().counter(d.ring[2], metric::DELIVERED_BYTES);
        mbps(bytes, Dur::secs(2))
    };
    let tiny = run(64 * 1024);
    let big = run(16 * 1024 * 1024);
    assert!(big > 1.5 * tiny, "window should matter: {tiny:.0} vs {big:.0} Mbps");
}

#[test]
fn deterministic_runs() {
    let run = || {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions::default();
        let d = deploy_uring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_millis(500));
        d.ring.iter().map(|&n| sim.metrics().counter(n, metric::DELIVERED_MSGS)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn ring_process_failure_stalls_delivery() {
    // The chapter-7 lesson (Fig 7.5): an all-unicast ring moves no
    // traffic once any process on it dies — U-Ring Paxos depends on an
    // external reconfiguration service the thesis's own library used.
    // This repository intentionally leaves that out (DESIGN.md), so the
    // stall itself is the contract.
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: (0..5).collect(),
        proposer_rate_bps: 100_000_000,
        ..URingOptions::default()
    };
    let d = deploy_uring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_millis(500));
    let healthy = sim.metrics().counter(d.ring[1], metric::DELIVERED_MSGS);
    assert!(healthy > 100, "ring should deliver before the crash");

    sim.set_node_up(d.ring[3], false);
    sim.run_until(Time::from_millis(700));
    let at_break = sim.metrics().counter(d.ring[1], metric::DELIVERED_MSGS);
    sim.run_until(Time::from_millis(1500));
    let later = sim.metrics().counter(d.ring[1], metric::DELIVERED_MSGS);
    // A handful of in-flight decisions may still drain right after the
    // crash; after that the ring is dead.
    assert!(later - at_break < 20, "broken ring kept delivering: {at_break} -> {later}");
    // What was delivered remains totally ordered.
    d.log.lock().unwrap().check_total_order().expect("order before the crash holds");
}

#[test]
fn delivery_latency_depends_on_ring_position() {
    // §3.5.4: "latencies vary according to the location of the proposer
    // in the ring", and Table 3.1's worst case "happens when the process
    // that broadcasts the message follows the coordinator in the ring" —
    // its value must travel almost a full revolution before the
    // coordinator even sees it. A proposer just *before* the coordinator
    // reaches it in one hop.
    let run = |position: usize| -> Dur {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            ring_len: 7,
            n_acceptors: 4,
            proposer_positions: vec![position],
            proposer_rate_bps: 20_000_000,
            ..URingOptions::default()
        };
        let _d = deploy_uring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_secs(1));
        sim.metrics().latency(metric::LATENCY).mean
    };
    let lat_after_coord = run(1); // the paper's worst case
    let lat_before_coord = run(6); // one hop from the coordinator
    assert!(
        lat_after_coord > lat_before_coord,
        "the proposer following the coordinator should see the worst latency: \
         {lat_after_coord} vs {lat_before_coord}"
    );
}
