//! Chapter 8 experiments — the recovery subsystem. These go beyond the
//! thesis's own evaluation (which measures disk-bound acceptors in
//! §3.5.5 and treats recovery qualitatively): a U-Ring replica is
//! crashed and respawned mid-load over its stable store, and we measure
//! what the recovery design trades — time-to-recover and catch-up
//! volume against checkpoint interval, the throughput dip the outage
//! leaves in the delivered stream, and the write-ahead log's commit
//! modes (per-vote sync vs. group commit) on the §3.5.5-calibrated
//! disk.

use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_uring_recoverable, respawn_uring, RecoverableURing, URingOptions, URingRecoveryOptions,
};
use ringpaxos::StorageMode;
use simnet::prelude::*;

use crate::harness::{header, pctl_cell, throughput_trace};
use crate::Experiment;

/// All ch. 8 experiments in order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig8_01",
            title: "time-to-recover and catch-up volume vs checkpoint interval",
            run: fig8_01,
        },
        Experiment {
            id: "fig8_02",
            title: "throughput through a replica crash and recovery",
            run: fig8_02,
        },
        Experiment {
            id: "tab8_03",
            title: "write-ahead vote log: sync vs group commit",
            run: tab8_03,
        },
    ]
}

const VICTIM: usize = 4; // learner-only position of the 5-ring
const CRASH_AT: u64 = 1000; // ms
const RESTART_AT: u64 = 1300; // ms

fn opts() -> URingOptions {
    URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![0, 1, 2],
        proposer_rate_bps: 60_000_000,
        msg_bytes: 16 * 1024,
        burst: 1,
        proposer_stop: Some(Time::from_millis(3000)),
    }
}

fn deploy(sim: &mut Sim, rec: URingRecoveryOptions, storage: StorageMode) -> RecoverableURing {
    deploy_uring_recoverable(
        sim,
        &opts(),
        rec,
        |cfg| cfg.storage = storage,
        |_| Some(Box::new(NullApp::default())),
    )
}

/// Runs one crash-and-respawn cycle, returning the simulation at 5 s.
fn crash_cycle(rec: URingRecoveryOptions) -> (Sim, RecoverableURing) {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, rec, StorageMode::SyncDisk);
    sim.run_until(Time::from_millis(CRASH_AT));
    sim.set_node_up(ru.d.ring[VICTIM], false);
    sim.run_until(Time::from_millis(RESTART_AT));
    respawn_uring(&mut sim, &ru, VICTIM, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(5));
    (sim, ru)
}

fn fig8_01() {
    println!("Fig 8.1 — recovery cost vs checkpoint interval (crash at 1.0s, respawn at 1.3s)");
    header(&["ckpt interval", "checkpoints", "resume point", "catch-up inst", "transfer", "TTR"]);
    for interval in [64u64, 256, 1024, 4096] {
        let rec = URingRecoveryOptions {
            checkpoint_interval: interval,
            catchup_retention: 8192, // serve any outage from the suffix
        };
        let (sim, ru) = crash_cycle(rec);
        let v = ru.d.ring[VICTIM];
        let log = ru.d.log.lock().unwrap();
        log.check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement");
        let resume = log.restarts_of(VICTIM).first().map(|&(_, p, _)| p).unwrap_or(0);
        let ckpts = sim.metrics().counter(v, "rec.checkpoints");
        let caught = sim.metrics().counter(v, "rec.catchup_instances");
        let transfers = sim.metrics().counter(v, "rec.state_transfers");
        let ttr = sim.metrics().latency("rec.ttr").max;
        println!(
            "  {interval:>13} | {ckpts:>11} | {resume:>12} | {caught:>13} | {:>8} | {ttr}",
            if transfers > 0 { "yes" } else { "no" },
        );
    }
    println!("  shape: longer intervals mean fewer checkpoint writes but a longer decided");
    println!("  suffix to fetch and replay — time-to-recover grows with the interval while");
    println!("  the resume point falls further behind the crash.");
}

fn fig8_02() {
    println!("Fig 8.2 — delivered throughput at a healthy learner through the crash");
    println!("  (victim crashes at 1.0s, fresh process respawns over its disk at 1.3s)");
    header(&["t (s)", "delivered Mbps"]);
    let rec = URingRecoveryOptions { checkpoint_interval: 256, ..Default::default() };
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, rec, StorageMode::SyncDisk);
    let observer = ru.d.ring[3];
    let step = Dur::millis(250);
    let mut crashed = false;
    let mut respawned = false;
    throughput_trace(
        &mut sim,
        observer,
        "abcast.delivered_bytes",
        16,
        step,
        |sim, i| {
            // Apply the crash and the respawn at their exact times, even
            // when they fall inside a trace bucket.
            let target = step * i;
            if !crashed && target >= Dur::millis(CRASH_AT) {
                sim.run_until(Time::from_millis(CRASH_AT));
                sim.set_node_up(ru.d.ring[VICTIM], false);
                crashed = true;
            }
            if !respawned && target >= Dur::millis(RESTART_AT) {
                sim.run_until(Time::from_millis(RESTART_AT));
                respawn_uring(sim, &ru, VICTIM, Some(Box::new(NullApp::default())));
                respawned = true;
            }
        },
        |i, rate| println!("  {:5.2} | {rate:14.0}", (step * i).as_secs_f64()),
    );
    ru.d.log.lock().unwrap().check_crash_agreement(&[0, 1, 2, 3, 4]).expect("agreement");
    println!("  shape: the ring stalls while the process is down (U-Ring moves no traffic");
    println!("  through a dead member — Fig 7.5's lesson), then recovers past the restart:");
    println!("  re-proposal heals the window and catch-up replays the suffix.");
}

fn tab8_03() {
    println!("Table 8.3 — write-ahead vote log commit modes (§3.5.5 disk calibration)");
    header(&["mode", "delivered Mbps", "disk MB written", "mean latency", "p50/p99/p999"]);
    for (label, storage) in [
        ("sync (per-vote)", StorageMode::SyncDisk),
        ("group 1 ms", StorageMode::GroupDisk { interval: Dur::millis(1), max_bytes: 256 * 1024 }),
        ("group 5 ms", StorageMode::GroupDisk { interval: Dur::millis(5), max_bytes: 1024 * 1024 }),
    ] {
        let mut sim = Sim::new(SimConfig::default());
        let ru = deploy(&mut sim, URingRecoveryOptions::default(), storage);
        sim.run_until(Time::from_secs(3));
        let window = Dur::secs(3);
        let delivered = sim.metrics().counter(ru.d.ring[3], "abcast.delivered_bytes");
        let disk_mb = sim.metrics().sum("disk.written_bytes") as f64 / 1e6;
        let lat = sim.metrics().latency(abcast::metric::LATENCY).mean;
        println!(
            "  {label:<15} | {:14.0} | {disk_mb:15.1} | {:12} | {}",
            simnet::stats::mbps(delivered, window),
            format!("{lat}"),
            pctl_cell(&sim, abcast::metric::LATENCY)
        );
    }
    println!("  shape: group commit amortizes the per-operation latency across a whole");
    println!("  group of votes; larger flush windows add delivery latency in exchange.");
}
