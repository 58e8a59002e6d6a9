//! Chapter 8 experiments — the recovery subsystem. These go beyond the
//! thesis's own evaluation (which measures disk-bound acceptors in
//! §3.5.5 and treats recovery qualitatively): a U-Ring replica is
//! crashed and respawned mid-load over its stable store, and we measure
//! what the recovery design trades — time-to-recover and catch-up
//! volume against checkpoint interval, the throughput dip the outage
//! leaves in the delivered stream, and how many votes the write-ahead
//! log's device-clocked group commit packs into one write as load rises
//! on the §3.5.5-calibrated disk.

use abcast::metric;
use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_uring_recoverable, respawn_uring, RecoverableURing, URingOptions, URingRecoveryOptions,
};
use simnet::prelude::*;

use crate::harness::{header, throughput_trace};
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
            title: "write-ahead vote log: group commit vs offered load",
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

fn deploy(sim: &mut Sim, opts: &URingOptions, rec: URingRecoveryOptions) -> RecoverableURing {
    deploy_uring_recoverable(sim, opts, rec, |_| {}, |_| Some(Box::new(NullApp::default())))
}

/// Runs one crash-and-respawn cycle, returning the simulation at 5 s.
fn crash_cycle(rec: URingRecoveryOptions) -> (Sim, RecoverableURing) {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, &opts(), rec);
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
    let ru = deploy(&mut sim, &opts(), rec);
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
    println!("Table 8.3 — write-ahead vote log: group commit on the device's clock (§3.5.5 disk)");
    header(&["offered Mbps", "delivered Mbps", "votes/write", "p50 / p99"]);
    for offered in [180u64, 240, 280, 320] {
        let mut sim = Sim::new(SimConfig::default());
        let o = URingOptions { proposer_rate_bps: offered * 1_000_000 / 3, ..opts() };
        let ru = deploy(&mut sim, &o, URingRecoveryOptions::default());
        sim.run_until(Time::from_secs(3));
        let m = sim.metrics();
        let delivered = m.counter(ru.d.ring[3], "abcast.delivered_bytes");
        // Every instance is voted once by each acceptor after the
        // coordinator, and only they write (the coordinator's vote rides
        // on its 2A).
        let writers = &ru.d.ring[1..o.n_acceptors];
        let votes = m.counter(ru.d.ring[0], metric::INSTANCES) * writers.len() as u64;
        let writes: u64 = writers.iter().map(|&n| m.counter(n, "rec.wal_writes")).sum();
        let p = |frac| m.percentile(metric::LATENCY, frac).map_or("-".into(), |d| format!("{d}"));
        println!(
            "  {offered:>12} | {:14.0} | {:11.2} | {} / {}",
            simnet::stats::mbps(delivered, Dur::secs(3)),
            votes as f64 / writes.max(1) as f64,
            p(0.50),
            p(0.99)
        );
    }
    println!("  shape: at 180 Mbps votes reach each writer 728 us apart and a lone 16 KB write");
    println!("  takes 681 us, so every vote pays a whole op alone. Above that, votes that queue");
    println!("  behind a write share the next one: groups grow with load and delivery keeps up");
    println!("  past the ~270 Mbps of one §3.5.5 32 KB unit per op, at a p50 that grows.");
}
