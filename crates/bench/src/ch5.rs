//! Chapter 5 experiments — the Multi-Ring Paxos evaluation (Figs. 5.1,
//! 5.2, 5.4–5.11).

use abcast::metric;
use multiring::{deploy_multiring, MultiRingOptions, MRP_LATENCY};
use ringpaxos::cluster::{deploy_mring, MRingOptions};
use ringpaxos::StorageMode;
use simnet::prelude::*;

use crate::harness::{cpu_pct, header, pctl_cell, Window};
use crate::Experiment;

/// All ch. 5 experiments in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment { id: "fig5_01", title: "in-memory vs recoverable Ring Paxos", run: fig5_01 },
        Experiment {
            id: "fig5_02",
            title: "partitioned service over one ring does not scale",
            run: fig5_02,
        },
        Experiment {
            id: "fig5_04",
            title: "Multi-Ring Paxos scalability (one group per learner)",
            run: fig5_04,
        },
        Experiment { id: "fig5_05", title: "learner subscribing to all groups", run: fig5_05 },
        Experiment { id: "fig5_06", title: "impact of Delta", run: fig5_06 },
        Experiment { id: "fig5_07", title: "impact of M", run: fig5_07 },
        Experiment { id: "fig5_08", title: "impact of lambda, equal constant rates", run: fig5_08 },
        Experiment { id: "fig5_09", title: "impact of lambda, 2:1 rates", run: fig5_09 },
        Experiment { id: "fig5_10", title: "impact of lambda, oscillating rates", run: fig5_10 },
        Experiment { id: "fig5_11", title: "coordinator failure and recovery", run: fig5_11 },
        Experiment {
            id: "probe5_mring",
            title: "M-Ring latency decomposition (probe layer)",
            run: crate::probes::probe5_mring,
        },
    ]
}

fn fig5_01() {
    println!("Fig 5.1 — latency vs delivery throughput: In-memory vs Recoverable Ring Paxos");
    println!(
        "  recoverable = every acceptor writes its vote ahead, group-committed on the disk's clock"
    );
    header(&["mode", "offered Mbps", "delivered Mbps", "latency", "p50/p99/p999", "coord CPU %"]);
    for (mode, label) in
        [(StorageMode::InMemory, "in-memory"), (StorageMode::SyncDisk, "recoverable")]
    {
        for &rate in &[200u64, 400, 600, 800, 950] {
            let mut sim = Sim::new(SimConfig::default());
            let opts = MRingOptions {
                ring_size: 3,
                n_learners: 2,
                n_proposers: 2,
                proposer_rate_bps: rate * 1_000_000 / 2,
                msg_bytes: 8192,
                ..MRingOptions::default()
            };
            let d = deploy_mring(&mut sim, &opts, |c| c.storage = mode);
            let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
            let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
            let cpu0 = sim.cpu_busy(d.coordinator(), 0);
            w.close(&mut sim);
            let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
            let lat = sim.metrics().latency(metric::LATENCY).trimmed_mean_95;
            let cpu = cpu_pct(cpu0, sim.cpu_busy(d.coordinator(), 0), w.len());
            println!(
                "  {label:<11} | {rate:12} | {:14.0} | {:7} | {:12} | {cpu:11.0}",
                w.mbps_of(b, a),
                format!("{lat}"),
                pctl_cell(&sim, metric::LATENCY)
            );
        }
    }
    println!("  shape: in-memory CPU/network bound near wire speed; recoverable pays the vote write in latency below its knee and saturates at the disk's transfer rate (paper Fig 5.1).");
}

fn fig5_02() {
    println!("Fig 5.2 — partitions sharing ONE ring split a fixed ordering capacity");
    header(&["partitions", "total Mbps", "per-partition Mbps"]);
    for &parts in &[1usize, 2, 4, 8] {
        // One ring; `parts` proposer/learner pairs each with their own
        // share of the offered load (a partitioned dummy service).
        let mut sim = Sim::new(SimConfig::default());
        let opts = MRingOptions {
            ring_size: 3,
            n_learners: parts,
            n_proposers: parts,
            proposer_rate_bps: 950_000_000 / parts as u64,
            msg_bytes: 8192,
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |_| {});
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[]);
        let before = w.snapshot(&sim, &d.learners, metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let after = w.snapshot(&sim, &d.learners, metric::DELIVERED_BYTES);
        let per = w.mbps_of(before[0], after[0]);
        println!("  {parts:10} | {:10.0} | {per:18.0}", per * 1.0);
    }
    println!("  shape: total ordering capacity is constant — more partitions just divide it (paper Fig 5.2).");
}

fn fig5_04() {
    println!("Fig 5.4 — Multi-Ring Paxos scalability, one group per learner (aggregate Gbps)");
    println!("  DISK = every acceptor writes its vote ahead, group-committed on the disk's clock");
    header(&["rings", "RAM aggregate Mbps", "DISK aggregate Mbps"]);
    for &rings in &[1usize, 2, 4, 8] {
        let mut row = Vec::new();
        for storage in [StorageMode::InMemory, StorageMode::SyncDisk] {
            let mut sim = Sim::new(SimConfig::default());
            let opts = MultiRingOptions {
                n_rings: rings,
                rates_per_ring_bps: vec![950_000_000; rings],
                storage,
                learners: (0..rings).map(|r| vec![r]).collect(),
                ..MultiRingOptions::default()
            };
            let d = deploy_multiring(&mut sim, &opts);
            let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[]);
            let before = w.snapshot(&sim, &d.learners, metric::DELIVERED_BYTES);
            w.close(&mut sim);
            let after = w.snapshot(&sim, &d.learners, metric::DELIVERED_BYTES);
            let total: f64 = before.iter().zip(&after).map(|(&b, &a)| w.mbps_of(b, a)).sum();
            row.push(total);
        }
        println!("  {rings:5} | {:18.0} | {:19.0}", row[0], row[1]);
    }
    println!("  shape: aggregate grows linearly with rings, both in-memory and recoverable; a recoverable ring saturates at the disk's transfer rate (paper Fig 5.4).");
}

fn fig5_05() {
    println!("Fig 5.5 — one learner subscribed to ALL groups: capped by its ingress link");
    header(&["rings", "learner Mbps"]);
    for &rings in &[1usize, 2, 4] {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions {
            n_rings: rings,
            rates_per_ring_bps: vec![700_000_000; rings],
            learners: vec![(0..rings).collect()],
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[]);
        let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        println!("  {rings:5} | {:11.0}", w.mbps_of(b, a));
    }
    println!("  shape: throughput saturates at the learner's gigabit link, not the rings (paper Fig 5.5).");
}

fn delta_m_sweep(param: &str) {
    header(&[param, "delivered Mbps", "latency", "p50/p99/p999"]);
    let values: &[u64] = &[1, 10, 100];
    for &v in values {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions {
            n_rings: 2,
            rates_per_ring_bps: vec![300_000_000, 300_000_000],
            delta: if param == "delta_ms" { Dur::millis(v) } else { Dur::millis(1) },
            m: if param == "M" { v } else { 1 },
            learners: vec![vec![0, 1]],
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[MRP_LATENCY]);
        let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        let lat = sim.metrics().latency(MRP_LATENCY).mean;
        println!("  {v:8} | {:14.0} | {lat} | {}", w.mbps_of(b, a), pctl_cell(&sim, MRP_LATENCY));
    }
}

fn fig5_06() {
    println!("Fig 5.6 — impact of ∆ (skip-check interval), 2 rings, 1 learner on both");
    delta_m_sweep("delta_ms");
    println!("  shape: large ∆ raises latency; max throughput unchanged (paper Fig 5.6).");
}

fn fig5_07() {
    println!("Fig 5.7 — impact of M (instances merged per ring per turn)");
    delta_m_sweep("M");
    println!("  shape: large M raises latency; throughput and CPU unchanged (paper Fig 5.7).");
}

fn lambda_trace(rates: (u64, u64), lambdas: &[u64], oscillate: bool, fig: &str) {
    for &lambda in lambdas {
        println!(" lambda = {lambda}/s:");
        header(&["t (s)", "delivered Mbps", "latency (window)", "p50/p99 (window)"]);
        let mut sim = Sim::new(SimConfig::default());
        let opts = MultiRingOptions {
            n_rings: 2,
            rates_per_ring_bps: vec![rates.0, rates.1],
            lambda_per_sec: lambda,
            learners: vec![vec![0, 1]],
            ..MultiRingOptions::default()
        };
        let d = deploy_multiring(&mut sim, &opts);
        let mut prev = 0u64;
        for step in 1..=8u64 {
            let t = Time::from_millis(step * 500);
            if oscillate {
                // Ring 1's rate oscillates every second.
                let phase = (step / 2) % 2;
                d.rings[1].set_rate(&mut sim, if phase == 0 { rates.1 } else { rates.1 / 4 });
            }
            sim.run_until(t);
            let cur = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
            // The per-window drain hands back summary stats, so the tail
            // columns come from there rather than the live histogram.
            let lat = sim.metrics_mut().take_latency(MRP_LATENCY);
            println!(
                "  {:5.1} | {:14.0} | {:16} | {}/{}",
                t.as_secs_f64(),
                mbps(cur - prev, Dur::millis(500)),
                format!("{}", lat.mean),
                lat.p50,
                lat.p99
            );
            prev = cur;
        }
    }
    println!("  shape: too-small lambda starves the merge (latency blows up / delivery stalls); a large one keeps it stable (paper {fig}).");
}

fn fig5_08() {
    println!("Fig 5.8 — lambda with equal constant rates (2 x 250 Mbps)");
    lambda_trace((250_000_000, 250_000_000), &[0, 1000, 9000], false, "Fig 5.8");
}

fn fig5_09() {
    println!("Fig 5.9 — lambda with 2:1 rates (300 / 150 Mbps)");
    lambda_trace((300_000_000, 150_000_000), &[1000, 9000], false, "Fig 5.9");
}

fn fig5_10() {
    println!("Fig 5.10 — lambda with oscillating rates");
    lambda_trace((300_000_000, 300_000_000), &[5000, 12000], true, "Fig 5.10");
}

fn fig5_11() {
    println!("Fig 5.11 — pausing ring 0's coordinator for 1s halts merged delivery; skips flush on recovery");
    header(&["t (s)", "delivered Mbps"]);
    let mut sim = Sim::new(SimConfig::default());
    let opts = MultiRingOptions {
        n_rings: 2,
        rates_per_ring_bps: vec![250_000_000, 250_000_000],
        learners: vec![vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let d = deploy_multiring(&mut sim, &opts);
    let coord = d.rings[0].coordinator();
    let mut prev = 0u64;
    for step in 1..=10u64 {
        let t = Time::from_millis(step * 500);
        if t == Time::from_millis(1500) {
            sim.set_node_up(coord, false);
        }
        if t == Time::from_millis(2500) {
            sim.restart_node(coord);
        }
        sim.run_until(t);
        let cur = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        println!("  {:5.1} | {:14.0}", t.as_secs_f64(), mbps(cur - prev, Dur::millis(500)));
        prev = cur;
    }
    println!("  shape: delivery drops toward zero during the outage, spikes on recovery (buffer flush), then normalizes (paper Fig 5.11).");
}
