//! Ablations of the design choices DESIGN.md calls out: batching,
//! ring-of-majority vs ring-of-all-acceptors, the flow-control window,
//! and the speculation execution/ordering overlap window.

use abcast::metric;
use hpsmr_core::deploy::{deploy_smr, SmrOptions};
use psmr::{deploy_parallel, EngineCosts, ExecModel, ParallelOptions, PsmrWorkload};
use ringpaxos::cluster::{deploy_mring, MRingOptions};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED, SESSION_LATENCY};

use crate::harness::{header, Window};
use crate::Experiment;

/// The ablation experiments.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "abl_batch",
            title: "ablation: consensus packet (batch) size",
            run: abl_batch,
        },
        Experiment {
            id: "abl_ring",
            title: "ablation: ring of majority vs all acceptors",
            run: abl_ring,
        },
        Experiment {
            id: "abl_window",
            title: "ablation: outstanding-instance window",
            run: abl_window,
        },
        Experiment {
            id: "abl_spec",
            title: "ablation: speculation window (exec cost vs ordering)",
            run: abl_spec,
        },
        Experiment {
            id: "abl_sched",
            title: "ablation: SDPE scheduler cost vs P-SMR",
            run: abl_sched,
        },
        Experiment {
            id: "abl_sync",
            title: "ablation: P-SMR barrier cost under conflicts",
            run: abl_sync,
        },
    ]
}

fn parallel_point(model: ExecModel, costs: EngineCosts, dep_pct: u32) -> f64 {
    let mut cfg = SimConfig::default();
    cfg.cores_per_node = model.cores_needed().max(4);
    let mut sim = Sim::new(cfg);
    let opts = ParallelOptions {
        model,
        n_clients: 120,
        workload: PsmrWorkload { n_groups: 8, dep_pct, ..PsmrWorkload::default() },
        costs,
        n_replicas: 2,
        ..ParallelOptions::default()
    };
    let d = deploy_parallel(&mut sim, &opts);
    let w = Window::open(&mut sim, Dur::millis(400), Dur::secs(1), &[]);
    let before: u64 = d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
    w.close(&mut sim);
    let after: u64 = d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
    (after - before) as f64 / w.len().as_secs_f64() / 1e3
}

fn abl_sched() {
    println!("Ablation — how cheap must SDPE's scheduler be to match P-SMR? (8 workers, dep%=0)");
    header(&["sched cost", "SDPE Kcps", "P-SMR Kcps"]);
    let psmr = parallel_point(ExecModel::Psmr { workers: 8 }, EngineCosts::default(), 0);
    for &us in &[60u64, 30, 15, 8, 4, 1] {
        let costs = EngineCosts { sched: Dur::micros(us), ..EngineCosts::default() };
        let sdpe = parallel_point(ExecModel::Sdpe { workers: 8 }, costs, 0);
        println!("  {:7} us | {sdpe:9.1} | {psmr:10.1}", us);
    }
    println!("  finding: the scheduler cost caps SDPE until ~cost/workers per command, and");
    println!("  even a free scheduler leaves a gap — dispatching in delivery order parks a");
    println!("  worker whenever its command still waits on a domain, capacity P-SMR's");
    println!("  per-domain queues never waste. The §6.2.4 bottleneck is structural.");
}

fn abl_sync() {
    println!("Ablation — P-SMR barrier overhead under a 10%-dependent workload (8 workers)");
    header(&["sync cost", "Kcps"]);
    for &us in &[0u64, 10, 50, 200, 1000] {
        let costs = EngineCosts { sync: Dur::micros(us), ..EngineCosts::default() };
        let kcps = parallel_point(ExecModel::Psmr { workers: 8 }, costs, 10);
        println!("  {:7} us | {kcps:6.1}", us);
    }
    println!("  finding: with dependent commands in the mix, throughput is dominated by the");
    println!("  all-worker serialization itself; the barrier's own cost only matters once it");
    println!("  rivals the command execution time.");
}

fn mring_point(configure: impl FnOnce(&mut ringpaxos::MRingConfig), rate: u64) -> (f64, Dur) {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: rate / 2,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, configure);
    let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
    let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    w.close(&mut sim);
    let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    (w.mbps_of(b, a), sim.metrics().latency(metric::LATENCY).mean)
}

fn abl_batch() {
    println!("Ablation — batching: consensus packet size under 256 B application messages");
    header(&["packet", "Mbps", "latency"]);
    for &packet in &[256u32, 1024, 4096, 8192, 32768] {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MRingOptions {
            ring_size: 3,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: 200_000_000,
            msg_bytes: 256,
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |c| c.packet_bytes = packet);
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
        let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        let lat = sim.metrics().latency(metric::LATENCY).mean;
        println!("  {packet:6} | {:4.0} | {lat}", w.mbps_of(b, a));
    }
    println!(
        "  without batching the per-instance costs cap throughput (§3.3.2's batch optimization)."
    );
}

fn abl_ring() {
    println!("Ablation — ring membership: majority (f+1, paper) vs all acceptors (2f+1)");
    header(&["ring", "Mbps", "latency"]);
    // The paper places an m-quorum in the ring to cut communication
    // steps; putting all 2f+1 acceptors in lengthens the 2B relay.
    let (t1, l1) = mring_point(|_| {}, 950_000_000); // ring of 3 = f+1 (f=2 of 5)
    println!("  {:>9} | {t1:4.0} | {l1}", "f+1 (3)");
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 5,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 475_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
    let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    w.close(&mut sim);
    let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    let lat = sim.metrics().latency(metric::LATENCY).mean;
    println!("  {:>9} | {:4.0} | {lat}", "2f+1 (5)", w.mbps_of(b, a));
    println!(
        "  longer rings keep throughput but add relay hops to latency (Table 3.1's f+3 steps)."
    );
}

fn abl_window() {
    println!("Ablation — coordinator outstanding-instance window");
    header(&["window", "Mbps", "latency"]);
    for &win in &[2u32, 8, 32, 64, 256] {
        let (t, l) = mring_point(
            |c| {
                c.flow.initial_window = win;
                c.flow.max_window = win;
                c.flow.min_window = win.min(2);
            },
            950_000_000,
        );
        println!("  {win:6} | {t:4.0} | {l}");
    }
    println!(
        "  tiny windows serialize instances (throughput collapses); huge ones only add queueing."
    );
}

fn abl_spec() {
    println!("Ablation — speculation gain vs execution cost (min(Δo, Δe) prediction, §4.2.1)");
    header(&["workload", "plain lat", "spec lat", "saved"]);
    for (wk, label, clients) in [
        (WorkloadKind::InsDelSingle, "single updates (tiny Δe)", 30usize),
        (WorkloadKind::InsDelBatch, "batched updates", 30),
        (WorkloadKind::Queries, "range queries (large Δe)", 10),
    ] {
        let base =
            SmrOptions { n_replicas: 2, n_clients: clients, workload: wk, ..SmrOptions::default() };
        let lat = |speculative| {
            let mut sim = Sim::new(SimConfig::default());
            let opts = SmrOptions { speculative, ..base.clone() };
            let d = deploy_smr(&mut sim, &opts);
            let w = Window::open(&mut sim, Dur::millis(500), Dur::secs(1), &[SESSION_LATENCY]);
            let before = w.snapshot(&sim, &d.tables, SESSIONS_COMPLETED);
            w.close(&mut sim);
            let _ = before;
            sim.metrics().latency(SESSION_LATENCY).mean
        };
        let plain = lat(false);
        let spec = lat(true);
        println!(
            "  {label:<26} | {:9} | {:8} | {}",
            format!("{plain}"),
            format!("{spec}"),
            plain.saturating_sub(spec)
        );
    }
    println!("  the saving tracks min(ordering time, execution time): biggest where both are comparable.");
}
