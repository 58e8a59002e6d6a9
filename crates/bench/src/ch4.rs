//! Chapter 4 experiments — the DSN 2011 evaluation: the cost of
//! replication, speculative execution, and state partitioning over the
//! B⁺-tree service (Figs. 4.1, 4.3–4.10).

use hpsmr_core::deploy::{deploy_cs, deploy_smr, PartitionOptions, SmrOptions};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED, SESSION_LATENCY};

use crate::harness::{cpu_pct, header, pctl_cell, Window};
use crate::Experiment;

/// All ch. 4 experiments in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig4_01",
            title: "CS vs SMR: latency and read-only scalability",
            run: fig4_01,
        },
        Experiment { id: "fig4_03", title: "cost of replication, three workloads", run: fig4_03 },
        Experiment {
            id: "fig4_04",
            title: "throughput/latency vs number of replicas",
            run: fig4_04,
        },
        Experiment { id: "fig4_05", title: "speculative execution, queries", run: fig4_05 },
        Experiment { id: "fig4_06", title: "speculative execution, batched updates", run: fig4_06 },
        Experiment { id: "fig4_07", title: "state partitioning speedups", run: fig4_07 },
        Experiment {
            id: "fig4_08",
            title: "cross-partition queries, 2 replicas/partition",
            run: fig4_08,
        },
        Experiment {
            id: "fig4_09",
            title: "cross-partition queries, 3 replicas/partition",
            run: fig4_09,
        },
        Experiment { id: "fig4_10", title: "speculation + partitioning combined", run: fig4_10 },
    ]
}

struct Measured {
    kcps: f64,
    latency: Dur,
    /// `p50/p99/p999` of the same window, preformatted for the tables.
    pctls: String,
}

fn measure_cs(workload: WorkloadKind, clients: usize) -> Measured {
    let mut sim = Sim::new(SimConfig::default());
    let d = deploy_cs(&mut sim, clients, workload, None);
    let w = Window::open(&mut sim, Dur::millis(500), Dur::secs(1), &[SESSION_LATENCY]);
    let before = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
    w.close(&mut sim);
    let after = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
    let done: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
    Measured {
        kcps: done as f64 / w.len().as_secs_f64() / 1e3,
        latency: sim.metrics().latency(SESSION_LATENCY).mean,
        pctls: pctl_cell(&sim, SESSION_LATENCY),
    }
}

fn measure_smr(opts: &SmrOptions) -> Measured {
    let mut sim = Sim::new(SimConfig::default());
    let d = deploy_smr(&mut sim, opts);
    let w = Window::open(&mut sim, Dur::millis(500), Dur::secs(1), &[SESSION_LATENCY]);
    let before = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
    w.close(&mut sim);
    let after = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
    let done: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
    Measured {
        kcps: done as f64 / w.len().as_secs_f64() / 1e3,
        latency: sim.metrics().latency(SESSION_LATENCY).mean,
        pctls: pctl_cell(&sim, SESSION_LATENCY),
    }
}

fn fig4_01() {
    println!("Fig 4.1 — CS vs SMR with read-only commands");
    println!(" (left) latency vs clients:");
    header(&["clients", "CS latency", "CS p50/p99/p999", "SMR latency", "SMR p50/p99/p999"]);
    for &n in &[1usize, 2, 5, 10, 20, 40] {
        let cs = measure_cs(WorkloadKind::Queries, n);
        let smr = measure_smr(&SmrOptions {
            n_replicas: 1,
            n_clients: n,
            workload: WorkloadKind::Queries,
            ..SmrOptions::default()
        });
        println!(
            "  {n:7} | {:10} | {:15} | {:11} | {}",
            format!("{}", cs.latency),
            cs.pctls,
            format!("{}", smr.latency),
            smr.pctls
        );
    }
    println!(" (right) read-only throughput vs replicas (Kcps):");
    header(&["replicas", "Kcps"]);
    let cs = measure_cs(WorkloadKind::Queries, 80);
    println!("  {:8} | {:5.1}", "CS", cs.kcps);
    for &r in &[1usize, 2, 4, 8] {
        let smr = measure_smr(&SmrOptions {
            n_replicas: r,
            n_clients: 80,
            workload: WorkloadKind::Queries,
            ..SmrOptions::default()
        });
        println!("  {r:8} | {:5.1}", smr.kcps);
    }
    println!("  shape: SMR latency > CS; read throughput grows with replicas then flattens (paper Fig 4.1).");
}

fn fig4_03() {
    println!("Fig 4.3 — CS vs SMR (1 replica group) across the three workloads");
    for (wk, label, clients) in [
        (WorkloadKind::Queries, "Queries", vec![5usize, 10, 20, 40]),
        (WorkloadKind::InsDelSingle, "Ins/Del (single)", vec![25, 50, 100, 200]),
        (WorkloadKind::InsDelBatch, "Ins/Del (batch)", vec![25, 50, 100, 200]),
    ] {
        println!(" {label}:");
        header(&["clients", "CS Kcps", "SMR Kcps", "CS lat", "SMR lat", "SMR p50/p99/p999"]);
        for &n in &clients {
            let cs = measure_cs(wk, n);
            let smr = measure_smr(&SmrOptions {
                n_replicas: 2,
                n_clients: n,
                workload: wk,
                ..SmrOptions::default()
            });
            println!(
                "  {n:7} | {:7.1} | {:8.1} | {:7} | {:7} | {}",
                cs.kcps,
                smr.kcps,
                format!("{}", cs.latency),
                format!("{}", smr.latency),
                smr.pctls
            );
        }
    }
    println!("  shape: queries/batch CPU-bound (similar peaks); single updates instance-rate-bound in SMR (paper Fig 4.3).");
}

fn fig4_04() {
    println!("Fig 4.4 — throughput and latency vs replicas, 3 workloads (Kcps)");
    header(&["replicas", "Queries", "Ins/Del single", "Ins/Del batch"]);
    let q = measure_cs(WorkloadKind::Queries, 80);
    let s = measure_cs(WorkloadKind::InsDelSingle, 150);
    let b = measure_cs(WorkloadKind::InsDelBatch, 150);
    println!("  {:8} | {:7.1} | {:14.1} | {:13.1}", "CS", q.kcps, s.kcps, b.kcps);
    for &r in &[1usize, 2, 4, 8] {
        let row: Vec<f64> = [
            (WorkloadKind::Queries, 80usize),
            (WorkloadKind::InsDelSingle, 150),
            (WorkloadKind::InsDelBatch, 150),
        ]
        .iter()
        .map(|&(wk, n)| {
            measure_smr(&SmrOptions {
                n_replicas: r,
                n_clients: n,
                workload: wk,
                ..SmrOptions::default()
            })
            .kcps
        })
        .collect();
        println!("  {r:8} | {:7.1} | {:14.1} | {:13.1}", row[0], row[1], row[2]);
    }
    println!("  shape: queries scale with replicas; updates do not (all replicas execute them) (paper Fig 4.4).");
}

fn speculation_sweep(workload: WorkloadKind, clients: &[usize]) {
    header(&[
        "replicas",
        "clients",
        "plain Kcps",
        "spec Kcps",
        "plain lat",
        "spec lat",
        "spec p50/p99/p999",
    ]);
    for &r in &[1usize, 2, 4, 8] {
        for &n in clients {
            let base =
                SmrOptions { n_replicas: r, n_clients: n, workload, ..SmrOptions::default() };
            let plain = measure_smr(&SmrOptions { speculative: false, ..base.clone() });
            let spec = measure_smr(&SmrOptions { speculative: true, ..base });
            println!(
                "  {r:8} | {n:7} | {:10.1} | {:9.1} | {:9} | {:8} | {}",
                plain.kcps,
                spec.kcps,
                format!("{}", plain.latency),
                format!("{}", spec.latency),
                spec.pctls
            );
        }
    }
}

fn fig4_05() {
    println!("Fig 4.5 — speculative execution, Queries workload");
    speculation_sweep(WorkloadKind::Queries, &[20, 40]);
    println!(
        "  shape: speculation cuts latency; throughput follows (Little's law) (paper Fig 4.5)."
    );
}

fn fig4_06() {
    println!("Fig 4.6 — speculative execution, Ins/Del (batch) workload");
    speculation_sweep(WorkloadKind::InsDelBatch, &[50, 150]);
    println!("  shape: plain = speculative in every row. Every row is past the knee (24.1 Kcps at");
    println!("  50 and 150 clients; latency = clients / throughput, the executor's queue), and");
    println!("  speculation overlaps execution with ordering but cannot shorten a queue. The");
    println!("  paper's gains for batched updates (paper Fig 4.6) lie below the knee.");
}

fn fig4_07() {
    println!("Fig 4.7 — state partitioning speedups, no cross-partition commands");
    println!(" (paper speedups over SMR: queries 2.1x / 3.9x; batch 1.8x / 2.6x)");
    header(&["workload", "SMR Kcps", "2P Kcps", "4P Kcps", "2P speedup", "4P speedup"]);
    for (wk, label, clients) in [
        (WorkloadKind::Queries, "Queries", 150usize),
        (WorkloadKind::InsDelBatch, "Ins/Del (batch)", 200),
    ] {
        let base =
            SmrOptions { n_replicas: 2, n_clients: clients, workload: wk, ..SmrOptions::default() };
        let smr = measure_smr(&base);
        let p2 = measure_smr(&SmrOptions {
            partitions: Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 0 }),
            ..base.clone()
        });
        let p4 = measure_smr(&SmrOptions {
            partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
            ..base
        });
        println!(
            "  {label:<15} | {:8.1} | {:7.1} | {:7.1} | {:9.1}x | {:9.1}x",
            smr.kcps,
            p2.kcps,
            p4.kcps,
            p2.kcps / smr.kcps,
            p4.kcps / smr.kcps
        );
    }
}

fn cross_partition_sweep(replicas_per: usize) {
    header(&[
        "cross %",
        "Kcps",
        "latency",
        "p50/p99/p999",
        "exec CPU %",
        "resp CPU %",
        "out Mbps/replica",
    ]);
    for &cross in &[0u32, 25, 50, 75, 100] {
        let mut sim = Sim::new(SimConfig::default());
        let opts = SmrOptions {
            n_clients: 150,
            workload: WorkloadKind::Queries,
            partitions: Some(PartitionOptions { n: 2, replicas_per, cross_pct: cross }),
            ..SmrOptions::default()
        };
        let d = deploy_smr(&mut sim, &opts);
        let w = Window::open(&mut sim, Dur::millis(500), Dur::secs(1), &[SESSION_LATENCY]);
        let before = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
        let replica = d.replicas[0][0];
        let exec0 = sim.cpu_busy(replica, 1);
        let resp0 = sim.cpu_busy(replica, 2);
        let sent0 = sim.metrics().counter(replica, "net.sent_bytes");
        w.close(&mut sim);
        let after = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
        let done: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
        let lat = sim.metrics().latency(SESSION_LATENCY).mean;
        let exec = cpu_pct(exec0, sim.cpu_busy(replica, 1), w.len());
        let resp = cpu_pct(resp0, sim.cpu_busy(replica, 2), w.len());
        let sent = sim.metrics().counter(replica, "net.sent_bytes");
        println!(
            "  {cross:7} | {:4.1} | {:7} | {:12} | {exec:10.0} | {resp:10.0} | {:6.0}",
            done as f64 / w.len().as_secs_f64() / 1e3,
            format!("{lat}"),
            pctl_cell(&sim, SESSION_LATENCY),
            w.mbps_of(sent0, sent)
        );
    }
}

fn fig4_08() {
    println!("Fig 4.8 — cross-partition queries, 2 partitions x 2 replicas");
    cross_partition_sweep(2);
    println!("  shape: Kcps fall as cross-% rises. The execution core is saturated in every row,");
    println!("  and a cross-partition query pays its dispatch and its descent on both partitions,");
    println!("  so it costs more execution time than a local one; response load and outgoing");
    println!("  bytes grow with cross-% (two replies). The paper has mid cross-% fastest (paper");
    println!("  Fig 4.8).");
}

fn fig4_09() {
    println!("Fig 4.9 — cross-partition queries, 2 partitions x 3 replicas");
    cross_partition_sweep(3);
    println!("  shape: extra replicas remove the outgoing-bandwidth bottleneck (paper Fig 4.9).");
}

fn fig4_10() {
    println!("Fig 4.10 — speculation + partitioning: improvement over plain partitioned SMR");
    header(&["cross %", "tput gain %", "latency cut %"]);
    for &cross in &[0u32, 25, 50, 75, 100] {
        let base = SmrOptions {
            n_clients: 100,
            workload: WorkloadKind::Queries,
            partitions: Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: cross }),
            ..SmrOptions::default()
        };
        let plain = measure_smr(&SmrOptions { speculative: false, ..base.clone() });
        let spec = measure_smr(&SmrOptions { speculative: true, ..base });
        let tput_gain = (spec.kcps / plain.kcps - 1.0) * 100.0;
        let lat_cut =
            (1.0 - spec.latency.as_nanos() as f64 / plain.latency.as_nanos().max(1) as f64) * 100.0;
        println!("  {cross:7} | {tput_gain:11.1} | {lat_cut:12.1}");
    }
    println!("  shape: no cut (0.2 % at most). Every row is past the knee, where latency is the");
    println!("  executor's queue, and speculation overlaps execution with ordering but cannot");
    println!("  shorten a queue. The paper's modest cuts, shrinking with cross-% (paper Fig");
    println!("  4.10), lie below the knee.");
}
