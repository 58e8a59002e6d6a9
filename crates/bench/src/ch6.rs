//! Chapter 6 experiments — parallel state-machine replication: the
//! survey comparison (Table 6.1) and the P-SMR evaluation against
//! sequential SMR, pipelined SMR, and SDPE (Figs. 6.3–6.7).

use psmr::{deploy_parallel, EngineCosts, ExecModel, ParallelOptions, PsmrWorkload};
use simnet::prelude::*;
use workload::{SESSIONS_COMPLETED, SESSION_LATENCY};

use crate::harness::{header, Window};
use crate::Experiment;

/// All ch. 6 experiments in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab6_01",
            title: "comparison of approaches to parallelizing SMR",
            run: tab6_01,
        },
        Experiment { id: "fig6_03", title: "performance with independent commands", run: fig6_03 },
        Experiment { id: "fig6_04", title: "performance with dependent commands", run: fig6_04 },
        Experiment {
            id: "fig6_05",
            title: "mixed workloads: throughput vs conflict share",
            run: fig6_05,
        },
        Experiment { id: "fig6_06", title: "P-SMR scalability, uniform workload", run: fig6_06 },
        Experiment { id: "fig6_07", title: "P-SMR under skewed workloads", run: fig6_07 },
    ]
}

/// Stage costs used across the ch. 6 runs: execution-bound commands
/// (100 µs) with visible dispatch/marshal overheads so the pipelined
/// model's gain is observable, and the scheduler cost SDPE pays per
/// command (its §6.2.4 bottleneck).
fn costs() -> EngineCosts {
    EngineCosts {
        dispatch: Dur::micros(10),
        sched: Dur::micros(30),
        sync: Dur::micros(10),
        marshal: Dur::micros(10),
        ..EngineCosts::default()
    }
}

struct Measured {
    kcps: f64,
    latency: Dur,
    /// `p50/p99/p999` of the same window, preformatted for the tables.
    pctls: String,
}

fn measure(model: ExecModel, workload: PsmrWorkload, clients: usize) -> Measured {
    let mut cfg = SimConfig::default();
    cfg.cores_per_node = model.cores_needed().max(4);
    let mut sim = Sim::new(cfg);
    let opts = ParallelOptions {
        model,
        n_clients: clients,
        workload,
        costs: costs(),
        n_replicas: 2,
        ..ParallelOptions::default()
    };
    let d = deploy_parallel(&mut sim, &opts);
    let w = Window::open(&mut sim, Dur::millis(400), Dur::secs(1), &[SESSION_LATENCY]);
    let before = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
    w.close(&mut sim);
    let after = w.snapshot(&sim, &d.clients, SESSIONS_COMPLETED);
    let done: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
    Measured {
        kcps: done as f64 / w.len().as_secs_f64() / 1e3,
        latency: sim.metrics().latency(SESSION_LATENCY).mean,
        pctls: crate::harness::pctl_cell(&sim, SESSION_LATENCY),
    }
}

fn models_for(workers: usize) -> [ExecModel; 5] {
    [
        ExecModel::Sequential,
        ExecModel::Pipelined,
        ExecModel::Sdpe { workers },
        ExecModel::Ev { workers, batch: 50 },
        ExecModel::Psmr { workers },
    ]
}

fn tab6_01() {
    println!("Table 6.1 — approaches to parallelizing SMR (§6.2)");
    header(&["approach", "delivery", "execution", "scheduler", "rollback", "scales with threads"]);
    for row in [
        ("non-replicated", "none", "parallel", "none", "no", "yes (no fault tolerance)"),
        ("sequential SMR", "sequential", "sequential", "none", "no", "no"),
        ("pipelined SMR", "staged", "sequential", "none", "no", "no (pipeline depth only)"),
        ("SDPE", "sequential", "parallel", "centralized", "no", "until the scheduler saturates"),
        (
            "EV (execute-verify)",
            "parallel",
            "parallel",
            "none",
            "yes (on divergence)",
            "yes, workload permitting",
        ),
        ("P-SMR (PDPE)", "parallel", "parallel", "none", "no", "yes, workload permitting"),
    ] {
        println!(
            "  {:<19} | {:<10} | {:<10} | {:<11} | {:<19} | {}",
            row.0, row.1, row.2, row.3, row.4, row.5
        );
    }
    println!("  P-SMR reaches parallel delivery *and* execution without a scheduler or rollback");
    println!("  by mapping commands to multicast groups at the client proxy (§6.3).");
}

fn fig6_03() {
    println!("Fig 6.3 — independent commands only (dep% = 0), throughput and latency");
    header(&["workers", "model", "Kcps", "latency", "p50/p99/p999"]);
    for &w in &[1usize, 2, 4, 8] {
        let workload = PsmrWorkload { n_groups: w.max(1), dep_pct: 0, ..PsmrWorkload::default() };
        for model in models_for(w) {
            // Sequential and pipelined do not use the worker pool: show
            // them once, at the first sweep point.
            if matches!(model, ExecModel::Sequential | ExecModel::Pipelined) && w != 1 {
                continue;
            }
            let clients = (25 * w).max(50);
            let m = measure(model, workload, clients);
            println!(
                "  {w:7} | {:<10} | {:6.1} | {:8} | {}",
                model.label(),
                m.kcps,
                format!("{}", m.latency),
                m.pctls
            );
        }
    }
    println!("  shape: P-SMR grows ~linearly with workers; SDPE plateaus at the scheduler's");
    println!("  capacity; sequential/pipelined are flat single-thread lines (paper Fig 6.3).");
}

fn fig6_04() {
    println!("Fig 6.4 — dependent commands only (dep% = 100, all groups)");
    header(&["workers", "model", "Kcps", "latency", "p50/p99/p999"]);
    for &w in &[2usize, 4, 8] {
        let workload = PsmrWorkload { n_groups: w, dep_pct: 100, ..PsmrWorkload::default() };
        for model in models_for(w) {
            if matches!(model, ExecModel::Sequential | ExecModel::Pipelined) && w != 2 {
                continue;
            }
            let m = measure(model, workload, 40);
            println!(
                "  {w:7} | {:<10} | {:6.1} | {:8} | {}",
                model.label(),
                m.kcps,
                format!("{}", m.latency),
                m.pctls
            );
        }
    }
    println!("  shape: every model collapses to a sequential execution rate — dependent");
    println!("  commands synchronize all workers; parallelism cannot help (paper Fig 6.4).");
}

fn fig6_05() {
    println!("Fig 6.5 — mixed workloads, 8 workers: throughput vs dependent share");
    header(&["dep %", "P-SMR Kcps", "SDPE Kcps", "EV Kcps", "pipelined Kcps"]);
    for &dep in &[0u32, 1, 5, 10, 25, 50, 75, 100] {
        let workload = PsmrWorkload { n_groups: 8, dep_pct: dep, ..PsmrWorkload::default() };
        let p = measure(ExecModel::Psmr { workers: 8 }, workload, 140);
        let s = measure(ExecModel::Sdpe { workers: 8 }, workload, 140);
        let ev = measure(ExecModel::Ev { workers: 8, batch: 50 }, workload, 140);
        let pl = measure(ExecModel::Pipelined, workload, 60);
        println!(
            "  {dep:5} | {:10.1} | {:9.1} | {:7.1} | {:9.1}",
            p.kcps, s.kcps, ev.kcps, pl.kcps
        );
    }
    println!("  shape: even a few percent of dependent commands costs P-SMR dearly (each");
    println!("  barriers all 8 workers); EV collapses fastest (one raced command rolls a");
    println!("  whole batch back); by 100% all models converge (paper Fig 6.5).");
}

fn fig6_06() {
    println!("Fig 6.6 — P-SMR scalability with a uniform independent workload");
    header(&["workers", "Kcps", "speedup", "ideal"]);
    let mut base = 0.0f64;
    for &w in &[1usize, 2, 4, 6, 8] {
        let workload = PsmrWorkload { n_groups: w, dep_pct: 0, ..PsmrWorkload::default() };
        let m = measure(ExecModel::Psmr { workers: w }, workload, (25 * w).max(50));
        if w == 1 {
            base = m.kcps;
        }
        println!("  {w:7} | {:6.1} | {:7.2} | {:5}", m.kcps, m.kcps / base, w);
    }
    println!("  shape: near-linear scaling — ordering (one ring per group) and execution");
    println!("  (one worker per group) both scale with added groups (paper Fig 6.6).");
}

fn fig6_07() {
    println!("Fig 6.7 — P-SMR under skew, 8 workers: extra load on group 0");
    header(&["hot %", "Kcps", "latency", "p50/p99/p999"]);
    for &hot in &[0u32, 20, 40, 60, 80] {
        let workload =
            PsmrWorkload { n_groups: 8, dep_pct: 0, hot_pct: hot, ..PsmrWorkload::default() };
        let m = measure(ExecModel::Psmr { workers: 8 }, workload, 140);
        println!("  {hot:5} | {:6.1} | {:8} | {}", m.kcps, format!("{}", m.latency), m.pctls);
    }
    println!("  shape: throughput falls toward a single worker's rate as the hottest group");
    println!("  absorbs the load — parallelism is bounded by the busiest thread (paper Fig 6.7).");
}
