//! Parallel state-machine replication (thesis ch. 6): the same workload
//! on all four replica execution models, side by side.
//!
//! A service whose state is split into four conflict domains serves a
//! 95%-independent command mix. Sequential and pipelined replicas
//! execute one command at a time; SDPE dispatches through a scheduler
//! thread; P-SMR gives every domain its own Multi-Ring Paxos group and
//! worker thread — no scheduler, no rollback.
//!
//! ```text
//! cargo run --release --example parallel_replication
//! ```

use psmr::{deploy_parallel, ExecModel, ParallelOptions, PsmrWorkload};
use simnet::prelude::*;
use workload::{SESSIONS_COMPLETED, SESSION_LATENCY};

fn main() {
    let workload = PsmrWorkload {
        n_groups: 4,
        dep_pct: 5, // 5% of commands touch every domain (synchronized)
        ..PsmrWorkload::default()
    };

    println!("parallel replication: 4 conflict domains, 5% dependent commands");
    println!("  {:<11} | {:>9} | {:>9} | {:>10}", "model", "Kcps", "latency", "dep execs");

    for model in [
        ExecModel::Sequential,
        ExecModel::Pipelined,
        ExecModel::Sdpe { workers: 4 },
        ExecModel::Psmr { workers: 4 },
    ] {
        let mut cfg = SimConfig::default();
        cfg.cores_per_node = model.cores_needed().max(4);
        let mut sim = Sim::new(cfg);
        let opts = ParallelOptions { model, n_clients: 80, workload, ..ParallelOptions::default() };
        let d = deploy_parallel(&mut sim, &opts);
        sim.run_until(Time::from_secs(1));

        let done: u64 =
            d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
        let lat = sim.metrics().latency(SESSION_LATENCY).mean;
        let deps: u64 = sim.metrics().counter(d.replicas[0], psmr::PSMR_DEP_EXECS);
        println!(
            "  {:<11} | {:9.1} | {:>9} | {:>10}",
            model.label(),
            done as f64 / 1e3,
            format!("{lat}"),
            deps
        );

        // Replicas must agree on what ran, in which per-domain order,
        // and on the resulting state — the ch. 6 safety argument.
        let stores = d.stores(&sim);
        let (a, b) = (stores[0], stores[1]);
        assert_eq!(a.digest(), b.digest(), "replica execution orders diverged");
        assert_eq!(a.snapshot(), b.snapshot(), "replica states diverged");
    }

    println!("\nP-SMR executes independent commands on all four workers concurrently;");
    println!("each dependent command barriers the workers (Fig. 6.2's synchronized mode).");
}
