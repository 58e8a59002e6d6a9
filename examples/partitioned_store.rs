//! State partitioning (thesis §4.2.2, the DSN 2011 headline): the
//! B⁺-tree is split into partitions replicated independently, while one
//! Ring Paxos coordinator still totally orders everything — so
//! cross-partition range queries stay linearizable.
//!
//! ```text
//! cargo run --release --example partitioned_store
//! ```

use hpsmr_core::deploy::{deploy_smr, PartitionOptions, SmrOptions};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED};

fn run(partitions: Option<PartitionOptions>, label: &str) -> f64 {
    let secs = 2;
    let mut sim = Sim::new(SimConfig::default());
    let opts = SmrOptions {
        n_replicas: 2,
        n_clients: 150,
        workload: WorkloadKind::Queries,
        partitions,
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(secs));
    let done: u64 = d.tables.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
    let kcps = done as f64 / secs as f64 / 1e3;
    println!("  {label:<28}: {kcps:>6.1} Kcps");
    if partitions.is_some() {
        d.log.lock().unwrap().check_partial_order().expect("cross-partition order acyclic");
    }
    kcps
}

fn main() {
    println!("B+-tree, Queries workload, 150 closed-loop clients:");
    let base = run(None, "full replication (SMR)");
    let two = run(
        Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 0 }),
        "2 partitions, 0% cross",
    );
    let four = run(
        Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        "4 partitions, 0% cross",
    );
    let cross = run(
        Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 50 }),
        "2 partitions, 50% cross",
    );
    println!();
    println!(
        "Speedups over SMR: 2P = {:.1}x, 4P = {:.1}x (paper: 2.1x / 3.9x).",
        two / base,
        four / base
    );
    println!("Cross-partition queries ({:.1} Kcps) split into sub-commands,", cross);
    println!("execute on each partition, and merge at the client — still");
    println!("totally ordered by the single coordinator, so linearizability");
    println!("holds (the acyclicity check above just verified it).");
}
