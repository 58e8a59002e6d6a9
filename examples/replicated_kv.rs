//! The paper's replicated B⁺-tree service under full state-machine
//! replication: closed-loop clients issue range queries against two
//! replicas ordered by M-Ring Paxos, next to a stand-alone server
//! handling the same load (the CS baseline of Fig. 4.1).
//!
//! ```text
//! cargo run --release --example replicated_kv
//! ```

use hpsmr_core::deploy::{deploy_cs, deploy_smr, SmrOptions};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED, SESSION_LATENCY};

fn run_cs(clients: usize, secs: u64) -> (f64, Dur) {
    let mut sim = Sim::new(SimConfig::default());
    let cs = deploy_cs(&mut sim, clients, WorkloadKind::Queries, None);
    sim.run_until(Time::from_secs(secs));
    let done: u64 = cs.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
    (done as f64 / secs as f64 / 1e3, sim.metrics().latency(SESSION_LATENCY).mean)
}

fn run_smr(clients: usize, secs: u64) -> (f64, Dur, bool) {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SmrOptions {
        n_replicas: 2,
        n_clients: clients,
        workload: WorkloadKind::Queries,
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(secs));
    let done: u64 = d.tables.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
    let ordered = d.log.lock().unwrap().check_total_order().is_ok();
    (done as f64 / secs as f64 / 1e3, sim.metrics().latency(SESSION_LATENCY).mean, ordered)
}

fn main() {
    let secs = 2;

    // Light load: the latency comparison (neither side saturated).
    let (_, cs_light) = run_cs(2, secs);
    let (_, smr_light, _) = run_smr(2, secs);
    println!("Replicated B+-tree, Queries workload ({secs}s each):");
    println!("  light load (2 clients) — the cost of ordering:");
    println!("    client-server latency : {cs_light}");
    println!("    SMR (2 repl.) latency : {smr_light}");

    // Heavy load: the throughput comparison (reads spread over replicas).
    let (cs_kcps, _) = run_cs(20, secs);
    let (smr_kcps, _, ordered) = run_smr(20, secs);
    println!("  heavy load (20 clients) — read-only throughput:");
    println!("    client-server : {cs_kcps:>5.1} Kcps (one server saturates)");
    println!("    SMR (2 repl.) : {smr_kcps:>5.1} Kcps (designated replicas split the reads)");
    println!();
    println!("Ordering costs latency (thesis Fig. 4.1 left); replication");
    println!("pays it back on read throughput (Fig. 4.1 right). See the");
    println!("speculative_latency example for narrowing the latency gap.");
    assert!(ordered, "replicas must agree on the order");
    println!("Replica order agreement: verified.");
}
