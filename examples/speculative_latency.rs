//! Speculative execution (thesis §4.2.1): replicas execute commands the
//! moment the payload arrives, overlapping execution with the ordering
//! protocol; the response waits for the order to be confirmed. The
//! saving is min(ordering time Δo, execution time Δe).
//!
//! ```text
//! cargo run --release --example speculative_latency
//! ```

use hpsmr_core::deploy::{deploy_smr, SmrOptions};
use hpsmr_core::{SMR_ROLLBACKS, SMR_SPEC_EXEC};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED, SESSION_LATENCY};

fn run(speculative: bool, n_clients: usize) -> (Dur, f64, u64, u64) {
    let secs = 2;
    let mut sim = Sim::new(SimConfig::default());
    let opts = SmrOptions {
        n_replicas: 2,
        n_clients,
        workload: WorkloadKind::InsDelBatch,
        speculative,
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(secs));
    let lat = sim.metrics().latency(SESSION_LATENCY).mean;
    let done: u64 = d.tables.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum();
    let spec: u64 = d.all_replicas().iter().map(|&r| sim.metrics().counter(r, SMR_SPEC_EXEC)).sum();
    let rb: u64 = d.all_replicas().iter().map(|&r| sim.metrics().counter(r, SMR_ROLLBACKS)).sum();
    (lat, done as f64 / secs as f64 / 1e3, spec, rb)
}

fn main() {
    println!("Batched updates (7 per command), 2 replicas:");
    println!(
        "{:>8} | {:>12} {:>12} | {:>12} {:>12}",
        "clients", "plain lat", "spec lat", "plain Kcps", "spec Kcps"
    );
    for &n in &[10usize, 40, 80] {
        let (plat, ptput, _, _) = run(false, n);
        let (slat, stput, spec, rb) = run(true, n);
        println!(
            "{n:>8} | {plat:>12} {slat:>12} | {ptput:>12.1} {stput:>12.1}   (speculated {spec}, rolled back {rb})"
        );
    }
    println!();
    println!("With a stable coordinator the arrival order always matches the");
    println!("decided order, so speculation never rolls back (§4.2.1) — the");
    println!("response is simply released earlier, and by Little's law the");
    println!("same client population completes more commands per second.");
}
