//! Client-side failover regression: a ring coordinator crashes mid-run
//! and the closed-loop clients must ride it out — the ordering layer
//! elects a new coordinator (M-Ring takeover), and the clients re-find
//! it by rotating their bounded-backoff retries across ring members,
//! who relay proposals to the coordinator of their current view.

use simnet::prelude::*;

use psmr::{deploy_parallel, ExecModel, ParallelDeployment, ParallelOptions, PsmrWorkload};
use workload::{SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SUBMITTED};

fn completed(sim: &Sim, d: &ParallelDeployment) -> u64 {
    d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum()
}

fn submitted(sim: &Sim, d: &ParallelDeployment) -> u64 {
    d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_SUBMITTED)).sum()
}

fn run_with_coordinator_crash(model: ExecModel, groups: usize) -> (Sim, ParallelDeployment) {
    let mut cfg = SimConfig::default();
    cfg.cores_per_node = model.cores_needed().max(4);
    let mut sim = Sim::new(cfg);
    let opts = ParallelOptions {
        model,
        n_clients: 12,
        n_replicas: 2,
        workload: PsmrWorkload { n_groups: groups, dep_pct: 20, ..PsmrWorkload::default() },
        stop_at: Some(Time::from_millis(2000)),
        ..ParallelOptions::default()
    };
    let d = deploy_parallel(&mut sim, &opts);

    sim.run_until(Time::from_millis(500));
    let at_crash = completed(&sim, &d);
    assert!(at_crash > 0, "commands must flow before the crash");
    // Unplanned crash of ring 0's coordinator (an acceptor node, not a
    // replica): the deployment-time submission point goes dark.
    sim.set_node_up(d.coordinators[0], false);

    // Suspicion (200 ms) + takeover + client retry rotation: commands
    // must be completing again well before the load stops.
    sim.run_until(Time::from_millis(1800));
    let after = completed(&sim, &d);
    assert!(
        after > at_crash + 50,
        "clients must re-find the leader and complete commands: {at_crash} -> {after}"
    );

    sim.run_until(Time::from_secs(4));
    (sim, d)
}

fn check_no_duplicate_apply(sim: &Sim, d: &ParallelDeployment) {
    // Retried proposals reach the ring more than once; the ordering
    // layer and replicas must apply each command exactly once. A
    // duplicate apply shows up either as a digest divergence or as more
    // executions than distinct submissions.
    let sub = submitted(sim, d);
    let stores = d.stores(sim);
    let (a, b) = (stores[0], stores[1]);
    assert_eq!(a.executed(), b.executed(), "replica executed-count divergence");
    assert_eq!(a.digest(), b.digest(), "replica execution-order divergence");
    assert!(
        a.executed() <= sub,
        "replicas executed {} commands but only {sub} were submitted — duplicate apply",
        a.executed()
    );
    assert!(a.executed() >= completed(sim, d), "fewer executions than client completions");
}

#[test]
fn single_ring_clients_survive_coordinator_failover() {
    let (sim, d) = run_with_coordinator_crash(ExecModel::Sequential, 4);
    let retries: u64 = d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_RETRIES)).sum();
    assert!(retries > 0, "the outage must have triggered client retries");
    check_no_duplicate_apply(&sim, &d);
}

#[test]
fn psmr_clients_survive_one_group_coordinator_failover() {
    let (sim, d) = run_with_coordinator_crash(ExecModel::Psmr { workers: 4 }, 4);
    check_no_duplicate_apply(&sim, &d);
}
