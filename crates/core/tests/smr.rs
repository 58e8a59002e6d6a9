//! End-to-end tests of the DSN 2011 techniques: replication cost,
//! speculative execution, and state partitioning.

use hpsmr_core::deploy::{deploy_cs, deploy_smr, PartitionOptions, SmrOptions};
use hpsmr_core::SMR_SPEC_EXEC;
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSION_LATENCY};

fn completed(sim: &Sim, clients: &[NodeId]) -> u64 {
    clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum()
}

fn run_cs(workload: WorkloadKind, n_clients: usize, secs: u64) -> (f64, Dur) {
    let mut sim = Sim::new(SimConfig::default());
    let d = deploy_cs(&mut sim, n_clients, workload, None);
    sim.run_until(Time::from_secs(secs));
    let done = completed(&sim, &d.clients);
    let lat = sim.metrics().latency(SESSION_LATENCY).mean;
    (done as f64 / secs as f64, lat)
}

fn run_smr(opts: SmrOptions, secs: u64) -> (f64, Dur, u64) {
    let mut sim = Sim::new(SimConfig::default());
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(secs));
    let done = completed(&sim, &d.tables);
    let lat = sim.metrics().latency(SESSION_LATENCY).mean;
    let retries: u64 = d.tables.iter().map(|&c| sim.metrics().counter(c, SESSIONS_RETRIES)).sum();
    (done as f64 / secs as f64, lat, retries)
}

#[test]
fn cs_baseline_reaches_paper_plateaus() {
    // Fig 4.3: CS queries plateau ~3.5 Kcps; single updates ~55 Kcps.
    let (q_tput, _) = run_cs(WorkloadKind::Queries, 40, 2);
    assert!((2_000.0..5_000.0).contains(&q_tput), "CS query throughput {q_tput:.0} cps");
    let (u_tput, _) = run_cs(WorkloadKind::InsDelSingle, 100, 2);
    assert!((30_000.0..90_000.0).contains(&u_tput), "CS update throughput {u_tput:.0} cps");
}

#[test]
fn replication_adds_latency_over_cs() {
    // Fig 4.1 left: at light load (neither system saturated), SMR
    // latency exceeds CS latency — the cost of ordering.
    let (_, cs_lat) = run_cs(WorkloadKind::Queries, 2, 2);
    let opts = SmrOptions {
        n_replicas: 2,
        n_clients: 2,
        workload: WorkloadKind::Queries,
        ..SmrOptions::default()
    };
    let (_, smr_lat, retries) = run_smr(opts, 2);
    assert_eq!(retries, 0, "no client should have needed a retry");
    assert!(smr_lat > cs_lat, "SMR latency {smr_lat:?} should exceed CS latency {cs_lat:?}");
    assert!(smr_lat < cs_lat + Dur::millis(5), "ordering overhead implausibly large");
}

#[test]
fn replicas_deliver_identical_orders() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SmrOptions {
        n_replicas: 4,
        n_clients: 30,
        workload: WorkloadKind::InsDelSingle,
        stop_at: Some(Time::from_millis(1500)),
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(2));
    {
        let log = d.log.lock().unwrap();
        assert!(log.total_deliveries() > 1000);
        log.check_total_order().expect("replicas must agree on the command order");
    }
    // The same order applied to the same tree: the same tree.
    let states = d.replica_states(&sim).remove(0);
    assert!(states[0].updates > 250, "{states:?}");
    assert!(states.iter().all(|s| *s == states[0]), "replica states differ: {states:?}");
}

#[test]
fn speculation_reduces_latency_not_correctness() {
    // Fig 4.5/4.6: speculative replicas answer sooner; throughput gains
    // follow from Little's law.
    let base = SmrOptions {
        n_replicas: 2,
        n_clients: 40,
        workload: WorkloadKind::InsDelBatch,
        ..SmrOptions::default()
    };
    let plain = SmrOptions { speculative: false, ..base.clone() };
    let spec = SmrOptions { speculative: true, ..base };
    let (plain_tput, plain_lat, _) = run_smr(plain, 2);
    let (spec_tput, spec_lat, _) = run_smr(spec, 2);
    assert!(spec_lat < plain_lat, "speculation should cut latency: {spec_lat:?} vs {plain_lat:?}");
    assert!(
        spec_tput >= plain_tput * 0.95,
        "speculation must not lose throughput: {spec_tput:.0} vs {plain_tput:.0}"
    );
}

#[test]
fn speculative_replicas_actually_speculate_and_agree() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SmrOptions {
        n_replicas: 2,
        n_clients: 20,
        workload: WorkloadKind::Queries,
        speculative: true,
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(2));
    let spec: u64 = d.all_replicas().iter().map(|&r| sim.metrics().counter(r, SMR_SPEC_EXEC)).sum();
    assert!(spec > 500, "replicas speculated only {spec} commands");
    d.log.lock().unwrap().check_total_order().expect("order preserved under speculation");
    // In stable runs the coordinator never changes, so the paper's claim
    // holds: the speculated order is always confirmed.
    let rollbacks: u64 =
        d.all_replicas().iter().map(|&r| sim.metrics().counter(r, hpsmr_core::SMR_ROLLBACKS)).sum();
    assert_eq!(rollbacks, 0, "stable-coordinator runs must not roll back");
}

#[test]
fn partitioning_scales_query_throughput() {
    // Fig 4.7: 2 partitions ~2x, 4 partitions ~4x over full replication.
    let full = SmrOptions {
        n_replicas: 2,
        n_clients: 150,
        workload: WorkloadKind::Queries,
        ..SmrOptions::default()
    };
    let (full_tput, _, _) = run_smr(full.clone(), 2);
    let two = SmrOptions {
        partitions: Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 0 }),
        ..full.clone()
    };
    let (two_tput, _, _) = run_smr(two, 2);
    let four = SmrOptions {
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        ..full
    };
    let (four_tput, _, _) = run_smr(four, 2);
    assert!(
        two_tput > 1.5 * full_tput,
        "2 partitions should ~double throughput: {full_tput:.0} -> {two_tput:.0}"
    );
    assert!(
        four_tput > 2.5 * full_tput,
        "4 partitions should scale further: {full_tput:.0} -> {four_tput:.0}"
    );
}

#[test]
fn cross_partition_queries_merge_and_preserve_order() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SmrOptions {
        n_clients: 60,
        workload: WorkloadKind::Queries,
        partitions: Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 50 }),
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_secs(2));
    let done = completed(&sim, &d.tables);
    assert!(done > 2000, "only {done} cross-partition commands completed");
    // §4.2.2's state-partitioning ordering: common (cross-partition)
    // commands appear in the same relative order at every partition.
    d.log.lock().unwrap().check_partial_order().expect("acyclic cross-partition order");
    let retries: u64 = d.tables.iter().map(|&c| sim.metrics().counter(c, SESSIONS_RETRIES)).sum();
    assert_eq!(retries, 0);
}

#[test]
fn speculation_plus_partitioning_compose() {
    // Fig 4.10: both techniques together still work and cut latency.
    let base = SmrOptions {
        n_clients: 60,
        workload: WorkloadKind::Queries,
        partitions: Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 25 }),
        ..SmrOptions::default()
    };
    let (_, plain_lat, _) = run_smr(SmrOptions { speculative: false, ..base.clone() }, 2);
    let (_, spec_lat, _) = run_smr(SmrOptions { speculative: true, ..base }, 2);
    assert!(
        spec_lat <= plain_lat,
        "speculation should not hurt partitioned latency: {spec_lat:?} vs {plain_lat:?}"
    );
}

#[test]
fn deterministic_deployments() {
    let run = || {
        let mut sim = Sim::new(SimConfig::default());
        let opts = SmrOptions { n_clients: 10, ..SmrOptions::default() };
        let d = deploy_smr(&mut sim, &opts);
        sim.run_until(Time::from_secs(1));
        completed(&sim, &d.tables)
    };
    assert_eq!(run(), run());
}
