//! Session-tier gates (ISSUE 10): the open-loop arrival sequence is a
//! pure function of the seed, and mass sessions ride out a coordinator
//! failover injected by a [`FaultPlan`].

use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use simnet::prelude::*;
use workload::{
    SESSIONS_ARRIVAL_US, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SHED, SESSIONS_SUBMITTED,
    SESSION_LATENCY,
};

fn options() -> SessionOptions {
    SessionOptions {
        n_tables: 2,
        sessions_per_table: 1_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(300)),
        ..SessionOptions::default()
    }
}

/// The arrival pin: per-table `(submitted, Σ arrival µs)`. Together
/// these commit to the whole arrival sequence — a single arrival moved,
/// added, or dropped changes the sum.
fn arrival_pin(sim: &Sim, d: &SessionDeployment) -> Vec<(u64, u64)> {
    d.tables
        .iter()
        .map(|&t| {
            (
                sim.metrics().counter(t, SESSIONS_SUBMITTED),
                sim.metrics().counter(t, SESSIONS_ARRIVAL_US),
            )
        })
        .collect()
}

fn counters(sim: &Sim) -> Vec<(usize, String, u64)> {
    let mut v = Vec::new();
    sim.metrics().for_each_counter(|node, name, val| v.push((node.0, name.to_string(), val)));
    v
}

fn run() -> (Sim, SessionDeployment) {
    let mut sim = Sim::new(SimConfig::default());
    let d = deploy_smr_sessions(&mut sim, &options());
    sim.run_until(Time::from_millis(400));
    (sim, d)
}

#[test]
fn open_loop_arrivals_are_pure_in_seed() {
    let (one, d1) = run();
    let (two, d2) = run();

    let pin = arrival_pin(&one, &d1);
    assert!(pin.iter().all(|&(sub, _)| sub > 500), "arrivals must flow: {pin:?}");
    // No arrival may be shed (a shed skips the generator's RNG draws,
    // which would legitimately fork the stream).
    let shed: u64 = d1.tables.iter().map(|&t| one.metrics().counter(t, SESSIONS_SHED)).sum();
    assert_eq!(shed, 0, "shedding would perturb the pin");
    assert_eq!(pin, arrival_pin(&two, &d2), "arrival sequence diverged");
    // The whole counter surface matches, not just the arrival pin.
    assert_eq!(counters(&one), counters(&two));
}

#[test]
fn sessions_ride_out_coordinator_failover() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SessionOptions {
        n_tables: 2,
        sessions_per_table: 10_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(1800)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let completed = |sim: &Sim| -> u64 {
        d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_COMPLETED)).sum()
    };

    sim.run_until(Time::from_millis(500));
    let at_crash = completed(&sim);
    assert!(at_crash > 0, "requests must flow before the crash");

    // Scheduled mid-run crash of the ring coordinator: suspicion
    // (200 ms) + M-Ring takeover + the tables' retry rotation across
    // surviving ring members must get requests completing again.
    FaultPlan::new().at(Time::from_millis(500), FaultAction::Crash(d.coordinator())).run(
        &mut sim,
        Time::from_millis(2500),
        |_, _| {},
    );

    let after = completed(&sim);
    assert!(
        after > at_crash + 500,
        "sessions must re-find the leader and keep completing: {at_crash} -> {after}"
    );
    let retries: u64 = d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_RETRIES)).sum();
    assert!(retries > 0, "the outage must have triggered deadline retries");

    // The latency histogram backs p50/p99/p999 reporting.
    for frac in [0.50, 0.99, 0.999] {
        assert!(
            sim.metrics().percentile(SESSION_LATENCY, frac).is_some(),
            "missing p{frac} of session latency"
        );
    }
    let (p50, p99) = (
        sim.metrics().percentile(SESSION_LATENCY, 0.50).unwrap(),
        sim.metrics().percentile(SESSION_LATENCY, 0.99).unwrap(),
    );
    assert!(p50 <= p99, "quantiles must be monotone: {p50:?} > {p99:?}");
}

/// Pins a finding, not a fix (ROADMAP open items, "eviction means
/// loss"): under partitioning a replica sees only its partition's slice
/// of each table's dense seq, so its duplicate filter never advances a
/// watermark, fills to `MAX_OVERFLOW` and from then on evicts on every
/// delivery. The counter makes that visible; full replication (every
/// learner sees every seq) stays at zero.
#[test]
fn partitioned_replicas_evict_from_the_dedup_window() {
    let evictions = |partitions: Option<PartitionOptions>| -> (u64, u64) {
        let mut sim = Sim::new(SimConfig::default());
        let opts = SessionOptions {
            n_tables: 2,
            sessions_per_table: 10_000,
            rate_per_table: 15_000.0,
            partitions,
            stop_at: Some(Time::from_millis(900)),
            ..SessionOptions::default()
        };
        let d = deploy_smr_sessions(&mut sim, &opts);
        sim.run_until(Time::from_secs(1));
        let sum = |nodes: &[NodeId], name: &'static str| -> u64 {
            nodes.iter().map(|&n| sim.metrics().counter(n, name)).sum()
        };
        (sum(&d.tables, SESSIONS_COMPLETED), sum(&d.cfg.learners, "rp.dedup_evict"))
    };

    let (completed, evicted) = evictions(None);
    assert!(completed > 20_000, "scenario: {completed} commands completed");
    assert_eq!(evicted, 0, "a learner that sees every seq never parks one");

    let four = PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 };
    let (completed, evicted) = evictions(Some(four));
    assert!(completed > 20_000, "scenario: {completed} commands completed");
    assert!(evicted > 0, "each replica delivered > MAX_OVERFLOW sliced seqs without evicting");
}

/// The session tier has no cross-partition rule: a `cross_pct` it would
/// ignore is refused at deployment instead.
#[test]
#[should_panic(expected = "cross_pct must be 0")]
fn the_session_tier_refuses_cross_partition_commands() {
    let mut sim = Sim::new(SimConfig::default());
    let partitions = Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 10 });
    deploy_smr_sessions(&mut sim, &SessionOptions { partitions, ..options() });
}
