//! Reading replicas does not perturb the run: `replica_states` reads each
//! replica's state off its actor, schedules nothing, and reads a crashed
//! replica as it was when it went down.

#[path = "../../ringpaxos/tests/golden/mod.rs"]
mod golden;

use golden::{harvest, Golden};
use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSION_LATENCY};

/// The update golden trace's shape: 8 tables of open-loop Zipf(0.99)
/// sessions at 24 k req/s over a 4 × 2 partitioned tree, arrivals
/// stopped at 200 ms.
fn deploy(sim: &mut Sim) -> SessionDeployment {
    let opts = SessionOptions {
        kind: WorkloadKind::InsDelSingle,
        n_tables: 8,
        sessions_per_table: 125_000,
        rate_per_table: 3_000.0,
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        stop_at: Some(Time::from_millis(200)),
        ..SessionOptions::default()
    };
    deploy_smr_sessions(sim, &opts)
}

/// Runs to 300 ms, reading every replica's state at 100 ms if `read`.
fn run(read: bool) -> Golden {
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let d = deploy(&mut sim);
    sim.run_until(Time::from_millis(100));
    if read {
        let states = d.replica_states(&sim);
        assert!(states.iter().flatten().all(|s| s.updates > 0), "{states:?}");
    }
    sim.run_until(Time::from_millis(300));
    let mut got = harvest(&sim, &d.all_replicas(), SESSION_LATENCY);
    got.digests = d.replica_states(&sim).into_iter().flatten().map(|s| s.digest).collect();
    got
}

#[test]
fn reading_replica_states_dispatches_no_event() {
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let d = deploy(&mut sim);
    sim.run_until(Time::from_millis(100));
    let events = sim.events_processed();
    let _ = d.replica_states(&sim);
    assert_eq!(sim.events_processed(), events);
}

#[test]
fn a_run_read_mid_way_harvests_what_an_unread_run_does() {
    assert_eq!(run(true), run(false));
}

#[test]
fn a_crashed_replica_reports_the_state_it_crashed_with() {
    let crash = Time::from_millis(100);
    // The same seeded run, read at the crash instant.
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let d = deploy(&mut sim);
    sim.run_until(crash);
    let at_crash = d.replica_states(&sim)[0].clone();
    assert!(at_crash[0].updates > 0, "{at_crash:?}");

    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let d = deploy(&mut sim);
    sim.run_until(crash);
    let victim = d.replicas[0][0];
    sim.set_node_up(victim, false);
    sim.run_until(Time::from_millis(300));
    let after = d.replica_states(&sim)[0].clone();
    assert_eq!(after[0], at_crash[0], "the crashed replica's state moved");
    assert!(after[1].updates > at_crash[1].updates, "its peer went on: {after:?}");
}
